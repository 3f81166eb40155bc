"""Exact single-excitation dynamics and vacuum Rabi analysis.

The full emitters+bath single-excitation Hamiltonian is diagonalized once by
:func:`propagate` (shared with the effective spin model); time evolution is
then exact at every requested time.  On resonance with an isolated flat band
the atomic population oscillates as cos^2(Omega t) with

    Omega = g sqrt(<chi| P_FB |chi>),

the coupling of the emitter to its single effective flat-band mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from flatqed.boundstate import EmitterSpec, total_hamiltonian
from flatqed.greens import fb_project, spectral_amplitudes, synthesize
from flatqed.lattice import LatticeModel


@dataclass(frozen=True)
class TimeSeries:
    """Exact evolution output: atomic populations (and optional photon field)."""

    t_grid: np.ndarray
    atom_populations: np.ndarray       # shape (n_t, n_emitters)
    norm_residual: float
    photon_populations: np.ndarray | None = None   # shape (n_t, n_sites)


def propagate(H: np.ndarray, c0: np.ndarray,
              t_grid: np.ndarray) -> tuple[np.ndarray, float]:
    """Amplitudes exp(-i H t) c0 at every t, of shape (n_t, dim), and the
    largest deviation of their squared norm from 1.

    A Hermitian H without imaginary part is diagonalized as a real matrix,
    and its real eigenvectors are never cast to complex."""
    if not H.imag.any():
        H = H.real
    w, U = np.linalg.eigh(H)
    amps = np.exp(-1j * np.outer(w, t_grid))       # (dim, n_t) coefficients
    amps *= spectral_amplitudes(U, c0)[:, None]
    amps = synthesize(U, amps).T
    norms = np.einsum("ij,ij->i", amps.real, amps.real)
    norms += np.einsum("ij,ij->i", amps.imag, amps.imag)
    return amps, float(np.max(np.abs(norms - 1.0)))


def evolve(model: LatticeModel, emitters: Sequence[EmitterSpec],
           initial: int | np.ndarray, t_grid: np.ndarray,
           store_photons: bool = False) -> TimeSeries:
    """Evolve a single excitation under the full atom+bath Hamiltonian.

    ``initial`` is either an emitter index or an explicit amplitude vector in
    the (emitters..., sites...) ordering; it is normalized before use."""
    emitters = tuple(emitters)
    n_e = len(emitters)
    H = total_hamiltonian(model, emitters)
    dim = H.shape[0]
    if isinstance(initial, (int, np.integer)):
        if not 0 <= int(initial) < n_e:
            raise ValueError("initial emitter index out of range")
        c0 = np.zeros(dim, dtype=complex)
        c0[int(initial)] = 1.0
    else:
        c0 = np.asarray(initial, dtype=complex)
        if c0.shape != (dim,):
            raise ValueError(f"initial state must have length {dim}")
        c0 = c0 / np.linalg.norm(c0)
    t_grid = np.asarray(t_grid, dtype=float)
    amps, norm_residual = propagate(H, c0, t_grid)
    return TimeSeries(
        t_grid=t_grid,
        atom_populations=np.abs(amps[:, :n_e]) ** 2,
        norm_residual=norm_residual,
        photon_populations=np.abs(amps[:, n_e:]) ** 2 if store_photons else None)


def rabi_frequency(model: LatticeModel, emitter: EmitterSpec,
                   omega_fb: float | None = None) -> float:
    """Omega = gbar sqrt(<chi| P_FB |chi>) for an emitter resonant with the FB."""
    if omega_fb is None:
        omega_fb = emitter.omega0
    chi = emitter.chi(model.n_sites)
    weight = float(np.vdot(chi, fb_project(model, omega_fb, chi)).real)
    return emitter.gbar * math.sqrt(max(weight, 0.0))


def fit_rabi_frequency(ts: TimeSeries, emitter_index: int = 0) -> float:
    """Extract Omega from the first minimum of P_e(t): Omega = pi / (2 t_min).

    The discrete minimum is refined by a parabola through its three
    neighbouring samples."""
    p = ts.atom_populations[:, emitter_index]
    t = ts.t_grid
    interior = np.arange(1, len(p) - 1)
    minima = interior[(p[interior] < p[interior - 1]) & (p[interior] <= p[interior + 1])]
    if minima.size == 0:
        raise ValueError("no population minimum inside the time grid")
    i = int(minima[0])
    # parabolic refinement on a (locally) uniform grid
    denom = p[i - 1] - 2.0 * p[i] + p[i + 1]
    if denom > 0:
        shift = 0.5 * (p[i - 1] - p[i + 1]) / denom
        dt = 0.5 * (t[i + 1] - t[i - 1])
        t_min = t[i] + shift * dt
    else:
        t_min = t[i]
    if t_min <= 0:
        raise ValueError("population minimum at non-positive time")
    return math.pi / (2.0 * t_min)
