"""Bath resolvent G_B(omega), flat-band projector, and the FB approximation.

The eigendecomposition H = U diag(w) U^H of each model's real-space
Hamiltonian is computed once and cached (models are immutable and hashable).
Every consumer then works on the spectral amplitudes c = U^H chi of its site
state: G_B(omega)|chi> = U (c / (omega - w)) costs two matvecs, and the
self-energy <chi|G_B(omega)|chi> = sum_a |c_a|^2 / (omega - w_a) costs O(N)
per evaluation once the weights |c_a|^2 are known.  Builders with real
hoppings give a real U, which is never cast to complex: complex vectors are
split into real and imaginary parts instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from flatqed.errors import NoFlatBand, PoleProximity
from flatqed.lattice import LatticeModel, real_space_hamiltonian

POLE_GUARD = 1e-12  # in units of J
FB_TOL = 1e-8       # flat-band selection window, in units of J


@dataclass(frozen=True)
class FlatBandProjector:
    """Hermitian idempotent projector onto the FB eigenspace."""

    P: np.ndarray
    omega_fb: float
    tol: float

    @property
    def degeneracy(self) -> int:
        return int(round(np.trace(self.P).real))


@lru_cache(maxsize=32)
def eigensystem(model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """Cached (eigenvalues, eigenvectors) of the real-space Hamiltonian."""
    w, U = np.linalg.eigh(real_space_hamiltonian(model))
    w.setflags(write=False)
    U.setflags(write=False)
    return w, U


def _check_pole(model: LatticeModel, omega: float, w: np.ndarray) -> None:
    guard = POLE_GUARD * model.J
    if np.min(np.abs(omega - w)) < guard:
        raise PoleProximity(
            f"omega = {omega} within {guard} of a bath eigenvalue")


def spectral_amplitudes(U: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """c = U^H chi for a vector or a matrix of column vectors chi.

    A real U is never cast to complex: a complex chi is split into real and
    imaginary parts, and the imaginary product is skipped when it vanishes
    (the result is then real)."""
    if np.iscomplexobj(U):
        return U.conj().T @ chi
    chi = np.asarray(chi)
    c = U.T @ chi.real
    if chi.imag.any():
        return c + 1j * (U.T @ chi.imag)
    return c


def synthesize(U: np.ndarray, c: np.ndarray) -> np.ndarray:
    """U c as a complex array, for a vector or a matrix of columns c.

    A real U multiplies the real and imaginary parts of c in one real
    product (the interleaved real view of c), so it is never cast to
    complex."""
    if np.iscomplexobj(U):
        return U @ c
    if not np.iscomplexobj(c):
        return (U @ c).astype(complex)
    c = np.ascontiguousarray(c)
    cols = c.reshape(c.shape[0], -1).view(float)
    return (U @ cols).view(complex).reshape((U.shape[0],) + c.shape[1:])


def resolvent_vector(model: LatticeModel, omega: float,
                     chi: np.ndarray) -> np.ndarray:
    """G_B(omega) |chi> for an arbitrary site-space vector |chi>."""
    w, U = eigensystem(model)
    _check_pole(model, omega, w)
    return synthesize(U, spectral_amplitudes(U, chi) / (omega - w))


def self_energy(model: LatticeModel,
                chi: np.ndarray) -> Callable[[float], float]:
    """omega -> <chi| G_B(omega) |chi> = sum_a |c_a|^2 / (omega - w_a).

    The spectral weights |c_a|^2 are computed once; each evaluation of the
    returned function is an O(N) sum and still enforces the pole guard."""
    w, U = eigensystem(model)
    weights = np.abs(spectral_amplitudes(U, chi)) ** 2

    def sigma(omega: float) -> float:
        _check_pole(model, omega, w)
        return float(np.sum(weights / (omega - w)))

    return sigma


def resolvent_form(model: LatticeModel, omegas: np.ndarray,
                   chis: np.ndarray) -> np.ndarray:
    """M_ij = <chi_i| G_B(omega_j) |chi_j> for the columns chi_j of ``chis``.

    One amplitude matrix C = U^H [chi_1 ... chi_n] serves every entry:
    M_ij = sum_a conj(C_ai) C_aj / (omega_j - w_a).  Each omega_j is checked
    against the pole guard."""
    w, U = eigensystem(model)
    omegas = np.asarray(omegas, dtype=float)
    for omega in omegas:
        _check_pole(model, float(omega), w)
    C = spectral_amplitudes(U, chis)
    return C.conj().T @ (C / (omegas[None, :] - w[:, None]))


def resolvent_element(model: LatticeModel, omega: float,
                      x: int, xp: int) -> complex:
    """<x| G_B(omega) |x'> = sum_a u_a(x) u_a*(x') / (omega - e_a)."""
    w, U = eigensystem(model)
    _check_pole(model, omega, w)
    return complex(np.sum(U[x, :] * np.conj(U[xp, :]) / (omega - w)))


def chain_green_analytic(J: float, delta: float, d: int) -> float:
    """Thermodynamic-limit chain Green's function below the band:

        G(d) = -(-1)^d / (2 sqrt(J delta)) * exp(-d / sqrt(J / delta))

    for an energy detuned by delta > 0 below the lower band edge of the
    positive-hopping chain (G(0) < 0 there).  Leading order in delta/J."""
    if delta <= 0:
        raise ValueError("detuning must be positive")
    lam = math.sqrt(J / delta)
    return -((-1) ** (d % 2)) / (2.0 * math.sqrt(J * delta)) * math.exp(-abs(d) / lam)


def _fb_columns(model: LatticeModel, omega_fb: float, tol: float) -> np.ndarray:
    """Eigenvectors of all states within ``tol * J`` of omega_fb.

    The eigenvalues are sorted, so the selection is one contiguous slice of
    U (a view, not a copy)."""
    w, U = eigensystem(model)
    sel = np.flatnonzero(np.abs(w - omega_fb) < tol * model.J)
    if not sel.size:
        raise NoFlatBand(
            f"no eigenvalues within {tol * model.J} of omega = {omega_fb}")
    return U[:, sel[0]:sel[-1] + 1]


def fb_projector(model: LatticeModel, omega_fb: float,
                 tol: float = FB_TOL) -> FlatBandProjector:
    """Sum of eigenprojectors of all states within ``tol * J`` of omega_fb."""
    V = _fb_columns(model, omega_fb, tol)
    return FlatBandProjector(P=V @ V.conj().T, omega_fb=float(omega_fb), tol=tol)


def fb_project(model: LatticeModel, omega_fb: float,
               chi: np.ndarray) -> np.ndarray:
    """P_FB |chi> = V (V^H chi) without forming the N x N projector; the
    states are those of :func:`fb_projector` at its default window."""
    V = _fb_columns(model, omega_fb, FB_TOL)
    return synthesize(V, spectral_amplitudes(V, chi))


def fb_green_approx(P: FlatBandProjector, omega: float) -> np.ndarray:
    """Single-flat-band approximation of the resolvent: P / (omega - omega_FB)."""
    denom = omega - P.omega_fb
    if denom == 0:
        raise PoleProximity("omega coincides with the flat-band energy")
    return P.P / denom
