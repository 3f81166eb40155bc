"""Photon-mediated interactions between dispersively coupled emitters.

For emitters detuned into a gap, second-order elimination of the bath gives a
spin model whose coupling matrix is set by the overlap of each emitter's site
state with its neighbours' bound states:

    K_ij = g <chi_i | psi_BS,j>,    psi_BS,j = g G_B(omega0) chi_j,

with the diagonal K_ii a Lamb-shift-like term.  The effective single-
excitation Hamiltonian is H_eff[i, j] = K_ij (no extra 1/2: the spin sum is
restricted to i > j plus hermitian conjugate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from flatqed.boundstate import EmitterSpec, solve_pole
from flatqed.dynamics import propagate
from flatqed.greens import resolvent_form
from flatqed.lattice import LatticeModel


@dataclass(frozen=True)
class InteractionMatrix:
    """Emitter-emitter coupling matrix K_ij and the convention that built it.

    ``convention`` records the prefactor choice ("K_ij = g<chi_i|psi_BS,j>,
    restricted spin sum"); ``exact_pole`` says whether psi_BS was evaluated at
    the solved pole instead of the leading-order energy omega0."""

    emitters: tuple[EmitterSpec, ...]
    K: np.ndarray
    convention: str = "K_ij = g<chi_i|psi_BS_j>; H = sum_{i>j} K_ij s_i+ s_j- + h.c."
    exact_pole: bool = False

    @property
    def n(self) -> int:
        return len(self.emitters)

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.K - self.K.conj().T)))


@dataclass(frozen=True)
class SpinTrace:
    """Emitter amplitudes c_n(t) under the effective spin Hamiltonian."""

    t_grid: np.ndarray
    amplitudes: np.ndarray       # shape (n_t, n_emitters)
    norm_residual: float

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def interaction_matrix(model: LatticeModel, emitters: Sequence[EmitterSpec],
                       exact_pole: bool = False) -> InteractionMatrix:
    """K_ij = g <chi_i | psi_BS,j> for emitters sharing omega0 and |g|.

    By default psi_BS,j is evaluated at the bare frequency omega0 (leading
    order in g); ``exact_pole=True`` uses each emitter's solved pole instead."""
    emitters = tuple(emitters)
    if not emitters:
        raise ValueError("need at least one emitter")
    omega0 = emitters[0].omega0
    gbar = emitters[0].gbar
    for em in emitters[1:]:
        if abs(em.omega0 - omega0) > 1e-12 * model.J:
            raise ValueError("interaction_matrix requires a common omega0")
        if abs(em.gbar - gbar) > 1e-12 * gbar:
            raise ValueError("interaction_matrix requires identical |g|")
    chis = np.column_stack([em.chi(model.n_sites) for em in emitters])
    omegas = [solve_pole(model, em) if exact_pole else omega0
              for em in emitters]
    K = gbar ** 2 * resolvent_form(model, omegas, chis)
    return InteractionMatrix(emitters=emitters, K=K.astype(complex),
                             exact_pole=exact_pole)


def spin_dynamics(H_eff: np.ndarray, initial: int | np.ndarray,
                  t_grid: np.ndarray) -> SpinTrace:
    """Exact c(t) = exp(-i H_eff t) c(0) via :func:`flatqed.dynamics.propagate`."""
    H_eff = np.asarray(H_eff, dtype=complex)
    if np.max(np.abs(H_eff - H_eff.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(H_eff))):
        raise ValueError("H_eff must be Hermitian")
    n = H_eff.shape[0]
    if isinstance(initial, (int, np.integer)):
        c0 = np.zeros(n, dtype=complex)
        c0[int(initial)] = 1.0
    else:
        c0 = np.asarray(initial, dtype=complex)
        c0 = c0 / np.linalg.norm(c0)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t_grid).all():
        raise ValueError("times must be finite")
    amps, norm_residual = propagate(H_eff, c0, t_grid)
    return SpinTrace(t_grid=t_grid, amplitudes=amps, norm_residual=norm_residual)


def kappa_couplings(g: float, delta_fb: float, Delta: float) -> tuple[float, float]:
    """Nearest- and next-nearest-neighbour couplings of the stub giant chain:

        kappa_1 = g^2/delta_FB * (4 + Delta)/(2 + Delta)^2,
        kappa_2 = kappa_1 / (4 + Delta).
    """
    kappa1 = g ** 2 / delta_fb * (4.0 + Delta) / (2.0 + Delta) ** 2
    return kappa1, kappa1 / (4.0 + Delta)


def bessel_chain_amplitudes(n: np.ndarray, t: float, kappa1: float) -> np.ndarray:
    """Closed form for a translation-invariant NN spin chain started on site 0:

        c_n(t) = i^n J_n(-2 kappa_1 t).

    J_m(x) is coefficient m of the Fourier series of e^{i x sin tau}; the
    M-point FFT of that function (a periodic trapezoid rule) gives it to
    round-off for |m| <= max|n|, since the aliased terms J_{m +- M}(x) are
    negligible once M = 2(|x| + max|n| + 40) (Trefethen & Weideman, SIAM
    Rev. 56, 385 (2014))."""
    n = np.asarray(n)
    x = -2.0 * kappa1 * t
    M = 2 * (math.ceil(abs(x)) + int(np.abs(n).max(initial=0)) + 40)
    tau = 2.0 * np.pi * np.arange(M) / M
    jm = np.fft.fft(np.exp(1j * x * np.sin(tau))).real / M
    return (1j ** n) * jm[n]
