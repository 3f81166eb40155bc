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
from flatqed.dynamics import _initial_state, propagate
from flatqed.greens import resolvent_form
from flatqed.lattice import LatticeModel


@dataclass(frozen=True)
class InteractionMatrix:
    """Emitter-emitter coupling matrix K_ij."""

    emitters: tuple[EmitterSpec, ...]
    K: np.ndarray

    @property
    def n(self) -> int:
        return len(self.emitters)


@dataclass(frozen=True)
class SpinTrace:
    """Emitter amplitudes c_n(t) under the effective spin Hamiltonian."""

    t_grid: np.ndarray
    amplitudes: np.ndarray       # shape (n_t, n_emitters)
    norm_residual: float

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _common_emitters(model: LatticeModel, emitters: Sequence[EmitterSpec]
                     ) -> tuple[tuple[EmitterSpec, ...], float, float]:
    """The emitters as a non-empty tuple, with their common omega0 and
    |g|; raises ``ValueError`` when they differ."""
    emitters = tuple(emitters)
    if not emitters:
        raise ValueError("need at least one emitter")
    omega0 = emitters[0].omega0
    gbar = emitters[0].gbar
    for em in emitters[1:]:
        if abs(em.omega0 - omega0) > 1e-12 * model.J:
            raise ValueError("emitters require a common omega0")
        if abs(em.gbar - gbar) > 1e-12 * gbar:
            raise ValueError("emitters require identical |g|")
    return emitters, omega0, gbar


def interaction_matrix(model: LatticeModel, emitters: Sequence[EmitterSpec],
                       exact_pole: bool = False) -> InteractionMatrix:
    """K_ij = g <chi_i | psi_BS,j> for emitters sharing omega0 and |g|.

    By default psi_BS,j is evaluated at the bare frequency omega0 (leading
    order in g); ``exact_pole=True`` uses each emitter's solved pole instead."""
    emitters, omega0, gbar = _common_emitters(model, emitters)
    chis = np.column_stack([em.chi(model.n_sites) for em in emitters])
    omegas = [solve_pole(model, em) if exact_pole else omega0
              for em in emitters]
    K = gbar ** 2 * resolvent_form(model, omegas, chis)
    return InteractionMatrix(emitters=emitters, K=K.astype(complex))


def spin_dynamics(H_eff: np.ndarray, initial: int | np.ndarray,
                  t_grid: np.ndarray) -> SpinTrace:
    """Exact c(t) = exp(-i H_eff t) c(0) via :func:`flatqed.dynamics.propagate`.

    ``initial`` is a spin index or an amplitude vector; it is normalized
    before use."""
    H_eff = np.asarray(H_eff, dtype=complex)
    if (H_eff.ndim != 2 or H_eff.shape[0] != H_eff.shape[1]
            or not np.isfinite(H_eff).all()
            or np.max(np.abs(H_eff - H_eff.conj().T))
            > 1e-12 * max(1.0, np.max(np.abs(H_eff)))):
        raise ValueError("H_eff must be a finite square Hermitian matrix")
    n = H_eff.shape[0]
    c0, t_grid = _initial_state(initial, n, n, t_grid)
    amps, norm_residual = propagate(H_eff, c0, t_grid)
    return SpinTrace(t_grid=t_grid, amplitudes=amps, norm_residual=norm_residual)


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
