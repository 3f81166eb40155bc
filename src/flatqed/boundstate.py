"""Atom-photon bound states: pole equation, wavefunction, localization fits.

An emitter with transition frequency omega0 couples to the bath through a
normalized site state |chi> (one site for a small atom, several for a giant
atom) with collective strength gbar.  In a spectral gap the dressed bound
state solves

    omega_BS = omega0 + gbar^2 <chi| G_B(omega_BS) |chi>,

and its photonic wavefunction is psi = gbar G_B(omega_BS) |chi| up to joint
normalization with the atomic amplitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from flatqed.errors import ConfigError, InsufficientData, NoRootInGap
from flatqed.flatband import cls_set
from flatqed.greens import (POLE_GUARD, resolvent_vector, self_energy,
                            spectral_basis)
from flatqed.lattice import LatticeModel, site_index


@dataclass(frozen=True)
class EmitterSpec:
    """Transition frequency and coupling pattern of one emitter.

    ``couplings`` is a nonempty tuple of (flat site index, complex amplitude);
    one entry makes a small atom, several make a giant atom.  Each site must
    be an integer >= 0 (a bool or a float is a ``ValueError``).  The
    amplitudes of a repeated site are summed once, in coupling order, when
    the emitter is made: ``couplings`` holds one entry per site, and every
    reader (gbar, chi, the profile origin, K, the dynamics) sees that set."""

    omega0: float
    couplings: tuple[tuple[int, complex], ...]
    gbar: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.couplings:
            raise ValueError("emitter needs at least one coupling")
        if not (math.isfinite(self.omega0)
                and all(cmath.isfinite(g) for _x, g in self.couplings)):
            raise ValueError("emitter omega0 and couplings must be finite")
        merged: dict[int, complex] = {}
        for x, g in self.couplings:
            if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                    or x < 0):
                raise ValueError(f"coupling site {x!r} is not an integer >= 0")
            merged[int(x)] = merged.get(int(x), 0) + g
        object.__setattr__(self, "couplings", tuple(merged.items()))
        try:
            gbar = math.sqrt(sum(abs(g) ** 2 for g in merged.values()))
            finite = math.isfinite(gbar ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("emitter coupling strength gbar^2 overflows")
        object.__setattr__(self, "gbar", gbar)

    def chi(self, n_sites: int) -> np.ndarray:
        """Normalized site state |chi>, chi(x_l) = g_l / gbar.

        A fully decoupled emitter (gbar = 0) has no site state; the zero
        vector is returned so decoupled dynamics stays well defined."""
        chi = np.zeros(n_sites, dtype=complex)
        for x, g in self.couplings:
            if x >= n_sites:
                raise ValueError(f"coupling site {x} outside lattice")
            chi[x] = g
        return chi / self.gbar if self.gbar > 0 else chi


def omega0_for_detuning(model: LatticeModel, delta: float,
                        reference: str = "fb") -> float:
    """Emitter frequency detuned by ``delta`` > 0 into the gap.

    ``reference='fb'`` offsets from the flat-band energy toward the gap side
    (which side depends on the lattice); ``reference='lower_edge'`` places
    omega0 a distance delta below the bottom of the spectrum."""
    if not 0 < delta < math.inf:
        raise ValueError("detuning must be finite and positive")
    if reference not in ("fb", "lower_edge"):
        raise ValueError(f"unknown detuning reference {reference!r}")
    w = spectral_basis(model).w
    if reference == "lower_edge":
        return float(w.min()) - delta
    cls = cls_set(model)
    # step off the FB toward the adjacent gap: up, except from a FB at the
    # bottom (and not also the top) whose CLS Gram symbol f(k) = 1 + 2 sum
    # alpha cos k can vanish: that band touching closes the gap above with
    # system size, so the step goes below the whole spectrum instead
    tol = 1e-9 * model.J
    down = (cls.omega_fb <= float(w.min()) + tol
            and cls.omega_fb < float(w.max()) - tol
            and 2.0 * sum(abs(a) for a in cls.alphas) >= 1.0 - 1e-12)
    return cls.omega_fb - delta if down else cls.omega_fb + delta


def small_atom(model: LatticeModel, omega0: float, g: float,
               cell: Sequence[int] | int, sub: str | int) -> EmitterSpec:
    """Convenience constructor for a single-site emitter."""
    return EmitterSpec(omega0=float(omega0),
                       couplings=((site_index(model, cell, sub), complex(g)),))


@dataclass(frozen=True)
class BoundStateResult:
    """Solved bound state: pole energy, normalized wavefunction, residuals."""

    omega_bs: float
    psi: np.ndarray                  # photonic amplitudes over all sites
    c_e: float                       # atomic amplitude (real positive)
    emitter: EmitterSpec
    norm_residual: float = 0.0
    pole_residual: float = 0.0       # |omega_bs - omega0 - gbar^2 Sigma|


def _safe_newton(f: Callable[[float], tuple[float, float]], a: float,
                 b: float, x: float, xtol: float, rtol: float,
                 maxiter: int) -> float:
    """Root of an increasing F with F(a) <= 0 <= F(b), where f = (F, F').

    Newton steps from x clipped into [a, b], each shrinking the bracket; a
    step that would leave it, or would not be shorter than half the step
    before last, bisects it ("rtsafe"; Press et al., *Numerical Recipes*,
    sec. 9.4).  Steps are at least half the tolerance xtol + rtol |x|, so
    convergence is confirmed from the far side of the root: the last Newton
    point is returned once the bracket is shorter than the tolerance.  No
    sign change, a NaN or ``maxiter`` evaluations raise NoRootInGap."""
    if not f(a)[0] <= 0 <= f(b)[0]:
        raise NoRootInGap(f"no sign change (or a NaN) on ({a}, {b})")
    x = min(max(x, a), b)
    step = step_old = b - a
    for _ in range(maxiter):
        y, dy = f(x)
        if math.isnan(y):
            raise NoRootInGap(f"pole equation is NaN at omega={x!r}")
        a, b = (x, b) if y < 0 else (a, x)
        tol = xtol + rtol * abs(x)
        if b - a < tol:
            return min(max(x - y / dy, a), b)
        step_old, step = step, -y / dy
        if abs(step) < tol / 2:
            step = math.copysign(tol / 2, -y)
        elif not a <= x + step <= b or abs(2 * step) > abs(step_old):
            step = (a + b) / 2 - x
        x += step
    raise NoRootInGap(f"pole solve did not converge in {maxiter} iterations")


def solve_pole(model: LatticeModel, emitter: EmitterSpec) -> float:
    """Root of  F(omega) = omega - omega0 - gbar^2 <chi|G_B(omega)|chi>  by
    :func:`_safe_newton` in the gap containing omega0, whose edges are
    shifted inward by 10 ``POLE_GUARD``.  F' = 1 + gbar^2 <chi|G^2|chi> >= 1,
    so the root is unique.  With no level below omega0 the bracket starts at
    a = omega0 - s, s = max(J, gbar): each |a - w_a| >= s and chi is
    normalized, so gbar^2 |Sigma(a)| <= s and F(a) <= 0 (likewise
    b = omega0 + s above the spectrum).  Raises :class:`NoRootInGap` if F
    does not change sign on the bracket."""
    omega0, guard = emitter.omega0, POLE_GUARD * model.J
    w = spectral_basis(model).w
    below, above = w[w < omega0], w[w > omega0]
    if below.size and above.size and above.min() - below.max() < 40 * guard:
        raise NoRootInGap("gap around omega0 narrower than the pole guard")
    g2 = emitter.gbar ** 2
    sigma = self_energy(model, emitter.chi(model.n_sites))

    def F(omega: float) -> tuple[float, float]:
        s, ds = sigma(omega)
        return (omega - omega0 - g2 * float(s[0, 0].real),
                1.0 - g2 * float(ds[0, 0].real))

    s = max(model.J, emitter.gbar)
    a = float(below.max()) + 10 * guard if below.size else omega0 - s
    b = float(above.min()) - 10 * guard if above.size else omega0 + s
    return _safe_newton(F, a, b, omega0, xtol=1e-15, rtol=8.9e-16,
                        maxiter=200)


def bs_wavefunction(model: LatticeModel, emitter: EmitterSpec,
                    omega_bs: float | None = None) -> BoundStateResult:
    """Bound-state wavefunction at the solved pole (or a supplied energy).

    The photonic part is gbar G_B |chi> relative to atomic amplitude 1; the
    returned state is jointly normalized: |c_e|^2 + sum |psi|^2 = 1.  The
    pole residual reads gbar^2 <chi|G_B|chi> off it as gbar <chi|psi_rel>."""
    if omega_bs is None:
        omega_bs = solve_pole(model, emitter)
    chi = emitter.chi(model.n_sites)
    psi_rel = emitter.gbar * resolvent_vector(model, omega_bs, chi)
    pole_residual = abs(omega_bs - emitter.omega0 - emitter.gbar
                        * float(np.vdot(chi, psi_rel).real))
    norm = math.sqrt(1.0 + float(np.vdot(psi_rel, psi_rel).real))
    psi = psi_rel / norm
    c_e = 1.0 / norm
    residual = abs(c_e ** 2 + float(np.vdot(psi, psi).real) - 1.0)
    return BoundStateResult(omega_bs=float(omega_bs), psi=psi, c_e=c_e,
                            emitter=emitter, norm_residual=residual,
                            pole_residual=pole_residual)


# ---------------------------------------------------------------------------
# localization-length fitting
# ---------------------------------------------------------------------------

AMPLITUDE_FLOOR = 1e-13


def _reference_cell(model: LatticeModel, emitter: EmitterSpec) -> tuple[int, ...]:
    """Cell of the strongest coupling, repeated sites merged (the profile
    origin)."""
    x, _g = max(emitter.couplings, key=lambda c: abs(c[1]))
    return np.unravel_index(x // model.Q, model.shape)


def bs_profile(result: BoundStateResult, model: LatticeModel,
               sub: str | int, axis: int = 0,
               d_max: int | None = None) -> np.ndarray:
    """|psi| sampled on one sublattice along a coordinate axis, as a function
    of the cell distance d >= 0 from the emitter's cell."""
    if axis not in range(model.dim):
        raise ConfigError(f"axis {axis} outside range({model.dim})")
    index = list(_reference_cell(model, result.emitter))
    n_axis = model.shape[axis]
    if d_max is None:
        d_max = n_axis // 2
    index[axis] = (index[axis] + np.arange(d_max + 1)) % n_axis
    index.append(model.sublattice_id(sub))
    samples = result.psi.reshape(model.shape + (model.Q,))[tuple(index)]
    # np.hypot rounds like the scalar abs(); the vectorised np.abs of a
    # complex array differs from both in the last bit
    return np.hypot(samples.real, samples.imag)


def localization_length_fit(result: BoundStateResult, model: LatticeModel,
                            sub: str | int,
                            axis: int = 0) -> tuple[float, float]:
    """Least-squares exponential fit of the bound-state tail.

    Fits ln|psi(d)| vs cell distance d on the chosen sublattice along one
    axis; returns (lambda, r^2) with lambda = -1/slope.  The window skips
    d in {0, 1} (near-field CLS structure) and runs up to
    min(N_axis/4, first point at or below ``AMPLITUDE_FLOOR``)."""
    prof = bs_profile(result, model, sub, axis=axis)
    n_axis = model.shape[axis]
    d_max = min(n_axis // 4, n_axis // 2 - 1)
    ds, ys = [], []
    for d in range(2, d_max + 1):
        if prof[d] <= AMPLITUDE_FLOOR:
            break
        ds.append(d)
        ys.append(math.log(prof[d]))
    if len(ds) < 4:
        raise InsufficientData(
            f"only {len(ds)} usable points in the fit window")
    ds_a = np.asarray(ds, dtype=float)
    ys_a = np.asarray(ys)
    slope, intercept = np.polyfit(ds_a, ys_a, 1)
    fitted = slope * ds_a + intercept
    ss_res = float(np.sum((ys_a - fitted) ** 2))
    ss_tot = float(np.sum((ys_a - ys_a.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if slope >= 0:
        raise InsufficientData("profile does not decay in the fit window")
    return -1.0 / slope, r2
