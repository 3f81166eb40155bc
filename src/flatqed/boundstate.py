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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from flatqed.errors import InsufficientData, NoRootInGap
from flatqed.flatband import cls_set
from flatqed.greens import (POLE_GUARD, resolvent_vector, self_energy,
                            spectral_basis)
from flatqed.lattice import LatticeModel, real_space_hamiltonian, site_index


@dataclass(frozen=True)
class EmitterSpec:
    """Transition frequency and coupling pattern of one emitter.

    ``couplings`` is a nonempty tuple of (flat site index, complex amplitude);
    one entry makes a small atom, several make a giant atom."""

    omega0: float
    couplings: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        if not self.couplings:
            raise ValueError("emitter needs at least one coupling")
        if not (math.isfinite(self.omega0)
                and all(cmath.isfinite(g) for _x, g in self.couplings)):
            raise ValueError("emitter omega0 and couplings must be finite")

    @property
    def gbar(self) -> float:
        return math.sqrt(sum(abs(g) ** 2 for _x, g in self.couplings))

    def chi(self, n_sites: int) -> np.ndarray:
        """Normalized site state |chi>, chi(x_l) = g_l / gbar.

        A fully decoupled emitter (gbar = 0) has no site state; the zero
        vector is returned so decoupled dynamics stays well defined."""
        chi = np.zeros(n_sites, dtype=complex)
        for x, g in self.couplings:
            if not 0 <= x < n_sites:
                raise ValueError(f"coupling site {x} outside lattice")
            chi[x] += g
        return chi / self.gbar if self.gbar > 0 else chi


def omega0_for_detuning(model: LatticeModel, delta: float,
                        reference: str = "fb") -> float:
    """Emitter frequency detuned by ``delta`` > 0 into the gap.

    ``reference='fb'`` offsets from the flat-band energy toward the gap side
    (which side depends on the lattice); ``reference='lower_edge'`` places
    omega0 a distance delta below the bottom of the spectrum."""
    if delta <= 0:
        raise ValueError("detuning must be positive")
    w = spectral_basis(model).w
    if reference == "lower_edge":
        return float(w.min()) - delta
    if reference != "fb":
        raise ValueError(f"unknown detuning reference {reference!r}")
    cls = cls_set(model)
    # step off the FB toward the adjacent gap: up when the FB sits at or
    # below the dispersive bands, down when it caps the spectrum
    if cls.omega_fb >= float(w.max()) - 1e-9 * model.J:
        return cls.omega_fb + delta
    if cls.omega_fb <= float(w.min()) + 1e-9 * model.J:
        # FB at the bottom: genuine gap above -> step up into it; band
        # touching above (the CLS Gram symbol f(k) = 1 + 2 sum alpha cos k
        # can vanish, so the gap closes with system size) -> step below the
        # whole spectrum instead
        touching = 2.0 * sum(abs(a) for a in cls.alphas) >= 1.0 - 1e-12
        return cls.omega_fb - delta if touching else cls.omega_fb + delta
    return cls.omega_fb + delta


def small_atom(model: LatticeModel, omega0: float, g: float,
               cell: Sequence[int] | int, sub: str | int) -> EmitterSpec:
    """Convenience constructor for a single-site emitter."""
    return EmitterSpec(omega0=float(omega0),
                       couplings=((site_index(model, cell, sub), complex(g)),))


@dataclass(frozen=True)
class BoundStateResult:
    """Solved bound state: pole energy and normalized wavefunction."""

    omega_bs: float
    psi: np.ndarray                  # photonic amplitudes over all sites
    c_e: float                       # atomic amplitude (real positive)
    emitter: EmitterSpec
    norm_residual: float = 0.0


def _gap_around(w: np.ndarray, omega0: float) -> tuple[float, float]:
    """Edges of the spectral gap containing omega0 (+-inf outside spectrum)."""
    below = w[w < omega0]
    above = w[w > omega0]
    lo = float(below.max()) if below.size else -math.inf
    hi = float(above.min()) if above.size else math.inf
    return lo, hi


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float,
           rtol: float, maxiter: int) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of ``brentq.c`` as shipped with scipy: the same sign
    tests, interpolation and extrapolation steps, stopping rule
    |x_blk - x_cur|/2 < (xtol + rtol |x_cur|)/2 and order of operations, so
    it returns bit for bit the root of ``scipy.optimize.brentq``.  A bracket
    without a sign change, an f that returns NaN, or ``maxiter`` iterations
    without convergence raise :class:`NoRootInGap`."""
    def fx(x: float) -> float:
        y = float(f(x))
        if math.isnan(y):
            raise NoRootInGap(f"pole equation is NaN at omega={x!r}")
        return y

    xpre, xcur = a, b
    fpre, fcur = fx(xpre), fx(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NoRootInGap(f"no sign change on the bracket ({a}, {b})")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise NoRootInGap(f"pole solve did not converge in {maxiter} iterations")


def solve_pole(model: LatticeModel, emitter: EmitterSpec) -> float:
    """Root of  F(omega) = omega - omega0 - gbar^2 <chi|G_B(omega)|chi>  by
    Brent's method inside the gap containing omega0.

    F is strictly increasing in a gap (F' = 1 + gbar^2 <chi|G^2|chi> > 1), so
    the root is unique when it exists.  Raises :class:`NoRootInGap` if F does
    not change sign between the inward-shifted gap edges."""
    w = spectral_basis(model).w
    guard = POLE_GUARD * model.J
    lo, hi = _gap_around(w, emitter.omega0)
    if math.isfinite(lo) and math.isfinite(hi) and hi - lo < 40 * guard:
        raise NoRootInGap("gap around omega0 narrower than the pole guard")
    g2 = emitter.gbar ** 2
    sigma = self_energy(model, emitter.chi(model.n_sites))

    def F(omega: float) -> float:
        return omega - emitter.omega0 - g2 * sigma(omega)

    span = max(model.J, g2)
    if math.isfinite(lo):
        a = lo + 10 * guard
    else:  # extend downward until F < 0 (F -> -inf as omega -> -inf)
        a = min(emitter.omega0, float(w.min())) - span
        while F(a) > 0:
            a -= span
            span *= 2
    if math.isfinite(hi):
        b = hi - 10 * guard
    else:
        b = max(emitter.omega0, float(w.max())) + span
        while F(b) < 0:
            b += span
            span *= 2
    return _brent(F, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def pole_residual(model: LatticeModel, emitter: EmitterSpec,
                  omega_bs: float) -> float:
    """|omega_BS - omega0 - gbar^2 <chi|G_B(omega_BS)|chi>|."""
    sigma = self_energy(model, emitter.chi(model.n_sites))
    return abs(omega_bs - emitter.omega0 - emitter.gbar ** 2 * sigma(omega_bs))


def bs_wavefunction(model: LatticeModel, emitter: EmitterSpec,
                    omega_bs: float | None = None) -> BoundStateResult:
    """Bound-state wavefunction at the solved pole (or a supplied energy).

    The photonic part is gbar G_B |chi> relative to atomic amplitude 1; the
    returned state is jointly normalized: |c_e|^2 + sum |psi|^2 = 1."""
    if omega_bs is None:
        omega_bs = solve_pole(model, emitter)
    chi = emitter.chi(model.n_sites)
    psi_rel = emitter.gbar * resolvent_vector(model, omega_bs, chi)
    norm = math.sqrt(1.0 + float(np.vdot(psi_rel, psi_rel).real))
    psi = psi_rel / norm
    c_e = 1.0 / norm
    residual = abs(c_e ** 2 + float(np.vdot(psi, psi).real) - 1.0)
    return BoundStateResult(omega_bs=float(omega_bs), psi=psi, c_e=c_e,
                            emitter=emitter, norm_residual=residual)


def total_hamiltonian(model: LatticeModel,
                      emitters: Sequence[EmitterSpec]) -> np.ndarray:
    """Single-excitation Hamiltonian of emitters + bath.

    Basis ordering: the emitters first, then all lattice sites."""
    n_e = len(emitters)
    n = model.n_sites
    H = np.zeros((n_e + n, n_e + n), dtype=complex)
    H[n_e:, n_e:] = real_space_hamiltonian(model)
    for j, em in enumerate(emitters):
        H[j, j] = em.omega0
        for x, g in em.couplings:
            H[j, n_e + x] += np.conj(g)
            H[n_e + x, j] += g
    return H


# ---------------------------------------------------------------------------
# localization-length fitting
# ---------------------------------------------------------------------------

AMPLITUDE_FLOOR = 1e-13


def _reference_cell(model: LatticeModel, emitter: EmitterSpec) -> tuple[int, ...]:
    """Cell of the strongest coupling (the profile origin)."""
    x, _g = max(emitter.couplings, key=lambda c: abs(c[1]))
    return np.unravel_index(x // model.Q, model.shape)


def bs_profile(result: BoundStateResult, model: LatticeModel,
               sub: str | int, axis: int = 0,
               d_max: int | None = None) -> np.ndarray:
    """|psi| sampled on one sublattice along a coordinate axis, as a function
    of the cell distance d >= 0 from the emitter's cell."""
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
    n_axis = model.shape[axis]
    d_max = min(n_axis // 4, n_axis // 2 - 1)
    prof = bs_profile(result, model, sub, axis=axis, d_max=d_max)
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
