"""The four benchmark workloads: inputs drawn from a seed, the timed
operations, and the oracle check of every operation.

An *operation* is one unit a user asks for: one bound state (pole,
wavefunction and tail fit), one K matrix, one band structure, one disorder
realisation or one evolution.  ``build(name, seed, quick)`` returns the
operations of one workload pass.  ``Op.run`` is the timed call into the
library; ``Op.check`` runs after the timed pass and returns the list of
failed checks (empty when the result is correct).  Checks compare against
the dense-``eigh`` oracle or a closed form, never against the code path being
timed.

The default seed reproduces the paper's parameters (the values the
acceptance tests use); any other seed draws detunings, emitter cells and
disorder seeds from ``numpy.random.default_rng(seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from flatqed import (boundstate, dynamics, flatband, giant, greens,
                     interactions, lattice, spectrum)

DEFAULT_SEED = 0
G = 1e-3                      # emitter coupling, units of J
POLE_TOL = 1e-12              # pole residual and normalisation, units of J
PSI_RTOL = 1e-9               # wavefunction vs oracle, relative to max |psi|
SAWTOOTH_LAMBDA = 0.759       # paper's sawtooth decay length (test_09 slope)

# Problem sizes.  ``quick`` shrinks every lattice for fast edit loops; its
# numbers are labelled and must never be compared with full runs.
SIZES = {
    "full": dict(saw=200, stub=200, kag=200, cb=40, bands=200, dis_stub=300,
                 dis_seeds=20, fb_saw=500, n_t=6001, dark_stub=100,
                 giants=16),
    "quick": dict(saw=100, stub=60, kag=60, cb=24, bands=50, dis_stub=60,
                  dis_seeds=20, fb_saw=100, n_t=2001, dark_stub=40,
                  giants=8),
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    golden: Callable[[Any], dict[str, float]] = field(default=lambda out: {})


@dataclass
class Workload:
    ops: list[Op]
    # aggregate check over all results: returns {op name: failure message}
    finalize: Callable[[dict[str, Any]], dict[str, str]] = field(
        default=lambda results: {})


# ---------------------------------------------------------------------------
# dense-eigh oracle
# ---------------------------------------------------------------------------

def _oracle_row(model, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and |<a|x>|^2 of the cached dense eigh."""
    w, U = greens.eigensystem(model)
    return w, U, np.abs(U[x, :]) ** 2


def _oracle_pole(w: np.ndarray, weight: np.ndarray, omega0: float,
                 g: float) -> float:
    """Root of omega - omega0 - g^2 sum_a weight_a / (omega - w_a) in the
    gap containing omega0, from the spectral sum alone."""
    def F(om: float) -> float:
        return om - omega0 - g * g * float(np.sum(weight / (om - w)))

    below, above = w[w < omega0], w[w > omega0]
    a = float(below.max()) + 1e-11 if below.size else omega0 - 1.0
    b = float(above.min()) - 1e-11 if above.size else omega0 + 1.0
    while F(a) > 0 and not below.size:
        a -= 2.0 * (omega0 - a)
    while F(b) < 0 and not above.size:
        b += 2.0 * (b - omega0)
    return float(brentq(F, a, b, xtol=1e-15, rtol=8.9e-16, maxiter=200))


def _check_bound_state(model, em, res, lam, r2) -> list[str]:
    (x, gx), = em.couplings
    g = abs(gx)
    w, U, weight = _oracle_row(model, x)
    bad = []
    residual = abs(res.omega_bs - em.omega0
                   - g * g * float(np.sum(weight / (res.omega_bs - w))))
    if not residual < POLE_TOL * model.J:
        bad.append(f"pole residual {residual:.3e} >= {POLE_TOL}")
    pole = _oracle_pole(w, weight, em.omega0, g)
    if not abs(pole - res.omega_bs) < POLE_TOL * model.J:
        bad.append(f"omega_bs {res.omega_bs!r} vs oracle pole {pole!r}")
    if not res.norm_residual < POLE_TOL:
        bad.append(f"norm residual {res.norm_residual:.3e}")
    norm = abs(res.c_e) ** 2 + float(np.vdot(res.psi, res.psi).real)
    if not abs(norm - 1.0) < POLE_TOL:
        bad.append(f"joint norm {norm!r}")
    psi_rel = g * (U @ (np.conj(U[x, :]) / (res.omega_bs - w)))
    psi = psi_rel / math.sqrt(1.0 + float(np.vdot(psi_rel, psi_rel).real))
    dev = float(np.max(np.abs(res.psi - psi)))
    if not dev < PSI_RTOL * float(np.max(np.abs(psi))):
        bad.append(f"psi deviates from oracle by {dev:.3e}")
    if not (math.isfinite(lam) and lam > 0 and math.isfinite(r2)):
        bad.append(f"bad tail fit lambda={lam!r} r2={r2!r}")
    return bad


def _bound_state_op(name, model, delta, cell, sub, profile=False) -> Op:
    def run():
        om0 = boundstate.omega0_for_detuning(model, delta)
        em = boundstate.small_atom(model, om0, G, cell, sub)
        res = boundstate.bs_wavefunction(model, em)
        lam, r2 = boundstate.localization_length_fit(res, model, sub)
        if profile:
            boundstate.bs_profile(res, model, sub, d_max=16)
        return em, res, lam, r2

    def check(out):
        return _check_bound_state(model, *out)

    def golden(out):
        _em, res, lam, r2 = out
        return {"omega_bs": res.omega_bs, "lambda": lam, "r2": r2}

    return Op(name, run, check, golden)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _detunings(rng, n: int, lo: float = 1e-3, hi: float = 1e-1):
    """n log-spaced detunings in [lo, hi]; a seed jitters each one inside its
    own log-bin, so every seed covers the whole range with the same count."""
    if rng is None:
        return list(np.geomspace(lo, hi, n))
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return list(lo * (hi / lo) ** u)


def scan1d(rng, S) -> Workload:
    """loclen-style detuning scans on three 1D lattices plus one exact-pole
    K matrix: the resolvent-bound workload (many poles per decomposition)."""
    ops = []
    saw = lattice.build_sawtooth(S["saw"])
    cases = [("sawtooth", saw, "a"),
             ("stub", lattice.build_stub(S["stub"], Delta=4.0), "a"),
             ("kagome1d", lattice.build_kagome1d(S["kag"]), "c")]
    for name, model, sub in cases:
        n = model.shape[0]
        cell = n // 2 if rng is None else int(rng.integers(n))
        for delta in _detunings(rng, 9):
            ops.append(_bound_state_op(f"{name}/delta={delta:.6g}", model,
                                       delta, cell, sub))
    n = saw.shape[0]
    delta_k = 1e-2 if rng is None else float(10 ** rng.uniform(-2.5, -1.5))
    c0 = n // 2 if rng is None else int(rng.integers(n))
    cells = [(c0 + d) % n for d in range(9)]

    def run_k():
        om0 = boundstate.omega0_for_detuning(saw, delta_k)
        ems = [boundstate.small_atom(saw, om0, G, c, "a") for c in cells]
        return ems, interactions.interaction_matrix(saw, ems, exact_pole=True)

    def check_k(out):
        ems, K = out
        bad = []
        w, U = greens.eigensystem(saw)
        rows = np.array([U[em.couplings[0][0], :] for em in ems])
        poles = [_oracle_pole(w, np.abs(r) ** 2, ems[0].omega0, G) for r in rows]
        K_or = np.column_stack([G * G * (rows @ (np.conj(r) / (p - w)))
                                for r, p in zip(rows, poles)])
        dev = float(np.max(np.abs(K.K - K_or)))
        if not dev < PSI_RTOL * float(np.max(np.abs(K_or))):
            bad.append(f"K deviates from oracle by {dev:.3e}")
        ds = np.arange(2, 9)
        slope = np.polyfit(ds, np.log(np.abs(K.K[0, 2:9])), 1)[0]
        if not abs(slope + 1.0 / SAWTOOTH_LAMBDA) * SAWTOOTH_LAMBDA < 0.03:
            bad.append(f"K(d) slope {slope:.5f} not within 3% of -1/0.759")
        return bad

    def golden_k(out):
        K = out[1].K
        return {"K00": float(K[0, 0].real), "K08": float(abs(K[0, 8]))}

    ops.append(Op(f"sawtooth/K9/delta={delta_k:.6g}", run_k, check_k, golden_k))
    return Workload(ops)


def touching2d(rng, S) -> Workload:
    """Checkerboard bound states (the paper's 2D band-touching figure) plus
    the band structure of a large checkerboard."""
    n = S["cb"]
    model = lattice.build_checkerboard(n, n)
    cell = (n // 2, n // 2) if rng is None else tuple(
        int(c) for c in rng.integers(n, size=2))
    deltas = [1e-3, 1e-2, 1e-1]
    if rng is not None:
        deltas = [d * 10 ** rng.uniform(-0.1, 0.1) for d in deltas]
    ops = [_bound_state_op(f"checkerboard/delta={d:.6g}", model, d, cell, "a",
                           profile=True) for d in deltas]
    big = lattice.build_checkerboard(S["bands"], S["bands"])

    def check_bands(bs):
        kx, ky = bs.k_grid[:, 0], bs.k_grid[:, 1]
        disp = 2.0 * big.J * (2.0 - np.cos(kx) - np.cos(ky))
        dev = max(float(np.max(np.abs(bs.bands[0]))),
                  float(np.max(np.abs(bs.bands[1] - disp))))
        return [] if dev < 1e-10 else [f"bands deviate from closed form by {dev:.3e}"]

    ops.append(Op(f"checkerboard/bands/{S['bands']}x{S['bands']}",
                  lambda: spectrum.band_structure(big), check_bands))
    return Workload(ops)


def disorder_sweep(rng, S) -> Workload:
    """Stub lattice under chiral (off-diagonal) and diagonal disorder: every
    realisation is a new model, so nothing is reused between operations."""
    N = S["dis_stub"]
    Delta = 4.0
    clean = lattice.build_stub(N, Delta=Delta)
    k = 2.0 * np.pi * np.arange(N) / N
    disp = clean.J * np.sqrt(Delta + 2.0 * (1.0 + np.cos(k)))
    clean_w = np.sort(np.concatenate([np.zeros(N), disp, -disp]))
    n_seeds = S["dis_seeds"]
    seeds = (list(range(n_seeds)) if rng is None
             else [int(s) for s in rng.integers(2 ** 31, size=n_seeds)])
    ops = []
    for s in seeds:
        for kind, strength in (("off-diagonal", 0.5), ("diagonal", 0.1)):
            ops.append(_disorder_op(clean, clean_w, kind, strength, s))

    def finalize(results):
        """test_13: the flat band broadens above 1e-3 J for at least 19 of 20
        diagonal seeds; when fewer do, every narrow realisation fails."""
        narrow = {name: f"flat-band width {out[0]:.3e} <= 1e-3"
                  for name, out in results.items()
                  if name.startswith("diagonal") and not out[0] > 1e-3}
        return narrow if len(narrow) > n_seeds // 20 else {}

    return Workload(ops, finalize)


def _disorder_op(clean, clean_w, kind, strength, seed) -> Op:
    N = clean.shape[0]

    def run():
        m = lattice.apply_disorder(
            clean, lattice.DisorderSpec(kind, strength, seed))
        w, _U = greens.eigensystem(m)
        if kind == "off-diagonal":
            return int(np.sum(np.abs(w) < 1e-10)), np.asarray(w)
        return spectrum.flat_band_width_real_space(np.asarray(w), N, 0.0), np.asarray(w)

    def check(out):
        value, w = out
        w = np.sort(w)
        if kind == "off-diagonal":
            bad = [] if value == N else [f"{value} zero modes, expected {N}"]
            asym = float(np.max(np.abs(w + w[::-1])))
            if not asym < 1e-10:
                bad.append(f"chiral spectrum asymmetric by {asym:.3e}")
            return bad
        # Weyl: a diagonal perturbation of norm <= strength moves every
        # sorted eigenvalue by at most strength
        shift = float(np.max(np.abs(w - clean_w)))
        if not shift <= strength * clean.J + 1e-12:
            return [f"eigenvalue shift {shift:.3e} exceeds the Weyl bound"]
        return []

    return Op(f"{kind}/seed={seed}", run, check,
              lambda out: {"value": float(out[0])})


def fb_dynamics(rng, S) -> Workload:
    """Flat-band dynamics and CLS algebra: vacuum Rabi evolution, a dark
    state, CLS giant atoms, the CLS projector expansion and the 2D xi law."""
    saw = lattice.build_sawtooth(S["fb_saw"])
    n = S["fb_saw"]
    g = G if rng is None else float(10 ** rng.uniform(-3.3, -2.85))
    cell = n // 2 if rng is None else int(rng.integers(n))
    target = g * math.sqrt(1.0 - 1.0 / math.sqrt(3.0))
    em = boundstate.small_atom(saw, -2.0 * saw.J, g, cell, "a")
    ops = []

    def run_rabi():
        t = np.linspace(0.0, 1.3 * math.pi / target, S["n_t"])
        ts = dynamics.evolve(saw, [em], 0, t)
        return ts, dynamics.fit_rabi_frequency(ts)

    def check_rabi(out):
        ts, omega = out
        bad = [] if abs(omega / target - 1.0) < 2e-3 else [
            f"fitted Rabi {omega!r} not within 0.2% of {target!r}"]
        if not ts.norm_residual < 1e-10:
            bad.append(f"norm residual {ts.norm_residual:.3e}")
        return bad

    ops.append(Op("sawtooth/rabi-evolution", run_rabi, check_rabi,
                  lambda out: {"omega_fit": out[1] / g}))

    ops.append(Op(
        "sawtooth/rabi-frequency",
        lambda: dynamics.rabi_frequency(saw, em),
        lambda om: [] if abs(om / target - 1.0) < 1e-9 else [
            f"projector Rabi {om!r} vs closed form {target!r}"],
        lambda om: {"omega": om / g}))

    stub = lattice.build_stub(S["dark_stub"], Delta=4.0)
    dark_cell = S["dark_stub"] // 2 if rng is None else int(rng.integers(S["dark_stub"]))
    em_b = boundstate.small_atom(stub, 0.0, G, dark_cell, "b")

    def check_dark(ts):
        dev = float(np.max(np.abs(ts.atom_populations[:, 0] - 1.0)))
        return [] if dev < 1e-6 else [f"dark-state population deviation {dev:.3e}"]

    ops.append(Op("stub/dark-evolution",
                  lambda: dynamics.evolve(stub, [em_b], 0,
                                          np.linspace(0.0, 1e3, 2001)),
                  check_dark))

    delta_g = 0.05 if rng is None else float(rng.uniform(0.02, 0.1))
    c0 = n // 4 if rng is None else int(rng.integers(n))
    n_g = S["giants"]

    def run_giants():
        ems = [giant.cls_emitter(saw, -2.0 * saw.J + delta_g, G, (c0 + i) % n)
               for i in range(n_g)]
        return giant.giant_interaction(saw, ems)

    def check_giants(K):
        # CLS Gram matrix in closed form: 1 on site, alpha = 1/4 between
        # neighbouring cells, 0 beyond
        ratio = K.K / K.K[0, 0]
        gram = np.eye(n_g) + 0.25 * (np.eye(n_g, k=1) + np.eye(n_g, k=-1))
        dev = float(np.max(np.abs(ratio - gram)))
        bad = [] if dev < 1e-6 else [f"giant K/K00 deviates from 1/4 law by {dev:.3e}"]
        k00 = G * G / delta_g
        if not abs(K.K[0, 0] / k00 - 1.0) < 1e-9:
            bad.append(f"K00 {K.K[0, 0]!r} vs g^2/delta {k00!r}")
        return bad

    ops.append(Op(f"sawtooth/giants{n_g}", run_giants, check_giants))

    def run_projector():
        cls = flatband.cls_set(saw)
        return (greens.fb_projector(saw, cls.omega_fb),
                flatband.projector_cls_expansion(cls, saw))

    def check_projector(out):
        P, P_cls = out
        dev = float(np.max(np.abs(P.P - P_cls)))
        bad = [] if dev < 1e-8 else [f"CLS projector deviates by {dev:.3e}"]
        if P.degeneracy != n:
            bad.append(f"flat-band degeneracy {P.degeneracy} != {n}")
        return bad

    ops.append(Op("sawtooth/cls-projector", run_projector, check_projector))

    alpha = 0.15 if rng is None else float(rng.uniform(0.14, 0.22))

    def run_xi():
        return [(flatband.xi_numeric((alpha, alpha), (d, 0), n_k=512),
                 flatband.xi_2d_axis(alpha, d)) for d in range(13)]

    def check_xi(pairs):
        rel = max(abs(a - b) / abs(b) for a, b in pairs)
        return [] if rel < 1e-6 else [f"xi_2d_axis vs BZ sum: rel {rel:.3e}"]

    ops.append(Op(f"xi2d/alpha={alpha:.6g}", run_xi, check_xi,
                  lambda pairs: {f"xi{d}": b for d, (_a, b) in enumerate(pairs)}))
    return Workload(ops)


WORKLOADS = {
    "scan1d": scan1d,
    "touching2d": touching2d,
    "disorder_sweep": disorder_sweep,
    "fb_dynamics": fb_dynamics,
}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    rng = None if seed == DEFAULT_SEED else np.random.default_rng(seed)
    return WORKLOADS[name](rng, SIZES["quick" if quick else "full"])
