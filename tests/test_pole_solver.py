"""The pole solver: ``boundstate._safe_newton`` against
``scipy.optimize.brentq``.

Every root must lie within the stopping tolerance xtol + rtol |x| of
scipy's, the derivative F' that drives the Newton steps must be the true
one, the closed-form bracket must hold the root, and ``import flatqed``
must not load scipy."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from flatqed import boundstate
from flatqed.boundstate import (_safe_newton, bs_wavefunction,
                                omega0_for_detuning, small_atom, solve_pole)
from flatqed.errors import NoRootInGap
from flatqed.greens import self_energy
from flatqed.lattice import (MODELS, build_chain, build_kagome1d,
                             build_sawtooth, build_stub, model_from_spec)
from dense_reference import total_hamiltonian

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TOLS = [(1e-15, 8.9e-16, 200), (2e-12, 4 * np.finfo(float).eps, 100)]


def rational(c, poles, weights):
    """x -> (F(x), F'(x)) for F(x) = x - c - sum_a p_a / (x - w_a), which is
    increasing between the poles."""
    return lambda x: (x - c - sum(p / (x - w) for p, w in zip(weights, poles)),
                      1.0 + sum(p / (x - w) ** 2 for p, w in zip(weights, poles)))


def value(f):
    """F alone, for brentq."""
    return lambda x: f(x)[0]


def close(root, ref, xtol, rtol):
    return abs(root - ref) <= xtol + rtol * abs(ref)


@st.composite
def monotone_problem(draw):
    """A random monotone rational F and a bracket [a, b] below the spectrum,
    above it or inside one gap, with pole-side ends from 0.3 to 1e-12 of the
    gap width away from the pole."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    poles = [float(w) for w in np.sort(rng.uniform(-3.0, 3.0, n))
             + 1e-3 * np.arange(n)]
    weights = [float(p) for p in 10.0 ** rng.uniform(-10.0, 0.5, n)]
    c = float(rng.uniform(-5.0, 5.0))
    side = draw(st.integers(-1, n - 1))
    far = 10.0 + sum(weights)  # F(c - far) < 0 < F(c + far) outside the poles
    lo = poles[side] if side >= 0 else min(c, poles[0]) - far
    hi = poles[side + 1] if side < n - 1 else max(c, poles[-1]) + far
    a = lo + (hi - lo) * 10.0 ** -rng.uniform(0.5, 12.0) if side >= 0 else lo
    b = hi - (hi - lo) * 10.0 ** -rng.uniform(0.5, 12.0) if side < n - 1 else hi
    f = rational(c, poles, weights)
    assume(f(a)[0] < 0 < f(b)[0])
    return f, a, b, c


@given(problem=monotone_problem(), tols=st.sampled_from(TOLS))
@settings(max_examples=400, deadline=None)
def test_safe_newton_matches_scipy_within_tolerance(problem, tols):
    """Started at c clipped into the bracket, as solve_pole starts at
    omega0."""
    f, a, b, c = problem
    xtol, rtol, maxiter = tols
    root = _safe_newton(f, a, b, c, xtol, rtol, maxiter)
    assert close(root, brentq(value(f), a, b, xtol=xtol, rtol=rtol,
                              maxiter=maxiter), xtol, rtol)


def _cases():
    for name in MODELS:
        refs = ["lower_edge"]
        if model_from_spec({"model": name, "N": 8}).cls is not None:
            refs.append("fb")
        for ref in refs:
            yield pytest.param(name, ref, None, id=f"{name}-{ref}")
    disorder = {"kind": "off-diagonal", "strength": 0.1, "seed": 3}
    yield pytest.param("stub", "fb", disorder, id="stub-fb-disordered")


@pytest.mark.parametrize("name,reference,disorder", _cases())
@pytest.mark.parametrize("delta,g", [(1e-3, 1e-3), (1e-1, 5e-2)])
def test_solve_pole_matches_brentq_on_every_model(monkeypatch, name, reference,
                                                  disorder, delta, g):
    """The root solve_pole returns lies within the stopping tolerance of
    brentq's on the same F and bracket (an infinite gap for ``lower_edge``,
    a flat-band gap for ``fb``)."""
    spec = {"model": name, "N": 12}
    if disorder:
        spec["disorder"] = disorder
    model = model_from_spec(spec)
    same = []

    def spy(f, a, b, x0, xtol, rtol, maxiter):
        root = _safe_newton(f, a, b, x0, xtol, rtol, maxiter)
        same.append(close(root, brentq(value(f), a, b, xtol=xtol, rtol=rtol,
                                       maxiter=maxiter), xtol, rtol))
        return root

    monkeypatch.setattr(boundstate, "_safe_newton", spy)
    cell = tuple(n // 2 for n in model.shape)
    omega0 = omega0_for_detuning(model, delta, reference)
    solve_pole(model, small_atom(model, omega0, g, cell, 0))
    assert same == [True]


def test_brent_exhausted_iterations_raise_no_root():
    f = rational(0.3, [-1.0, 2.0], [0.5, 0.7])
    with pytest.raises(RuntimeError):
        brentq(value(f), -0.9, 1.9, maxiter=2)
    with pytest.raises(NoRootInGap, match="did not converge"):
        _safe_newton(f, -0.9, 1.9, -0.9, 2e-12, 8.9e-16, 2)
    assert close(_safe_newton(f, -0.9, 1.9, -0.9, 2e-12, 8.9e-16, 100),
                 brentq(value(f), -0.9, 1.9), 2e-12, 8.9e-16)


def test_brent_nan_raises_no_root():
    """NaN inside the bracket stops the solve, as scipy's NaN guard does."""
    def F(x):
        return math.nan if 0.1 < x < 0.9 else x - 0.5

    with pytest.raises(ValueError, match="NaN"):
        brentq(F, -1.0, 2.0)
    with pytest.raises(NoRootInGap, match="NaN"):
        _safe_newton(lambda x: (F(x), 1.0), -1.0, 2.0, 0.0, 2e-12, 8.9e-16,
                     100)
    with pytest.raises(NoRootInGap, match="NaN"):
        _safe_newton(lambda x: (math.nan, 1.0), -1.0, 2.0, 0.0, 2e-12,
                     8.9e-16, 100)


def test_brent_without_sign_change_raises_no_root():
    with pytest.raises(NoRootInGap, match="sign"):
        _safe_newton(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 2.0, 0.0, 2e-12,
                     8.9e-16, 100)


def test_brent_returns_an_endpoint_root():
    def f(root):
        return lambda x: (x - root, 1.0)

    assert _safe_newton(f(1.0), 1.0, 2.0, 1.5, 2e-12, 8.9e-16, 100) == 1.0
    assert _safe_newton(f(2.0), 1.0, 2.0, 1.5, 2e-12, 8.9e-16, 100) == 2.0


ONE_D = [name for name in MODELS
         if model_from_spec({"model": name, "N": 8}).dim == 1]


@pytest.mark.parametrize("name", ONE_D)
def test_derivative_gives_the_photon_weight(name):
    """At the root, (F' - 1)/F' = gbar^2 <chi|G^2|chi> / F' is the photonic
    weight 1 - c_e^2 of the normalized bound state."""
    model = model_from_spec({"model": name, "N": 20})
    reference = "fb" if model.cls is not None else "lower_edge"
    omega0 = omega0_for_detuning(model, 0.05, reference)
    em = small_atom(model, omega0, 0.3, 10, 0)
    root = solve_pole(model, em)
    _sigma, dsigma = self_energy(model, em.chi(model.n_sites))(root)
    dF = 1.0 - em.gbar ** 2 * dsigma
    res = bs_wavefunction(model, em, root)
    assert abs((dF - 1.0) / dF - (1.0 - res.c_e ** 2)) < 1e-12


def test_scan_poles_take_few_self_energy_evaluations(monkeypatch):
    """The 27 detuning-scan poles (sawtooth, stub and kagome1d, 200 cells,
    9 detunings from 1e-3 to 1e-1) take at most 10 evaluations of F each.
    Bisection alone would also converge, so only this bound catches a wrong
    F'."""
    calls = []

    def counting(model, chi):
        sigma = self_energy(model, chi)

        def spy(omega):
            calls[-1] += 1
            return sigma(omega)
        return spy

    monkeypatch.setattr(boundstate, "self_energy", counting)
    for model, sub in [(build_sawtooth(200), "a"),
                       (build_stub(200, Delta=4.0), "a"),
                       (build_kagome1d(200), "c")]:
        for delta in np.geomspace(1e-3, 1e-1, 9):
            calls.append(0)
            omega0 = omega0_for_detuning(model, delta)
            solve_pole(model, small_atom(model, omega0, 1e-3, 100, sub))
    assert len(calls) == 27 and max(calls) <= 10


@pytest.mark.parametrize("g", [1e-3, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("model", [build_chain(20), build_sawtooth(20),
                                   build_stub(12)], ids=lambda m: m.name)
def test_closed_bracket_holds_the_lowest_eigenvalue(model, g):
    """Below the spectrum the closed-form bracket end needs no search: the
    root is the lowest eigenvalue of the emitter + bath Hamiltonian."""
    em = small_atom(model, omega0_for_detuning(model, 0.1, "lower_edge"), g,
                    model.shape[0] // 2, 0)
    lowest = np.linalg.eigvalsh(total_hamiltonian(model, [em]))[0]
    assert abs(solve_pole(model, em) - lowest) <= 1e-12 * abs(lowest)


def test_import_flatqed_loads_no_scipy():
    """``import flatqed``, the CLI and the Bessel closed form load no scipy
    module at all."""
    code = ("import sys, flatqed, flatqed.cli; "
            "flatqed.interactions.bessel_chain_amplitudes([0, 1], 1.0, 0.5); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
