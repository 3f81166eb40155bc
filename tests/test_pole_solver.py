"""The pole solver: ``boundstate._brent`` against ``scipy.optimize.brentq``.

``_brent`` is a port of scipy's Brent iteration, so every root must equal
scipy's bit for bit (``==``), and ``import flatqed`` must not load scipy."""

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
from flatqed.boundstate import (_brent, omega0_for_detuning, small_atom,
                                solve_pole)
from flatqed.errors import NoRootInGap
from flatqed.lattice import MODELS, model_from_spec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TOLS = [(1e-15, 8.9e-16, 200), (2e-12, 4 * np.finfo(float).eps, 100)]


def rational(c, poles, weights):
    """F(x) = x - c - sum_a p_a / (x - w_a): increasing between the poles."""
    return lambda x: x - c - sum(p / (x - w) for p, w in zip(weights, poles))


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
    F = rational(c, poles, weights)
    assume(F(a) < 0 < F(b))
    return F, a, b


@given(problem=monotone_problem(), tols=st.sampled_from(TOLS))
@settings(max_examples=400, deadline=None)
def test_brent_is_bit_identical_to_scipy(problem, tols):
    F, a, b = problem
    xtol, rtol, maxiter = tols
    assert _brent(F, a, b, xtol, rtol, maxiter) == brentq(
        F, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)


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
    """The root solve_pole returns equals brentq's on the same F and bracket
    (an infinite gap for ``lower_edge``, a flat-band gap for ``fb``)."""
    spec = {"model": name, "N": 12}
    if disorder:
        spec["disorder"] = disorder
    model = model_from_spec(spec)
    same = []

    def spy(F, a, b, xtol, rtol, maxiter):
        root = _brent(F, a, b, xtol, rtol, maxiter)
        same.append(root == brentq(F, a, b, xtol=xtol, rtol=rtol,
                                   maxiter=maxiter))
        return root

    monkeypatch.setattr(boundstate, "_brent", spy)
    cell = tuple(n // 2 for n in model.shape)
    omega0 = omega0_for_detuning(model, delta, reference)
    solve_pole(model, small_atom(model, omega0, g, cell, 0))
    assert same == [True]


def test_brent_exhausted_iterations_raise_no_root():
    F = rational(0.3, [-1.0, 2.0], [0.5, 0.7])
    with pytest.raises(RuntimeError):
        brentq(F, -0.9, 1.9, maxiter=2)
    with pytest.raises(NoRootInGap, match="did not converge"):
        _brent(F, -0.9, 1.9, 2e-12, 8.9e-16, 2)
    assert _brent(F, -0.9, 1.9, 2e-12, 8.9e-16, 100) == brentq(F, -0.9, 1.9)


def test_brent_nan_raises_no_root():
    """NaN inside the bracket stops the solve, as scipy's NaN guard does."""
    def F(x):
        return math.nan if 0.1 < x < 0.9 else x - 0.5

    with pytest.raises(ValueError, match="NaN"):
        brentq(F, -1.0, 2.0)
    with pytest.raises(NoRootInGap, match="NaN"):
        _brent(F, -1.0, 2.0, 2e-12, 8.9e-16, 100)
    with pytest.raises(NoRootInGap, match="NaN"):
        _brent(lambda x: math.nan, -1.0, 2.0, 2e-12, 8.9e-16, 100)


def test_brent_without_sign_change_raises_no_root():
    with pytest.raises(NoRootInGap, match="sign"):
        _brent(lambda x: x * x + 1.0, -1.0, 2.0, 2e-12, 8.9e-16, 100)


def test_brent_returns_an_endpoint_root():
    assert _brent(lambda x: x - 1.0, 1.0, 2.0, 2e-12, 8.9e-16, 100) == 1.0
    assert _brent(lambda x: x - 2.0, 1.0, 2.0, 2e-12, 8.9e-16, 100) == 2.0


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
