import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from flatqed import dynamics, greens
from flatqed.boundstate import EmitterSpec, small_atom
from flatqed.dynamics import (evolve, fit_rabi_frequency, propagate,
                              rabi_frequency)
from flatqed.giant import cls_emitter
from flatqed.lattice import (DisorderSpec, apply_disorder, build_chain,
                             build_checkerboard, build_double_comb,
                             build_kagome1d, build_sawtooth, build_stub)
from dense_reference import total_hamiltonian


def test_decoupled_emitter_stays_excited():
    model = build_sawtooth(10)
    em = EmitterSpec(omega0=0.5, couplings=((0, 0.0),))
    ts = evolve(model, [em], 0, np.linspace(0, 50, 101))
    assert np.allclose(ts.atom_populations[:, 0], 1.0, atol=1e-12)


def test_single_cavity_vacuum_rabi():
    """Resonant Jaynes-Cummings: P_e(t) = cos^2(g t)."""
    g = 0.02
    model = build_chain(1, onsite=0.0)
    em = small_atom(model, 0.0, g, 0, "a")
    t = np.linspace(0, 2 * math.pi / g, 401)
    ts = evolve(model, [em], 0, t)
    assert np.max(np.abs(ts.atom_populations[:, 0] - np.cos(g * t) ** 2)) < 1e-12


def test_norm_conserved_and_photon_populations():
    model = build_sawtooth(20)
    em = small_atom(model, -1.9, 0.1, 10, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 100, 51), store_photons=True)
    assert ts.norm_residual < 1e-10
    total = ts.atom_populations.sum(axis=1) + ts.photon_populations.sum(axis=1)
    assert np.allclose(total, 1.0, atol=1e-10)


def test_atom_populations_do_not_hold_the_photon_field():
    model = build_sawtooth(20)
    em = small_atom(model, -1.9, 0.1, 10, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 100, 51))
    assert ts.atom_populations.shape == (51, 1)
    assert ts.atom_populations.base is None


def test_sawtooth_rabi_frequency_value():
    """On FB resonance from an a-site: Omega/g = sqrt(1 - 1/sqrt(3))."""
    g = 1e-3
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, g, 20, "a")
    Omega = rabi_frequency(model, em)
    assert Omega / g == pytest.approx(math.sqrt(1 - 1 / math.sqrt(3)), rel=1e-10)


def test_rabi_fit_matches_projector_formula():
    g = 1e-3
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, g, 20, "a")
    Omega = rabi_frequency(model, em)
    t = np.linspace(0, 1.3 * math.pi / Omega, 4001)
    ts = evolve(model, [em], 0, t)
    fitted = fit_rabi_frequency(ts)
    assert fitted == pytest.approx(Omega, rel=2e-3)
    # population follows cos^2(Omega t) over one period
    period = t <= math.pi / Omega
    assert np.max(np.abs(ts.atom_populations[period, 0]
                         - np.cos(Omega * t[period]) ** 2)) < 1e-3


def test_giant_cls_rabi_is_exactly_g():
    """chi inside the FB eigenspace: <chi|P|chi> = 1 so Omega = g."""
    g = 1e-3
    model = build_sawtooth(30)
    em = cls_emitter(model, -2.0, g, 15)
    assert rabi_frequency(model, em) == pytest.approx(g, rel=1e-10)


def test_stub_b_site_no_rabi():
    """The b sublattice has no FB weight: no oscillations on resonance."""
    model = build_stub(30, Delta=4.0)
    em = small_atom(model, 0.0, 1e-3, 15, "b")
    assert rabi_frequency(model, em) < 1e-8
    ts = evolve(model, [em], 0, np.linspace(0, 1e3, 501))
    assert np.max(np.abs(ts.atom_populations[:, 0] - 1.0)) < 1e-6
    with pytest.raises(ValueError, match="no population minimum"):
        fit_rabi_frequency(ts)


def test_dispersive_population_bound():
    """Detuned from the FB by delta >> g: the population dip is bounded by
    the FB term 4(Omega/delta)^2 plus the dispersive-band admixture
    ~(g/gap)^2 (the distance to the dispersive band is 2J - delta)."""
    g, delta = 1e-3, 0.1
    model = build_sawtooth(30)
    em = small_atom(model, -2.0 + delta, g, 15, "a")
    Omega = rabi_frequency(model, em)
    ts = evolve(model, [em], 0, np.linspace(0, 2e3, 801))
    bound = 1.0 - 4 * (Omega / delta) ** 2 - 4 * (g / (2.0 - delta)) ** 2
    assert np.min(ts.atom_populations[:, 0]) >= bound


def test_evolve_validates_initial():
    model = build_chain(4)
    em = small_atom(model, -2.1, 1e-2, 0, "a")
    with pytest.raises(ValueError):
        evolve(model, [em], 3, np.array([0.0]))
    with pytest.raises(ValueError):
        evolve(model, [em], np.zeros(3), np.array([0.0]))
    for bad, match in ((np.zeros(5), "non-zero"),
                       (np.full(5, math.inf), "finite")):
        with pytest.raises(ValueError, match=match):
            evolve(model, [em], bad, np.array([0.0]))
    # True is not emitter 1
    pair = [em, small_atom(model, -2.1, 1e-2, 2, "a")]
    with pytest.raises(ValueError, match="bool"):
        evolve(model, pair, True, np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_nonfinite_times(bad):
    model = build_chain(4)
    em = small_atom(model, -2.1, 1e-2, 0, "a")
    with pytest.raises(ValueError, match="must be finite"):
        evolve(model, [em], 0, np.array([0.0, bad]))


@pytest.mark.parametrize("times", [1.0, np.linspace(0, 1, 8).reshape(2, 4)],
                         ids=["scalar", "2d"])
def test_evolve_rejects_times_not_1d(times):
    model = build_chain(4)
    em = small_atom(model, -2.1, 1e-2, 0, "a")
    with pytest.raises(ValueError, match="one-dimensional"):
        evolve(model, [em], 0, times)


@pytest.mark.parametrize("t,p,expected", [
    ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.6, 0.7], 3.0 * math.pi / 8.0),
    ([0.0, 1.0, 2.0, 3.0], [1.0, -1.0 + 2.0 ** -53, -1.0, -1.0],
     "negative entry"),
    ([-3.0, -2.0, -1.0, 0.0], [1.0, 0.5, 0.6, 0.7], "non-positive time"),
], ids=["parabola", "flat-parabola", "minimum-before-zero"])
def test_fit_on_a_hand_built_series(t, p, expected):
    """The minimum is refined by the parabola through its neighbours.  A
    series with a negative entry (the only kind whose second difference at
    a minimum can round to zero) is no population, and a minimum at t <= 0
    gives no frequency: both are a ValueError."""
    ts = dynamics.TimeSeries(np.array(t), np.array(p)[:, None], 0.0)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            fit_rabi_frequency(ts)
    else:
        assert fit_rabi_frequency(ts) == pytest.approx(expected, rel=1e-14)


def test_fit_requires_minimum():
    model = build_chain(1)
    em = small_atom(model, 0.0, 1e-3, 0, "a")
    ts = evolve(model, [em], 0, np.linspace(0, 1.0, 11))  # << Rabi period
    with pytest.raises(ValueError):
        fit_rabi_frequency(ts)


def test_propagate_real_and_complex_paths_agree():
    """A diagonal gauge D H D^dag makes the Hamiltonian complex without
    changing site populations: the real path (eigh of H.real) and the
    complex path must agree, conserve the norm, and match expm."""
    model = build_sawtooth(8)
    em = small_atom(model, -1.9, 0.1, 4, "a")
    H = total_hamiltonian(model, [em])
    dim = H.shape[0]
    phase = np.exp(1j * np.linspace(0.0, 2.0, dim))
    H_gauge = phase[:, None] * H * phase.conj()[None, :]
    assert not H.imag.any() and H_gauge.imag.any()
    c0 = np.zeros(dim, dtype=complex)
    c0[[0, 3]] = (0.6, 0.8j)
    t = np.linspace(0.0, 30.0, 61)
    amps, res = propagate(H, c0, t)
    amps_g, res_g = propagate(H_gauge, phase * c0, t)
    assert res < 1e-12 and res_g < 1e-12
    assert np.max(np.abs(np.abs(amps) ** 2 - np.abs(amps_g) ** 2)) < 1e-12
    for i in (7, 60):
        exact = expm(-1j * H * t[i]) @ c0
        assert np.max(np.abs(amps[i] - exact)) < 1e-10
        assert np.max(np.abs(amps_g[i] - phase * exact)) < 1e-10


def test_norm_residual_bounds_the_measured_norm():
    """The residual is a bound from the eigenvectors' orthonormality: it
    covers the squared norm measured from every component at every time."""
    model = build_sawtooth(8)
    H = total_hamiltonian(model, [small_atom(model, -1.9, 0.1, 4, "a")])
    c0 = np.zeros(H.shape[0], dtype=complex)
    c0[[0, 3]] = (0.6, 0.8j)
    t = np.linspace(0.0, 30.0, 61)
    amps, res = propagate(H, c0, t)
    measured = np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0))
    assert 0.0 < measured <= res < 1e-12
    rows, res_rows = propagate(H, c0, t, rows=[0, 3], chunk=7)
    assert res_rows == res
    assert np.max(np.abs(rows - amps[:, [0, 3]])) < 1e-14


def _kernel_problem():
    """A small real atom+bath Hamiltonian and a complex initial vector."""
    model = build_sawtooth(8)
    H = total_hamiltonian(model, [small_atom(model, -1.9, 0.1, 4, "a")])
    c0 = np.zeros(H.shape[0], dtype=complex)
    c0[[0, 3, 9]] = (0.6, 0.64j, -0.48)
    return H, c0


def _direct_amplitudes(H, c0, t):
    """Every phase exp(-i w t) from its own cos and sin: the reference the
    block factorization of ``propagate`` must reproduce."""
    w, V = np.linalg.eigh(H)
    theta = -np.multiply.outer(w, t)
    return (V @ ((V.conj().T @ c0)[:, None]
                 * (np.cos(theta) + 1j * np.sin(theta)))).T


@pytest.mark.parametrize("name, t", [
    ("geomspace", np.geomspace(1e-2, 400.0, 300)),
    ("jittered-linspace", np.linspace(0.0, 400.0, 300)
     + np.random.default_rng(3).uniform(-1e-9, 1e-9, 300)),
])
def test_irregular_grid_takes_direct_phases(name, t):
    """A grid whose blocks do not repeat the first block's steps evaluates
    every phase directly (B = 1), and matches expm."""
    H, c0 = _kernel_problem()
    assert dynamics._block_length(t, 10**6) == 1
    amps, _res = propagate(H, c0, t)
    for i in (0, 1, 150, 299):
        assert np.max(np.abs(amps[i] - expm(-1j * H * t[i]) @ c0)) < 1e-10


@pytest.mark.parametrize("name, t", [
    ("t0-nonzero", np.linspace(137.5, 900.0, 1001)),
    ("descending", np.linspace(0.0, -600.0, 777)),
    ("arange", np.arange(-50.0, 400.0, 0.37)),
    ("empty", np.zeros(0)),
    ("one-point", np.array([250.0])),
    ("two-points", np.array([3.0, 250.0])),
    ("20001-points", np.linspace(0.0, 5000.0, 20001)),
])
@pytest.mark.parametrize("chunk", [None, 7])
def test_uniform_grid_matches_direct_phases(name, t, chunk):
    """Uniform grids take blocks of ceil(sqrt(n_t)) times (capped by the
    chunk) and match the direct cos/sin evaluation to 1e-11."""
    H, c0 = _kernel_problem()
    n_t = len(t)
    cap = chunk or max(1, dynamics.CHUNK_ELEMENTS // H.shape[0])
    block = min(cap, max(1, math.ceil(math.sqrt(n_t))))
    assert dynamics._block_length(t, cap) == block
    amps, res = propagate(H, c0, t, chunk=chunk)
    assert amps.shape == (n_t, H.shape[0]) and res < 1e-12
    if n_t:
        assert np.max(np.abs(amps - _direct_amplitudes(H, c0, t))) < 1e-11


# ---------------------------------------------------------------------------
# the reduced evolve against the dense total_hamiltonian + expm oracle
# ---------------------------------------------------------------------------

def _assert_matches_expm(model, emitters, initial, t):
    """Atom and photon populations of ``evolve`` equal |expm(-iHt) c0|^2
    of the dense atom+bath Hamiltonian to 1e-10 at every time."""
    ts = evolve(model, emitters, initial, t, store_photons=True)
    H = total_hamiltonian(model, emitters)
    n_e = len(emitters)
    if isinstance(initial, int):
        c0 = np.zeros(H.shape[0], dtype=complex)
        c0[initial] = 1.0
    else:
        c0 = np.asarray(initial, dtype=complex) / np.linalg.norm(initial)
    exact = np.abs(np.array([expm(-1j * H * ti) @ c0 for ti in t])) ** 2
    assert ts.norm_residual < 1e-10
    assert np.max(np.abs(ts.atom_populations - exact[:, :n_e])) <= 1e-10
    assert np.max(np.abs(ts.photon_populations - exact[:, n_e:])) <= 1e-10
    plain = evolve(model, emitters, initial, t)
    assert np.max(np.abs(plain.atom_populations - exact[:, :n_e])) <= 1e-10
    return ts


def _gauge(model, angles):
    """The model with hopping (nu, nup) multiplied by
    exp(i (angles[nu] - angles[nup])): a complex Hamiltonian with the same
    spectrum and the same degeneracies."""
    hops = tuple((nu, nup, off, amp * cmath.exp(1j * (angles[nu] - angles[nup])))
                 for nu, nup, off, amp in model.hoppings)
    return dataclasses.replace(model, name=f"gauged-{model.name}", hoppings=hops)


T_ORACLE = np.linspace(0.0, 40.0, 9)


def _oracle_cases():
    saw, stub = build_sawtooth(10), build_stub(8, Delta=4.0)
    gauged = _gauge(saw, (0.0, 0.9))
    assert not np.isreal(gauged.hoppings[1][3])
    return {
        "sawtooth-fb-resonant": (saw, [small_atom(saw, -2.0, 0.3, 4, "a")], 0),
        "stub-fb-resonant": (stub, [small_atom(stub, 0.0, 0.4, 3, "a")], 0),
        "stub-dark-b-site": (stub, [small_atom(stub, 0.0, 0.4, 3, "b")], 0),
        "sawtooth-three-small-atoms": (saw, [
            small_atom(saw, -2.0, 0.3, 2, "a"),
            small_atom(saw, -1.7, 0.2, 3, "b"),
            small_atom(saw, 0.5, 0.5, 7, "a")], 1),
        "sawtooth-cls-giants": (saw, [
            cls_emitter(saw, -1.95, 0.2, 2), cls_emitter(saw, -1.95, 0.2, 3),
            small_atom(saw, -2.0, 0.1, 6, "a")], 0),
        "sawtooth-nearly-parallel-emitters": (saw, [
            EmitterSpec(-2.0, ((8, 0.3),)),
            EmitterSpec(-1.9, ((8, 0.3), (12, 3e-4)))], 1),
        "stub-cls-giants": (stub, [
            cls_emitter(stub, 0.05, 0.3, 1), cls_emitter(stub, 0.05, 0.3, 2)], 1),
        "gauged-sawtooth-complex-coupling": (gauged, [
            EmitterSpec(-2.0, ((8, 0.3 * cmath.exp(0.4j)), (9, -0.2j))),
            small_atom(gauged, -1.8, 0.25, 1, "a")], 0),
        "disordered-stub-diagonal": (
            apply_disorder(stub, DisorderSpec("diagonal", 0.3, seed=2)),
            [small_atom(stub, 0.0, 0.4, 3, "a"),
             small_atom(stub, 0.1, 0.2, 5, "c")], 0),
        "disordered-stub-off-diagonal": (
            apply_disorder(stub, DisorderSpec("off-diagonal", 0.4, seed=5)),
            [small_atom(stub, 0.0, 0.4, 3, "a")], 0),
    }


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_evolve_matches_expm_oracle(name):
    """The reduced evolve equals expm; real hoppings with real couplings
    give a bordered matrix with no imaginary part, so ``propagate`` takes
    the real ``eigh``, and complex couplings keep their imaginary part."""
    model, emitters, initial = ORACLE_CASES[name]
    _assert_matches_expm(model, emitters, initial, T_ORACLE)
    c0 = np.eye(len(emitters) + model.n_sites, dtype=complex)[initial]
    H = dynamics._reduced_problem(model, tuple(emitters), c0,
                                  T_ORACLE[-1])[0]
    real = (np.isreal([amp for *_, amp in model.hoppings]).all()
            and np.isreal([g for em in emitters for _, g in em.couplings]).all())
    assert H.imag.any() != real


@pytest.mark.parametrize("disorder", [None, DisorderSpec("diagonal", 0.2, 1)])
def test_explicit_initial_with_photon_weight_matches_expm(disorder):
    model = build_sawtooth(10)
    if disorder is not None:
        model = apply_disorder(model, disorder)
    emitters = [small_atom(model, -2.0, 0.3, 4, "a"),
                small_atom(model, -1.5, 0.2, 6, "b")]
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=22) + 1j * rng.normal(size=22)
    c0[:2] *= 0.1                   # most of the weight in the field
    _assert_matches_expm(model, emitters, c0, T_ORACLE)
    # a photon packet with no emitter weight at all
    c0[:2] = 0.0
    _assert_matches_expm(model, emitters, c0, T_ORACLE)


def test_decoupled_emitters_leave_the_reduced_subspace_empty():
    """No coupling reaches the bath: the bordered matrix is the emitters
    alone, and a photon initial state evolves freely next to them."""
    model = build_sawtooth(10)
    emitters = [EmitterSpec(0.5, ((0, 0.0),)), EmitterSpec(-1.0, ((3, 0.0),))]
    H, c_red, _ = dynamics._reduced_problem(
        model, tuple(emitters), np.r_[1.0, np.zeros(21)].astype(complex),
        40.0)
    assert H.shape == (2, 2) and np.allclose(c_red, [1.0, 0.0])
    ts = _assert_matches_expm(model, emitters, 1, T_ORACLE)
    assert np.max(np.abs(ts.atom_populations[:, 1] - 1.0)) < 1e-12
    assert np.max(ts.photon_populations) < 1e-24
    c0 = np.zeros(22, dtype=complex)
    c0[[0, 5, 6]] = (0.5, 0.6, 0.3j)
    _assert_matches_expm(model, emitters, c0, T_ORACLE)


def test_reduced_dimension_counts_distinct_levels():
    """One emitter on an a-site of the sawtooth sees the N-fold flat band as
    one mode and each +-k pair of the dispersive band as one mode."""
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, 1e-3, 20, "a")
    c0 = np.r_[1.0, np.zeros(model.n_sites)].astype(complex)
    H, _c, _f = dynamics._reduced_problem(model, (em,), c0, 1e3)
    assert H.shape == (1 + 1 + 21, 1 + 1 + 21)
    assert not H.imag.any()
    # a real explicit initial vector with photon weight: a second column,
    # and still no imaginary part in H or in the reduced initial vector
    c0[1::7] = 0.3
    H, c_red, _f = dynamics._reduced_problem(model, (em,), c0, 1e3)
    assert not H.imag.any() and not c_red.imag.any()


def test_merge_bound_keeps_near_degenerate_levels_apart():
    """Levels closer than the merge bound at short times are merged; over a
    longer grid their splitting resolves and they are kept apart."""
    model = build_sawtooth(40)
    em = small_atom(model, -2.0, 1e-3, 20, "a")
    c0 = np.r_[1.0, np.zeros(model.n_sites)].astype(complex)
    w = np.sort(greens.spectral_basis(model).w)
    fb = w[np.abs(w + 2.0) < 1e-8]
    spread = fb.max() - fb.min()
    assert spread > 0
    short = dynamics.MERGE_PHASE / spread / 2
    long = dynamics.MERGE_PHASE / spread * 2
    n_short = dynamics._reduced_problem(model, (em,), c0, short)[0].shape[0]
    n_long = dynamics._reduced_problem(model, (em,), c0, long)[0].shape[0]
    assert n_long > n_short


CLEAN_MODELS = [build_chain(5), build_sawtooth(4), build_stub(4, Delta=2.0),
                build_kagome1d(4), build_double_comb(4, t=1.3, omega_c=0.2),
                build_checkerboard(4, 4), _gauge(build_stub(4), (0.0, 1.1, -0.4))]


@st.composite
def _clean_problems(draw):
    model = draw(st.sampled_from(CLEAN_MODELS))
    n = model.n_sites
    n_e = draw(st.integers(1, 3))
    emitters = []
    for _ in range(n_e):
        sites = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        g = [complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
             for _ in sites]
        emitters.append(EmitterSpec(draw(st.floats(-3.0, 3.0)),
                                    tuple(zip(sites, g))))
    if draw(st.booleans()):
        initial = draw(st.integers(0, n_e - 1))
    else:
        parts = st.floats(-1.0, 1.0)
        initial = np.array([complex(draw(parts), draw(parts))
                            for _ in range(n_e + n)])
        if np.linalg.norm(initial) < 1e-3:
            initial[0] = 1.0
    t = np.linspace(0.0, draw(st.floats(0.0, 60.0)), 5)
    return model, emitters, initial, t


@given(problem=_clean_problems(), bloch=st.booleans())
@settings(max_examples=40, deadline=None)
def test_reduced_evolve_property(problem, bloch):
    """Random small clean models, couplings and initial vectors, on the
    dense or the Bloch basis: the reduced evolve equals expm."""
    model, emitters, initial, t = problem
    with pytest.MonkeyPatch.context() as mp:
        if bloch:
            mp.setattr(greens, "DENSE_MAX_SITES", 0)
        _assert_matches_expm(model, emitters, initial, t)


def _forbid(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} called on the Bloch path")
    return raise_


def test_large_sawtooth_evolves_in_the_bloch_basis(monkeypatch):
    """4000 sites: no dense eigensystem and no (n_e + N)^2 matrix; the
    fitted Rabi frequency is the flat-band law, and the peak allocation does
    not grow with the time grid beyond one chunk."""
    model = build_sawtooth(2000)
    assert model.n_sites > greens.DENSE_MAX_SITES
    monkeypatch.setattr(greens, "eigensystem", _forbid("eigensystem"))
    g = 1e-3
    target = g * math.sqrt(1.0 - 1.0 / math.sqrt(3.0))
    em = small_atom(model, -2.0, g, 1000, "a")
    t_end = 1.3 * math.pi / target
    peaks = []
    for n_t in (2001, 20001):
        t = np.linspace(0.0, t_end, n_t)
        tracemalloc.start()
        ts = evolve(model, [em], 0, t)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert ts.norm_residual < 1e-10
        assert fit_rabi_frequency(ts) == pytest.approx(target, abs=2e-3 * target)
    assert rabi_frequency(model, em) == pytest.approx(target, rel=1e-10)
    # a (modes x n_t) temporary would add ~1000 * 18000 * 16 B = 288 MB
    assert peaks[1] - peaks[0] < dynamics.CHUNK_ELEMENTS * 16
