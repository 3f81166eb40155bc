import math

import numpy as np
import pytest
from scipy.special import jv

from flatqed.boundstate import omega0_for_detuning, small_atom
from flatqed.giant import (cls_emitter, cls_superposition_emitter,
                           giant_interaction)
from flatqed.interactions import (bessel_chain_amplitudes, interaction_matrix,
                                  spin_dynamics)
from flatqed.lattice import (build_chain, build_double_comb, build_sawtooth,
                             build_stub)


def test_two_atoms_one_cavity():
    """All-to-all coupling through a single cavity: K12 = g^2/(omega0 - omega_c)."""
    omega_c, omega0, g = 0.3, 1.5, 2e-3
    model = build_chain(1, onsite=omega_c)
    ems = [small_atom(model, omega0, g, 0, "a") for _ in range(2)]
    K = interaction_matrix(model, ems)
    exact = g * g / (omega0 - omega_c)
    assert abs(K.K[0, 1] - exact) / abs(exact) < 1e-12
    assert abs(K.K[0, 0] - exact) / abs(exact) < 1e-12  # Lamb-shift diagonal


def test_hermiticity_and_reciprocity():
    model = build_sawtooth(40)
    om0 = omega0_for_detuning(model, 0.02)
    ems = [small_atom(model, om0, 1e-3, c, "a") for c in (18, 20, 25)]
    K = interaction_matrix(model, ems).K
    assert np.max(np.abs(K - K.conj().T)) < 1e-12


def test_chain_interaction_range_law():
    """K(d) ~ (-1)^d e^{-d/lambda}: ratio of consecutive couplings."""
    model = build_chain(600)
    delta = 0.01
    om0 = omega0_for_detuning(model, delta, "lower_edge")
    ems = [small_atom(model, om0, 1e-3, 300 + d, "a") for d in (0, 6, 7)]
    K = interaction_matrix(model, ems)
    ratio = (K.K[0, 2] / K.K[0, 1]).real
    lam = math.sqrt(1.0 / delta)
    assert ratio == pytest.approx(-math.exp(-1.0 / lam), rel=2e-2)


def test_doublecomb_cross_cell_suppressed():
    model = build_double_comb(20)
    om0 = 1e-3   # just above the FB at 0, inside the gap
    e_a = small_atom(model, om0, 1e-3, 5, "a")
    e_b = small_atom(model, om0, 1e-3, 5, "b")
    e_far = small_atom(model, om0, 1e-3, 10, "a")
    K = interaction_matrix(model, [e_a, e_b, e_far])
    assert abs(K.K[0, 2]) < 1e-10 * abs(K.K[0, 1])


def test_fb_interaction_detuning_scaling():
    """Near an isolated FB, K * delta is detuning-independent to ~1% over a
    decade (pure 1/(omega0 - omega_FB) prefactor)."""
    model = build_sawtooth(60)
    vals = []
    for delta in (1e-3, 1e-2):
        om0 = omega0_for_detuning(model, delta)
        ems = [small_atom(model, om0, 1e-3, c, "a") for c in (30, 31)]
        K = interaction_matrix(model, ems)
        vals.append(abs(K.K[0, 1]) * delta)
    assert vals[0] == pytest.approx(vals[1], rel=1e-2)


def test_exact_pole_variant_close_to_leading_order():
    model = build_sawtooth(40)
    om0 = omega0_for_detuning(model, 0.05)
    ems = [small_atom(model, om0, 1e-3, c, "a") for c in (18, 21)]
    K0 = interaction_matrix(model, ems)
    K1 = interaction_matrix(model, ems, exact_pole=True)
    assert abs(K1.K[0, 1] - K0.K[0, 1]) / abs(K0.K[0, 1]) < 1e-3


def test_interaction_matrix_validates_emitters():
    model = build_sawtooth(20)
    e1 = small_atom(model, -1.9, 1e-3, 5, "a")
    e2 = small_atom(model, -1.8, 1e-3, 8, "a")
    with pytest.raises(ValueError):
        interaction_matrix(model, [e1, e2])
    e3 = small_atom(model, -1.9, 2e-3, 8, "a")
    with pytest.raises(ValueError):
        interaction_matrix(model, [e1, e3])
    with pytest.raises(ValueError):
        interaction_matrix(model, [])


def test_spin_dynamics_initial_condition_and_norm():
    H = np.array([[0.0, 0.3], [0.3, 0.1]])
    tr = spin_dynamics(H, 0, np.array([0.0, 1.0, 2.0]))
    assert np.allclose(tr.amplitudes[0], [1.0, 0.0])
    assert tr.norm_residual < 1e-10
    assert np.allclose(tr.populations.sum(axis=1), 1.0, atol=1e-10)


def test_spin_dynamics_rejects_nonhermitian():
    with pytest.raises(ValueError):
        spin_dynamics(np.array([[0.0, 1.0], [0.0, 0.0]]), 0, np.array([0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spin_dynamics_rejects_nonfinite_h_eff(bad):
    """A nan or inf entry fails the Hermiticity comparison silently (nan >
    tol is false), so it is rejected on its own."""
    H = np.array([[0.0, 0.3], [0.3, 0.0]])
    H[1, 1] = bad
    with pytest.raises(ValueError, match="finite square Hermitian"):
        spin_dynamics(H, 0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_spin_dynamics_rejects_non_square_h_eff(shape):
    with pytest.raises(ValueError, match="finite square Hermitian"):
        spin_dynamics(np.zeros(shape), 0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("times", [1.0, np.linspace(0, 1, 8).reshape(2, 4)],
                         ids=["scalar", "2d"])
def test_spin_dynamics_rejects_times_not_1d(times):
    with pytest.raises(ValueError, match="one-dimensional"):
        spin_dynamics(np.eye(2), 0, times)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spin_dynamics_rejects_nonfinite_times(bad):
    with pytest.raises(ValueError, match="must be finite"):
        spin_dynamics(np.eye(2), 0, np.array([0.0, bad]))


def test_bessel_oracle_nn_chain():
    """Translation-invariant NN chain: c_n(t) = i^n J_n(-2 kappa1 t)."""
    N, kappa1 = 64, 0.7
    H = np.zeros((N, N))
    for n in range(N):
        H[n, (n + 1) % N] += kappa1
        H[(n + 1) % N, n] += kappa1
    t_grid = np.linspace(0.0, 5.0 / kappa1, 5)
    tr = spin_dynamics(H, 0, t_grid)
    n_idx = np.arange(N)
    dist = np.minimum(n_idx, N - n_idx)     # i^n J_n is even in n
    for i, t in enumerate(t_grid):
        exact = bessel_chain_amplitudes(dist, t, kappa1)
        assert np.max(np.abs(tr.amplitudes[i] - exact)) < 1e-6


def test_bessel_chain_amplitudes_match_scipy():
    """The FFT form of J_n(x) equals scipy's jv to 1e-14 for |n| <= 32 and
    |x| <= 40, the range of every caller."""
    n = np.arange(-32, 33)
    for x in np.linspace(-40.0, 40.0, 161):
        exact = (1j ** n) * jv(n, x)
        assert np.max(np.abs(bessel_chain_amplitudes(n, x, -0.5) - exact)) < 1e-14


def test_rk4_oracle_with_nnn_coupling():
    """kappa2 != 0 has no Bessel form; compare the eigendecomposition
    evolution against small-step RK4 integration of i c' = H c."""
    rng = np.random.default_rng(5)
    N = 16
    kappa1, kappa2 = 0.8, 0.2
    H = np.zeros((N, N))
    for n in range(N):
        H[n, (n + 1) % N] += kappa1
        H[(n + 1) % N, n] += kappa1
        H[n, (n + 2) % N] += kappa2
        H[(n + 2) % N, n] += kappa2
    t_end = 3.0
    tr = spin_dynamics(H, 0, np.array([t_end]))

    c = np.zeros(N, dtype=complex)
    c[0] = 1.0
    steps = 6000
    dt = t_end / steps
    rhs = lambda v: -1j * (H @ v)
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(tr.amplitudes[0] - c)) < 1e-8
    _ = rng  # seeded for future randomized variants


def _ring_distance(N):
    """Distance between cells i and j around a ring of N cells."""
    d = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    return np.minimum(d, N - d)


@pytest.mark.parametrize("Delta", [1.0, 4.0])
def test_stub_cls_giants_are_a_nearest_neighbour_chain(Delta):
    """One giant on the CLS of every cell of a stub ring: neighbouring CLSs
    share one a-site of weight 1/(2 + Delta), so K_01 = g^2/(delta (2 +
    Delta)), and CLSs further apart share no site, so every entry beyond
    nearest neighbours is exactly 0."""
    g, delta, N = 1e-3, 0.05, 12
    model = build_stub(N, Delta=Delta)
    om0 = omega0_for_detuning(model, delta)
    K = giant_interaction(
        model, [cls_emitter(model, om0, g, n) for n in range(N)]).K
    kappa1 = g ** 2 / (delta * (2.0 + Delta))
    dist = _ring_distance(N)
    assert np.max(np.abs(K[dist == 1] - kappa1)) < 1e-12 * kappa1
    assert np.all(K[dist > 1] == 0.0)


@pytest.mark.parametrize("Delta", [1.0, 4.0])
def test_stub_pair_giants_next_nearest_ratio(Delta):
    """Giants on the CLS pair of cells n and n+1 overlap with the pair one
    cell over through 1 + 2 alpha and with the pair two cells over through
    alpha = 1/(2 + Delta): K_02/K_01 = 1/(4 + Delta)."""
    model = build_stub(16, Delta=Delta)
    om0 = omega0_for_detuning(model, 0.05)
    ems = [cls_superposition_emitter(model, om0, 1e-3, [n, n + 1], [1.0, 1.0])
           for n in (4, 5, 6)]
    K = giant_interaction(model, ems).K
    ratio = (K[0, 2] / K[0, 1]).real
    assert abs(ratio * (4.0 + Delta) - 1.0) < 1e-12


def test_lattice_spin_chain_follows_bessel_form():
    """The spin chain of CLS giants on a 64-cell stub ring, with the common
    diagonal K_00 removed, spreads a flipped spin as i^n J_n(-2 kappa_1 t)
    for t kappa_1 <= 5."""
    g, delta, N = 1e-3, 0.05, 64
    model = build_stub(N, Delta=4.0)
    om0 = omega0_for_detuning(model, delta)
    K = giant_interaction(
        model, [cls_emitter(model, om0, g, n) for n in range(N)]).K
    kappa1 = K[0, 1].real
    t_grid = np.linspace(0.0, 5.0 / kappa1, 6)
    tr = spin_dynamics(K - K[0, 0] * np.eye(N), 0, t_grid)
    dist = _ring_distance(N)[0]
    for i, t in enumerate(t_grid):
        exact = bessel_chain_amplitudes(dist, t, kappa1)
        assert np.max(np.abs(tr.amplitudes[i] - exact)) < 1e-12


@pytest.mark.parametrize("initial,match", [
    (-1, "outside range"),
    (5, "outside range"),
    (np.zeros(3), "non-zero"),
    (np.array([1.0, math.nan, 0.0]), "finite"),
    (np.ones(2), "length 3"),
    (True, "bool"),
], ids=["negative", "too-large", "zero-vector", "nan-vector", "short-vector",
        "bool"])
def test_spin_dynamics_rejects_bad_initial(initial, match):
    with pytest.raises(ValueError, match=match):
        spin_dynamics(np.eye(3), initial, np.array([0.0, 1.0]))
