import math

import numpy as np
import pytest

from flatqed import boundstate
from flatqed.boundstate import (BoundStateResult, EmitterSpec, bs_profile,
                                bs_wavefunction,
                                localization_length_fit, omega0_for_detuning,
                                small_atom, solve_pole)
from flatqed.dynamics import evolve
from flatqed.errors import InsufficientData, NoRootInGap
from flatqed.interactions import interaction_matrix
from flatqed.lattice import (build_chain, build_checkerboard,
                             build_kagome1d, build_sawtooth, build_stub,
                             real_space_hamiltonian, site_index)
from dense_reference import total_hamiltonian


def test_single_cavity_exact_pole():
    """One cavity + one atom is a 2x2 problem: the quadratic-formula
    eigenvalues are the exact poles on both sides of the cavity line."""
    omega_c, omega0, g = 0.3, 1.5, 2e-3
    model = build_chain(1, onsite=omega_c)
    em = small_atom(model, omega0, g, 0, "a")
    root = solve_pole(model, em)
    disc = math.sqrt((omega0 - omega_c) ** 2 + 4 * g * g)
    upper = 0.5 * (omega0 + omega_c + disc)
    assert root == pytest.approx(upper, abs=1e-13)
    # atom below the cavity -> lower branch
    em2 = small_atom(model, -1.0, g, 0, "a")
    lower = 0.5 * (-1.0 + omega_c - math.sqrt((-1.0 - omega_c) ** 2 + 4 * g * g))
    assert solve_pole(model, em2) == pytest.approx(lower, abs=1e-13)


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 1e-1])
def test_pole_residual_small(delta):
    model = build_sawtooth(60)
    em = small_atom(model, omega0_for_detuning(model, delta), 1e-3, 30, "a")
    assert bs_wavefunction(model, em).pole_residual < 1e-12 * model.J


def test_no_root_in_subguard_gap():
    """omega0 inside the (numerically degenerate) FB cluster has no usable
    gap around it.  The cluster is read from the levels the resolvent seam
    uses, whichever basis it takes."""
    from flatqed.greens import spectral_basis
    from flatqed.lattice import build_double_comb

    model = build_double_comb(10)
    w = spectral_basis(model).w
    fb = np.sort(w[np.abs(w) < 1e-10])
    gaps = np.diff(fb)
    if not np.any(gaps > 0):
        pytest.skip("FB cluster exactly degenerate on this platform")
    i = int(np.argmax(gaps > 0))
    omega0 = 0.5 * (fb[i] + fb[i + 1])
    em = small_atom(model, float(omega0), 1e-3, 5, "a")
    with pytest.raises(NoRootInGap):
        solve_pole(model, em)


def test_bound_state_above_spectrum():
    """omega0 above everything: the pole sits above the dispersive band."""
    model = build_sawtooth(30)
    em = small_atom(model, 5.0, 0.1, 15, "a")
    res = bs_wavefunction(model, em)
    assert res.omega_bs > 4.0
    assert res.pole_residual < 1e-12


@pytest.mark.parametrize("n_cells", [60, 600], ids=["dense", "bloch"])
@pytest.mark.parametrize("shift", [0.0, 1e-3], ids=["pole", "off-pole"])
def test_pole_residual_is_the_self_energy_residual(n_cells, shift):
    """The residual read off psi equals |F(omega)| from the self-energy
    closure, at the solved pole and at a supplied energy beside it, on the
    dense basis (120 sites) and on the Bloch basis (1200 sites)."""
    from flatqed.greens import DENSE_MAX_SITES, self_energy

    model = build_sawtooth(n_cells)
    assert (model.n_sites > DENSE_MAX_SITES) == (n_cells == 600)
    em = small_atom(model, omega0_for_detuning(model, 1e-2), 1e-2,
                    n_cells // 2, "a")
    omega = solve_pole(model, em) + shift
    sigma, _ = self_energy(model, em.chi(model.n_sites))(omega)
    F = abs(omega - em.omega0 - em.gbar ** 2 * float(sigma[0, 0].real))
    res = bs_wavefunction(model, em, omega)
    assert res.pole_residual == pytest.approx(F, rel=1e-12, abs=1e-15 * model.J)


def test_giant_bound_state_reports_its_leading_order_residual():
    """A CLS giant's bound state is taken at the bare omega0, where the
    resolvent acts on chi as 1/(omega0 - omega_FB): the pole equation then
    misses by gbar^2 / |omega0 - omega_FB|."""
    from flatqed.giant import cls_emitter, giant_bound_state

    model = build_stub(30)
    em = cls_emitter(model, omega0_for_detuning(model, 0.05), 1e-2, 15)
    res = giant_bound_state(model, em)
    expected = em.gbar ** 2 / abs(em.omega0 - model.cls.omega_fb)
    assert res.pole_residual == pytest.approx(expected, rel=1e-12)


def test_wavefunction_eigenvector_of_total_h():
    model = build_sawtooth(40)
    em = small_atom(model, omega0_for_detuning(model, 0.05), 2e-2, 20, "a")
    res = bs_wavefunction(model, em)
    H = total_hamiltonian(model, [em])
    vec = np.concatenate(([res.c_e], res.psi))
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.max(np.abs(H @ vec - res.omega_bs * vec)) < 1e-10
    assert res.norm_residual < 1e-12


def test_total_hamiltonian_structure():
    model = build_chain(4)
    em = EmitterSpec(omega0=0.5, couplings=((1, 0.01), (2, 0.02j)))
    H = total_hamiltonian(model, [em])
    assert H.shape == (5, 5)
    assert H[0, 0] == 0.5
    assert H[2, 0] == 0.01 and H[0, 2] == 0.01
    assert H[3, 0] == 0.02j and H[0, 3] == -0.02j
    assert np.max(np.abs(H[1:, 1:] - real_space_hamiltonian(model))) == 0.0


def test_omega0_for_detuning_conventions():
    assert omega0_for_detuning(build_sawtooth(12), 0.01) == pytest.approx(-1.99)
    assert omega0_for_detuning(build_stub(12, Delta=4.0), 0.01) == pytest.approx(0.01)
    assert omega0_for_detuning(build_kagome1d(8), 0.01) == pytest.approx(2.01)
    # bottom band touching: step below the spectrum instead
    assert omega0_for_detuning(build_checkerboard(6, 6), 0.01) == pytest.approx(-0.01)
    assert omega0_for_detuning(build_chain(12), 0.01,
                               reference="lower_edge") == pytest.approx(-2.01)
    with pytest.raises(ValueError):
        omega0_for_detuning(build_chain(12), -0.1)


def test_localization_fit_chain_matches_sqrt_law():
    model = build_chain(400)
    delta = 0.04
    em = small_atom(model, omega0_for_detuning(model, delta, "lower_edge"),
                    1e-3, 200, "a")
    res = bs_wavefunction(model, em)
    lam, r2 = localization_length_fit(res, model, "a")
    assert lam == pytest.approx(math.sqrt(1.0 / delta), rel=2e-2)
    assert r2 > 0.999


def test_localization_fit_insufficient_data():
    model = build_sawtooth(12)   # d_max = 3 -> fewer than 4 points
    em = small_atom(model, omega0_for_detuning(model, 0.01), 1e-3, 6, "a")
    res = bs_wavefunction(model, em)
    with pytest.raises(InsufficientData):
        localization_length_fit(res, model, "a")
    # enough points, but a tail that grows away from the emitter
    model = build_chain(40)
    em = small_atom(model, -2.1, 1e-3, 20, "a")
    d = np.abs(np.arange(model.n_sites) - 20)
    res = BoundStateResult(-2.1, np.exp(d / 5.0) / 1e3, 1.0, em)
    with pytest.raises(InsufficientData, match="does not decay"):
        localization_length_fit(res, model, "a")


def test_amplitude_floor_truncates_window():
    """At large detuning the tail hits the 1e-13 floor well inside N/4; the
    fit must stop there instead of fitting noise."""
    model = build_chain(400)
    em = small_atom(model, -4.0, 1e-3, 200, "a")   # delta = 2J: lambda ~ 0.7
    res = bs_wavefunction(model, em)
    lam, r2 = localization_length_fit(res, model, "a")
    assert 0.5 < lam < 0.85
    assert r2 > 0.999


def test_bs_profile_symmetric_seed():
    model = build_sawtooth(30)
    em = small_atom(model, omega0_for_detuning(model, 0.05), 1e-3, 15, "a")
    res = bs_wavefunction(model, em)
    prof = bs_profile(res, model, "a", d_max=5)
    assert prof.shape == (6,)
    assert prof[0] > prof[2] > prof[4] > 0


@pytest.mark.parametrize("model,cell,sub", [
    (build_sawtooth(9), (7,), "b"),
    (build_checkerboard(6, 5), (4, 3), "a"),
    (build_checkerboard(6, 5), (0, 4), "b"),
], ids=["sawtooth", "checkerboard-a", "checkerboard-b"])
def test_bs_profile_matches_site_loop(model, cell, sub):
    """The one indexed read equals a loop over site_index, on both axes and
    with d running past the lattice edge (periodic wrap)."""
    chi = np.random.default_rng(3).standard_normal(model.n_sites)
    em = EmitterSpec(omega0=9.0, couplings=(
        (site_index(model, cell, 0), 0.1), (site_index(model, cell, 1), 1.0),
        (site_index(model, (0,) * model.dim, 0), 0.5)))
    res = BoundStateResult(omega_bs=9.0, psi=chi + 1j * chi[::-1], c_e=1.0,
                           emitter=em)
    for axis in range(model.dim):
        d_max = model.shape[axis] + 2
        expected = []
        for d in range(d_max + 1):
            c = list(cell)
            c[axis] += d
            expected.append(abs(res.psi[site_index(model, tuple(c), sub)]))
        prof = bs_profile(res, model, sub, axis=axis, d_max=d_max)
        assert np.array_equal(prof, expected)


def test_decoupled_emitter_chi_is_zero():
    em = EmitterSpec(omega0=0.1, couplings=((0, 0.0),))
    assert em.gbar == 0.0
    assert np.all(em.chi(4) == 0.0)


def test_emitter_validation():
    with pytest.raises(ValueError):
        EmitterSpec(omega0=0.0, couplings=())
    for omega0, g in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                      (0.0, complex(math.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            EmitterSpec(omega0=omega0, couplings=((0, g),))
    em = EmitterSpec(omega0=0.0, couplings=((99, 1.0),))
    with pytest.raises(ValueError):
        em.chi(10)


@pytest.mark.parametrize("couplings", [((0, 1e300),),
                                       ((0, 1e200), (1, 1e200)),
                                       ((0, 1.5e308), (0, 1.5e308))],
                         ids=["one", "sum-of-squares", "summed-site"])
def test_overflowing_gbar_is_rejected(couplings):
    """A finite coupling whose gbar^2 overflows is a ValueError, not an
    OverflowError from the first square."""
    with pytest.raises(ValueError, match="overflows"):
        EmitterSpec(omega0=0.0, couplings=couplings)


def test_repeated_site_couplings_add_up():
    """gbar is the norm of the summed coupling vector, so an emitter that
    names a site twice is the emitter with the summed amplitude, bit for bit,
    in the pole, the wavefunction, K and the dynamics (with the unsummed
    norm, chi was not a unit vector and the pole bracket missed the root)."""
    model = build_chain(50)
    omega0 = omega0_for_detuning(model, 0.1, reference="lower_edge")
    split = [EmitterSpec(omega0, ((x, 10.0), (x, 10.0))) for x in (25, 28)]
    merged = [EmitterSpec(omega0, ((x, 20.0),)) for x in (25, 28)]
    assert split[0].gbar == merged[0].gbar == 20.0
    assert np.array_equal(split[0].chi(50), merged[0].chi(50))
    pole = solve_pole(model, split[0])
    assert pole == solve_pole(model, merged[0])
    assert pole == pytest.approx(-21.12256126, abs=1e-8)
    assert np.array_equal(bs_wavefunction(model, split[0]).psi,
                          bs_wavefunction(model, merged[0]).psi)
    for exact in (False, True):
        assert np.array_equal(interaction_matrix(model, split, exact).K,
                              interaction_matrix(model, merged, exact).K)
    t = np.linspace(0.0, 2.0, 21)
    assert np.array_equal(evolve(model, split, 0, t).atom_populations,
                          evolve(model, merged, 0, t).atom_populations)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_nonfinite_detuning_is_rejected(delta):
    with pytest.raises(ValueError, match="must be finite"):
        omega0_for_detuning(build_sawtooth(12), delta)


def test_unknown_detuning_reference_is_rejected_before_the_basis(monkeypatch):
    """A bad ``reference`` raises before any spectral basis is built (a
    1000-site model would otherwise pay its dense eigh first)."""
    def no_basis(model):
        raise AssertionError("spectral basis built for a rejected reference")

    monkeypatch.setattr(boundstate, "spectral_basis", no_basis)
    with pytest.raises(ValueError, match="unknown detuning reference"):
        omega0_for_detuning(build_sawtooth(500), 0.1, reference="bogus")
