"""End-to-end acceptance criteria.

Each test pins the tolerances of one headline claim against a closed form
where one exists.  Two claims are checked through the exact mechanism that
sets them rather than through a single constant:

* test_01: on the sawtooth the bound-state decay length is the exact rate of
  the solved pole, lambda_exact(omega_BS) = 1/arccosh(1 - omega_BS/(2J)), from
  the single complex-momentum singularity of the dispersive band 2J(1 + cos k)
  (complex band structure; Lee & Joannopoulos, PRB 23, 4988 (1981)).  It moves
  with detuning (0.7596 -> 0.7766 over delta = 1e-3..1e-1) and tends to the
  CLS-algebra value lambda_1d(1/4) = 0.759 as delta -> 0.
* test_06: the checkerboard flat band touches the dispersive band at Gamma
  (|alpha| = 1/4), where the slower 2D branch point diverges,
  lambda_2d(1/4) = inf.  The bound-state tail is non-exponential, with a
  per-step decay length that grows with distance; 0.567 is the faster,
  subleading length lambda'_2d(1/4), not the tail length.
"""

import math

import numpy as np
import pytest

from cls_reference import cls_vector
from flatqed.boundstate import (bs_profile, bs_wavefunction,
                                localization_length_fit,
                                omega0_for_detuning, small_atom)
from flatqed.dynamics import evolve, fit_rabi_frequency
from flatqed.errors import SingularF
from flatqed.flatband import (cls_set, lambda_1d, lambda_2d,
                              projector_cls_expansion, xi_2d_axis,
                              xi_analytic_1d, xi_numeric)
from flatqed.giant import cls_emitter, giant_bound_state, giant_interaction
from flatqed.greens import eigensystem, fb_projector
from flatqed.interactions import (bessel_chain_amplitudes, interaction_matrix,
                                  spin_dynamics)
from flatqed.lattice import (DisorderSpec, apply_disorder, bloch_hamiltonian,
                             build_chain, build_checkerboard,
                             build_double_comb, build_kagome1d,
                             build_sawtooth, build_stub, site_index)
from flatqed.spectrum import flat_band_width_real_space


def _sawtooth_exact_length(omega: float, J: float) -> float:
    """Exact decay length of a sawtooth gap state at energy omega.

    G_aa(k) is a constant plus a single pole from the dispersive band
    2J(1 + cos k), at cos k* = omega/(2J) - 1; the CLS pole at cos k = -2
    cancels because the dispersive band meets the flat band there.  Hence
    |G_aa(d)| ~ exp(-d / lambda) exactly for d >= 1, with
    1/lambda = arccosh(1 - omega/(2J))."""
    return 1.0 / math.acosh(1.0 - omega / (2.0 * J))


def test_01_sawtooth_fb_bound_state_detuning_independence():
    """Sawtooth N=100, g=1e-3 J, delta in {1e-3, 1e-2, 1e-1} J:
    lambda = 0.759 +- 3% at each detuning; the tail is the single exponential
    of the solved pole (per-step length over d = 1..8 equal to
    lambda_exact(omega_BS) within 1e-6, fitted lambda within 5e-3); and
    lambda_exact(omega_BS) -> lambda_1d(1/4) as delta -> 0 (within 1e-3 at
    delta = 1e-3).

    lambda_exact moves with the pole, 0.7596 -> 0.7766 over these detunings
    (spread 1.0225), so no 1% detuning-independent length exists at finite
    delta; the finite-range claim is its delta -> 0 limit.  The fit's 3.6e-3
    gap at delta = 1e-3 is the round-off floor of the eigh-based resolvent,
    which the fit window reaches near the 1e-13 amplitude floor; a fit over
    d <= 10 agrees to 1e-8."""
    model = build_sawtooth(100)
    lam_exact = {}
    for delta in (1e-3, 1e-2, 1e-1):
        em = small_atom(model, omega0_for_detuning(model, delta), 1e-3, 50, "a")
        res = bs_wavefunction(model, em)
        lam, _r2 = localization_length_fit(res, model, "a")
        assert abs(lam - 0.759) / 0.759 < 0.03
        lam_exact[delta] = _sawtooth_exact_length(res.omega_bs, model.J)
        prof = bs_profile(res, model, "a", d_max=9)
        for d in range(1, 9):
            step = 1.0 / math.log(prof[d] / prof[d + 1])
            assert abs(step / lam_exact[delta] - 1.0) < 1e-6
        assert abs(lam / lam_exact[delta] - 1.0) < 5e-3
    assert abs(lam_exact[1e-3] / lambda_1d(0.25) - 1.0) < 1e-3


def test_02_dispersive_edge_inverse_sqrt_scaling():
    """Sawtooth near the dispersive lower edge: lambda ratio = 2 +- 10%
    between delta_d = 0.1 and 0.025 J."""
    model = build_sawtooth(400)
    lams = {}
    for delta_d in (0.1, 0.025):
        em = small_atom(model, -delta_d, 1e-3, 200, "a")  # edge at omega = 0
        res = bs_wavefunction(model, em)
        lams[delta_d], _ = localization_length_fit(res, model, "b")
    assert lams[0.025] / lams[0.1] == pytest.approx(2.0, rel=0.10)


def test_03_homogeneous_chain():
    """Chain N=2000, delta=0.01 J: lambda = 10 +- 5% and exact (-1)^d sign
    alternation."""
    model = build_chain(2000)
    om0 = omega0_for_detuning(model, 0.01, reference="lower_edge")
    em = small_atom(model, om0, 1e-3, 1000, "a")
    res = bs_wavefunction(model, em)
    lam, _r2 = localization_length_fit(res, model, "a")
    assert lam == pytest.approx(10.0, rel=0.05)
    psi = res.psi.real
    for d in range(0, 40):
        assert psi[1000 + d] * psi[1000 + d + 1] < 0


def test_04_xi_closed_forms():
    """|xi_numeric - xi_analytic| < 1e-8 for alpha in {0.1, 0.25, 0.45},
    |dn| <= 10, N_k = 2**14."""
    for alpha in (0.1, 0.25, 0.45):
        for d in range(-10, 11):
            num = xi_numeric(alpha, (d,), n_k=2 ** 14)
            assert abs(num - xi_analytic_1d(alpha, d)) < 1e-8


def test_05_two_dimensional_law():
    """Isotropic alpha=0.2: on-axis decay rate matches 1/lambda_2d within 2%
    over distances 6-12 (after removing the 1/sqrt(d) pre-exponential
    correction of the 2D saddle point); alpha=0.15 closed form matches the
    numeric BZ sum to 1e-6 relative."""
    lam, _lamp = lambda_2d(0.2)
    xs = {d: xi_2d_axis(0.2, d) for d in range(6, 13)}
    for d in range(6, 12):
        rate = math.log(abs(xs[d] / xs[d + 1])) - 0.5 * math.log((d + 1) / d)
        assert rate == pytest.approx(1.0 / lam, rel=0.02)
    for d in range(0, 13):
        num = xi_numeric((0.15, 0.15), (d, 0), n_k=512)
        assert xi_2d_axis(0.15, d) == pytest.approx(num, rel=1e-6)


def test_06_checkerboard_band_touching():
    """Checkerboard 40x40, g=1e-3 J, delta in {1e-3, 1e-2, 1e-1} J: the flat
    band touches the dispersive band 2J(2 - cos kx - cos ky) at Gamma, so the
    CLS expansion is singular and lambda_2d(1/4) = inf.  The bound state then
    has no exponential tail:

    * psi equals the Bloch sum g c_e (1/N) sum_k e^{ik.d} [(omega_BS - H_k)^-1]_aa
      to 1e-8 relative for d <= 19 along x (the solved state is right);
    * the per-step decay length 1/ln(psi_d/psi_{d+1}) strictly increases
      over d = 2..14 at every delta;
    * the fitted lambda grows as delta decreases, and every fitted lambda
      exceeds 2 lambda'_2d(1/4) = 1.13 (0.567 is the faster, subleading
      branch point; the slower one, which sets the tail, has diverged)."""
    model = build_checkerboard(40, 40)
    with pytest.raises(SingularF):
        projector_cls_expansion(cls_set(model), model)
    lam_2d, lam_2d_sub = lambda_2d(0.25)
    assert lam_2d == math.inf

    nx, ny = model.shape
    ks = [(2.0 * math.pi * i / nx, 2.0 * math.pi * j / ny)
          for i in range(nx) for j in range(ny)]
    Hk = np.stack([bloch_hamiltonian(model, k) for k in ks])
    ds = np.arange(20)
    phases = np.exp(1j * np.outer(ds, [k[0] for k in ks])) / len(ks)
    sites = [site_index(model, (20 + d, 20), "a") for d in ds]

    lams = []
    for delta in (1e-3, 1e-2, 1e-1):
        em = small_atom(model, omega0_for_detuning(model, delta),
                        1e-3, (20, 20), "a")
        res = bs_wavefunction(model, em)
        G_aa = np.linalg.inv(res.omega_bs * np.eye(model.Q) - Hk)[:, 0, 0]
        bloch = 1e-3 * res.c_e * (phases @ G_aa)
        assert np.max(np.abs(res.psi[sites] - bloch) / np.abs(bloch)) < 1e-8

        prof = bs_profile(res, model, "a", d_max=15)
        steps = [1.0 / math.log(prof[d] / prof[d + 1]) for d in range(2, 15)]
        assert all(a < b for a, b in zip(steps, steps[1:]))

        lam, _r2 = localization_length_fit(res, model, "a")
        assert lam > 2.0 * lam_2d_sub
        lams.append(lam)
    assert lams[0] > lams[1] > lams[2]


def test_07_kagome1d_band_touching_divergence():
    """1D kagome: lambda strictly increasing as delta decreases through
    {0.1, 0.03, 0.01} J."""
    model = build_kagome1d(120)
    lams = []
    for delta in (0.1, 0.03, 0.01):
        em = small_atom(model, omega0_for_detuning(model, delta),
                        1e-3, 60, "c")
        res = bs_wavefunction(model, em)
        lam, _r2 = localization_length_fit(res, model, "c")
        lams.append(lam)
    assert lams[0] < lams[1] < lams[2]


def test_08_projector_cls_expansion():
    """Sawtooth N=40: max deviation < 1e-8; double-comb reduces to the
    diagonal (orthogonal-CLS) expansion exactly."""
    model = build_sawtooth(40)
    cls = cls_set(model)
    P = fb_projector(model, cls.omega_fb)
    assert np.max(np.abs(P.P - projector_cls_expansion(cls, model))) < 1e-8

    dc = build_double_comb(16, omega_c=0.0)
    dcls = cls_set(dc)
    assert dcls.alphas == (0.0,)
    P_dc = fb_projector(dc, 0.0)
    P_diag = projector_cls_expansion(dcls, dc)
    assert np.max(np.abs(P_dc.P - P_diag)) < 1e-12


def test_09_interactions():
    """Double-comb cross-cell suppression; sawtooth range law; one-cavity
    exact all-to-all coupling."""
    # double-comb: atoms in different cells do not interact
    dc = build_double_comb(20)
    om0 = 1e-3
    ems = [small_atom(dc, om0, 1e-3, 5, "a"),
           small_atom(dc, om0, 1e-3, 5, "b"),
           small_atom(dc, om0, 1e-3, 10, "a")]
    K = interaction_matrix(dc, ems)
    assert abs(K.K[0, 2]) < 1e-10 * abs(K.K[0, 1])

    # sawtooth: ln|K(d)| slope = -1/0.759 +- 3%
    saw = build_sawtooth(100)
    om0 = omega0_for_detuning(saw, 0.01)
    ems = [small_atom(saw, om0, 1e-3, 50 + d, "a") for d in range(0, 9)]
    Ks = interaction_matrix(saw, ems)
    ds = np.arange(2, 9)
    slope = np.polyfit(ds, np.log(np.abs(Ks.K[0, 2:9])), 1)[0]
    assert abs(slope + 1.0 / 0.759) * 0.759 < 0.03

    # two atoms in one cavity: K = g^2/(omega0 - omega_c) to 1e-12 relative
    omega_c, omega0, g = 0.3, 1.5, 2e-3
    cav = build_chain(1, onsite=omega_c)
    K1 = interaction_matrix(cav, [small_atom(cav, omega0, g, 0, "a")] * 2)
    exact = g * g / (omega0 - omega_c)
    assert abs(K1.K[0, 1] - exact) / abs(exact) < 1e-12


def test_10_giant_atoms():
    """CLS-coupled giant BS fidelity > 1 - 1e-8; NN/on-site coupling ratios
    1/4 (sawtooth) and 1/(2+Delta) (stub, Delta=2) to 1e-6."""
    saw = build_sawtooth(40)
    em = cls_emitter(saw, -2.0 + 0.05, 1e-3, 20)
    res = giant_bound_state(saw, em)
    phi = cls_vector(saw, 20)
    fidelity = abs(np.vdot(phi, res.psi)) / np.linalg.norm(res.psi)
    assert fidelity > 1 - 1e-8

    ems = [cls_emitter(saw, -2.0 + 0.05, 1e-3, c) for c in (20, 21)]
    Ks = giant_interaction(saw, ems)
    assert abs((Ks.K[0, 1] / Ks.K[0, 0]).real - 0.25) < 1e-6

    stub = build_stub(40, Delta=2.0)
    ems = [cls_emitter(stub, 0.05, 1e-3, c) for c in (20, 21)]
    Kt = giant_interaction(stub, ems)
    assert abs((Kt.K[0, 1] / Kt.K[0, 0]).real - 0.25) < 1e-6   # 1/(2+2)


def test_11_vacuum_rabi():
    """Sawtooth a-site: Omega/g = sqrt(1 - 1/sqrt(3)) within 0.2% from the
    dynamics fit; stub b-site: population deviation < 1e-6 over t J <= 1e3."""
    g = 1e-3
    saw = build_sawtooth(40)
    em = small_atom(saw, -2.0, g, 20, "a")
    target = g * math.sqrt(1 - 1 / math.sqrt(3))
    t = np.linspace(0.0, 1.3 * math.pi / target, 6001)
    ts = evolve(saw, [em], 0, t)
    assert fit_rabi_frequency(ts) == pytest.approx(target, rel=2e-3)

    stub = build_stub(40, Delta=4.0)
    em_b = small_atom(stub, 0.0, g, 20, "b")
    ts_b = evolve(stub, [em_b], 0, np.linspace(0.0, 1e3, 2001))
    assert np.max(np.abs(ts_b.atom_populations[:, 0] - 1.0)) < 1e-6


def test_12_spin_wave_bessel():
    """NN effective chain, N=64: |c_n(t) - i^n J_n(-2 kappa1 t)| < 1e-6 for
    t kappa1 <= 5."""
    N, kappa1 = 64, 1.0
    H = np.zeros((N, N))
    for n in range(N):
        H[n, (n + 1) % N] += kappa1
        H[(n + 1) % N, n] += kappa1
    t_grid = np.linspace(0.0, 5.0 / kappa1, 11)
    tr = spin_dynamics(H, 0, t_grid)
    n_idx = np.arange(N)
    dist = np.minimum(n_idx, N - n_idx)
    for i, t in enumerate(t_grid):
        exact = bessel_chain_amplitudes(dist, float(t), kappa1)
        assert np.max(np.abs(tr.amplitudes[i] - exact)) < 1e-6


def test_13_chiral_disorder():
    """Stub: off-diagonal disorder 0.5 J keeps exactly N zero modes for all
    20 seeds; diagonal disorder 0.1 J broadens the FB above 1e-3 J for at
    least 19/20 seeds."""
    N = 40
    model = build_stub(N)
    n_chiral_ok = 0
    n_broadened = 0
    for seed in range(20):
        off = apply_disorder(model, DisorderSpec("off-diagonal", 0.5, seed))
        w_off, _ = eigensystem(off)
        if int(np.sum(np.abs(w_off) < 1e-10)) == N:
            n_chiral_ok += 1
        diag = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed))
        w_diag, _ = eigensystem(diag)
        if flat_band_width_real_space(np.asarray(w_diag), N, 0.0) > 1e-3:
            n_broadened += 1
    assert n_chiral_ok == 20
    assert n_broadened >= 19


def test_14_pole_residuals():
    """Every solved bound-state energy satisfies the pole equation with
    residual < 1e-12 J."""
    cases = [
        (build_sawtooth(60), "a", (30,), 1e-3),
        (build_sawtooth(60), "a", (30,), 1e-1),
        (build_stub(40, Delta=4.0), "a", (20,), 1e-2),
        (build_kagome1d(40), "c", (20,), 1e-2),
        (build_double_comb(20), "a", (10,), 1e-2),
        (build_checkerboard(12, 12), "a", (6, 6), 1e-2),
        (build_chain(200), "a", (100,), 1e-2),
    ]
    for model, sub, cell, delta in cases:
        ref = "lower_edge" if model.name == "chain" else "fb"
        om0 = omega0_for_detuning(model, delta, reference=ref)
        em = small_atom(model, om0, 1e-3, cell if len(cell) > 1 else cell[0], sub)
        assert bs_wavefunction(model, em).pole_residual < 1e-12 * model.J
