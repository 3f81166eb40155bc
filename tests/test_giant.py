import math

import numpy as np
import pytest

from cls_reference import cls_vector
from flatqed.boundstate import EmitterSpec, small_atom
from flatqed.flatband import cls_set
from flatqed.giant import (cls_emitter, cls_superposition_emitter,
                           envelope_emitter, fb_membership_defect,
                           giant_bound_state, giant_interaction)
from flatqed.greens import fb_projector, resolvent_vector
from flatqed.interactions import interaction_matrix
from flatqed.lattice import (build_checkerboard, build_sawtooth, build_stub,
                             site_index)


def test_site_state_small_atom_limit():
    model = build_sawtooth(10)
    em = small_atom(model, -1.9, 1e-3, 4, "a")
    expected = np.zeros(model.n_sites)
    expected[site_index(model, 4, "a")] = 1.0
    assert np.allclose(em.chi(model.n_sites), expected)


def test_site_state_two_equal_couplings():
    model = build_sawtooth(10)
    x1 = site_index(model, 2, "a")
    x2 = site_index(model, 6, "a")
    em = EmitterSpec(omega0=-1.9, couplings=((x1, 1e-3), (x2, 1e-3)))
    chi = em.chi(model.n_sites)
    assert chi[x1] == pytest.approx(1 / math.sqrt(2))
    assert chi[x2] == pytest.approx(1 / math.sqrt(2))


def test_cls_emitter_matches_stencil():
    model = build_sawtooth(10)
    em = cls_emitter(model, -1.9, 1e-3, 3)
    phi = cls_vector(model, 3)
    assert abs(abs(np.vdot(em.chi(model.n_sites), phi)) - 1.0) < 1e-14
    assert em.gbar == pytest.approx(1e-3)
    assert fb_membership_defect(model, em.chi(model.n_sites)) < 1e-12


def test_giant_bound_state_cls_fidelity_and_scaling():
    model = build_sawtooth(30)
    phi = cls_vector(model, 10)
    norms = {}
    for delta in (0.05, 0.025):
        em = cls_emitter(model, -2.0 + delta, 1e-3, 10)
        res = giant_bound_state(model, em)
        fid = abs(np.vdot(phi, res.psi)) / np.linalg.norm(res.psi)
        assert fid > 1 - 1e-8
        norms[delta] = np.linalg.norm(res.psi) / res.c_e   # photon/atom ratio
    # halving the detuning doubles the photonic amplitude exactly
    assert norms[0.025] / norms[0.05] == pytest.approx(2.0, rel=1e-10)


def test_cls_superposition_bound_state():
    model = build_sawtooth(30)
    em = cls_superposition_emitter(model, -2.0 + 0.05, 1e-3,
                                   [8, 11], [1.0, 1.0])
    res = giant_bound_state(model, em)
    target = cls_vector(model, 8) + cls_vector(model, 11)
    target = target / np.linalg.norm(target)
    fid = abs(np.vdot(target, res.psi)) / np.linalg.norm(res.psi)
    assert fid > 1 - 1e-8


def test_gb_eigenvector_property():
    """For chi in the FB eigenspace, G_B(omega) chi = chi / (omega - omega_FB)."""
    model = build_sawtooth(20)
    em = cls_emitter(model, -1.9, 1e-3, 5)
    chi = em.chi(model.n_sites)
    omega = -1.9
    g = resolvent_vector(model, omega, chi)
    assert np.linalg.norm(g - chi / (omega + 2.0)) < 1e-10


def test_giant_interaction_sawtooth_ratios():
    model = build_sawtooth(30)
    om0 = -2.0 + 0.05
    ems = [cls_emitter(model, om0, 1e-3, c) for c in (10, 11, 13)]
    K = giant_interaction(model, ems)
    assert (K.K[0, 1] / K.K[0, 0]).real == pytest.approx(0.25, abs=1e-12)
    # class U=2: CLSs two or more cells apart are exactly orthogonal
    assert abs(K.K[0, 2]) < 1e-12 * abs(K.K[0, 0])
    assert K.K[0, 0].real == pytest.approx((1e-3) ** 2 / 0.05, rel=1e-12)


def test_giant_interaction_stub_ratio():
    Delta = 2.0
    model = build_stub(30, Delta=Delta)
    om0 = 0.05
    ems = [cls_emitter(model, om0, 1e-3, c) for c in (10, 11)]
    K = giant_interaction(model, ems)
    assert (K.K[0, 1] / K.K[0, 0]).real == pytest.approx(1 / (2 + Delta), abs=1e-9)


def test_giant_matches_generic_interaction():
    """When the dispersive band is far (gap/delta >= 100), the FB-only giant
    formula agrees with the generic bound-state overlap matrix."""
    model = build_sawtooth(30)    # gap 2J
    delta = 0.02                  # gap/delta = 100
    om0 = -2.0 + delta
    ems = [cls_emitter(model, om0, 1e-3, c) for c in (10, 11)]
    K_fb = giant_interaction(model, ems)
    K_gen = interaction_matrix(model, ems)
    assert abs(K_fb.K[0, 1] - K_gen.K[0, 1]) / abs(K_gen.K[0, 1]) < 1e-6


def test_envelope_emitter_truncation_and_norm():
    model = build_sawtooth(60)
    em = envelope_emitter(model, -1.9, 1e-3, 30, ell=0.5)
    chi = em.chi(model.n_sites)
    assert abs(np.linalg.norm(chi) - 1.0) < 1e-12
    # support truncated where the envelope drops below 1e-12
    assert len(em.couplings) < model.n_sites
    assert fb_membership_defect(model, em.chi(model.n_sites)) < 1e-10
    with pytest.raises(ValueError):
        envelope_emitter(model, -1.9, 1e-3, 30, ell=-1.0)


def _torus_distance(x, center, n):
    """Distance from x to center along a periodic axis of n cells."""
    return min((x - center) % n, (center - x) % n)


@pytest.mark.parametrize("shape,center,ell,truncated", [
    ((12, 10), (3, 8), 0.8, False),
    ((40, 40), (1, 38), 0.5, True),
    ((8, 6), (2, 5), 100.0, False),
])
def test_envelope_emitter_2d_matches_double_loop(shape, center, ell, truncated):
    """One coefficient e^{-r/ell} per cell, r the distance around the torus,
    as an explicit double loop over the cells (cut below 1e-12 on 40x40;
    the antipodal row and column of the even axes are counted once)."""
    model = build_checkerboard(*shape)
    cells, coeffs = [], []
    for x in range(shape[0]):
        for y in range(shape[1]):
            c = math.exp(-math.hypot(_torus_distance(x, center[0], shape[0]),
                                     _torus_distance(y, center[1], shape[1]))
                         / ell)
            if c >= 1e-12:
                cells.append((x, y))
                coeffs.append(c)
    em = envelope_emitter(model, 0.1, 1e-3, center, ell)
    assert em == cls_superposition_emitter(model, 0.1, 1e-3, cells, coeffs)
    assert (len(cells) < model.n_cells) == truncated


def test_envelope_emitter_1d_matches_loop():
    """One coefficient per cell from a loop over the ring.  On the even
    sawtooth 8 with ell = 100 the antipodal cell carries e^{-4/100} once,
    not twice."""
    for n, center, ell in ((60, 57, 1.3), (61, 57, 1.3), (8, 2, 100.0)):
        model = build_sawtooth(n)
        coeffs = [math.exp(-_torus_distance(x, center, n) / ell)
                  for x in range(n)]
        em = envelope_emitter(model, -1.9, 1e-3, center, ell)
        assert em == cls_superposition_emitter(model, -1.9, 1e-3,
                                               list(range(n)), coeffs)


def test_cls_superposition_repeated_cells_add():
    """Coefficients of a repeated cell add up, as a sum of single CLSs."""
    model = build_checkerboard(6, 5)
    cells = [(1, 2), (4, 4), (1, 2), (2, 2), (4, 4), (1, 2)]
    coeffs = [0.5, -1.0j, 0.25, 2.0, 0.5, 1.0]
    em = cls_superposition_emitter(model, 0.1, 1e-3, cells, coeffs)
    target = sum(c * cls_vector(model, cell) for cell, c in zip(cells, coeffs))
    target = target / np.linalg.norm(target)
    assert np.max(np.abs(em.chi(model.n_sites) - target)) < 1e-14
    with pytest.raises(ValueError, match="vanishes"):
        cls_superposition_emitter(model, 0.1, 1e-3, [(3, 1), (3, 1)],
                                  [1.0, -1.0])


def test_fb_membership_defect_is_the_leak_norm():
    """Per column, the defect is ||(1 - P_FB) chi|| from the dense projector:
    zero for a CLS, sqrt(1 - <x|P_FB|x>) for a bare a-site."""
    model = build_sawtooth(20)
    chis = np.column_stack([
        small_atom(model, -1.9, 1e-3, 5, "a").chi(model.n_sites),
        cls_emitter(model, -1.9, 1e-3, 8).chi(model.n_sites)])
    P = fb_projector(model, cls_set(model).omega_fb).P
    expected = np.linalg.norm(chis - P @ chis, axis=0)
    assert expected[0] > 0.1
    assert np.max(np.abs(fb_membership_defect(model, chis) - expected)) < 1e-12


def test_non_fb_site_state_warns():
    model = build_sawtooth(20)
    em = small_atom(model, -1.9, 1e-3, 5, "a")   # bare a-site leaks out of FB
    with pytest.warns(UserWarning, match="leaks out of the flat band") as rec:
        giant_bound_state(model, em)
    with pytest.warns(UserWarning, match="leaks out of the flat band") as rec2:
        giant_interaction(model, [em, em])
    # both warnings point at the caller, not into the library
    assert {w.filename for w in (*rec, *rec2)} == {__file__}


def test_giant_interaction_validates():
    model = build_sawtooth(20)
    with pytest.raises(ValueError):
        giant_interaction(model, [])
    e1 = cls_emitter(model, -1.9, 1e-3, 4)
    e2 = cls_emitter(model, -1.8, 1e-3, 6)
    with pytest.raises(ValueError):
        giant_interaction(model, [e1, e2])
    # unequal |g|: one gbar^2 prefactor would misstate every K entry
    e3 = cls_emitter(model, -1.9, 3e-3, 6)
    with pytest.raises(ValueError, match="identical"):
        giant_interaction(model, [e1, e3])
