import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatqed.boundstate import EmitterSpec, solve_pole
from flatqed.interactions import interaction_matrix
from flatqed.errors import NoFlatBand, PoleProximity
from flatqed.greens import (POLE_GUARD, eigensystem, fb_projector,
                            fb_weights, resolvent_form, resolvent_vector,
                            self_energy)
from flatqed.lattice import (DisorderSpec, LatticeModel, apply_disorder,
                             build_chain, build_sawtooth, build_stub,
                             real_space_hamiltonian)

# Sawtooth with Peierls phases on two of its bonds: complex hoppings give a
# complex eigenvector matrix, so the complex-U branch of the seam runs.
FLUX_SAWTOOTH = LatticeModel(
    "flux-sawtooth", 1, (6,), ("a", "b"), (0.0, 0.3),
    ((1, 1, (1,), cmath.exp(0.4j)),
     (0, 1, (0,), math.sqrt(2.0)),
     (0, 1, (-1,), math.sqrt(2.0) * cmath.exp(-0.7j))),
    1.0)

SEAM_MODELS = [
    build_sawtooth(6),
    build_stub(5, Delta=2.0),
    apply_disorder(build_stub(5), DisorderSpec("diagonal", 0.3, seed=1)),
    apply_disorder(build_sawtooth(6), DisorderSpec("off-diagonal", 0.3, seed=2)),
    FLUX_SAWTOOTH,
]
seam_model = st.sampled_from(SEAM_MODELS)


def _site_vector(model: LatticeModel, seed: int, real: bool) -> np.ndarray:
    """Random unit vector on the sites, complex-typed as EmitterSpec.chi."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=model.n_sites).astype(complex)
    if not real:
        v += 1j * rng.normal(size=model.n_sites)
    return v / np.linalg.norm(v)


def _solve(model: LatticeModel, omega: float, chi: np.ndarray) -> np.ndarray:
    """Oracle: (omega - H)^{-1} chi by a dense linear solve."""
    H = real_space_hamiltonian(model)
    return np.linalg.solve(omega * np.eye(model.n_sites) - H, chi)


@given(omega=st.floats(-4.0, -2.1, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_resolvent_identity(omega):
    """(omega - H) G(omega) chi = chi for omega outside the spectrum."""
    model = build_chain(16)
    H = real_space_hamiltonian(model)
    chi = np.zeros(model.n_sites, dtype=complex)
    chi[3] = 1.0
    g = resolvent_vector(model, omega, chi)
    assert np.max(np.abs((omega * np.eye(model.n_sites) - H) @ g - chi)) < 1e-10


def _unit(model: LatticeModel, x: int) -> np.ndarray:
    chi = np.zeros(model.n_sites, dtype=complex)
    chi[x] = 1.0
    return chi


def test_chain_green_matches_analytic():
    """Finite-chain resolvent vs the thermodynamic-limit closed form a
    detuning delta below the band, to leading order in delta/J:
    G(d) = -(-1)^d e^{-d sqrt(delta/J)} / (2 sqrt(J delta))."""
    model = build_chain(2000)
    delta = 0.01
    omega = -2.0 - delta
    x0 = 1000
    g = resolvent_vector(model, omega, _unit(model, x0)).real
    for d in (0, 1, 5, 20, 50):
        ana = -(-1) ** d / (2.0 * math.sqrt(delta)) * math.exp(-d * math.sqrt(delta))
        assert g[x0 + d] == pytest.approx(ana, rel=2e-2)


def test_chain_green_sign_alternation():
    model = build_chain(200)
    x0 = 100
    vals = resolvent_vector(model, -2.1, _unit(model, x0)).real[x0:x0 + 8]
    for d in range(7):
        assert vals[d] * vals[d + 1] < 0


def test_pole_guard():
    model = build_chain(16)
    w, _ = eigensystem(model)
    with pytest.raises(PoleProximity):
        resolvent_vector(model, float(w[0]), _unit(model, 0))


def test_fb_projector_properties():
    model = build_sawtooth(20)
    P = fb_projector(model, -2.0)
    assert P.degeneracy == 20
    M = P.P
    assert np.max(np.abs(M - M.conj().T)) < 1e-12      # Hermitian
    assert np.max(np.abs(M @ M - M)) < 1e-12           # idempotent
    # projects onto the FB eigenspace: H P = -2 P
    H = real_space_hamiltonian(model)
    assert np.max(np.abs(H @ M + 2.0 * M)) < 1e-10


def test_fb_projector_missing_band():
    with pytest.raises(NoFlatBand):
        fb_projector(build_chain(12), 5.0)


def test_fb_approx_near_isolated_band():
    """For omega close to an isolated FB, the exact resolvent approaches
    P/(omega - omega_FB) on the FB-projected component."""
    model = build_stub(12, Delta=9.0)   # large gap sqrt(9) = 3
    P = fb_projector(model, 0.0)
    omega = 1e-3
    chi = _unit(model, 6)   # a-site has FB weight
    exact = resolvent_vector(model, omega, chi)
    approx = P.P / omega @ chi
    # relative error on the large FB part is O(omega/gap)
    assert np.linalg.norm(exact - approx) / np.linalg.norm(exact) < 5e-3


def test_eigensystem_cached_and_readonly():
    model = build_chain(8)
    w1, U1 = eigensystem(model)
    w2, _U2 = eigensystem(model)
    assert w1 is w2
    with pytest.raises(ValueError):
        w1[0] = 0.0


def test_flux_model_takes_complex_branch():
    assert np.iscomplexobj(eigensystem(FLUX_SAWTOOTH)[1])
    assert all(not np.iscomplexobj(eigensystem(m)[1]) for m in SEAM_MODELS[:-1])


@given(model=seam_model, omega=st.floats(-5.0, 5.0), seed=st.integers(0, 2**32 - 1),
       real=st.booleans())
@settings(max_examples=60, deadline=None)
def test_resolvent_and_self_energy_match_solve(model, omega, seed, real):
    w, _U = eigensystem(model)
    assume(np.min(np.abs(omega - w)) > 1e-3)
    chi = _site_vector(model, seed, real)
    exact = _solve(model, omega, chi)
    scale = np.linalg.norm(exact)
    g = resolvent_vector(model, omega, chi)
    assert g.dtype == complex
    assert np.max(np.abs(g - exact)) < 1e-10 * scale
    sigma, dsigma = self_energy(model, chi)(omega)
    assert sigma == pytest.approx(np.vdot(chi, exact).real, abs=1e-10 * scale)
    assert dsigma == pytest.approx(-np.vdot(exact, exact).real,
                                   abs=1e-10 * scale ** 2)


@given(model=seam_model, seed=st.integers(0, 2**32 - 1),
       shift=st.floats(0.01, 2.0), g=st.floats(1e-3, 0.5))
@settings(max_examples=40, deadline=None)
def test_solve_pole_root_matches_solve(model, seed, shift, g):
    """A multi-site emitter below the spectrum: the root zeroes the pole
    equation evaluated with the linear-solve oracle."""
    rng = np.random.default_rng(seed)
    sites = rng.choice(model.n_sites, size=3, replace=False)
    amps = g * (rng.normal(size=3) + 1j * rng.normal(size=3))
    em = EmitterSpec(omega0=float(eigensystem(model)[0][0]) - shift,
                     couplings=tuple((int(x), complex(a)) for x, a in zip(sites, amps)))
    root = solve_pole(model, em)
    chi = em.chi(model.n_sites)
    F = root - em.omega0 - em.gbar ** 2 * np.vdot(chi, _solve(model, root, chi)).real
    assert abs(F) < 1e-10


@given(model=seam_model, seed=st.integers(0, 2**32 - 1), real=st.booleans(),
       index=st.integers(0, 11))
@settings(max_examples=40, deadline=None)
def test_fb_project_matches_projector(model, seed, real, index):
    """The weights inside and outside the eigenspace of any eigenvalue
    (degenerate or not) equal chi^H P chi and ||(1 - P) chi||^2 from the
    dense projector."""
    omega = float(eigensystem(model)[0][index])
    chi = _site_vector(model, seed, real)
    P = fb_projector(model, omega).P
    inside, outside = fb_weights(model, omega, chi)
    assert abs(inside - np.vdot(chi, P @ chi).real) < 1e-12
    assert abs(outside - np.linalg.norm(chi - P @ chi) ** 2) < 1e-12


@given(model=seam_model, seed=st.integers(0, 2**32 - 1), exact=st.booleans())
@settings(max_examples=20, deadline=None)
def test_interaction_matrix_matches_solve(model, seed, exact):
    """K built from one amplitude matrix C = U^H [chi_1 .. chi_n] equals
    g^2 <chi_i| (omega_j - H)^{-1} |chi_j> column by column."""
    rng = np.random.default_rng(seed)
    omega0 = float(eigensystem(model)[0][0]) - 0.3
    ems = [EmitterSpec(omega0, ((int(x), 0.05 * np.exp(1j * rng.uniform(0, 6))),))
           for x in rng.choice(model.n_sites, size=3, replace=False)]
    K = interaction_matrix(model, ems, exact_pole=exact)
    chis = np.column_stack([em.chi(model.n_sites) for em in ems])
    for j, em in enumerate(ems):
        omega = solve_pole(model, em) if exact else omega0
        col = 0.05 ** 2 * (chis.conj().T @ _solve(model, omega, chis[:, j]))
        assert np.max(np.abs(K.K[:, j] - col)) < 1e-12


def test_fb_project_missing_band():
    with pytest.raises(NoFlatBand):
        fb_weights(build_chain(12), 5.0, np.ones(12))


@given(model=seam_model, index=st.integers(0, 11), frac=st.floats(-0.99, 0.99))
@settings(max_examples=30, deadline=None)
def test_pole_guard_on_every_path(model, index, frac):
    """Inside POLE_GUARD of an eigenvalue the resolvent, the resolvent form
    and every evaluation of the self-energy closure raise PoleProximity."""
    w, _U = eigensystem(model)
    omega = float(w[index]) + frac * POLE_GUARD * model.J
    chi = _site_vector(model, index, True)
    sigma = self_energy(model, chi)
    with pytest.raises(PoleProximity):
        resolvent_vector(model, omega, chi)
    with pytest.raises(PoleProximity):
        sigma(omega)
    with pytest.raises(PoleProximity):
        resolvent_form(model, [omega], chi[:, None])
