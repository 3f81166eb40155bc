import cmath
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatqed import greens
from flatqed.boundstate import (EmitterSpec, bs_wavefunction,
                                localization_length_fit, omega0_for_detuning,
                                small_atom, solve_pole)
from flatqed.dynamics import evolve
from flatqed.giant import cls_emitter
from flatqed.interactions import interaction_matrix
from flatqed.errors import NoFlatBand, PoleProximity
from flatqed.greens import (POLE_GUARD, _chiral_block, eigensystem,
                            eigenvalues, fb_projector, fb_weights,
                            resolvent_vector, self_energy)
from flatqed.lattice import (DisorderSpec, LatticeModel, apply_disorder,
                             build_chain, build_kagome1d, build_sawtooth,
                             build_stub, real_space_hamiltonian)

# Sawtooth with Peierls phases on two of its bonds: complex hoppings give a
# complex eigenvector matrix, so the complex-U branch of the seam runs.
FLUX_SAWTOOTH = LatticeModel(
    "flux-sawtooth", 1, (6,), ("a", "b"), (0.0, 0.3),
    ((1, 1, (1,), cmath.exp(0.4j)),
     (0, 1, (0,), math.sqrt(2.0)),
     (0, 1, (-1,), math.sqrt(2.0) * cmath.exp(-0.7j))),
    1.0)

# A stub with complex hoppings and off-diagonal disorder, its minority
# sublattice listed first: the chiral path with a complex block T and the
# colours swapped.
FLUX_STUB = LatticeModel(
    "flux-stub", 1, (5,), ("b", "a", "c"), (0.0, 0.0, 0.0),
    ((0, 1, (0,), 2.0 * cmath.exp(0.3j)),
     (0, 2, (0,), 1.0),
     (2, 0, (1,), cmath.exp(-0.9j))),
    1.0, disorder=DisorderSpec("off-diagonal", 0.4, seed=3))

# 2D Lieb lattice (corner c, edge sites x and y) with off-diagonal
# disorder: the chiral path in 2D, {x, y} against {c}.
LIEB_2D = LatticeModel(
    "lieb", 2, (4, 3), ("c", "x", "y"), (0.0, 0.0, 0.0),
    ((0, 1, (0, 0), 1.0), (1, 0, (1, 0), 1.0),
     (0, 2, (0, 0), 1.0), (2, 0, (0, 1), 1.0)),
    1.0, disorder=DisorderSpec("off-diagonal", 0.4, seed=5))

# Two cells, where a bond to cell n + 1 and one from cell n + 1 join the
# same two sites: two bonds, one listed from B to A, sum into those entries
# of T.
WRAPPED_PAIR = LatticeModel(
    "wrapped-pair", 1, (2,), ("a", "b"), (0.0, 0.0),
    ((0, 1, (0,), 1.0), (0, 1, (1,), 0.7), (1, 0, (1,), 0.4)),
    1.0, disorder=DisorderSpec("off-diagonal", 0.3, seed=2))

SEAM_MODELS = [
    build_sawtooth(6),
    build_stub(5, Delta=2.0),
    apply_disorder(build_stub(5), DisorderSpec("diagonal", 0.3, seed=1)),
    apply_disorder(build_sawtooth(6), DisorderSpec("off-diagonal", 0.3, seed=2)),
    apply_disorder(build_stub(5, Delta=1.0),
                   DisorderSpec("off-diagonal", 0.5, seed=4)),
    LIEB_2D,
    FLUX_SAWTOOTH,
    FLUX_STUB,
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
    for model in SEAM_MODELS:
        assert (np.iscomplexobj(eigensystem(model)[1])
                == (model in (FLUX_SAWTOOTH, FLUX_STUB)))


def test_one_disordered_pair_is_held():
    """Decomposing a new disordered model frees the pair of the last one;
    clean models keep their LRU of 4 through the sweep, and cache_info
    counts every call in the functools shape."""
    cleans = [build_chain(n) for n in (5, 6, 7)]
    eigensystem.cache_clear()
    held = [eigensystem(m)[0] for m in cleans]
    refs = []
    for seed, kind in enumerate(["diagonal", "off-diagonal"] * 2):
        model = apply_disorder(build_stub(8), DisorderSpec(kind, 0.3, seed))
        refs.append(weakref.ref(eigensystem(model)[1]))
        assert [ref() is None for ref in refs] == [True] * seed + [False]
    assert [eigensystem(m)[0] for m in cleans] == held   # all three hit
    info = eigensystem.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (3, 7, 4, 4)
    eigensystem(build_chain(8))     # a fourth clean model evicts the LRU
    assert refs[-1]() is None and eigensystem.cache_info().currsize == 4
    eigensystem.cache_clear()
    assert eigensystem.cache_info() == (0, 0, 4, 0)


def test_disordered_bound_state_then_evolve_decomposes_once(monkeypatch):
    """A bound state, its tail fit and an evolve on one diagonally
    disordered model take one N x N ``eigh`` in all: the held pair serves
    every call after the first."""
    model = apply_disorder(build_stub(40), DisorderSpec("diagonal", 0.1, 6))
    n = model.n_sites
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda H: shapes.append(H.shape) or eigh(H))
    eigensystem.cache_clear()
    em = small_atom(model, omega0_for_detuning(model, 1.0), 0.05, 20, "a")
    localization_length_fit(bs_wavefunction(model, em), model, "a")
    evolve(model, [em], 0, np.linspace(0.0, 10.0, 11))
    assert shapes.count((n, n)) == 1
    assert eigensystem.cache_info().misses == 1


@pytest.mark.parametrize("model", [
    *(apply_disorder(build_stub(N), DisorderSpec("off-diagonal", 0.5, seed=N))
      for N in (4, 5, 60)),
    LIEB_2D, FLUX_STUB, WRAPPED_PAIR],
    ids=["stub4", "stub5", "stub60", "lieb", "flux-stub", "wrapped-pair"])
def test_chiral_block_is_the_hamiltonian_block(model, monkeypatch):
    """T is scattered from the bond list bit for bit equal to the (A, B)
    block of the dense Hamiltonian (bonds listed from B to A, and bonds that
    wrap onto the same pair of sites, included), and neither
    ``eigensystem`` nor ``eigenvalues`` forms the N x N matrix on the chiral
    path."""
    H = real_space_hamiltonian(model)
    T, A, B = _chiral_block(model)
    ref = H[np.ix_(A, B)]
    assert T.dtype == ref.dtype and T.tobytes() == ref.tobytes()

    def forbid(model):
        raise AssertionError("dense Hamiltonian formed on the chiral path")

    monkeypatch.setattr(greens, "real_space_hamiltonian", forbid)
    w, U = eigensystem.__wrapped__(model)
    assert np.max(np.abs(eigenvalues(model) - w)) < 1e-12
    assert np.max(np.abs(H @ U - U * w)) < 1e-12


def test_chiral_path_selection(monkeypatch):
    """Only an off-diagonally disordered model whose sublattices two-colour
    (the stub) and whose on-site energies vanish leaves ``np.linalg.eigh``:
    clean models, diagonal disorder, odd sublattice cycles and an on-site
    energy keep it."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda H: calls.append(H.shape) or eigh(H))
    off = DisorderSpec("off-diagonal", 0.5, seed=1)
    eigh_models = [
        build_stub(8),
        apply_disorder(build_stub(8), DisorderSpec("diagonal", 0.1, seed=1)),
        apply_disorder(build_sawtooth(8), off),
        apply_disorder(build_kagome1d(8), off),
        apply_disorder(replace(build_stub(8), onsite=(0.5, 0.0, 0.0)), off),
    ]
    eigensystem.cache_clear()
    for model in eigh_models:
        calls.clear()
        eigensystem(model)
        assert calls == [(model.n_sites, model.n_sites)], model.name
    for model in (apply_disorder(build_stub(8), off), LIEB_2D, FLUX_STUB):
        calls.clear()
        eigensystem(model)
        assert calls == [], model.name


def _cluster_slices(w: np.ndarray, tol: float):
    """(slice, gap) per cluster of sorted eigenvalues closer than tol; gap
    is the distance to the neighbouring clusters (inf at both ends)."""
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1), len(w)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        left = w[lo] - w[lo - 1] if lo > 0 else np.inf
        right = w[hi] - w[hi - 1] if hi < len(w) else np.inf
        yield slice(lo, hi), min(left, right)


@given(N=st.integers(4, 10), Delta=st.floats(0.0, 6.0),
       strength=st.floats(0.0, 2.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_chiral_eigensystem_matches_eigh(N, Delta, strength, seed):
    """One SVD of the inter-sublattice block reproduces the dense ``eigh``
    of an off-diagonally disordered stub: ascending eigenvalues, residual,
    orthonormality, a real U, at least N exact zero modes, the projector
    onto every degenerate cluster, and the same spectrum from
    :func:`eigenvalues` (Delta = 0 leaves the a sites unconnected, so T
    has zero rows)."""
    model = apply_disorder(build_stub(N, Delta=Delta),
                           DisorderSpec("off-diagonal", strength, seed))
    H = real_space_hamiltonian(model)
    w_ref, V = np.linalg.eigh(H)
    w, U = eigensystem(model)
    scale = np.linalg.norm(H, 2)
    assert U.dtype == float
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale
    assert np.max(np.abs(eigenvalues(model) - w_ref)) <= 1e-12 * scale
    assert np.max(np.abs(H @ U - U * w)) <= 1e-12 * scale
    assert np.max(np.abs(U.T @ U - np.eye(model.n_sites))) < 1e-12
    assert np.count_nonzero(w == 0) >= N
    for cluster, gap in _cluster_slices(w_ref, 1e-9 * scale):
        P = U[:, cluster] @ U[:, cluster].T
        P_ref = V[:, cluster] @ V[:, cluster].T
        assert np.max(np.abs(P - P_ref)) <= 1e-11 * scale / gap


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
    assert sigma.shape == dsigma.shape == (1, 1)
    assert sigma[0, 0] == pytest.approx(np.vdot(chi, exact).real,
                                        abs=1e-10 * scale)
    assert dsigma[0, 0] == pytest.approx(-np.vdot(exact, exact).real,
                                         abs=1e-10 * scale ** 2)


@given(model=seam_model, seed=st.integers(0, 2**32 - 1),
       omegas=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       per_column=st.booleans())
@settings(max_examples=40, deadline=None)
def test_self_energy_matrix_matches_solve(model, seed, omegas, per_column):
    """Columns chi_j (one site, a CLS giant, a complex vector) at one omega
    or one omega_j per column: Sigma_ij = <chi_i| (omega_j - H)^{-1} |chi_j>
    and Sigma'_ij = -(G(omega_j) chi_i)^H (G(omega_j) chi_j), every entry."""
    w, _U = eigensystem(model)
    omegas = np.array(omegas if per_column else omegas[:1] * 3)
    assume(np.min(np.abs(omegas[:, None] - w)) > 1e-3)
    rng = np.random.default_rng(seed)
    site = np.eye(model.n_sites)[int(rng.integers(model.n_sites))]
    cell = tuple(int(rng.integers(n)) for n in model.shape)
    giant = (cls_emitter(model, 0.0, 1.0, cell).chi(model.n_sites)
             if model.cls is not None else _site_vector(model, seed + 1, False))
    chis = np.column_stack([site, giant, _site_vector(model, seed, False)])
    sigma, dsigma = self_energy(model, chis)(omegas if per_column
                                             else omegas[0])
    assert sigma.shape == dsigma.shape == (3, 3)
    for j, omega in enumerate(omegas):
        G = _solve(model, omega, chis)           # G(omega_j) chi_i, columns i
        scale = np.max(np.linalg.norm(G, axis=0))
        assert np.max(np.abs(sigma[:, j] - chis.conj().T @ G[:, j])) \
            < 1e-10 * scale
        assert np.max(np.abs(dsigma[:, j] + G.conj().T @ G[:, j])) \
            < 1e-10 * scale ** 2


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
    """Inside POLE_GUARD of an eigenvalue the resolvent and every evaluation
    of the self-energy closure, of one vector or of a matrix of columns,
    raise PoleProximity."""
    w, _U = eigensystem(model)
    omega = float(w[index]) + frac * POLE_GUARD * model.J
    chi = _site_vector(model, index, True)
    sigma = self_energy(model, chi)
    with pytest.raises(PoleProximity):
        resolvent_vector(model, omega, chi)
    with pytest.raises(PoleProximity):
        sigma(omega)
    with pytest.raises(PoleProximity):
        self_energy(model, chi[:, None])([omega])
