"""The Bloch basis of the resolvent seam.

Clean models above ``greens.DENSE_MAX_SITES`` sites reach the bath through
FFTs over the cell axes and the Q x Q Bloch blocks instead of a dense eigh.
The properties below run on small clean models, either on ``bloch_basis``
itself or with the threshold lowered to zero so that every seam function
takes the Bloch path, and compare against a ``np.linalg.solve(omega - H, chi)``
oracle and the dense eigensystem.  The last tests run sizes the dense path
cannot reach (sawtooth N=1e5, checkerboard 200x200).
"""

import cmath
import contextlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatqed import greens, spectrum
from flatqed.boundstate import (EmitterSpec, bs_profile, bs_wavefunction,
                                omega0_for_detuning, small_atom, solve_pole)
from flatqed.cli import main
from flatqed.dynamics import rabi_frequency
from flatqed.errors import PoleProximity
from flatqed.giant import cls_emitter
from flatqed.greens import (POLE_GUARD, bloch_basis, eigensystem,
                            fb_projector, fb_weights, resolvent_vector,
                            self_energy, spectral_basis)
from flatqed.interactions import interaction_matrix
from flatqed.lattice import (DisorderSpec, LatticeModel, _is_real,
                             apply_disorder, bloch_hamiltonian, build_chain,
                             build_checkerboard, build_double_comb,
                             build_kagome1d, build_sawtooth, build_stub,
                             real_space_hamiltonian, site_index)
from flatqed.spectrum import band_structure, default_k_grid

from dense_reference import flux_sawtooth, resolvent_solve

FLUX_SAWTOOTH = flux_sawtooth(6)

# A stub with on-site energies and a phase on the c_n -- b_{n+1} bond: Q = 3
# with a complex hopping, so every k is solved, each by ``eigh``.
PHASE_STUB = LatticeModel(
    "phase-stub", 1, (5,), ("a", "b", "c"), (0.1, 0.0, -0.2),
    ((0, 1, (0,), 2.0), (1, 2, (0,), 1.0), (2, 1, (1,), cmath.exp(0.5j))),
    1.0)

BLOCH_MODELS = [
    build_chain(7),
    build_sawtooth(6),
    build_stub(5, Delta=2.0),
    build_double_comb(5, t=1.3, omega_c=0.2),
    build_kagome1d(5),
    build_checkerboard(5, 4),
    build_checkerboard(6, 6),
    FLUX_SAWTOOTH,
    PHASE_STUB,
]
CLS_MODELS = [m for m in BLOCH_MODELS if m.cls is not None]
bloch_model = st.sampled_from(BLOCH_MODELS)


@contextlib.contextmanager
def bloch_path():
    """Every clean model takes the Bloch basis inside this block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greens, "DENSE_MAX_SITES", 0)
        yield


def _chi(model: LatticeModel, kind: str, seed: int) -> np.ndarray:
    """A unit site vector: one site, a CLS giant, or a random complex one."""
    rng = np.random.default_rng(seed)
    n = model.n_sites
    if kind == "site":
        chi = np.zeros(n)
        chi[int(rng.integers(n))] = 1.0
        return chi
    if kind == "cls" and model in CLS_MODELS:
        cell = tuple(int(rng.integers(s)) for s in model.shape)
        return cls_emitter(model, 0.0, 1.0, cell).chi(n)
    chi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return chi / np.linalg.norm(chi)


def _off_spectrum(model: LatticeModel, omega: float) -> bool:
    return np.min(np.abs(omega - eigensystem(model)[0])) > 1e-3


@pytest.mark.parametrize("model", BLOCH_MODELS, ids=lambda m: f"{m.name}{m.shape}")
def test_bloch_basis_is_the_eigenbasis(model):
    """Sorted w equals the dense spectrum; synthesis inverts the amplitudes
    and maps each basis state to an eigenvector of H."""
    basis = bloch_basis(model)
    assert np.max(np.abs(np.sort(basis.w) - eigensystem(model)[0])) < 1e-12
    eye = np.eye(model.n_sites)
    V = basis.synthesize(eye)            # columns U e_a
    assert np.max(np.abs(V.conj().T @ V - eye)) < 1e-12
    H = real_space_hamiltonian(model)
    assert np.max(np.abs(H @ V - V * basis.w)) < 1e-12
    assert np.max(np.abs(basis.amplitudes(eye) - V.conj().T)) < 1e-12
    assert basis is bloch_basis(model)   # cached per model


@pytest.mark.parametrize("model", BLOCH_MODELS, ids=lambda m: f"{m.name}{m.shape}")
def test_bloch_basis_is_one_full_grid_eigh(model):
    """w and the Bloch eigenvectors u solve the block of every k of the grid
    to 32 Q eps max|H_k|, against the per-k ``eigvalsh`` oracle: w ascending
    and within that bound of eigvalsh, ||H_k u_k - u_k w_k|| within it, and
    ||u_k^H u_k - I|| within 32 Q eps.  With real hoppings the partner of
    each representative k (cell index m -> -m mod N) carries its w and
    conj(u) exactly."""
    ks = default_k_grid(model)
    H = bloch_hamiltonian(model, ks)
    basis = bloch_basis(model)
    u = inspect.getclosurevars(basis.synthesize).nonlocals["u"]
    w = basis.w.reshape(len(ks), model.Q)
    rel = 32 * model.Q * np.finfo(float).eps
    bound = rel * np.max(np.abs(H), axis=(1, 2))
    assert np.all(np.diff(w, axis=1) >= 0)
    assert np.all(np.max(np.abs(w - np.linalg.eigvalsh(H)), axis=1) <= bound)
    assert np.all(np.linalg.norm(H @ u - u * w[:, None, :], axis=(1, 2))
                  <= bound)
    gram = u.conj().transpose(0, 2, 1) @ u
    assert np.all(np.linalg.norm(gram - np.eye(model.Q), axis=(1, 2)) <= rel)
    if _is_real(model):
        cells = np.indices(model.shape).reshape(model.dim, -1)
        partner = np.ravel_multi_index(tuple(-cells), model.shape, mode="wrap")
        mirrored = np.flatnonzero(np.arange(len(ks)) > partner)
        assert np.array_equal(w[mirrored], w[partner[mirrored]])
        assert np.array_equal(u[mirrored], u[partner[mirrored]].conj())


@pytest.mark.parametrize("model", BLOCH_MODELS + [
    build_stub(22, Delta=0.0), build_checkerboard(22, 26), build_sawtooth(30),
    build_kagome1d(44)], ids=lambda m: f"{m.name}{m.shape}")
def test_bands_and_bloch_basis_share_one_solve(model, monkeypatch):
    """``bloch_basis`` and ``band_structure`` take their energies from one
    solve of the blocks, bit for bit.  The blocks it is handed are
    ``bloch_hamiltonian`` on ``default_k_grid`` bit for bit, at the lower
    flat index of each {k, -k} pair (cell index m -> -m mod N) in ascending
    order with real hoppings, and at every k with a complex one (the flux
    sawtooth and the phase stub).  Stub 22, checkerboard 22 x 26, sawtooth
    30 and kagome1d 44 have a grid point at k = pi or pi/2 that 2 pi m / N
    alone misses by an ulp."""
    solved = {False: [], True: []}

    def spy(H, vectors=False):
        solved[vectors].append(H.copy())
        return kernel(H, vectors)

    kernel = spectrum._block_eigh
    monkeypatch.setattr(spectrum, "_block_eigh", spy)
    basis = bloch_basis.__wrapped__(model)
    bands = band_structure(model).bands
    assert np.array_equal(basis.w, bands.T.reshape(-1))
    ks = default_k_grid(model)
    cells = np.indices(model.shape).reshape(model.dim, -1)
    partner = np.ravel_multi_index(tuple(-cells), model.shape, mode="wrap")
    solved_k = (np.arange(len(ks)) <= partner) | (not _is_real(model))
    expected = bloch_hamiltonian(model, ks[solved_k]).tobytes()
    for vectors in (False, True):
        assert np.concatenate(solved[vectors]).tobytes() == expected


@pytest.mark.parametrize("model", [
    build_sawtooth(6), build_stub(6), build_kagome1d(6),
    build_checkerboard(4, 4), build_checkerboard(6, 5),
    build_stub(22, Delta=0.0), build_checkerboard(22, 26)],
    ids=lambda m: f"{m.name}{m.shape}")
def test_self_partner_blocks_and_vectors_are_real(model, monkeypatch):
    """At a self-partner k (every component 0 or pi) the phases are exactly
    +-1, so with real hoppings the vectors ``bloch_basis`` holds have no
    imaginary part, and ``band_structure`` still equals its energies bit
    for bit."""
    held = []

    def spy(model, vectors=False):
        held.append(solve(model, vectors))
        return held[-1]

    solve = greens._bloch_eigh
    monkeypatch.setattr(greens, "_bloch_eigh", spy)
    basis = bloch_basis.__wrapped__(model)
    k, _w, u = held[0]
    self_partner = np.all((k == 0.0) | (k == np.pi), axis=1)
    assert self_partner.sum() == 2 ** sum(n % 2 == 0 for n in model.shape)
    assert not u[self_partner].imag.any()
    bands = band_structure(model).bands
    assert np.array_equal(basis.w, bands.T.reshape(-1))


@given(model=bloch_model, omega=st.floats(-5.0, 5.0),
       kind=st.sampled_from(["site", "cls", "complex"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_resolvent_and_self_energy_match_solve(model, omega, kind, seed):
    assume(_off_spectrum(model, omega))
    chi = _chi(model, kind, seed)
    exact = resolvent_solve(model, omega, chi)
    scale = np.linalg.norm(exact)
    with bloch_path():
        assert spectral_basis(model) is bloch_basis(model)
        g = resolvent_vector(model, omega, chi)
        sigma, dsigma = self_energy(model, chi)(omega)
    assert g.dtype == complex
    assert np.max(np.abs(g - exact)) < 1e-10 * scale
    assert sigma[0, 0] == pytest.approx(np.vdot(chi, exact).real,
                                        abs=1e-10 * scale)
    assert dsigma[0, 0] == pytest.approx(-np.vdot(exact, exact).real,
                                         abs=1e-10 * scale ** 2)


@given(model=bloch_model, seed=st.integers(0, 2**32 - 1),
       shift=st.floats(0.01, 2.0), per_column=st.booleans())
@settings(max_examples=30, deadline=None)
def test_resolvent_form_matches_solve(model, seed, shift, per_column):
    """The self-energy of a matrix of columns (one site, a CLS giant, a
    complex vector) at one omega or one omega_j per column:
    Sigma_ij = <chi_i| (omega_j - H)^{-1} |chi_j> and
    Sigma'_ij = -(G(omega_j) chi_i)^H (G(omega_j) chi_j), every entry."""
    chis = np.column_stack([_chi(model, kind, seed + i).astype(complex)
                            for i, kind in enumerate(("site", "cls", "complex"))])
    w_min = float(eigensystem(model)[0][0])
    shifts = [1.0, 0.5, 2.0] if per_column else [1.0] * 3
    omegas = w_min - shift * np.array(shifts)
    with bloch_path():
        M, dM = self_energy(model, chis)(omegas if per_column else omegas[0])
    assert M.shape == dM.shape == (3, 3)
    for j, omega in enumerate(omegas):
        G = resolvent_solve(model, omega, chis)    # G(omega_j) chi_i, columns i
        col = chis.conj().T @ G[:, j]
        assert np.max(np.abs(M[:, j] - col)) < 1e-10 * np.max(np.abs(col))
        scale = np.max(np.linalg.norm(G, axis=0))
        assert np.max(np.abs(dM[:, j] + G.conj().T @ G[:, j])) \
            < 1e-10 * scale ** 2


@given(model=bloch_model, seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["site", "cls", "complex"]),
       shift=st.floats(0.01, 2.0), g=st.floats(1e-3, 0.5))
@settings(max_examples=40, deadline=None)
def test_solve_pole_root_matches_dense(model, seed, kind, shift, g):
    """The Bloch root equals the dense root to 1e-12 J and zeroes the pole
    equation evaluated with the linear-solve oracle."""
    chi = _chi(model, kind, seed)
    sites = np.flatnonzero(chi)
    em = EmitterSpec(omega0=float(eigensystem(model)[0][0]) - shift,
                     couplings=tuple((int(x), g * complex(chi[x])) for x in sites))
    dense = solve_pole(model, em)
    with bloch_path():
        root = solve_pole(model, em)
    assert abs(root - dense) < 1e-12 * model.J
    c = em.chi(model.n_sites)
    F = root - em.omega0 - em.gbar ** 2 * np.vdot(
        c, resolvent_solve(model, root, c)).real
    assert abs(F) < 1e-10


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("model", BLOCH_MODELS, ids=lambda m: f"{m.name}{m.shape}")
def test_interaction_matrix_matches_dense(model, exact):
    rng = np.random.default_rng(3)
    omega0 = float(eigensystem(model)[0][0]) - 0.3
    ems = [EmitterSpec(omega0, ((int(x), 0.05 * np.exp(1j * rng.uniform(0, 6))),))
           for x in rng.choice(model.n_sites, size=3, replace=False)]
    dense = interaction_matrix(model, ems, exact_pole=exact).K
    with bloch_path():
        K = interaction_matrix(model, ems, exact_pole=exact).K
    assert np.max(np.abs(K - dense)) < 1e-12 * np.max(np.abs(dense))


@given(model=bloch_model, index=st.integers(0, 35), frac=st.floats(-0.99, 0.99))
@settings(max_examples=30, deadline=None)
def test_pole_guard_on_bloch_path(model, index, frac):
    with bloch_path():
        w = spectral_basis(model).w
        omega = float(w[index % w.size]) + frac * POLE_GUARD * model.J
        chi = _chi(model, "complex", index)
        sigma = self_energy(model, chi)
        with pytest.raises(PoleProximity):
            resolvent_vector(model, omega, chi)
        with pytest.raises(PoleProximity):
            sigma(omega)
        with pytest.raises(PoleProximity):
            self_energy(model, chi[:, None])([omega])


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("bloch", [False, True], ids=["dense", "bloch"])
def test_nonfinite_omega_is_rejected(omega, bloch):
    """A non-finite omega, alone or in one column, is a ValueError on both
    bases: the pole guard min|omega - w| < guard is false for nan, and an
    infinite omega would give a zero resolvent (a "bound state" with
    c_e = 1).  The dense case is disordered, so it takes the eigensystem
    whatever ``DENSE_MAX_SITES`` is."""
    model = build_sawtooth(20)
    if not bloch:
        model = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed=4))
    chi = _chi(model, "site", 1)
    em = small_atom(model, 0.0, 0.1, 10, "a")
    with bloch_path() if bloch else contextlib.nullcontext():
        if bloch:
            assert spectral_basis(model) is bloch_basis(model)
        else:
            assert spectral_basis(model).w is eigensystem(model)[0]
        sigma = self_energy(model, np.stack([chi, chi], axis=1))
        with pytest.raises(ValueError, match="not finite"):
            resolvent_vector(model, omega, chi)
        with pytest.raises(ValueError, match="not finite"):
            self_energy(model, chi)(omega)
        with pytest.raises(ValueError, match="not finite"):
            sigma([10.0 * model.J, omega])
        with pytest.raises(ValueError, match="not finite"):
            bs_wavefunction(model, em, omega_bs=omega)


def test_clean_model_above_threshold_never_calls_eigensystem():
    model = build_sawtooth(max(4, greens.DENSE_MAX_SITES // 2 + 1))
    assert model.n_sites > greens.DENSE_MAX_SITES
    before = eigensystem.cache_info()
    em = small_atom(model, omega0_for_detuning(model, 1e-2), 1e-3, 7, "a")
    bs_wavefunction(model, em)
    after = eigensystem.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@given(model=st.sampled_from(CLS_MODELS), seed=st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_fb_project_bloch_matches_dense_projector(model, seed):
    chi = _chi(model, "complex", seed)
    P = fb_projector(model, model.cls.omega_fb).P
    with bloch_path():
        inside, outside = fb_weights(model, model.cls.omega_fb, chi)
    assert abs(inside - np.vdot(chi, P @ chi).real) < 1e-12
    assert abs(outside - np.linalg.norm(chi - P @ chi) ** 2) < 1e-12


@pytest.mark.parametrize("model", CLS_MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("bloch", [False, True], ids=["dense", "bloch"])
def test_fb_project_of_identity_is_the_projector(model, bloch):
    """fb_weights weighs each column of a matrix: the columns of the
    identity give diag(P) inside and 1 - diag(P) outside."""
    P = fb_projector(model, model.cls.omega_fb).P
    with bloch_path() if bloch else contextlib.nullcontext():
        inside, outside = fb_weights(model, model.cls.omega_fb,
                                     np.eye(model.n_sites))
    assert np.max(np.abs(inside - np.diag(P).real)) < 1e-12
    assert np.max(np.abs(outside - (1.0 - np.diag(P).real))) < 1e-12


def test_rabi_frequency_above_threshold_skips_dense_eigh():
    """Above DENSE_MAX_SITES the flat-band weights take the Bloch basis:
    no eigensystem call, and they equal those of the dense V V^T chi."""
    model = build_sawtooth(max(4, greens.DENSE_MAX_SITES // 2 + 1))
    em = small_atom(model, -2.0, 1e-3, 7, "a")
    chi = em.chi(model.n_sites).real
    w, U = np.linalg.eigh(real_space_hamiltonian(model))
    V = U[:, np.abs(w + 2.0) < greens.FB_TOL]
    dense = V @ (V.T @ chi)
    before = eigensystem.cache_info()
    inside, outside = fb_weights(model, -2.0, chi)
    assert abs(inside - chi @ dense) < 1e-12
    assert abs(outside - np.linalg.norm(chi - dense) ** 2) < 1e-12
    omega = rabi_frequency(model, em)
    after = eigensystem.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert omega == pytest.approx(1e-3 * math.sqrt(chi @ dense), rel=1e-12)


def test_disordered_model_above_threshold_takes_dense_path():
    n_cells = max(4, greens.DENSE_MAX_SITES // 3 + 1)
    model = apply_disorder(build_stub(n_cells),
                           DisorderSpec("diagonal", 0.1, seed=4))
    assert model.n_sites > greens.DENSE_MAX_SITES
    misses = eigensystem.cache_info().misses
    assert spectral_basis(model).w is eigensystem(model)[0]
    assert eigensystem.cache_info().misses == misses + 1


def test_sawtooth_1e5_tail_is_the_single_pole_rate():
    """Sawtooth N=1e5: per-step length 1/ln(psi_d/psi_{d+1}) over d = 1..8
    equals 1/arccosh(1 - omega_BS/(2J)) to 1e-6 (the check of test_01)."""
    model = build_sawtooth(100_000)
    em = small_atom(model, omega0_for_detuning(model, 1e-2), 1e-3, 50_000, "a")
    res = bs_wavefunction(model, em)
    lam_exact = 1.0 / math.acosh(1.0 - res.omega_bs / (2.0 * model.J))
    prof = bs_profile(res, model, "a", d_max=9)
    for d in range(1, 9):
        step = 1.0 / math.log(prof[d] / prof[d + 1])
        assert abs(step / lam_exact - 1.0) < 1e-6


def test_checkerboard_200_matches_bloch_sum():
    """Checkerboard 200x200: psi on sublattice a along x equals
    g c_e (1/N) sum_k e^{ik.d} [(omega_BS - H_k)^-1]_aa, inverted in one
    batch over the k-grid, to 1e-8 relative (the check of test_06)."""
    n = 200
    model = build_checkerboard(n, n)
    em = small_atom(model, omega0_for_detuning(model, 1e-2), 1e-3,
                    (n // 2, n // 2), "a")
    res = bs_wavefunction(model, em)
    k = 2.0 * np.pi * np.arange(n) / n
    ks = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    G_aa = np.linalg.inv(res.omega_bs * np.eye(2)
                         - bloch_hamiltonian(model, ks))[:, 0, 0]
    for d in (0, 1, 5, 20, 60):
        bloch = 1e-3 * res.c_e * np.sum(np.exp(1j * ks[:, 0] * d) * G_aa) / len(ks)
        psi = res.psi[site_index(model, (n // 2 + d, n // 2), "a")]
        assert abs(psi - bloch) < 1e-8 * abs(bloch)


def test_cli_boundstate_checkerboard_200(capsys):
    code = main(["boundstate", "--model", "checkerboard", "--N", "200x200",
                 "--site", "a:100,100", "--delta", "1e-2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("omega0,omega_bs,residual")
