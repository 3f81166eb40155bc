import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatqed.boundstate import small_atom
from flatqed.errors import ConfigError, UnsupportedLattice
from flatqed.flatband import (bs_cls_weights, projector_cls_expansion,
                              reconstruct_from_weights)
from flatqed.giant import cls_emitter
from flatqed.lattice import (ClsSet, DisorderSpec, LatticeModel,
                             _disorder_draws, _is_real, apply_disorder,
                             bipartite_sites, bloch_hamiltonian, build_chain,
                             build_checkerboard, build_double_comb,
                             build_kagome1d,
                             build_sawtooth, build_stub, model_from_spec,
                             real_space_hamiltonian, site_index)

from dense_reference import flux_sawtooth

ALL_MODELS = [
    build_chain(10),
    build_sawtooth(8),
    build_stub(8, Delta=4.0),
    build_stub(8, Delta=0.0),
    build_double_comb(8, t=1.3, omega_c=0.2),
    build_kagome1d(6),
    build_checkerboard(5, 4),
]


# every builder at its smallest allowed shape, plus a complex-hopping model
SMALLEST_MODELS = [
    build_chain(1),
    build_chain(3),
    build_sawtooth(4),
    build_stub(4, Delta=4.0),
    build_double_comb(3, t=1.3, omega_c=0.2),
    build_kagome1d(4),
    build_checkerboard(4, 4),
    flux_sawtooth(4),
]


def _loop_hamiltonian(model):
    """Reference assembly: one Python loop over cells and hoppings."""
    n = model.n_sites
    dtype = float if _is_real(model) else complex
    H = np.zeros((n, n), dtype=dtype)
    diag_dis, hop_dis = _disorder_draws(model)
    for s, eps in enumerate(model.onsite):
        idx = np.arange(s, n, model.Q)
        H[idx, idx] += eps
    if diag_dis is not None:
        H[np.arange(n), np.arange(n)] += diag_dis
    bond = 0
    for cell in np.ndindex(*model.shape):
        ci = model.cell_index(cell)
        for nu, nup, off, amp in model.hoppings:
            cj = model.cell_index(tuple(c + o for c, o in zip(cell, off)))
            i = ci * model.Q + nu
            j = cj * model.Q + nup
            t = complex(amp) if dtype is complex else float(np.real(amp))
            if hop_dis is not None and t != 0:
                t = t * (abs(t) + hop_dis[bond]) / abs(t)
            bond += 1
            H[i, j] += t
            H[j, i] += np.conj(t)
    return H


@pytest.mark.parametrize("kind", [None, "diagonal", "off-diagonal"])
@pytest.mark.parametrize("model", SMALLEST_MODELS + ALL_MODELS,
                         ids=lambda m: f"{m.name}{m.shape}")
def test_vectorised_hamiltonian_equals_loop(model, kind):
    """The scattered assembly is bit-identical to the cell loop, disorder
    draws included (same bond order)."""
    if kind is not None:
        model = apply_disorder(model, DisorderSpec(kind, 0.4, seed=7))
    H = real_space_hamiltonian(model)
    ref = _loop_hamiltonian(model)
    assert H.dtype == ref.dtype
    assert H.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_real_space_hermitian(model):
    H = real_space_hamiltonian(model)
    assert H.shape == (model.n_sites, model.n_sites)
    assert np.max(np.abs(H - H.conj().T)) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS + [flux_sawtooth(6)],
                         ids=lambda m: m.name)
def test_bloch_matches_real_space_spectrum(model):
    """Union of Bloch eigenvalues over the commensurate grid equals the
    real-space spectrum as a multiset.  The flux sawtooth has complex
    hoppings, so it fails if k and -k share their bands there."""
    from flatqed.spectrum import band_structure

    w_real = np.sort(np.linalg.eigvalsh(real_space_hamiltonian(model)))
    bs = band_structure(model)
    w_bloch = np.sort(bs.bands.ravel())
    assert np.allclose(w_real, w_bloch, atol=1e-10)


@given(k=st.floats(-np.pi, np.pi, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_bloch_hermitian(k):
    model = build_stub(8, Delta=2.0)
    H = bloch_hamiltonian(model, k)
    assert np.max(np.abs(H - H.conj().T)) < 1e-14


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_bloch_batch_equals_per_k_calls(model):
    """A batch of wavevectors gives bit for bit the stack of per-k calls."""
    from flatqed.spectrum import default_k_grid

    rng = np.random.default_rng(3)
    ks = np.concatenate([default_k_grid(model),
                         rng.uniform(-np.pi, np.pi, size=(7, model.dim))])
    H = bloch_hamiltonian(model, ks)
    assert H.shape == (len(ks), model.Q, model.Q)
    assert np.array_equal(H, np.stack([bloch_hamiltonian(model, k) for k in ks]))
    grid = ks[:6].reshape(2, 3, model.dim)
    assert np.array_equal(bloch_hamiltonian(model, grid),
                          H[:6].reshape(2, 3, model.Q, model.Q))


@pytest.mark.parametrize("model", ALL_MODELS + [build_stub(22, Delta=0.0)],
                         ids=lambda m: m.name)
def test_band_structure_equals_per_k_eigh(model):
    """The bands at every k are ascending and within 32 Q eps max|H_k| of
    that k's own eigvalsh; the partner of each representative k (the lower
    grid index of a {k, -k} pair) carries the representative's bands
    exactly."""
    from flatqed.spectrum import band_structure, default_k_grid

    ks = default_k_grid(model)
    bs = band_structure(model)
    assert np.array_equal(bs.k_grid, ks)
    cells = [tuple(c) for c in np.indices(model.shape).reshape(model.dim, -1).T]
    index = {c: i for i, c in enumerate(cells)}
    for i, c in enumerate(cells):
        j = index[tuple(-m % n for m, n in zip(c, model.shape))]
        assert np.array_equal(bs.bands[:, i], bs.bands[:, min(i, j)])
        H = bloch_hamiltonian(model, ks[i])
        bound = 32 * model.Q * np.finfo(float).eps * np.max(np.abs(H))
        assert np.all(np.diff(bs.bands[:, i]) >= 0)
        assert np.max(np.abs(bs.bands[:, i] - np.linalg.eigvalsh(H))) <= bound


def test_bloch_shape_errors():
    chain, board = build_chain(10), build_checkerboard(5, 4)
    assert bloch_hamiltonian(chain, 0.3).shape == (1, 1)
    assert bloch_hamiltonian(chain, np.zeros((4, 1))).shape == (4, 1, 1)
    for model, k in ((chain, [0.1, 0.2]), (chain, np.zeros((4, 2))),
                     (board, 0.3), (board, np.zeros((4, 3))), (board, np.zeros(0))):
        with pytest.raises(ConfigError):
            bloch_hamiltonian(model, k)
    dis = apply_disorder(build_stub(8), DisorderSpec("diagonal", 0.1, seed=0))
    with pytest.raises(UnsupportedLattice):
        bloch_hamiltonian(dis, np.zeros((4, 1)))


def test_chain_sizes():
    assert build_chain(1).n_sites == 1
    with pytest.raises(ConfigError):
        build_chain(2)
    assert build_chain(3).n_sites == 3


def test_site_index_ordering():
    model = build_sawtooth(6)
    # cell-major, sublattice-minor
    assert site_index(model, 0, "a") == 0
    assert site_index(model, 0, "b") == 1
    assert site_index(model, 3, "a") == 6
    # periodic wrap
    assert site_index(model, 6, "a") == 0
    with pytest.raises(ConfigError):
        site_index(model, 0, "z")


@pytest.mark.parametrize("sub", [2, 3, -1, np.int64(2)])
def test_integer_sublattice_outside_range_is_rejected(sub):
    """An integer id must name one of the Q sublattices: on the sawtooth,
    id 3 of cell 2 would otherwise be site 7, which is (3, "b")."""
    model = build_sawtooth(8)
    assert site_index(model, 2, 1) == site_index(model, 2, "b")
    assert site_index(model, 2, np.int64(0)) == site_index(model, 2, "a")
    with pytest.raises(ConfigError, match=r"outside range\(2\)"):
        site_index(model, 2, sub)
    with pytest.raises(ConfigError):
        small_atom(model, -1.9, 1e-3, 2, sub)
    bad = ClsSet(model.cls.omega_fb, model.cls.stencil + ((sub, (0,), 0.1),))
    with pytest.raises(ConfigError):
        cls_emitter(replace(model, cls=bad), -1.9, 1e-3, 2)
    with pytest.raises(ConfigError):
        reconstruct_from_weights(bad, model, np.ones(model.n_cells))
    with pytest.raises(ConfigError):
        bs_cls_weights(bad, model, 3)
    with pytest.raises(ConfigError):
        projector_cls_expansion(bad, model)


@pytest.mark.parametrize("J", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_or_nan_J_is_rejected(J):
    """J sets every scale (POLE_GUARD * J among them), so a model built by
    hand must have a finite J > 0 like every builder's."""
    with pytest.raises(ConfigError, match="J must be positive"):
        LatticeModel("chain", 1, (5,), ("a",), (0.0,), ((0, 0, (1,), 1.0),), J)
    with pytest.raises(ConfigError, match="J must be positive"):
        model_from_spec({"model": "stub", "N": 8, "J": J})


@pytest.mark.parametrize("onsite,amp", [(math.nan, 1.0), (0.0, math.inf),
                                        (0.0, complex(1.0, math.nan))])
def test_nonfinite_onsite_or_hopping_is_rejected(onsite, amp):
    with pytest.raises(ConfigError, match="must be finite"):
        LatticeModel("chain", 1, (5,), ("a",), (onsite,), ((0, 0, (1,), amp),),
                     1.0)


@pytest.mark.parametrize("fields,match", [
    ({"dim": 2}, "dimension/shape mismatch"),
    ({"onsite": (0.0, 0.0)}, "one on-site energy per sublattice"),
    ({"hoppings": ((0, 1, (1,), 1.0),)}, "sublattice index out of range"),
    ({"hoppings": ((0, 0, (1, 0), 1.0),)}, "offset dimension mismatch"),
    ({"hoppings": ((0, 0, (5,), 1.0),)}, "offset wraps onto itself"),
], ids=["dim-against-shape", "onsite-count", "sublattice-index",
        "offset-dimension", "offset-wraps"])
def test_inconsistent_model_is_rejected(fields, match):
    """A hand-built model must agree with itself: one on-site energy per
    sublattice, hoppings between existing sublattices, and offsets of the
    lattice's dimension shorter than the lattice (the 5-cell chain)."""
    with pytest.raises(ConfigError, match=match):
        replace(build_chain(5), **fields)


@pytest.mark.parametrize("model,params", [
    ("stub", {"Delta": math.nan}), ("stub", {"Delta": math.inf}),
    ("doublecomb", {"t": math.nan}), ("doublecomb", {"omega_c": math.nan})])
def test_nonfinite_builder_params_are_rejected_by_the_model(model, params):
    """No builder checks finiteness; the model's own check catches a
    non-finite parameter wherever it lands (hopping or on-site energy)."""
    with pytest.raises(ConfigError, match="must be finite"):
        model_from_spec({"model": model, "N": 8, "params": params})


@pytest.mark.parametrize("strength", [math.nan, math.inf, -0.1, 1e308])
def test_disorder_strength_must_be_finite_and_nonnegative(strength):
    """1e308 is finite, but the draw's width 2 * strength is not."""
    with pytest.raises(ConfigError, match="strength"):
        DisorderSpec("diagonal", strength, seed=0)


def _seeded_stub(seed):
    return {"model": "stub", "N": 8,
            "disorder": {"kind": "diagonal", "strength": 0.1, "seed": seed}}


@pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.5, 2.0, "3", True, None])
def test_disorder_seed_must_be_a_nonnegative_integer(seed):
    """Only a non-negative int or numpy integer (not a bool) is a seed; a
    negative one used to fail in numpy's generator at the first assembly.
    ``model_from_spec`` takes an integral float, as it does for ``N``."""
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        DisorderSpec("diagonal", 0.1, seed=seed)
    assert DisorderSpec("diagonal", 0.1, seed=np.int64(3)).seed == 3
    assert (model_from_spec(_seeded_stub(2.0)).disorder
            == DisorderSpec("diagonal", 0.1, 2))


def test_cell_index_lexicographic_2d():
    model = build_checkerboard(4, 5)
    assert model.cell_index((0, 0)) == 0
    assert model.cell_index((0, 1)) == 1
    assert model.cell_index((1, 0)) == 5
    assert model.cell_index((-1, 0)) == model.cell_index((3, 0))


@pytest.mark.parametrize("model", [build_sawtooth(7), build_checkerboard(5, 4)],
                         ids=lambda m: m.name)
def test_cell_index_wraps_negative_and_large_coordinates(model):
    """Every coordinate in (-2N, 2N) per axis gives the integer of the
    explicit lexicographic formula on the wrapped coordinates."""
    ranges = [range(-2 * n + 1, 2 * n) for n in model.shape]
    for cell in np.ndindex(*(len(r) for r in ranges)):
        coords = tuple(r[i] for r, i in zip(ranges, cell))
        expected = 0
        for c, n in zip(coords, model.shape):
            expected = expected * n + c % n
        assert model.cell_index(coords) == expected
        assert type(model.cell_index(coords)) is int
    if model.dim == 1:
        assert model.cell_index(-1) == model.cell_index(13) == 6
    with pytest.raises(ConfigError):
        model.cell_index((0,) * (model.dim + 1))


def test_sawtooth_band_energies():
    """Flat band at -2J, dispersive band 2J(1 + cos k)."""
    model = build_sawtooth(16)
    for k in (0.0, 0.7, np.pi):
        w = np.linalg.eigvalsh(bloch_hamiltonian(model, k))
        assert np.allclose(np.sort(w), [-2.0, 2.0 * (1 + np.cos(k))], atol=1e-12)


def test_stub_band_energies():
    """Bands {0, +-J sqrt(Delta + 2(1 + cos k))}."""
    model = build_stub(16, Delta=3.0)
    for k in (0.0, 1.1, np.pi):
        w = np.sort(np.linalg.eigvalsh(bloch_hamiltonian(model, k)))
        e = np.sqrt(3.0 + 2.0 * (1 + np.cos(k)))
        assert np.allclose(w, [-e, 0.0, e], atol=1e-12)


def test_checkerboard_band_energies():
    """H_k = omega_d(k) I - J v_k v_k^dag with |v_k|^2 = omega_d/J:
    bands {0, omega_d(k)}, omega_d = 2J(2 - cos kx - cos ky), also from
    ``band_structure`` on every point of a 64 x 64 grid."""
    model = build_checkerboard(6, 6)
    for k in ((0.3, 1.2), (np.pi, 0.0), (2.0, -1.0)):
        w = np.sort(np.linalg.eigvalsh(bloch_hamiltonian(model, k)))
        om_d = 2.0 * (2.0 - np.cos(k[0]) - np.cos(k[1]))
        assert np.allclose(w, [0.0, om_d], atol=1e-12)
    from flatqed.spectrum import band_structure
    bs = band_structure(build_checkerboard(64, 64))
    kx, ky = bs.k_grid.T
    om_d = 2.0 * (2.0 - np.cos(kx) - np.cos(ky))
    assert np.max(np.abs(bs.bands[0])) < 1e-12
    assert np.max(np.abs(bs.bands[1] - om_d)) < 1e-12


def test_doublecomb_flat_band_energy():
    model = build_double_comb(12, t=1.7, omega_c=0.4)
    for k in (0.0, 2.0):
        w = np.linalg.eigvalsh(bloch_hamiltonian(model, k))
        assert np.min(np.abs(w - 0.4)) < 1e-12


def test_disorder_deterministic():
    model = build_stub(8)
    d1 = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed=7))
    d2 = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed=7))
    d3 = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed=8))
    H1, H2, H3 = map(real_space_hamiltonian, (d1, d2, d3))
    assert np.array_equal(H1, H2)
    assert not np.array_equal(H1, H3)


def test_disorder_zero_strength_noop():
    model = build_stub(8)
    assert apply_disorder(model, DisorderSpec("diagonal", 0.0, seed=1)) is model


def test_offdiagonal_disorder_preserves_diagonal():
    model = build_stub(8)
    dis = apply_disorder(model, DisorderSpec("off-diagonal", 0.5, seed=3))
    H0 = real_space_hamiltonian(model)
    H = real_space_hamiltonian(dis)
    assert np.array_equal(np.diag(H), np.diag(H0))
    assert np.max(np.abs(H - H.conj().T)) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_bipartite_sites_split_every_hopping(model):
    """Only the stub two-colours: {a, c} against {b}, the larger colour
    first, and every hopping of the (disordered) Hamiltonian joins the two
    colours.  Each other builder has a hopping within one sublattice or an
    odd cycle of sublattices."""
    sites = bipartite_sites(model)
    if model.name != "stub":
        assert sites is None
        return
    A, B = sites
    assert np.array_equal(A, np.flatnonzero(np.arange(model.n_sites) % 3 != 1))
    assert np.array_equal(B, np.arange(1, model.n_sites, 3))
    H = real_space_hamiltonian(
        apply_disorder(model, DisorderSpec("off-diagonal", 0.5, seed=2)))
    assert not H[np.ix_(A, A)].any() and not H[np.ix_(B, B)].any()


def test_bipartite_sites_put_the_larger_colour_first():
    """A stub whose sublattices are listed minority first (b, a, c)."""
    model = LatticeModel("stub-bac", 1, (4,), ("b", "a", "c"), (0.0,) * 3,
                         ((0, 1, (0,), 2.0), (0, 2, (0,), 1.0),
                          (2, 0, (1,), 1.0)), 1.0)
    A, B = bipartite_sites(model)
    assert np.array_equal(B, np.arange(0, 12, 3))
    assert len(A) == 8
    single = LatticeModel("cavity", 1, (1,), ("a",), (0.0,), (), 1.0)
    assert bipartite_sites(single) is None


def test_double_disorder_rejected():
    model = build_stub(8)
    dis = apply_disorder(model, DisorderSpec("diagonal", 0.1, seed=0))
    with pytest.raises(ConfigError):
        apply_disorder(dis, DisorderSpec("diagonal", 0.1, seed=1))


def test_bloch_rejects_disordered():
    dis = apply_disorder(build_stub(8), DisorderSpec("diagonal", 0.1, seed=0))
    with pytest.raises(UnsupportedLattice):
        bloch_hamiltonian(dis, 0.0)


def test_model_from_spec_roundtrip():
    spec = {"model": "stub", "N": 8, "J": 1.0, "params": {"Delta": 4.0}}
    assert model_from_spec(spec) == build_stub(8, Delta=4.0)
    spec2 = {"model": "checkerboard", "N": [5, 4]}
    assert model_from_spec(spec2) == build_checkerboard(5, 4)
    with pytest.raises(ConfigError):
        model_from_spec({"model": "nosuch", "N": 8})
    with pytest.raises(ConfigError):
        model_from_spec({"N": 8})


def test_model_from_spec_defaults_come_from_the_builders():
    assert model_from_spec({"model": "stub", "N": 8}) == build_stub(8)
    assert model_from_spec({"model": "doublecomb", "N": 6,
                            "params": {"omega_c": 0.5}}) == \
        build_double_comb(6, omega_c=0.5)
    assert model_from_spec({"model": "sawtooth", "N": 6, "J": 2.0}) == \
        build_sawtooth(6, 2.0)
    # a param the model does not take is an error, not a silent default
    with pytest.raises(ConfigError, match=r"sawtooth takes no params \['Delta'\]"):
        model_from_spec({"model": "sawtooth", "N": 6, "J": 2.0,
                         "params": {"Delta": 3.0}})
    assert model_from_spec({"model": "checkerboard", "N": 5}) == \
        build_checkerboard(5, 5)
    assert model_from_spec({"model": "chain", "N": [7]}) == build_chain(7)


@pytest.mark.parametrize("spec,match", [
    ({"model": "stub", "N": 8, "params": {"delta": 2}},
     r"stub takes no params \['delta'\]"),
    ({"model": "doublecomb", "N": 8, "params": {"t": 1.0, "Delta": 2}},
     "doublecomb takes no params"),
    ({"model": "stub", "N": 5.7}, "cell counts must be integers"),
    ({"model": "checkerboard", "N": [5, 4.5]}, "cell counts must be integers"),
    ({"model": "stub", "N": math.inf}, "bad lattice spec"),
    (_seeded_stub(1.5), "seed must be an integer, got 1.5"),
    (_seeded_stub("2"), "seed must be an integer, got '2'"),
    (_seeded_stub(math.inf), "bad disorder spec"),
    (_seeded_stub(-1), "seed must be an integer >= 0"),
    ({"model": "stub"}, "lattice spec missing 'N'"),
    ({"model": "sawtooth", "N": 3}, "sawtooth requires N >= 4"),
    ({"model": "stub", "N": 3}, "stub requires N >= 4"),
    ({"model": "stub", "N": 8, "params": {"Delta": -1.0}},
     "require Delta >= 0"),
    ({"model": "doublecomb", "N": 2}, "double-comb requires N >= 3"),
    ({"model": "doublecomb", "N": 8, "params": {"t": 0.0}}, "require t > 0"),
    ({"model": "kagome1d", "N": 3}, "kagome1d requires N >= 4"),
    ({"model": "checkerboard", "N": [4, 3]},
     "checkerboard requires Nx, Ny >= 4"),
], ids=["misspelt-param", "foreign-param", "fractional-N", "fractional-2d-N",
        "infinite-N", "fractional-seed", "string-seed", "infinite-seed",
        "negative-seed", "missing-N", "sawtooth-N-3", "stub-N-3",
        "stub-negative-Delta", "doublecomb-N-2", "doublecomb-t-0",
        "kagome1d-N-3", "checkerboard-4x3"])
def test_model_from_spec_rejects_bad_input(spec, match):
    with pytest.raises(ConfigError, match=match):
        model_from_spec(spec)


def test_model_from_spec_rejects_short_2d_N():
    with pytest.raises(ConfigError, match="2-dimensional"):
        model_from_spec({"model": "checkerboard", "N": [5]})


def test_model_from_spec_rejects_long_N():
    with pytest.raises(ConfigError, match="2-dimensional"):
        model_from_spec({"model": "checkerboard", "N": [5, 4, 3]})


def test_model_from_spec_rejects_2d_N_for_1d_model():
    with pytest.raises(ConfigError, match="chain is 1-dimensional") as info:
        model_from_spec({"model": "chain", "N": [10, 10]})
    assert "int()" not in str(info.value)


def test_model_from_spec_rejects_disorder_without_kind():
    with pytest.raises(ConfigError, match="'kind'"):
        model_from_spec({"model": "stub", "N": 8,
                         "disorder": {"strength": 0.1, "seed": 1}})


def test_model_from_spec_rejects_non_numeric_strength():
    with pytest.raises(ConfigError, match="bad disorder spec"):
        model_from_spec({"model": "stub", "N": 8,
                         "disorder": {"kind": "diagonal", "strength": "lots"}})


def test_bad_disorder_kind():
    with pytest.raises(ConfigError):
        DisorderSpec("bogus", 0.1, seed=0)
    with pytest.raises(ConfigError):
        DisorderSpec("diagonal", -0.1, seed=0)
