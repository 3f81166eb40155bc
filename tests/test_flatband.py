import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatqed import flatband
from flatqed.errors import SingularF, UnsupportedLattice
from cls_reference import cls_vector
from flatqed.flatband import (ClsSet, bs_cls_weights, cls_set, lambda_1d,
                              lambda_2d, projector_cls_expansion,
                              reconstruct_from_weights, settsech, xi_2d_axis,
                              xi_analytic_1d, xi_numeric)
from flatqed.greens import fb_projector
from flatqed.lattice import (DisorderSpec, apply_disorder, build_chain,
                             build_checkerboard, build_double_comb,
                             build_kagome1d, build_sawtooth, build_stub,
                             real_space_hamiltonian)
from flatqed.spectrum import band_structure

FB_MODELS = [
    build_sawtooth(10),
    build_stub(10, Delta=4.0),
    build_double_comb(10, t=1.2, omega_c=0.3),
    build_kagome1d(8),
    build_checkerboard(6, 5),
]


def _hand_2d_cls():
    """A 2D CLS set on the checkerboard's two sublattices with overlap u v
    along x and w z along y only, so its Gram symbol is f(k) with those
    alphas.  Not an eigenstate of the checkerboard; used for the algebra."""
    u, v, w = 0.8, 0.2, 0.5
    z = math.sqrt(1.0 - u * u - v * v - w * w)
    return ClsSet(0.0, ((0, (0, 0), u), (0, (1, 0), v), (1, (0, 0), w),
                        (1, (0, 1), z)))


# (cls, model): every CLS builder with a complete basis, kagome1d (whose CLS
# basis misses the two extended flat-band states) and the hand-built 2D set
CLS_CASES = [(cls_set(m), m) for m in FB_MODELS[:4]] + [
    (_hand_2d_cls(), build_checkerboard(6, 5)),
    (_hand_2d_cls(), build_checkerboard(4, 7)),
]
CLS_IDS = [m.name for m in FB_MODELS[:4]] + ["hand2d-6x5", "hand2d-4x7"]


def _cls_matrix(model, cls):
    """Dense reference Phi (sites x cells): column n is the CLS of cell n."""
    Phi = np.zeros((model.n_sites, model.n_cells))
    for cell in np.ndindex(*model.shape):
        Phi[:, model.cell_index(cell)] = cls_vector(model, cell, cls)
    return Phi


def _xi_circulant(model, cls):
    """Dense reference Xi[n, n'] = xi(n - n'), with xi = ifftn(1/f) and
    f(k) = 1 + 2 sum_d alpha_d cos k_d on the lattice's k-grid."""
    axes = [2.0 * np.pi * np.arange(n) / n for n in model.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    f = 1.0 + sum(2.0 * a * np.cos(km) for a, km in zip(cls.alphas, mesh))
    xi = np.fft.ifftn(1.0 / f)
    assert np.max(np.abs(xi.imag)) < 1e-12
    coords = np.stack([g.ravel() for g in np.indices(model.shape)], axis=-1)
    diff = (coords[:, None, :] - coords[None, :, :]) % np.asarray(model.shape)
    return xi.real[tuple(diff[..., d] for d in range(model.dim))]


@pytest.mark.parametrize("model", FB_MODELS, ids=lambda m: m.name)
def test_cls_is_flat_band_eigenstate(model):
    """The builder's CLS is an eigenstate at omega_fb, and omega_fb is the
    energy of a Bloch band of width below 1e-12."""
    cls = cls_set(model)
    H = real_space_hamiltonian(model)
    cell = (2,) if model.dim == 1 else (2, 2)
    phi = cls_vector(model, cell, cls)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
    assert np.max(np.abs(H @ phi - cls.omega_fb * phi)) < 1e-12
    bands = band_structure(model).bands
    flat = np.ptp(bands, axis=1) < 1e-12
    assert np.any(flat & (np.abs(bands.mean(axis=1) - cls.omega_fb) < 1e-12))


@pytest.mark.parametrize("model", FB_MODELS, ids=lambda m: m.name)
def test_alphas_match_cls_overlaps(model):
    """alpha_d is the overlap of neighbouring CLSs along d and no other pair
    of distinct CLSs overlaps, so the stencil's Gram symbol |phi(k)|^2 is
    f(k) = 1 + 2 sum_d alpha_d cos k_d."""
    cls = cls_set(model)
    origin = (0,) * model.dim
    phi0 = cls_vector(model, origin, cls)
    expected = np.zeros(model.shape)
    expected[origin] = 1.0
    for axis, alpha in enumerate(cls.alphas):
        shifted = tuple(1 if d == axis else 0 for d in range(model.dim))
        phi1 = cls_vector(model, shifted, cls)
        assert float(phi0 @ phi1) == pytest.approx(alpha, abs=1e-12)
        expected[shifted] += alpha
        expected[tuple(-c for c in shifted)] += alpha
    gram_row = _cls_matrix(model, cls).T @ phi0
    assert np.max(np.abs(gram_row - expected.ravel())) < 1e-12


@pytest.mark.parametrize("model,alphas", [
    (build_sawtooth(10, J=1.7), (0.25,)),
    (build_stub(10, Delta=0.0), (0.5,)),
    (build_stub(10, Delta=2.5), (1.0 / 4.5,)),
    (build_double_comb(10, t=1.2, omega_c=0.3), (0.0,)),
    (build_kagome1d(8), (1.0 / 6.0,)),
    (build_checkerboard(6, 5), (-0.25, -0.25)),
], ids=["sawtooth", "stub-0", "stub-2.5", "doublecomb", "kagome1d",
        "checkerboard"])
def test_alphas_closed_forms(model, alphas):
    """The overlaps computed from each builder's stencil are the closed
    forms 1/4, 1/(2 + Delta), 0, 1/6 and -1/4."""
    assert cls_set(model).alphas == pytest.approx(alphas, abs=1e-15)


def test_alphas_conjugate_the_phi0_coefficient():
    """alpha is <phi_0|phi_1>, so a gauge phase on one sublattice leaves it
    alone: the stencil with i/2 on sublattice 0 overlaps as the real one
    does, 1/2, where the unconjugated sum of c c' gives 0."""
    real = ClsSet(0.0, ((0, (0,), 0.5), (0, (1,), 0.5),
                        (1, (0,), 0.5), (1, (1,), 0.5)))
    gauged = ClsSet(0.0, ((0, (0,), 0.5j), (0, (1,), 0.5j),
                          (1, (0,), 0.5), (1, (1,), 0.5)))
    assert real.alphas == gauged.alphas == (0.5,)
    model = build_sawtooth(8)
    phi0, phi1 = (reconstruct_from_weights(
        gauged, model, np.eye(1, model.n_cells, n, dtype=complex))
        for n in (0, 1))
    assert np.vdot(phi0, phi1) == gauged.alphas[0]


def test_cls_set_needs_a_flat_band_builder():
    with pytest.raises(UnsupportedLattice, match="chain"):
        cls_set(build_chain(8))


def test_disordered_model_keeps_the_clean_cls():
    clean = build_stub(8, Delta=2.0)
    dis = apply_disorder(clean, DisorderSpec("off-diagonal", 0.3, seed=2))
    assert cls_set(dis) == cls_set(clean)


@given(x=st.floats(1e-6, 1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_settsech_roundtrip(x):
    """sech(settsech(x)) = x."""
    y = settsech(x)
    assert 1.0 / math.cosh(y) == pytest.approx(x, rel=1e-12)


def test_settsech_domain():
    with pytest.raises(ValueError):
        settsech(0.0)
    with pytest.raises(ValueError):
        settsech(1.5)


@given(alpha=st.floats(-0.48, 0.48, allow_nan=False).filter(lambda a: abs(a) > 0.02),
       d=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_xi_1d_analytic_matches_numeric(alpha, d):
    num = xi_numeric(alpha, (d,), n_k=8192)
    ana = xi_analytic_1d(alpha, d)
    assert abs(num - ana) < 1e-7


def test_xi_symmetric_in_distance():
    assert xi_numeric(0.2, (-3,)) == pytest.approx(xi_numeric(0.2, (3,)), abs=1e-15)


def test_xi_singular_at_half():
    with pytest.raises(SingularF):
        xi_numeric(0.5, (0,))
    # and no sum beyond two dimensions
    with pytest.raises(ValueError, match="one or two CLS overlaps"):
        xi_numeric((0.1, 0.1, 0.1), (0, 0, 5), n_k=64)


@pytest.mark.parametrize("call", [
    lambda: xi_analytic_1d(0.2, 2.7),
    lambda: xi_numeric(0.2, 2.7),
    lambda: xi_numeric(0.2, math.inf),
    lambda: xi_2d_axis(0.15, 3.9),
    lambda: xi_numeric((0.1, 0.1), (1.5, 2.2)),
], ids=["analytic_1d", "numeric_1d", "numeric_inf", "2d_axis", "numeric_2d"])
def test_non_integral_offset_is_rejected(call):
    """A fractional offset is an error, not truncated to the integer below
    it (xi(2.7) used to return xi(2))."""
    with pytest.raises(ValueError, match="offsets must be integers"):
        call()


@pytest.mark.parametrize("call,match", [
    (lambda: lambda_1d(0.0), "0 < |alpha| < 1/2"),
    (lambda: lambda_1d(-0.5), "0 < |alpha| < 1/2"),
    (lambda: lambda_2d(0.0), "0 < |alpha| <= 1/4"),
    (lambda: lambda_2d(0.3), "0 < |alpha| <= 1/4"),
    (lambda: xi_analytic_1d(0.5, 1), "|alpha| < 1/2"),
    (lambda: xi_numeric((0.1, 0.1), (1,)), "offset dimension mismatch"),
    (lambda: xi_numeric(0.1, (1, 0)), "offset dimension mismatch"),
    (lambda: xi_numeric(0.2, 1, n_k=10.5), "n_k must be >= 1"),
    (lambda: xi_numeric(0.2, 1, n_k=True), "n_k must be >= 1"),
], ids=["lambda_1d-0", "lambda_1d-half", "lambda_2d-0", "lambda_2d-0.3",
        "analytic_1d-half", "numeric_2d-1d-offset", "numeric_1d-2d-offset",
        "numeric-float-n_k", "numeric-bool-n_k"])
def test_argument_outside_the_domain_is_rejected(call, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        call()


@pytest.mark.parametrize("d", [0, 1, -3])
def test_xi_at_zero_overlap_is_a_kronecker_delta(d):
    """alpha = 0 leaves one CLS per cell with no overlap: f(k) = 1."""
    assert xi_analytic_1d(0.0, d) == float(d == 0)
    assert xi_numeric(0.0, (d,)) == pytest.approx(float(d == 0), abs=1e-15)


def test_integral_float_and_numpy_offsets_are_accepted():
    assert xi_analytic_1d(0.2, 2.0) == xi_analytic_1d(0.2, 2)
    assert xi_numeric(0.2, np.int64(3)) == xi_numeric(0.2, 3)
    assert xi_2d_axis(0.15, np.float64(3.0)) == xi_2d_axis(0.15, 3)
    assert xi_numeric((0.1, 0.1), (1.0, 2.0)) == xi_numeric((0.1, 0.1), (1, 2))


def test_lambda_1d_value():
    """lambda at the sawtooth overlap alpha = 1/4."""
    assert lambda_1d(0.25) == pytest.approx(1.0 / settsech(0.5))
    assert lambda_1d(0.25) == pytest.approx(0.7593257, abs=1e-6)


def test_lambda_2d_values():
    lam, lamp = lambda_2d(0.25)
    assert lam == math.inf
    assert lamp == pytest.approx(1.0 / settsech(1.0 / 3.0), rel=1e-12)
    assert lamp == pytest.approx(0.567296, abs=1e-5)


def _settsech_reference(x: Decimal) -> Decimal:
    return ((1 + (1 - x * x).sqrt()) / x).ln()


def _relative_error(value: float, ref: Decimal) -> float:
    return float(abs(Decimal(value) - ref) / ref)


@pytest.mark.parametrize("alpha", [0.24999, 0.249999, -0.2499999999])
def test_lambda_2d_accurate_at_band_touching(alpha):
    """Against a 50-digit reference of settsech(2a / (1 -+ 2a)) at the float
    a = |alpha| taken exactly, 1/lambda_2d and 1/lambda'_2d are good to a
    few ulps as a -> 1/4, where settsech of the rounded ratio 2a/(1 - 2a)
    lost up to 4e-10."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = abs(Decimal(alpha))
        refs = (_settsech_reference(2 * a / (1 - 2 * a)),
                _settsech_reference(2 * a / (1 + 2 * a)))
        errors = [_relative_error(1.0 / lam, ref)
                  for lam, ref in zip(lambda_2d(alpha), refs)]
    assert max(errors) <= 3 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [0.4999999, 0.49999999999, -0.4999999])
def test_lambda_1d_and_xi_prefactor_accurate_near_half(alpha):
    """Against a 50-digit reference, settsech(2a), 1/lambda_1d and the
    prefactor xi_analytic_1d(alpha, 0) = 1/sqrt(1 - 4 alpha^2) are good to a
    few ulps as a = |alpha| -> 1/2, where forming 1 - x^2 and 1 - 4 alpha^2
    from rounded squares lost up to 4e-11."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = abs(Decimal(alpha))
        rate = _settsech_reference(2 * a)
        pref = 1 / (1 - 4 * a * a).sqrt()
        errors = [_relative_error(settsech(2.0 * abs(alpha)), rate),
                  _relative_error(1.0 / lambda_1d(alpha), rate),
                  _relative_error(xi_analytic_1d(alpha, 0), pref)]
    assert max(errors) <= 3 * np.finfo(float).eps


@pytest.mark.parametrize("alpha", [0.05, 0.15, -0.2])
def test_xi_2d_axis_matches_numeric(alpha):
    for d in range(0, 7):
        num = xi_numeric((alpha, alpha), (d, 0), n_k=512)
        ana = xi_2d_axis(alpha, d)
        assert ana == pytest.approx(num, rel=1e-8, abs=1e-14)


@pytest.mark.parametrize("alpha, d, rel", [(1e-8, 0, 1e-12), (1e-6, 0, 1e-12),
                                           (1e-4, 0, 1e-12), (1e-4, 1, 1e-11)])
def test_xi_2d_axis_accurate_at_small_alpha(alpha, d, rel):
    """Toward the cavity-QED end (xi -> Kronecker delta) the branch points
    t_i = exp(-1/lambda_i) carry no cancellation: the on-axis form meets
    the Brillouin-zone sum to round-off."""
    assert xi_2d_axis(alpha, d) == pytest.approx(
        xi_numeric((alpha, alpha), (d, 0), n_k=256), rel=rel, abs=0.0)


def test_xi_2d_default_grid_matches_axis_form():
    """The default n_k = 4096 grid agrees with the branch-cut form."""
    for d in (0, 3):
        assert xi_numeric((0.15, 0.15), (d, 0)) == pytest.approx(
            xi_2d_axis(0.15, d), rel=1e-9)


def _xi_2d_row_loop(alphas, dn, n_k):
    """The 2D Brillouin-zone sum one kx row at a time."""
    k = 2.0 * np.pi * np.arange(n_k) / n_k
    acc = 0.0
    for kx in k:
        f = 1.0 + 2.0 * alphas[0] * np.cos(kx) + 2.0 * alphas[1] * np.cos(k)
        acc += np.cos(kx * dn[0]) * np.sum(np.cos(k * dn[1]) / f)
    return acc / n_k ** 2


@pytest.mark.parametrize("n_k", [1, 64 * 7, 64 * 64])
@pytest.mark.parametrize("alphas,dn", [((0.15, 0.15), (3, 0)),
                                       ((0.2, -0.1), (2, 5)),
                                       ((-0.05, 0.22), (-4, 1))])
def test_xi_2d_blocks_match_row_loop(alphas, dn, n_k):
    """Each kx row's ky block, summed in closed form, gives the row-by-row
    sum on grids of 1, 448 and 4096 points."""
    assert xi_numeric(alphas, dn, n_k=n_k) == pytest.approx(
        _xi_2d_row_loop(alphas, dn, n_k), rel=1e-12, abs=1e-16)


@pytest.mark.parametrize("alphas,dn,n_k", [((0.25, 0.25), (1, 2), 63),
                                            ((0.0, 0.5 - 1e-13), (0, 1), 5),
                                            ((-0.25, 0.25), (0, 3), 63),
                                            ((0.3, 0.45), (1, 1), 3),
                                            ((-0.1, 0.45), (2, 4), 5)])
def test_xi_2d_odd_grid_rows_match_row_loop(alphas, dn, n_k):
    """Odd grids that miss the zeros of f leave rows A + B cos ky with
    A -> B (alpha = (1/4, 1/4); A - B = 2e-13 at alpha = (0, 1/2 - 1e-13),
    where 1 - e^{-m mu} needs expm1), A = B exactly (the removable limit
    mu -> 0, at kx = 0 for alpha = (-1/4, 1/4)) and A < B (z on the unit
    circle, the coarse grids); those rows sum exactly too."""
    assert xi_numeric(alphas, dn, n_k=n_k) == pytest.approx(
        _xi_2d_row_loop(alphas, dn, n_k), rel=1e-12)


@pytest.mark.parametrize("n_k", [1, 64 * 7, 64 * 64])
@pytest.mark.parametrize("alpha", [0.25, -0.25])
def test_xi_2d_singular_in_any_block(alpha, n_k):
    """f vanishes at k = (pi, pi) for alpha = 1/4 (a middle kx row, on even
    grids only) and at k = 0 for alpha = -1/4 (the first row, on every
    grid)."""
    if alpha > 0 and n_k % 2:
        assert math.isfinite(xi_numeric((alpha, alpha), (1, 0), n_k=n_k))
        return
    with pytest.raises(SingularF):
        xi_numeric((alpha, alpha), (1, 0), n_k=n_k)


def _xi_2d_longdouble(alphas, dn, n_k):
    """The direct n_k x n_k double sum in extended precision, and the
    first-order round-off bound of the same sum in double precision: the
    term cos(kx dx) cos(ky dy) / f carries a relative error of eps times
    g / f from f, with g = 1 + 2 |alpha_x cos kx| + 2 |alpha_y cos ky|, and an
    absolute error of eps |k d| from each cosine argument."""
    k = 2.0 * np.pi * np.arange(n_k, dtype=np.longdouble) / n_k
    kx, ky = k[:, None], k[None, :]
    ax, ay = (np.longdouble(a) for a in alphas)
    f = 1 + 2 * ax * np.cos(kx) + 2 * ay * np.cos(ky)
    val = np.sum(np.cos(kx * dn[0]) * np.cos(ky * dn[1]) / f) / n_k ** 2
    g = 1 + 2 * abs(ax * np.cos(kx)) + 2 * abs(ay * np.cos(ky))
    cond = np.sum((g / f + abs(kx * dn[0]) + abs(ky * dn[1])) / f) / n_k ** 2
    return float(val), float(16 * np.finfo(float).eps * cond)


@given(alphas=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
       zero_y=st.booleans(),
       n_k=st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 33)),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_xi_2d_matches_longdouble_double_sum(alphas, zero_y, n_k, data):
    """Over anisotropic and negative overlaps (alpha_y = 0 included), grids of
    1, 2, 3 and more points of either parity, and offsets of either sign up
    to twice the grid, the closed form meets the round-off bound of the
    direct double sum, or raises SingularF exactly where that sum's grid
    has f < 1e-14."""
    alphas = (alphas[0], 0.0 if zero_y else alphas[1])
    dn = data.draw(st.tuples(st.integers(-2 * n_k, 2 * n_k),
                             st.integers(-2 * n_k, 2 * n_k)))
    k = 2.0 * np.pi * np.arange(n_k) / n_k
    f = (1.0 + 2.0 * alphas[0] * np.cos(k))[:, None] + 2.0 * alphas[1] * np.cos(k)
    if np.min(f) < 1e-14:
        with pytest.raises(SingularF):
            xi_numeric(alphas, dn, n_k=n_k)
        return
    ref, tol = _xi_2d_longdouble(alphas, dn, n_k)
    assert abs(xi_numeric(alphas, dn, n_k=n_k) - ref) <= tol


def test_xi_2d_axis_deep_tail_stable():
    """The branch-cut quadrature keeps relative accuracy at large distance:
    successive ratios converge to the slow branch point."""
    a = 0.2
    lam, _lamp = lambda_2d(a)
    r30 = xi_2d_axis(a, 31) / xi_2d_axis(a, 30)
    assert r30 == pytest.approx(-math.exp(-1.0 / lam), rel=2e-2)


def _xi_2d_axis_reference(alpha, d, n=4096):
    """The branch-cut integral of xi_2d_axis on n midpoint nodes."""
    t1, t2 = (math.exp(-1.0 / lam) for lam in lambda_2d(alpha))
    theta = np.pi * (np.arange(n) + 0.5) / n
    t = 0.5 * (t1 + t2) + 0.5 * (t1 - t2) * np.cos(theta)
    integral = np.sum(t ** d / np.sqrt((1 / t1 - t) * (1 / t2 - t))) * np.pi / n
    return (-np.sign(alpha)) ** d * integral / (np.pi * abs(alpha))


@pytest.mark.parametrize("alpha", [0.01, -0.15, 0.2499])
def test_xi_2d_axis_quadrature_converged(alpha):
    """AXIS_QUADRATURE_NODES nodes agree with 4096 to 1e-13 relative, out to
    d = 120 (xi spans 240 decades there at alpha = 0.01)."""
    for d in range(121):
        assert xi_2d_axis(alpha, d) == pytest.approx(
            _xi_2d_axis_reference(alpha, d), rel=1e-13, abs=0.0)


def test_xi_2d_axis_rejects_touching():
    with pytest.raises(SingularF):
        xi_2d_axis(0.25, 3)
    with pytest.raises(ValueError):
        xi_2d_axis(0.0, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_xi_2d_axis_rejects_nonfinite_alpha(alpha):
    """A ValueError, as xi_numeric raises, not the numerical SingularF."""
    with pytest.raises(ValueError, match="must be finite"):
        xi_2d_axis(alpha, 3)


def _block_circulant_gather(K):
    """M[(n, s), (n', s')] = K[n - n'][s, s'] gathered through a cells x cells
    table of wrapped offsets."""
    shape, dim, Q = K.shape[:-2], K.ndim - 2, K.shape[-1]
    cells = np.indices(shape).reshape(dim, -1)
    diff = np.ravel_multi_index(tuple(cells[:, :, None] - cells[:, None, :]),
                                shape, mode="wrap")
    M = K.reshape(-1, Q, Q)[diff]                          # (n, n', s, s')
    return M.transpose(0, 2, 1, 3).reshape(M.shape[0] * Q, -1)


@pytest.mark.parametrize("Q", [1, 2, 3])
@pytest.mark.parametrize("shape", [(5,), (4, 6), (5, 3)])
def test_block_circulant_equals_gather(shape, Q):
    """The strided view is the offset-table gather bit for bit, in 1D and 2D
    (no builder has a gapped 2D flat band, so this is the 2D check)."""
    K = np.random.default_rng(Q).standard_normal(shape + (Q, Q))
    assert np.array_equal(flatband._block_circulant(K),
                          _block_circulant_gather(K))


@pytest.mark.parametrize("model", [build_sawtooth(12),
                                   build_stub(12, Delta=4.0),
                                   build_double_comb(12)],
                         ids=lambda m: m.name)
def test_projector_expansion_matches_eigenprojector(model):
    cls = cls_set(model)
    P = fb_projector(model, cls.omega_fb)
    P_cls = projector_cls_expansion(cls, model)
    assert np.max(np.abs(P.P - P_cls)) < 1e-10


def test_projector_expansion_rejects_touching():
    model = build_kagome1d(8)     # f(0) = 1 + 2/6*2... f(k)=1+2*(1/6)cos k fine
    # kagome f never vanishes (alpha=1/6), but the CLS basis is incomplete:
    # the expansion misses the two extended FB states, so it must differ
    cls = cls_set(model)
    P = fb_projector(model, cls.omega_fb)
    P_cls = projector_cls_expansion(cls, model)
    assert np.max(np.abs(P.P - P_cls)) > 1e-6


@pytest.mark.parametrize("cls,model", CLS_CASES, ids=CLS_IDS)
def test_cls_operators_match_dense_reference(cls, model):
    """The k-space projector, the FFT weights and the stencil-shift synthesis
    equal Phi Xi Phi^T, Xi Phi^T e_x0 and Phi w built densely."""
    Phi, Xi = _cls_matrix(model, cls), _xi_circulant(model, cls)
    P = projector_cls_expansion(cls, model)
    assert np.max(np.abs(P - Phi @ Xi @ Phi.T)) < 1e-12
    for x0 in range(model.n_sites):
        w = bs_cls_weights(cls, model, x0)
        assert np.max(np.abs(w - Xi @ Phi[x0])) < 1e-12
        rec = reconstruct_from_weights(cls, model, w)
        assert np.max(np.abs(rec - P[:, x0])) < 1e-12
    rng = np.random.default_rng(5)
    w = rng.standard_normal(model.n_cells) + 1j * rng.standard_normal(model.n_cells)
    for weights in (w.real, w):
        rec = reconstruct_from_weights(cls, model, weights)
        assert np.max(np.abs(rec - Phi @ weights)) < 1e-12


def test_cls_projector_is_a_projector_onto_the_cls_span():
    cls, model = _hand_2d_cls(), build_checkerboard(6, 5)
    P = projector_cls_expansion(cls, model)
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.trace(P) == pytest.approx(model.n_cells, abs=1e-10)
    phi = cls_vector(model, (4, 2), cls)
    assert np.max(np.abs(P @ phi - phi)) < 1e-12


def test_cls_expansion_singular_at_band_touching():
    """The checkerboard's f(k) vanishes at k = 0: the projector and the
    weights raise, while synthesis from weights needs no f."""
    model = build_checkerboard(6, 5)
    cls = cls_set(model)
    with pytest.raises(SingularF):
        projector_cls_expansion(cls, model)
    with pytest.raises(SingularF):
        bs_cls_weights(cls, model, 3)
    w = np.random.default_rng(2).standard_normal(model.n_cells)
    rec = reconstruct_from_weights(cls, model, w)
    assert np.max(np.abs(rec - _cls_matrix(model, cls) @ w)) < 1e-12


def test_bs_weights_reconstruct_projected_seed():
    model = build_sawtooth(12)
    cls = cls_set(model)
    P = fb_projector(model, cls.omega_fb)
    x0 = 7
    w = bs_cls_weights(cls, model, x0)
    rec = reconstruct_from_weights(cls, model, w)
    seed = np.zeros(model.n_sites)
    seed[x0] = 1.0
    assert np.max(np.abs(rec - P.P @ seed)) < 1e-10
