"""CLS algebra: the builders' CLS stencils (:class:`ClsSet`, defined in
``lattice``) and their overlaps, f(k), the weight function xi, and the
settsech localization laws in 1D and 2D.

The weight function is the inverse of the CLS Gram matrix,

    xi_{nn'} = (1/N) sum_k e^{i k . (r_n - r_{n'})} / f(k),
    f(k)     = 1 + 2 sum_d alpha_d cos k_d,

where alpha_d is the nearest-neighbour CLS overlap along direction d.  In 1D
xi has the closed form of a single signed exponential; on a 2D coordinate
axis it is governed by two branch-point singularities whose locations set the
two localization lengths returned by :func:`lambda_2d`.

On a finite lattice f(k) = |phi(k)|^2, where phi(k), the Fourier symbol of
the stencil, is the FFT of the CLS placed at cell 0 by
:func:`reconstruct_from_weights`, the one placement of a stencil over a field
of cell weights.  The CLS expansions are evaluated in that Bloch form on
the commensurate k-grid, without sites x cells or cells x cells matrices;
the projector is one strided copy of its kernel.  Both 2D xi forms are
O(n_k) sums: residues per kx row, midpoint nodes on the branch cut.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from flatqed.errors import SingularF, UnsupportedLattice
from flatqed.lattice import ClsSet, LatticeModel


def cls_set(model: LatticeModel) -> ClsSet:
    """The CLS stencil a flat-band builder attached to ``model`` (a
    disordered copy keeps the clean stencil)."""
    if model.cls is None:
        raise UnsupportedLattice(f"no CLS set for lattice {model.name!r}")
    return model.cls


def _alphas(alpha) -> tuple[float, ...]:
    """One finite CLS overlap per dimension from a scalar (1D) or a
    sequence."""
    alphas = tuple(float(a) for a in np.atleast_1d(alpha))
    if not all(map(math.isfinite, alphas)):
        raise ValueError("CLS overlaps must be finite")
    return alphas


def _offsets(delta_n) -> np.ndarray:
    """Lattice offsets as an integer array of the input's shape; integral
    floats are accepted, anything else is a ``ValueError``."""
    dn = np.asarray(delta_n)
    if dn.dtype.kind not in "biu" and not (
            dn.dtype.kind == "f" and np.isfinite(dn).all()
            and (dn == np.round(dn)).all()):
        raise ValueError(f"lattice offsets must be integers, got {delta_n!r}")
    return dn.astype(int)


AXIS_QUADRATURE_NODES = 256  # midpoint (Gauss-Chebyshev) nodes on the 2D branch cut


def xi_numeric(alpha, delta_n, n_k: int = 4096) -> float:
    """Discrete Brillouin-zone sum (1/N) sum_k e^{i k . dn} / f(k).

    1D is the direct sum, the independent check of :func:`xi_analytic_1d`.
    2D costs O(n_k): the ky sum of the row A + B cos ky (A = 1 + 2 alpha_x
    cos kx, B = 2 alpha_y) is, by residues with aliasing, (z^d + z^{n_k-d}) /
    ((1 - z^{n_k}) r), r = sqrt(A^2 - B^2), z = -B/(A + r), d = |dy| mod n_k,
    taken via |z| = e^{-mu} and expm1 so that rows with A -> |B| stay accurate.

    Raises :class:`SingularF` if f < 1e-14 anywhere on the grid, and
    ``ValueError`` for more than two overlaps, a non-integral offset, or an
    ``n_k`` that is not an integer >= 1 (a bool is not)."""
    if (isinstance(n_k, bool) or not isinstance(n_k, (int, np.integer))
            or n_k < 1):
        raise ValueError(f"n_k must be >= 1 and an integer, got {n_k!r}")
    alphas = _alphas(alpha)
    if not 1 <= len(alphas) <= 2:
        raise ValueError("xi_numeric takes one or two CLS overlaps")
    dn = np.atleast_1d(_offsets(delta_n))
    if dn.shape != (len(alphas),):
        raise ValueError("offset dimension mismatch with alphas")
    k = 2.0 * np.pi * np.arange(n_k) / n_k
    cx = 1.0 + 2.0 * alphas[0] * np.cos(k)
    b = 2.0 * alphas[1] if len(alphas) > 1 else 0.0
    if np.min(cx) + np.min(b * np.cos(k)) < 1e-14:   # f is separable
        raise SingularF("f(k) is not positive on the grid")
    if len(alphas) == 1:
        return float(np.mean(np.cos(k * dn[0]) / cx))
    t = cx - abs(b)                              # A - |B|, exact where it cancels
    r = np.sqrt(t * (t + 2.0 * abs(b)) + 0j)
    sign = -1 if b > 0 else 1                    # z = sign e^{-mu}
    zn = sign ** n_k
    d = min(dn[1] % n_k, -dn[1] % n_k)           # the row sum is even in d
    with np.errstate(all="ignore"):      # B -> 0: x -> inf, capped; A = B: 0/0
        mu = (np.log1p(np.nan_to_num((np.maximum(t, 0.0) + r.real) / abs(b)))
              + 1j * np.arctan2(r.imag, cx))
        rows = (sign ** d * np.exp(-d * mu)
                * (1 + zn + zn * np.expm1(-(n_k - 2 * d) * mu))
                / ((1 - zn - zn * np.expm1(-n_k * mu)) * r))
        rows[t == 0] = sign ** d * (n_k - 2 * d) / (2.0 * b)   # mu -> 0
    phase = np.cos(2.0 * np.pi * (np.arange(n_k) * (dn[0] % n_k) % n_k) / n_k)
    return float(phase @ rows.real) / n_k


def settsech(x: float) -> float:
    """Inverse hyperbolic secant: settsech(x) = ln((1 + sqrt(1 - x^2)) / x),
    evaluated as log1p((1 - x + sqrt((1 - x)(1 + x))) / x): 1 - x is exact
    near x = 1, where 1 - x^2 from the rounded x^2 is not."""
    if not 0.0 < x <= 1.0:
        raise ValueError("settsech defined for 0 < x <= 1")
    return math.log1p((1.0 - x + math.sqrt((1.0 - x) * (1.0 + x))) / x)


def lambda_1d(alpha: float) -> float:
    """1D localization length of xi: 1 / settsech(2 |alpha|), |alpha| < 1/2."""
    a = abs(alpha)
    if not 0.0 < a < 0.5:
        raise ValueError("lambda_1d requires 0 < |alpha| < 1/2")
    return 1.0 / settsech(2.0 * a)


def lambda_2d(alpha: float) -> tuple[float, float]:
    """The two 2D axis localization lengths (isotropic overlap alpha), with
    a = |alpha|:

        1/lambda_2d  = settsech(2a / (1 - 2a)),
        1/lambda'_2d = settsech(2a / (1 + 2a)).

    lambda_2d diverges as a -> 1/4 while lambda'_2d stays finite.  The first
    is evaluated as 1/lambda_2d = log1p(s (1 + s) / (2a)) with
    s = sqrt(1 - 4a), where 1 - 4a is exact, so it keeps its accuracy up to
    a = 1/4, where lambda_2d = inf."""
    a = abs(alpha)
    if not 0.0 < a <= 0.25:
        raise ValueError("lambda_2d requires 0 < |alpha| <= 1/4")
    s = math.sqrt(1.0 - 4.0 * a)
    lam1 = (math.inf if s == 0.0
            else 1.0 / math.log1p(s * (1.0 + s) / (2.0 * a)))
    lam2 = 1.0 / settsech(2.0 * a / (1.0 + 2.0 * a))
    return lam1, lam2


def xi_analytic_1d(alpha: float, delta_n: int) -> float:
    """Closed form of the 1D weight function:

        xi(dn) = (-sgn alpha)^{|dn|} / sqrt(1 - 4 alpha^2) * exp(-|dn| / lambda_1d)

    with 1 - 4 alpha^2 taken as (1 - 2 alpha)(1 + 2 alpha), whose small
    factor is exact near |alpha| = 1/2.
    """
    a = float(alpha)
    if not abs(a) < 0.5:
        raise ValueError("xi_analytic_1d requires |alpha| < 1/2")
    d = abs(int(_offsets(delta_n)))
    if a == 0.0:
        return 1.0 if d == 0 else 0.0
    pref = 1.0 / math.sqrt((1.0 - 2.0 * a) * (1.0 + 2.0 * a))
    sign = (-1.0 if a > 0 else 1.0) ** d
    return sign * pref * math.exp(-d / lambda_1d(a))


def xi_2d_axis(alpha: float, d: int) -> float:
    """Exact on-axis 2D weight function xi(d, 0) for isotropic |alpha| < 1/4.

    Evaluated from the branch-cut representation

        xi(d) = (-sgn a)^d / (pi a) * Int_{t2}^{t1} t^d dt /
                sqrt((t1 - t)(t - t2)(1/t1 - t)(1/t2 - t)),   a = |alpha|,

    which is positive and non-oscillatory, so the relative accuracy is
    preserved even deep in the exponential tail.  The branch points are
    t_i = exp(-1/lambda_i) from :func:`lambda_2d`, so |xi(d+1)/xi(d)| -> t1.
    With t = mid + half cos(theta) the integrand is analytic in cos(theta), so
    the midpoint rule in theta converges exponentially: one O(n) sum per call."""
    a, = _alphas(alpha)
    if a == 0.0:
        raise ValueError("alpha = 0: xi is a Kronecker delta; no 2D law")
    if not abs(a) < 0.25:
        raise SingularF("|alpha| >= 1/4: f(k) vanishes in the Brillouin zone")
    d = abs(int(_offsets(d)))
    t1, t2 = (math.exp(-1.0 / lam) for lam in lambda_2d(a))   # 0 < t2 < t1 < 1
    n = AXIS_QUADRATURE_NODES
    theta = np.pi * (np.arange(n) + 0.5) / n
    t = 0.5 * (t1 + t2) + 0.5 * (t1 - t2) * np.cos(theta)
    outer = np.sqrt((1.0 / t1 - t) * (1.0 / t2 - t))
    val = float(np.sum(t ** d / outer)) / (n * abs(a))
    return (-1.0 if a > 0 else 1.0) ** d * val


# ---------------------------------------------------------------------------
# CLS expansion of the FB projector and of bound states
# ---------------------------------------------------------------------------

def _cls_symbol(cls: ClsSet, model: LatticeModel) -> tuple[np.ndarray, np.ndarray]:
    """The stencil's Fourier symbol phi(k)[s] = sum_{(s,o,c)} c e^{-ik.o}
    (the FFT of the CLS placed at cell 0) and the CLS Gram symbol
    f(k) = |phi(k)|^2 on the commensurate k-grid, shaped (cells..., Q) and
    (cells...) like ``greens.bloch_basis`` arrays."""
    phi0 = reconstruct_from_weights(cls, model, np.eye(1, model.n_cells))
    phi = np.fft.fftn(phi0.reshape(model.shape + (model.Q,)),
                      axes=tuple(range(model.dim)))
    f = np.sum(np.abs(phi) ** 2, axis=-1)
    if np.min(f) < 1e-14:
        raise SingularF("f(k) vanishes on the lattice k-grid "
                        "(incomplete CLS basis; band touching)")
    return phi, f


def projector_cls_expansion(cls: ClsSet, model: LatticeModel) -> np.ndarray:
    """Assemble P_FB = sum_{nn'} xi_{nn'} |phi_{n'}><phi_n| from stencils and
    the finite-N weight function.  Equals the eigenvector-based projector for
    isolated flat bands with a complete CLS basis.

    In Bloch form P(k) = phi(k) phi(k)^H / f(k); its inverse FFT is the
    block-circulant kernel P[(n, s), (n', s')] = K(n - n')[s, s']."""
    phi, f = _cls_symbol(cls, model)
    Pk = phi[..., :, None] * phi[..., None, :].conj() / f[..., None, None]
    return _block_circulant(np.fft.ifftn(Pk, axes=tuple(range(model.dim))).real)


def _block_circulant(K: np.ndarray) -> np.ndarray:
    """M[(n, s), (n', s')] = K[n - n' mod cells][s, s'] for K shaped (cells...,
    Q, Q): with e[j] = K[N - 1 - j mod N], j < 2N - 1, per cell axis, row block
    n is e's window at N - 1 - n, so M is one copy of a strided view."""
    shape, dim = K.shape[:-2], K.ndim - 2
    e = K[np.ix_(*[(n - 1 - np.arange(2 * n - 1)) % n for n in shape])]
    view = sliding_window_view(e, shape, axis=tuple(range(dim)))
    view = view[(slice(None, None, -1),) * dim]       # (n..., s, s', n'...)
    view = view.transpose(*range(dim), dim, *range(dim + 2, 2 * dim + 2), dim + 1)
    return view.reshape(K.shape[-1] * math.prod(shape), -1)


def bs_cls_weights(cls: ClsSet, model: LatticeModel, x0: int) -> np.ndarray:
    """CLS weights of the flat-band part of a bound state seeded at site x0:

        w_n = sum_{n'} xi_{nn'} phi_{n'}(x0),

    so that sum_n w_n phi_n(x) = <x| P_FB |x0>.  With x0 in cell m0 on
    sublattice s0, w is the inverse FFT of conj(phi(k)[s0]) / f(k) shifted
    to m0."""
    phi, f = _cls_symbol(cls, model)
    cell, s0 = divmod(x0, model.Q)
    m0 = np.unravel_index(cell, model.shape)
    w = np.fft.ifftn(phi[..., s0].conj() / f).real
    return np.roll(w, m0, axis=tuple(range(model.dim))).reshape(-1)


def reconstruct_from_weights(cls: ClsSet, model: LatticeModel,
                             w: np.ndarray) -> np.ndarray:
    """Site-space vector sum_n w_n |phi_n>, as one shifted copy of the
    weights per stencil entry (a stencil sublattice outside the model raises
    :class:`ConfigError`)."""
    w = np.asarray(w).reshape(model.shape)
    axes = tuple(range(model.dim))
    x = np.zeros(model.shape + (model.Q,), dtype=np.result_type(w, float))
    for sub, off, coeff in cls.stencil:
        x[..., model.sublattice_id(sub)] += coeff * np.roll(w, off, axis=axes)
    return x.reshape(-1)
