"""Band structures on a k-grid, and the width of a real-space flat-band cluster.

The Bloch blocks H(k) are diagonalized in one place, :func:`_bloch_eigh`,
for both :func:`band_structure` (energies) and ``greens.bloch_basis``
(energies and vectors): with real hoppings H(-k) = H(k)*, so only one k of
each {k, -k} pair is solved and its partner gets the same energies and the
conjugate vectors.  The solver is :func:`_jacobi_eigh`, cyclic Jacobi
rotations vectorized over a batch of k-points, so no per-block LAPACK call
is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from flatqed.lattice import LatticeModel, _bloch_blocks, _is_real


@dataclass(frozen=True)
class BandStructure:
    """Bloch bands on the commensurate k-grid.

    ``k_grid`` has shape (n_k, D); ``bands`` has shape (Q, n_k) with energies
    sorted ascending at every k.  Eigenvectors are not kept: the Bloch basis
    (``greens.bloch_basis``) takes them from the same solve.
    """

    k_grid: np.ndarray
    bands: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.bands.shape[0]


def default_k_grid(model: LatticeModel) -> np.ndarray:
    """The k-grid commensurate with the finite lattice: k_d = 2 pi m_d / N_d.

    On this grid the multiset of Bloch eigenvalues equals the real-space
    spectrum (exact arithmetic), for every builder.
    """
    k = np.empty(model.shape + (model.dim,))
    for d, n in enumerate(model.shape):
        k[..., d] = (2.0 * np.pi * np.arange(n) / n).reshape(
            (-1,) + (1,) * (model.dim - 1 - d))
    return k.reshape(-1, model.dim)


_JACOBI_SWEEPS = 40   # cyclic sweeps before a batch counts as not converging
_BLOCH_CHUNK = 2048   # k-points per Jacobi batch


def _jacobi_eigh(H: np.ndarray, vectors: bool = False
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (and, with ``vectors``, eigenvectors) of a batch of
    Hermitian Q x Q blocks H of shape (n, Q, Q), by cyclic Jacobi rotations
    vectorized over the batch (Demmel & Veselic, SIAM J. Matrix Anal. Appl.
    13, 1204 (1992)).

    Returns w of shape (Q, n), ascending down each column, and V of shape
    (Q, Q, n), or ``None`` without ``vectors``, with H_k V_k = V_k diag(w_k).
    Only the diagonal and the upper triangle of H are read, each entry as
    one contiguous (n,) array.  Rotation (p, q), with b = h_pq = |b| u,
    takes t = sgn(zeta)/(|zeta| + sqrt(1 + zeta^2)) for
    zeta = (h_qq - h_pp)/(2|b|), evaluated as
    2|b| sgn(zeta)/(|h_qq - h_pp| + hypot(h_qq - h_pp, 2|b|)) so that
    nothing is squared, and c = 1/sqrt(1 + t^2), s = t c.  It sets
    h_pp -= t|b|, h_qq += t|b| and h_pq = 0, and maps every other row r to

        h_rp <- c h_rp - s conj(u) h_rq,    h_rq <- s u h_rp + c h_rq,

    and the columns of V alike.  A pair is skipped when every block has
    |h_pq| <= eps max|H_k|, and a sweep that skips every pair ends the
    iteration; for Q = 2 the one rotation is the closed form.  A block with
    a non-finite entry, or a batch still rotating after ``_JACOBI_SWEEPS``
    sweeps, raises ``np.linalg.LinAlgError``, as ``eigh`` does."""
    n, Q = H.shape[0], H.shape[-1]
    d = H.diagonal(axis1=1, axis2=2).real.T.copy()
    pairs = [(p, q) for p in range(Q) for q in range(p + 1, Q)]
    h = {(p, q): H[:, p, q].copy() for p, q in pairs}
    scale = np.max(np.abs(d), axis=0)
    for b in h.values():
        np.maximum(scale, np.abs(b), out=scale)
    if not np.isfinite(scale).all():
        raise np.linalg.LinAlgError("non-finite entry in a Hermitian block")
    tol = np.finfo(float).eps * scale
    tiny = np.finfo(float).tiny
    V = None
    if vectors:
        V = np.zeros((Q, Q, n), dtype=complex)
        V[range(Q), range(Q)] = 1.0
    for _sweep in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q in pairs:
            b = h[p, q]
            abs_b = np.abs(b)
            if not (abs_b > tol).any():
                continue
            rotated = True
            delta = d[q] - d[p]
            # 0 only for a block with b = 0 and h_pp = h_qq, whose t is 0
            den = np.maximum(np.abs(delta) + np.hypot(delta, 2.0 * abs_b),
                             tiny)
            t_per_b = np.copysign(2.0, delta) / den
            t = t_per_b * abs_b
            shift = t * abs_b
            d[p] -= shift
            d[q] += shift
            if Q > 2 or vectors:
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_u = (c * t_per_b) * b
                s_uc = s_u.conj()
                c = c.astype(complex)
                for r in range(Q):
                    if r < p:
                        x, y = h[r, p], h[r, q]
                        h[r, p], h[r, q] = c * x - s_uc * y, s_u * x + c * y
                    elif p < r < q:     # h_pr = conj(h_rp) is stored
                        x, y = h[p, r], h[r, q]
                        h[p, r] = c * x - s_u * y.conj()
                        h[r, q] = s_u * x.conj() + c * y
                    elif r > q:         # h_pr and h_qr are stored
                        x, y = h[p, r], h[q, r]
                        h[p, r], h[q, r] = c * x - s_u * y, s_uc * x + c * y
                if vectors:
                    x, y = V[:, p], V[:, q]
                    V[:, p], V[:, q] = c * x - s_uc * y, s_u * x + c * y
            b[:] = 0.0
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError(
            f"Jacobi rotations did not converge in {_JACOBI_SWEEPS} sweeps")
    # odd-even transposition sort of each column, vectors alongside
    for rnd in range(Q):
        for i in range(rnd % 2, Q - 1, 2):
            swap = d[i] > d[i + 1]
            if swap.any():
                d[i], d[i + 1] = (np.minimum(d[i], d[i + 1]),
                                  np.maximum(d[i], d[i + 1]))
                if vectors:
                    x, y = V[:, i], V[:, i + 1]
                    V[:, i], V[:, i + 1] = (np.where(swap, y, x),
                                            np.where(swap, x, y))
    return d, V


def _pair_representatives(shape: tuple[int, ...], offset: int = 0
                          ) -> list[tuple[int, int]]:
    """Flat [start, stop) ranges, in C order over ``shape``, of the grid
    points that represent their {k, -k} pair: the lower flat index of each
    pair, -k having cell index -m_d mod N_d on every axis.

    Along the first axis, planes 1 .. ceil(N/2) - 1 represent planes
    N - 1 .. floor(N/2) + 1; plane 0, and plane N/2 for even N, are their
    own partners and split the same way along the remaining axes."""
    if not shape:
        return [(offset, offset + 1)]
    n, plane = shape[0], math.prod(shape[1:])
    ranges = _pair_representatives(shape[1:], offset)
    ranges.append((offset + plane, offset + (n + 1) // 2 * plane))
    if n % 2 == 0:
        ranges += _pair_representatives(shape[1:], offset + n // 2 * plane)
    merged = []
    for a, b in ranges:
        if merged and merged[-1][1] == a:
            a = merged.pop()[0]
        if b > a:
            merged.append((a, b))
    return merged


def _copy_to_partners(W: np.ndarray, axis: int, conj: bool = False) -> None:
    """Fill in place every grid point of W (grid axes ``axis`` onward) that
    does not represent its {k, -k} pair with its partner's values (complex
    conjugated with ``conj``), the layout of :func:`_pair_representatives`."""
    if axis == W.ndim:
        return
    n = W.shape[axis]
    lead = (slice(None),) * axis
    # planes n//2 + 1 .. n - 1 read planes n - n//2 - 1 .. 1, and within a
    # plane the cell -m mod N of every other axis
    mirror = W[lead + (slice(n - n // 2 - 1, 0, -1),)]
    for ax in range(axis + 1, W.ndim):
        mirror = np.roll(np.flip(mirror, ax), 1, ax)
    W[lead + (slice(n // 2 + 1, None),)] = mirror.conj() if conj else mirror
    _copy_to_partners(W[lead + (0,)], axis, conj)
    if n % 2 == 0:
        _copy_to_partners(W[lead + (n // 2,)], axis, conj)


def _roots_of_unity(n: int) -> np.ndarray:
    """exp(-i k_j) at the points k_j = 2 pi j / n of ``default_k_grid``,
    exactly 1, -i, -1 and i at the quarter turns j = 0, n/4, n/2 and 3n/4
    (where these are integers); exp(-i pi) alone would be -1 - 1.2e-16i."""
    j = np.arange(n)
    roots = np.exp(-1j * (2.0 * np.pi * j / n))
    quarter = 4 * j % n == 0
    roots[quarter] = np.array([1, -1j, -1, 1j])[4 * j[quarter] // n]
    return roots


def _bloch_eigh(model: LatticeModel, vectors: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(k_grid, w, u) on ``default_k_grid`` from :func:`_jacobi_eigh` of the
    Bloch blocks at one k of each {k, -k} pair: w of shape (Q, n_k),
    ascending down each column, and with ``vectors`` u of shape
    (n_k, Q, Q), H(k_i) u[i] = u[i] diag(w[:, i]).

    With real hoppings H(-k) = H(k)* (time reversal), so the partner of k
    gets E_m(-k) = E_m(k) and u(-k) = u(k)*, both copied exactly; the
    representative of a pair is its lower grid index
    (:func:`_pair_representatives`).  A model with a complex hopping has no
    such symmetry, and every k is diagonalized.  The blocks are solved
    ``_BLOCH_CHUNK`` k-points at a time, so every temporary stays small and
    is reused.

    Each phase exp(-i k_d o) is read from a table of the N_d-th roots of
    unity (:func:`_roots_of_unity`) at the grid index (m_d |o|) mod N_d,
    conjugated for o < 0, so a self-partner k (every component 0 or pi)
    gets phases of exactly +-1 and, with real hoppings, an exactly real
    block and real vectors."""
    k_grid = default_k_grid(model)
    n_k, Q = len(k_grid), model.Q
    real = _is_real(model)
    roots = [_roots_of_unity(n) for n in model.shape]
    w = np.empty((Q, n_k))
    V = np.empty((Q, Q, n_k), dtype=complex) if vectors else None
    for a, b in _pair_representatives(model.shape) if real else [(0, n_k)]:
        for start in range(a, b, _BLOCH_CHUNK):
            part = slice(start, min(start + _BLOCH_CHUNK, b))
            m = np.unravel_index(np.arange(part.start, part.stop), model.shape)

            def phase(d: int, o: int) -> np.ndarray:
                p = roots[d][m[d] * abs(o) % model.shape[d]]
                return p if o > 0 else p.conj()

            H = _bloch_blocks(model, phase, part.stop - part.start)
            w[:, part], V_part = _jacobi_eigh(np.moveaxis(H, 2, 0), vectors)
            if vectors:
                V[..., part] = V_part
    if real:
        _copy_to_partners(w.reshape((Q,) + model.shape), 1)
        if vectors:
            _copy_to_partners(V.reshape((Q, Q) + model.shape), 2, conj=True)
    if not vectors:
        return k_grid, w, None
    return k_grid, w, np.ascontiguousarray(V.transpose(2, 0, 1))


def band_structure(model: LatticeModel) -> BandStructure:
    """Bloch eigenvalues on ``default_k_grid``, eigenvalues only, from the
    Jacobi solve of one k of each {k, -k} pair (:func:`_bloch_eigh`, which
    ``greens.bloch_basis`` shares, so the two agree bit for bit)."""
    k_grid, bands, _ = _bloch_eigh(model)
    return BandStructure(k_grid=k_grid, bands=bands)


def flat_band_width_real_space(eigenvalues: np.ndarray, n_cells: int,
                               center: float = 0.0) -> float:
    """Width of the n_cells real-space eigenvalues nearest ``center``.

    Useful for disordered lattices where the Bloch picture is unavailable:
    returns max - min of the would-be flat-band cluster."""
    order = np.argsort(np.abs(eigenvalues - center))
    cluster = np.sort(eigenvalues[order[:n_cells]])
    return float(cluster[-1] - cluster[0])
