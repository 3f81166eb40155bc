"""Band structures on a k-grid, and the width of a real-space flat-band cluster.

The Bloch blocks H(k) are diagonalized in one place, :func:`_bloch_eigh`,
for both :func:`band_structure` (energies) and ``greens.bloch_basis``
(energies and vectors), on ``default_k_grid``, whose quarter turns are the
exact float multiples of pi/2.  Its phases are those of
``lattice.bloch_hamiltonian``, tabulated per axis and read at the grid
index, so each solved block is ``bloch_hamiltonian`` at that k bit for bit.
With real hoppings H(-k) = H(k)*: one mirror of the grid axes, cell m to
cell -m mod N, picks the lower index of each {k, -k} pair to solve and
gives its partner the same energies and the conjugate vectors.  The solver
is :func:`_jacobi_eigh`, cyclic Jacobi rotations vectorized over a batch of
k-points, so no per-block LAPACK call is made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from flatqed.lattice import LatticeModel, _bloch_blocks, _is_real, _unit_phases


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
    """The k-grid commensurate with the finite lattice, k_d = 2 pi m_d / N_d
    in C order over the cells, with the quarter turns m_d = 0, N_d/4, N_d/2
    and 3 N_d/4 (where integers) set to the exact float multiples of pi/2:
    2 pi (N/2) / N alone is not the float pi for N = 22, 26, 30, ...

    On this grid the multiset of Bloch eigenvalues equals the real-space
    spectrum (exact arithmetic), for every builder, and ``bloch_hamiltonian``
    takes exact phases at a self-partner k (every component 0 or pi).
    """
    k = np.empty(model.shape + (model.dim,))
    for d, n in enumerate(model.shape):
        j = np.arange(n)
        k_d = 2.0 * np.pi * j / n
        quarter = 4 * j % n == 0
        k_d[quarter] = 4 * j[quarter] // n * (np.pi / 2)
        k[..., d] = k_d.reshape((-1,) + (1,) * (model.dim - 1 - d))
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


def _bloch_eigh(model: LatticeModel, vectors: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(k_grid, w, u) on ``default_k_grid`` from :func:`_jacobi_eigh` of the
    Bloch blocks at one k of each {k, -k} pair: w of shape (Q, n_k),
    ascending down each column, and with ``vectors`` u of shape
    (n_k, Q, Q), H(k_i) u[i] = u[i] diag(w[:, i]).

    The partner -k of grid point m is the cell -m mod N on every axis, so
    one mirror of the grid axes, ``np.roll(np.flip(a), 1)``, maps every
    point to its partner.  With real hoppings H(-k) = H(k)* (time
    reversal): the lower flat index of each pair is solved, in contiguous
    runs of at most ``_BLOCH_CHUNK`` k-points so that the Jacobi
    temporaries stay small, and the mirror copies E_m(-k) = E_m(k) and
    u(-k) = u(k)* to the rest exactly, in one masked copy.  A model with a
    complex hopping has no such symmetry, and every k is solved.

    Each phase exp(-i k_d o) is ``lattice._unit_phases(o k_d)`` over the
    N_d values of axis d, read at the grid index: the phase
    ``bloch_hamiltonian`` takes, so the solved blocks equal
    ``bloch_hamiltonian(model, k_grid)`` bit for bit, and at a self-partner
    k (every component 0 or pi) they are as real as the hoppings."""
    k_grid = default_k_grid(model)
    n_k, Q, shape = len(k_grid), model.Q, model.shape
    axes = tuple(range(-model.dim, 0))

    def mirror(a: np.ndarray) -> np.ndarray:
        return np.roll(np.flip(a, axes), 1, axes)

    solved = np.ones(shape, dtype=bool)
    if _is_real(model):
        # flat index m <= that of -m mod N: lexicographic, last axis first
        for d in reversed(range(model.dim)):
            j = np.arange(shape[d])
            lower, self_partner = j < -j % shape[d], j == -j % shape[d]
            tail = (-1,) + (1,) * (model.dim - 1 - d)
            solved = lower.reshape(tail) | (self_partner.reshape(tail)
                                            & solved)
    # k_d along axis d: the grid with every other cell index 0
    k_axes = [k_grid.reshape(shape + (model.dim,))[
        (0,) * d + (slice(None),) + (0,) * (model.dim - 1 - d) + (d,)]
        for d in range(model.dim)]
    table = functools.cache(lambda d, o: _unit_phases(o * k_axes[d]))
    w = np.empty((Q,) + shape)
    V = np.empty((Q, Q) + shape, dtype=complex) if vectors else None
    w_flat = w.reshape(Q, n_k)
    V_flat = V.reshape(Q, Q, n_k) if vectors else None
    edges = np.flatnonzero(np.diff(solved.reshape(-1), prepend=False,
                                   append=False))
    for a, b in edges.reshape(-1, 2):
        for start in range(a, b, _BLOCH_CHUNK):
            part = slice(start, min(start + _BLOCH_CHUNK, b))
            m = np.unravel_index(np.arange(part.start, part.stop), shape)
            H = _bloch_blocks(model, lambda d, o: table(d, o)[m[d]],
                              part.stop - part.start)
            w_flat[:, part], V_part = _jacobi_eigh(np.moveaxis(H, 2, 0),
                                                   vectors)
            if vectors:
                V_flat[..., part] = V_part
    if not solved.all():
        np.copyto(w, mirror(w), where=~solved)
        if vectors:
            V_mirror = mirror(V)
            np.copyto(V, np.conj(V_mirror, out=V_mirror), where=~solved)
    if not vectors:
        return k_grid, w_flat, None
    return k_grid, w_flat, np.ascontiguousarray(V_flat.transpose(2, 0, 1))


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
