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
is :func:`_block_eigh`: the closed form for Q = 2, vectorized over a batch
of k-points, and ``eigh`` for any other Q.
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


_BLOCH_CHUNK = 2048   # k-points per batch of blocks


def _block_eigh(H: np.ndarray, vectors: bool = False
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues (and, with ``vectors``, eigenvectors) of a batch of
    Hermitian Q x Q blocks H of shape (n, Q, Q).

    Returns w of shape (Q, n), ascending down each column, and V of shape
    (Q, Q, n), or ``None`` without ``vectors``, with H_k V_k = V_k diag(w_k).
    Q = 2 is one Jacobi rotation in closed form,
    reading h_00, h_11 and b = h_01 = |b| u as contiguous (n,) arrays: with
    delta = h_11 - h_00, t = 2|b| sgn(delta)/(|delta| + hypot(delta, 2|b|))
    (nothing is squared) and c = 1/sqrt(1 + t^2), s = t c, the eigenpairs
    are h_00 - t|b| with (c, -s conj(u)) and h_11 + t|b| with (s u, c), put
    in ascending order by one compare-and-swap.  Other Q take ``eigh``, which
    also computes the vectors when only energies are asked for, so that w
    does not depend on ``vectors`` (``eigvalsh`` rounds differently).  A
    block with a non-finite entry raises ``np.linalg.LinAlgError``, as
    ``eigh`` does, before any arithmetic on it."""
    Q = H.shape[-1]
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("non-finite entry in a Hermitian block")
    if Q != 2:
        w, V = np.linalg.eigh(H)
        return w.T, V.transpose(1, 2, 0) if vectors else None
    b = H[:, 0, 1]
    abs_b = np.abs(b)
    delta = H[:, 1, 1].real - H[:, 0, 0].real
    # 0 only for a block with b = 0 and h_00 = h_11, whose t is 0
    den = np.maximum(np.abs(delta) + np.hypot(delta, 2.0 * abs_b),
                     np.finfo(float).tiny)
    t_per_b = np.copysign(2.0, delta) / den
    t = t_per_b * abs_b
    lo, hi = H[:, 0, 0].real - t * abs_b, H[:, 1, 1].real + t * abs_b
    w = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)])
    if not vectors:
        return w, None
    c = 1.0 / np.sqrt(1.0 + t * t)
    s_u = (c * t_per_b) * b
    x, y = np.stack([c, -s_u.conj()]), np.stack([s_u, c])
    swap = lo > hi
    return w, np.stack([np.where(swap, y, x), np.where(swap, x, y)], axis=1)


def _bloch_eigh(model: LatticeModel, vectors: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(k_grid, w, u) on ``default_k_grid`` from :func:`_block_eigh` of the
    Bloch blocks at one k of each {k, -k} pair: w of shape (Q, n_k),
    ascending down each column, and with ``vectors`` u of shape
    (n_k, Q, Q), H(k_i) u[i] = u[i] diag(w[:, i]).

    The partner -k of grid point m is the cell -m mod N on every axis, so
    one mirror of the grid axes, ``np.roll(np.flip(a), 1)``, maps every
    point to its partner.  With real hoppings H(-k) = H(k)* (time
    reversal): the lower flat index of each pair is solved, in contiguous
    runs of at most ``_BLOCH_CHUNK`` k-points so that the solver's
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
            w_flat[:, part], V_part = _block_eigh(np.moveaxis(H, 2, 0),
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
    solve of one k of each {k, -k} pair (:func:`_bloch_eigh`, which
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
