"""Band structures on a k-grid, and the width of a real-space flat-band cluster."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flatqed.lattice import LatticeModel, _is_real, bloch_hamiltonian


@dataclass(frozen=True)
class BandStructure:
    """Bloch bands on the commensurate k-grid.

    ``k_grid`` has shape (n_k, D); ``bands`` has shape (Q, n_k) with energies
    sorted ascending at every k.  Eigenvectors are not kept: the Bloch basis
    (``greens.bloch_basis``) computes its own.
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
    axes = [2.0 * np.pi * np.arange(n) / n for n in model.shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def band_structure(model: LatticeModel) -> BandStructure:
    """Bloch eigenvalues on ``default_k_grid`` from one batched ``eigvalsh``.

    With real hoppings H(-k) = H(k)*, so E_m(-k) = E_m(k) (time reversal):
    the grid is closed under k -> -k (cell index m_d -> -m_d mod N_d), and
    only one k of each {k, -k} pair is diagonalized, its bands copied to the
    partner.  A model with a complex hopping has no such symmetry, and every
    k is diagonalized.
    """
    k_grid = default_k_grid(model)
    n_k = len(k_grid)
    if _is_real(model):
        m = np.indices(model.shape).reshape(model.dim, -1)
        partner = np.ravel_multi_index(tuple(-m), model.shape, mode="wrap")
    else:
        partner = np.arange(n_k)
    rep = np.flatnonzero(np.arange(n_k) <= partner)
    w = np.linalg.eigvalsh(bloch_hamiltonian(model, k_grid[rep])).T
    bands = np.empty((model.Q, n_k))
    bands[:, rep] = w
    bands[:, partner[rep]] = w
    return BandStructure(k_grid=k_grid, bands=bands)


def flat_band_width_real_space(eigenvalues: np.ndarray, n_cells: int,
                               center: float = 0.0) -> float:
    """Width of the n_cells real-space eigenvalues nearest ``center``.

    Useful for disordered lattices where the Bloch picture is unavailable:
    returns max - min of the would-be flat-band cluster."""
    order = np.argsort(np.abs(eigenvalues - center))
    cluster = np.sort(eigenvalues[order[:n_cells]])
    return float(cluster[-1] - cluster[0])
