"""Band structures on a k-grid, and the width of a real-space flat-band cluster."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flatqed.lattice import LatticeModel, bloch_hamiltonian


@dataclass(frozen=True)
class BandStructure:
    """Bloch bands on a discrete k-grid.

    ``k_grid`` has shape (n_k, D); ``bands`` has shape (Q, n_k) with energies
    sorted ascending at every k; ``eigenvectors`` has shape (n_k, Q, Q) with
    column ``[:, m]`` the unit-norm eigenvector of band m.
    """

    k_grid: np.ndarray
    bands: np.ndarray
    eigenvectors: np.ndarray

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


def band_structure(model: LatticeModel, k_grid: np.ndarray | None = None) -> BandStructure:
    """Diagonalize the Bloch Hamiltonian on every point of the grid in one
    batched ``eigh``."""
    if k_grid is None:
        k_grid = default_k_grid(model)
    k_grid = np.atleast_2d(np.asarray(k_grid, dtype=float))
    if k_grid.size == 0:
        raise ValueError("empty k-grid")
    w, vecs = np.linalg.eigh(bloch_hamiltonian(model, k_grid))
    return BandStructure(k_grid=k_grid, bands=np.ascontiguousarray(w.T),
                         eigenvectors=vecs)


def flat_band_width_real_space(eigenvalues: np.ndarray, n_cells: int,
                               center: float = 0.0) -> float:
    """Width of the n_cells real-space eigenvalues nearest ``center``.

    Useful for disordered lattices where the Bloch picture is unavailable:
    returns max - min of the would-be flat-band cluster."""
    order = np.argsort(np.abs(eigenvalues - center))
    cluster = np.sort(eigenvalues[order[:n_cells]])
    return float(cluster[-1] - cluster[0])
