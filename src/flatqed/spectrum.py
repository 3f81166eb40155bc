"""Band structures, flat-band detection, and density of states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flatqed.lattice import LatticeModel, bloch_hamiltonian

DEFAULT_FLATNESS_TOL = 1e-8


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


@dataclass(frozen=True)
class FlatBandInfo:
    """A detected flat band: index, energy, width, and gaps to neighbours."""

    band_index: int
    energy: float
    bandwidth: float
    gap_below: float
    gap_above: float


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


def detect_flat_bands(bs: BandStructure, tol: float = DEFAULT_FLATNESS_TOL) -> list[FlatBandInfo]:
    """Return every band whose total width over the grid is below ``tol``.

    Gaps are measured against the extrema of the adjacent bands and clipped
    at zero (band touching)."""
    out: list[FlatBandInfo] = []
    for m in range(bs.n_bands):
        width = float(bs.bands[m].max() - bs.bands[m].min())
        if width >= tol:
            continue
        energy = float(bs.bands[m].mean())
        gap_below = (energy - float(bs.bands[m - 1].max())) if m > 0 else np.inf
        gap_above = (float(bs.bands[m + 1].min()) - energy) if m < bs.n_bands - 1 else np.inf
        out.append(FlatBandInfo(
            band_index=m, energy=energy, bandwidth=width,
            gap_below=max(gap_below, 0.0), gap_above=max(gap_above, 0.0)))
    return out


def density_of_states(bs: BandStructure, omega_grid: np.ndarray,
                      eta: float = 1e-2) -> np.ndarray:
    """Lorentzian-broadened DOS per unit cell:

        DOS(w) = (1 / n_k) sum_{m,k} (eta/pi) / ((w - w_m(k))^2 + eta^2).

    Integrates to Q over a window containing the full spectrum."""
    if eta <= 0:
        raise ValueError("broadening eta must be positive")
    omega_grid = np.asarray(omega_grid, dtype=float)
    energies = bs.bands.ravel()
    n_k = bs.bands.shape[1]
    diffs = omega_grid[:, None] - energies[None, :]
    return (eta / np.pi / (diffs ** 2 + eta ** 2)).sum(axis=1) / n_k


def flat_band_width_real_space(eigenvalues: np.ndarray, n_cells: int,
                               center: float = 0.0) -> float:
    """Width of the n_cells real-space eigenvalues nearest ``center``.

    Useful for disordered lattices where the Bloch picture is unavailable:
    returns max - min of the would-be flat-band cluster."""
    order = np.argsort(np.abs(eigenvalues - center))
    cluster = np.sort(eigenvalues[order[:n_cells]])
    return float(cluster[-1] - cluster[0])
