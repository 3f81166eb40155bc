import numpy as np
import pytest

from flatqed.greens import eigensystem
from flatqed.lattice import (build_chain, build_checkerboard,
                             build_double_comb, build_kagome1d,
                             build_sawtooth, build_stub)
from flatqed.spectrum import (band_structure, default_k_grid,
                              flat_band_width_real_space)

FLATNESS_TOL = 1e-8   # a band narrower than this over the grid is flat


def _flat_indices(bands: np.ndarray) -> list[int]:
    return np.flatnonzero(np.ptp(bands, axis=1) < FLATNESS_TOL).tolist()


def test_default_grid_commensurate():
    model = build_sawtooth(8)
    grid = default_k_grid(model)
    assert grid.shape == (8, 1)
    assert np.allclose(grid[:, 0], 2 * np.pi * np.arange(8) / 8)


def test_sawtooth_flat_band_detected():
    bands = band_structure(build_sawtooth(32)).bands
    assert _flat_indices(bands) == [0]
    assert np.ptp(bands[0]) < 1e-12
    assert abs(bands[0].mean() + 2.0) < 1e-12
    # dispersive band bottom at 0
    assert abs(bands[1].min() - bands[0].mean() - 2.0) < 1e-12


def test_chain_has_no_flat_band():
    assert _flat_indices(band_structure(build_chain(32)).bands) == []


def test_stub_flat_band_gap():
    Delta = 4.0
    bands = band_structure(build_stub(32, Delta=Delta)).bands
    assert _flat_indices(bands) == [1]
    energy = bands[1].mean()
    assert abs(energy) < 1e-12
    assert abs(energy - bands[0].max() - np.sqrt(Delta)) < 1e-12
    assert abs(bands[2].min() - energy - np.sqrt(Delta)) < 1e-12


def test_stub_band_touching_at_zero_Delta():
    bands = band_structure(build_stub(32, Delta=0.0)).bands
    assert 1 in _flat_indices(bands)
    energy = bands[1].mean()
    assert abs(energy) < 1e-12
    assert energy - bands[0].max() < 1e-10 and bands[2].min() - energy < 1e-10


def test_kagome1d_flat_band_touches_above():
    bands = band_structure(build_kagome1d(24)).bands
    assert _flat_indices(bands) == [4]
    assert abs(bands[4].mean() - 2.0) < 1e-8
    assert bands[4].mean() - bands[3].max() < 1e-10  # quadratic touching from below


def test_kagome1d_fb_degeneracy_n_plus_one():
    """Finite-size FB multiplicity is N+1: N CLS translates are linearly
    dependent, and two extended states complete (and extend) the basis."""
    N = 12
    w, _U = eigensystem(build_kagome1d(N))
    assert int(np.sum(np.abs(w - 2.0) < 1e-8)) == N + 1


def test_checkerboard_fb_degeneracy():
    """Band touching at Gamma: FB multiplicity differs from the cell count
    only by the non-contractible loop corrections (N +- 1)."""
    Nx = Ny = 6
    w, _U = eigensystem(build_checkerboard(Nx, Ny))
    n_fb = int(np.sum(np.abs(w) < 1e-8))
    assert n_fb in (Nx * Ny - 1, Nx * Ny, Nx * Ny + 1)


def test_doublecomb_fb_degeneracy_exact():
    N = 10
    w, _U = eigensystem(build_double_comb(N, omega_c=0.3))
    assert int(np.sum(np.abs(w - 0.3) < 1e-10)) == N


def test_flat_band_width_real_space():
    w = np.array([-2.0, -1.0, 0.0, 0.1, 3.0])
    assert flat_band_width_real_space(w, 2, center=0.0) == pytest.approx(0.1)
