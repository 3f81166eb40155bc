import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatqed.greens import eigensystem
from flatqed.lattice import (build_chain, build_checkerboard,
                             build_double_comb, build_kagome1d,
                             build_sawtooth, build_stub)
from flatqed.spectrum import (_block_eigh, band_structure, default_k_grid,
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


def _hermitian_block(rng, Q, complex_, kind):
    """One exactly Hermitian Q x Q block of a given kind: random entries,
    U diag(w) U^H with exactly repeated w (as flat bands give), random
    entries with some couplings 0 or 1e-300, or all zeros."""
    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_ else x.astype(complex)

    if kind == "zero":
        return np.zeros((Q, Q), dtype=complex)
    if kind == "repeated":
        U, _ = np.linalg.qr(draw(Q, Q))
        w = rng.choice([-1.0, 0.0, 2.0], size=Q)
        A = (U * w) @ U.conj().T
    else:
        A = draw(Q, Q)
    H = (A + A.conj().T) / 2
    if kind == "sparse":
        for p, q in zip(*np.triu_indices(Q, 1)):
            if rng.random() < 0.5:
                H[p, q] = rng.choice([0.0, 1e-300])
                H[q, p] = np.conj(H[p, q])
    return H


@given(Q=st.integers(1, 6), complex_=st.booleans(),
       blocks=st.lists(st.tuples(
           st.sampled_from(["random", "repeated", "sparse", "zero"]),
           st.sampled_from([1e-150, 1.0, 1e150])), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_block_kernel_matches_eigvalsh(Q, complex_, blocks, seed):
    """Every block of a batch (kinds and scales mixed) is solved to
    32 Q eps max|H_k| against ``eigvalsh``: ascending w within that bound,
    ||H_k V_k - V_k w_k|| within it and ||V_k^H V_k - I|| within 32 Q eps;
    the input is left untouched, and the eigenvalues do not depend on
    whether vectors are asked for."""
    rng = np.random.default_rng(seed)
    H = np.stack([scale * _hermitian_block(rng, Q, complex_, kind)
                  for kind, scale in blocks])
    H_in = H.copy()
    w, V = _block_eigh(H, vectors=True)
    w_only, none = _block_eigh(H)
    assert none is None and np.array_equal(w_only, w)
    assert np.array_equal(H, H_in)
    assert w.shape == (Q, len(blocks)) and V.shape == (Q, Q, len(blocks))
    rel = 32 * Q * np.finfo(float).eps
    bound = rel * np.max(np.abs(H), axis=(1, 2))
    V = V.transpose(2, 0, 1)
    assert np.all(np.diff(w, axis=0) >= 0)
    assert np.all(np.max(np.abs(w.T - np.linalg.eigvalsh(H)), axis=1) <= bound)
    assert np.all(np.linalg.norm(H @ V - V * w.T[:, None, :], axis=(1, 2))
                  <= bound)
    gram = V.conj().transpose(0, 2, 1) @ V
    assert np.all(np.linalg.norm(gram - np.eye(Q), axis=(1, 2)) <= rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_block_kernel_rejects_nonfinite_blocks(bad):
    """A non-finite entry in any block raises ``LinAlgError`` at once, with
    no RuntimeWarning, as ``eigh`` fails on such input."""
    H = np.zeros((3, 4, 4), dtype=complex)
    H[:, range(4), range(4)] = 1.0
    H[1, 0, 2] = bad
    H[1, 2, 0] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vectors in (False, True):
            with pytest.raises(np.linalg.LinAlgError):
                _block_eigh(H, vectors)
