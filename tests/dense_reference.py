"""The dense single-excitation Hamiltonian of emitters + bath: the oracle
that the tests hold ``dynamics.evolve``'s reduced subspace and the pole
solver against."""

from typing import Sequence

import numpy as np

from flatqed.boundstate import EmitterSpec
from flatqed.lattice import LatticeModel, real_space_hamiltonian


def total_hamiltonian(model: LatticeModel,
                      emitters: Sequence[EmitterSpec]) -> np.ndarray:
    """Single-excitation Hamiltonian of emitters + bath.

    Basis ordering: the emitters first, then all lattice sites."""
    n_e = len(emitters)
    n = model.n_sites
    H = np.zeros((n_e + n, n_e + n), dtype=complex)
    H[n_e:, n_e:] = real_space_hamiltonian(model)
    for j, em in enumerate(emitters):
        H[j, j] = em.omega0
        for x, g in em.couplings:
            H[j, n_e + x] += np.conj(g)
            H[n_e + x, j] += g
    return H
