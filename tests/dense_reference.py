"""Dense references that the tests hold the library against: the
single-excitation Hamiltonian of emitters + bath (the oracle of
``dynamics.evolve``'s reduced subspace and of the pole solver), the
resolvent by a dense linear solve, and a sawtooth threaded by flux, the
complex-hopping model the seam, Bloch and lattice tests share."""

import cmath
import math
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


def resolvent_solve(model: LatticeModel, omega: float,
                    chi: np.ndarray) -> np.ndarray:
    """(omega - H)^{-1} chi by a dense linear solve, for a vector or a
    matrix of columns chi."""
    H = real_space_hamiltonian(model)
    return np.linalg.solve(omega * np.eye(model.n_sites) - H, chi)


def flux_sawtooth(n_cells: int) -> LatticeModel:
    """A sawtooth with Peierls phases on two of its bonds: complex hoppings,
    so E(k) != E(-k) and the eigenvectors are complex."""
    return LatticeModel(
        "flux-sawtooth", 1, (n_cells,), ("a", "b"), (0.0, 0.3),
        ((1, 1, (1,), cmath.exp(0.4j)),
         (0, 1, (0,), math.sqrt(2.0)),
         (0, 1, (-1,), math.sqrt(2.0) * cmath.exp(-0.7j))),
        1.0)
