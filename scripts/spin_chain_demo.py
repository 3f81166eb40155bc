#!/usr/bin/env python3
"""Photon-mediated spin chain of stub-lattice giants: Bessel-function check.

One giant per cell of a stub ring, each coupled to the single CLS of its
cell, interacts through the flat band alone:
K_nn' = g^2/delta <chi_n|chi_n'> (``giant_interaction``).  Neighbouring CLSs
share one a-site and CLSs further apart share none, so the chain has exactly
nearest-neighbour coupling kappa_1 = g^2/(delta (2 + Delta)) and kappa_2 = 0.
A single flipped spin then spreads as c_n(t) = i^n J_n(-2 kappa_1 t)."""

import numpy as np

from flatqed.boundstate import omega0_for_detuning
from flatqed.giant import cls_emitter, giant_interaction
from flatqed.interactions import bessel_chain_amplitudes, spin_dynamics
from flatqed.lattice import build_stub


def main() -> None:
    g, delta_fb, Delta, N = 1e-3, 0.05, 4.0, 64
    stub = build_stub(N, Delta=Delta)
    omega0 = omega0_for_detuning(stub, delta_fb)
    K = giant_interaction(
        stub, [cls_emitter(stub, omega0, g, n) for n in range(N)]).K
    kappa1 = float(K[0, 1].real)
    print(f"kappa_1 = {kappa1:.3e} (g^2/(delta (2 + Delta)) = "
          f"{g ** 2 / (delta_fb * (2 + Delta)):.3e}), "
          f"max |K_0n| beyond n = 1: {np.max(np.abs(K[0, 2:N - 1])):.1e}")

    H = K - K[0, 0] * np.eye(N)
    t_grid = np.linspace(0.0, 5.0 / kappa1, 6)
    trace = spin_dynamics(H, 0, t_grid)
    n_idx = np.arange(N)
    dist = np.minimum(n_idx, N - n_idx)
    print(f"{'t*kappa1':>9} {'max |c_n - i^n J_n(-2 kappa1 t)|':>34}")
    for i, t in enumerate(t_grid):
        exact = bessel_chain_amplitudes(dist, float(t), kappa1)
        err = float(np.max(np.abs(trace.amplitudes[i] - exact)))
        print(f"{t * kappa1:9.2f} {err:34.3e}")


if __name__ == "__main__":
    main()
