#!/usr/bin/env python3
"""Vacuum Rabi oscillations on resonance with the sawtooth flat band.

An a-site emitter tuned to the flat band exchanges the excitation with a
single effective flat-band mode at Omega = g sqrt(<x0|P_FB|x0>); a b-site
emitter of the stub lattice has no flat-band weight and stays excited.
"""

import math

import numpy as np

from flatqed.boundstate import small_atom
from flatqed.dynamics import evolve, fit_rabi_frequency, rabi_frequency
from flatqed.lattice import build_sawtooth, build_stub


def main() -> None:
    g = 1e-3
    saw = build_sawtooth(40)
    em = small_atom(saw, -2.0, g, 20, "a")
    omega = rabi_frequency(saw, em)
    print(f"sawtooth a-site: Omega/g = {omega / g:.6f} "
          f"(projector formula sqrt(1 - 1/sqrt(3)) = "
          f"{math.sqrt(1 - 1 / math.sqrt(3)):.6f})")
    t = np.linspace(0.0, 1.3 * math.pi / omega, 6001)
    ts = evolve(saw, [em], 0, t)
    print(f"fitted from first population minimum: Omega/g = "
          f"{fit_rabi_frequency(ts) / g:.6f}")

    stub = build_stub(40, Delta=4.0)
    em_b = small_atom(stub, 0.0, g, 20, "b")
    ts_b = evolve(stub, [em_b], 0, np.linspace(0.0, 1e3, 2001))
    dev = float(np.max(np.abs(ts_b.atom_populations[:, 0] - 1.0)))
    print(f"stub b-site: max |P_e(t) - 1| = {dev:.2e} over tJ <= 1e3 "
          "(no oscillations)")


if __name__ == "__main__":
    main()
