"""Self-test of the benchmark's failure accounting and tracing.

Run from the repository root:  python3 benchmarks/selftest.py

Runs quick ``scan1d`` passes in-process.  A clean pass must have no failed
operation.  A pass with two injected faults (a perturbed pole for the second
bound state and an ``InsufficientData`` raise from the fifth tail fit) must
count exactly those two operations as failed and still attempt every
operation.  A traced pass must report every per-layer metric and restore the
library's functions afterwards.
"""

import os
import sys


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import passes
    import tracing
    from flatqed import boundstate, greens, interactions
    from flatqed.errors import InsufficientData

    clean = passes.run_pass("scan1d", 0, False, True, "off")
    assert clean["failed"] == 0, clean["failures"]

    solve_pole = boundstate.solve_pole
    fit = boundstate.localization_length_fit
    calls = {"pole": 0, "fit": 0}

    def perturbed_pole(model, emitter):
        calls["pole"] += 1
        root = solve_pole(model, emitter)
        return root + 1e-6 if calls["pole"] == 2 else root

    def failing_fit(*args, **kwargs):
        calls["fit"] += 1
        if calls["fit"] == 5:
            raise InsufficientData("injected")
        return fit(*args, **kwargs)

    boundstate.solve_pole = perturbed_pole
    boundstate.localization_length_fit = failing_fit
    try:
        bad = passes.run_pass("scan1d", 0, False, True, "off")
    finally:
        boundstate.solve_pole = solve_pole
        boundstate.localization_length_fit = fit
    names = bad["op_names"]
    assert bad["attempted"] == clean["attempted"] == len(names)
    assert set(bad["failures"]) == {names[1], names[4]}, bad["failures"]
    assert "pole residual" in bad["failures"][names[1]]
    assert bad["failures"][names[4]].startswith("InsufficientData")

    greens.eigensystem.cache_clear()
    traced = passes.run_pass("scan1d", 0, True, True, "off")
    assert traced["failed"] == 0, traced["failures"]
    layers = traced["layers"]
    assert set(layers) == set(tracing.metric_names())
    assert layers["boundstate.solve_pole.calls"] == 27 + 9
    assert layers["greens.eigensystem.misses"] == 3
    assert layers["boundstate.solve_pole.resolvent_per_pole"] > 2
    assert boundstate.solve_pole is solve_pole
    assert interactions.solve_pole is solve_pole
    assert boundstate.eigensystem is greens.eigensystem
    assert hasattr(greens.eigensystem, "cache_info")
    print(f"selftest ok: {len(names)} ops, injected faults counted "
          f"{sorted(bad['failures'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
