"""One workload pass in a fresh interpreter (started by run.py).

Usage: python3 benchmarks/child.py T0 WORKLOAD SEED TRACE QUICK GOLDEN FIRST

T0 is the parent's CLOCK_MONOTONIC reading just before the spawn, so the
set-up time covers interpreter start-up plus ``import flatqed`` (which loads
numpy and scipy).  WORKLOAD ``-`` measures set-up only.  GOLDEN is ``check``
(compare default-seed values with golden.json), ``record`` (emit them) or
``off``.  FIRST ``1`` runs the workload's first operation only (a
cold-start probe).  The result is printed as one JSON line on stdout.
"""

import sys
import time


def main() -> int:
    t0 = float(sys.argv[1])
    import flatqed
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0

    import json
    import os

    name, seed, trace, quick, golden_mode, first = sys.argv[2:8]
    src = os.path.join(os.getcwd(), "src", "flatqed")
    if os.path.dirname(os.path.abspath(flatqed.__file__)) != src:
        print(f"flatqed imported from {flatqed.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if name != "-":
        import passes
        result.update(passes.run_pass(name, int(seed), trace == "1",
                                      quick == "1", golden_mode,
                                      first == "1"))
        result["environment"] = passes.environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
