"""One timed workload pass: run every operation, then check every result.

``run_pass`` is called in a fresh interpreter by ``child.py`` (and
in-process by ``selftest.py``).  Timing stops before the checks, so the
oracle's cost never enters a metric.
"""

import json
import os
import resource
import time
import traceback
import warnings

import tracing
import workloads
from flatqed.errors import FlatQedError

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_RTOL = {"omega_bs": 1e-12}   # every other golden value: 1e-6 relative


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Library versions and the BLAS thread pin, verified by counting this
    process's threads after a BLAS call (OpenBLAS starts its pool at load)."""
    import numpy as np
    import scipy

    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(a + a.T)
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads_after_blas": threads,
        "blas_pin_verified": threads == 1,
    }


def _golden_failures(expected: dict, got: dict) -> list[str]:
    bad = []
    for key, ref in expected.items():
        val = got.get(key)
        tol = GOLDEN_RTOL.get(key, 1e-6) * max(abs(ref), 1e-300)
        if val is None or not abs(val - ref) <= tol:
            bad.append(f"golden {key}: {val!r} vs {ref!r}")
    return bad


def run_pass(name: str, seed: int, trace: bool, quick: bool,
             golden_mode: str, first_only: bool = False) -> dict:
    """Time every operation of one workload pass, then check each result.

    An operation fails when it raises (a typed ``FlatQedError`` or anything
    else), warns, or fails its oracle, closed-form or golden check; each
    failure counts once and the pass goes on.  ``first_only`` runs and checks
    the first operation alone (a cold-start probe)."""
    wl = workloads.build(name, seed, quick)
    if first_only:
        wl.ops = wl.ops[:1]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    outputs, errors, caught, op_s = {}, {}, {}, []
    t_start = _now()
    t_first = None
    for op in wl.ops:
        t = _now()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                outputs[op.name] = op.run()
            except FlatQedError as exc:       # typed library failure
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:           # any other raise is a failure too
                errors[op.name] = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
        t_end = _now()
        op_s.append(t_end - t)
        if t_first is None:
            t_first = t_end - t_start
        if seen:
            caught[op.name] = [str(w.message) for w in seen]
    wall_s = _now() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.uninstall()

    # ---- checks (untimed): oracle, closed forms, golden values ----
    golden_ref = {}
    if golden_mode == "check" and seed == workloads.DEFAULT_SEED and not quick:
        with open(GOLDEN_PATH) as fh:
            golden_ref = json.load(fh).get(name, {})
    golden_out = {}
    failures = dict(errors)
    for op in wl.ops:
        if op.name in errors:
            continue
        out = outputs[op.name]
        try:
            msgs = list(op.check(out))
            values = op.golden(out)
        except Exception as exc:
            msgs, values = [f"check raised {type(exc).__name__}: {exc}"], {}
        msgs += [f"warning: {m}" for m in caught.get(op.name, [])]
        if golden_mode == "record":
            golden_out[op.name] = values
        elif golden_ref:
            if op.name in golden_ref:
                msgs += _golden_failures(golden_ref[op.name], values)
            else:
                msgs.append("no golden value recorded")
        if msgs:
            failures[op.name] = "; ".join(msgs)
    ok = {k: v for k, v in outputs.items() if k not in failures}
    for op_name, msg in wl.finalize(ok).items():
        failures.setdefault(op_name, msg)

    return {
        "wall_s": wall_s,
        "first_op_s": t_first,
        "op_s": op_s,
        "op_names": [op.name for op in wl.ops],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wl.ops),
        "failed": len(failures),
        "failures": failures,
        "layers": layers,
        "golden": golden_out,
    }
