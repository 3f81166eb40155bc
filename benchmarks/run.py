#!/usr/bin/env python3
"""flatqed benchmark: four workloads behind the paper's figures.

Run from the repository root:

    python3 benchmarks/run.py --workload scan1d --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table
    python3 benchmarks/run.py --workload scan1d --quick # shrunken sizes, labelled
    python3 benchmarks/run.py --record-golden           # rewrite golden.json

Load model: a closed loop with one client.  Each workload pass runs in a
fresh single-process child (``child.py``) with every BLAS pool pinned to one
thread, so every pass pays the interpreter start, ``import flatqed`` and the
cold O(N^3) decomposition exactly as a ``flatqed`` CLI call does.  Passes
repeat until ``--seconds`` is spent (at least one).  Where the first op is
short next to the pass, each pass is followed by a cold-start probe, a fresh
child that runs the first op alone, and probes fill the time left after the
last pass; so ``first_op_s`` and ``setup_s`` rest on many samples spread over
the run.  Each end-to-end metric is a median over the samples of the run.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead (medians over the traced passes) together with the
tracing overhead.

Every operation is checked against the dense-``eigh`` oracle or a closed form
after the timed pass; at the default seed (0) the results are also compared
with ``golden.json``.  An operation that raises, or whose check fails, counts
as one failed operation and the run continues.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
record of a run, environment included, is written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
WORKLOADS = ("scan1d", "touching2d", "disorder_sweep", "fb_dynamics")
DEFAULT_SEED = 0          # workloads.DEFAULT_SEED (not imported: the parent stays numpy-free)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "first_op_s": "s",
             "warm_op_ms": "ms", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 5
PROBE_MAX_SHARE = 0.25   # probe when the first op is at most this share of a pass
CHILD_TIMEOUT_S = 150
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A child pass crashed, timed out or printed no result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(workload: str, seed: int, trace: bool, quick: bool,
           golden: str, first_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH="src", **{k: "1" for k in BLAS_PINS})
    t0 = _now()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(t0), workload, str(seed),
             "1" if trace else "0", "1" if quick else "0", golden,
             "1" if first_only else "0"],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_pin": {k: "1" for k in BLAS_PINS},
    }


def _tail(samples: list[float]) -> tuple[str, float, int] | None:
    """Highest of p90/p75 with at least ten samples above it."""
    n = len(samples)
    for q in (90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(samples, n=100)[q - 1], n
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> dict:
    """Pass cycles until the next would end past ``seconds`` (its length is
    projected from the longest cycle so far), then cold-start probes in the
    time that is left."""
    passes, untraced, probes = [], [], []
    t_start = _now()
    cycle_s = probe_s = 0.0     # longest pass cycle and longest probe so far

    def probe() -> None:
        nonlocal probe_s
        t = _now()
        probes.append(_child(workload, seed, False, quick, "check",
                             first_only=True))
        probe_s = max(probe_s, _now() - t)

    while True:
        t = _now()
        if trace:
            untraced.append(_child(workload, seed, False, quick, "check"))
        p = _child(workload, seed, trace, quick, "check")
        passes.append(p)
        if not trace and p["first_op_s"] <= PROBE_MAX_SHARE * p["wall_s"]:
            probe()
        cycle_s = max(cycle_s, _now() - t)
        if _now() - t_start + cycle_s > seconds:
            break
    while probes and _now() - t_start + probe_s <= seconds:
        probe()
    setups = [p["setup_s"] for p in passes + untraced + probes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_child("-", seed, False, quick, "off")["setup_s"])

    everything = passes + untraced + probes
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    warm_ops = [t for p in passes for t in p["op_s"][1:]]
    if trace:
        metrics = {}
        for name in passes[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in passes)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes)
            - statistics.median(p["wall_s"] for p in untraced))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "first_op_s": statistics.median(
                p["first_op_s"] for p in passes + probes),
            "warm_op_ms": 1000.0 * statistics.median(
                statistics.mean(p["op_s"][1:]) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    return {
        "workload": workload, "seed": seed, "quick": quick, "trace": trace,
        "passes": len(passes), "probes": len(probes),
        "setup_samples": len(setups),
        "ops_per_pass": passes[0]["attempted"],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": {k: v for p in everything for k, v in p["failures"].items()},
        "metrics": metrics,
        "op_tail": _tail(warm_ops),
        "environment": {**_host(), **passes[0]["environment"]},
        "raw_passes": [{k: v for k, v in p.items() if k != "environment"}
                       for p in passes + untraced],
        "raw_probes": [{"setup_s": p["setup_s"], "first_op_s": p["first_op_s"]}
                       for p in probes],
    }


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "overhead_s": "s", "cache_mb": "MB",
            "bytes_computed": "B", "hit_ratio": "ratio"}.get(stat, "count")


def report(res: dict) -> None:
    label = " [QUICK: not comparable with full runs]" if res["quick"] else ""
    env = res["environment"]
    print(f"== {res['workload']} seed={res['seed']} trace={int(res['trace'])}"
          f"{label}: {res['passes']} passes x {res['ops_per_pass']} ops, "
          f"{res['probes']} first-op probes, "
          f"{res['setup_samples']} set-up samples")
    print(f"   {env['cpu_model']}, nproc={env['nproc']}, python {env['python']},"
          f" numpy {env['numpy']}, scipy {env['scipy']},"
          f" BLAS threads verified={env['blas_pin_verified']}")
    for name, value in res["metrics"].items():
        print(f"   {name:46s} {value:14.6g} {_unit(name)}")
    print(f"   {'failed_frac':46s} {res['failed_frac']:14.6g} "
          f"({res['failed']}/{res['attempted']} ops)")
    if res["op_tail"] and not res["trace"]:
        q, v, n = res["op_tail"]
        print(f"   {'op_ms_' + q:46s} {1000 * v:14.6g} ms (n={n} warm ops)")
    for op, msg in list(res["failures"].items())[:10]:
        print(f"   FAILED {op}: {msg}")


def _save(res: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}"
    if res["quick"]:
        tag += "-quick"
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(res, fh, indent=1)


def _summary(res: dict) -> dict:
    out = {"correct": res["failed"] == 0, "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: {"value": v, "unit": _unit(k)}
                       for k, v in res["metrics"].items()}}
    if res["quick"]:
        out["mode"] = "quick"
    return out


def record_golden() -> int:
    golden = {}
    for wl in WORKLOADS:
        p = _child(wl, DEFAULT_SEED, False, False, "record")
        if p["failed"]:
            print(f"{wl}: {p['failed']} failed ops, golden not written: "
                  f"{p['failures']}", file=sys.stderr)
            return 1
        golden[wl] = p["golden"]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrunken sizes for edit loops; labelled, never "
                         "comparable with full runs")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite golden.json from the default-seed oracle run")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "flatqed", "__init__.py")):
        print("run from the repository root: src/flatqed not found",
              file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            return record_golden()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for wl in names:
            res = measure(wl, args.seed, args.seconds, bool(args.trace),
                          args.quick)
            _save(res)
            report(res)
            results[wl] = _summary(res)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
