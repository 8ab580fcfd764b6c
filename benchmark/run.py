"""sedlab benchmark: scenario workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload lag_spectra --seed 202608 --seconds 60 --trace 0

Run from the repository root; sedlab is imported from ``src/``.  The loop
is closed: one client runs the workload's operations back to back, where
an operation is one scenario (or the property suite) at one ``jobs``
value, and sedlab's own thread pool is the only concurrency.  The
workload seed becomes ``GridSpec.seed`` of every scenario.

``--trace 0`` starts one measuring process (``measure.py --mode timed``),
which runs an untimed warm-up and then cycles of the workload, once at
``jobs=1`` and once at ``jobs=nproc`` with the order alternating, for as
long as the run allows; each time figure is the sum over the operations
of that operation's median over the cycles.  A reference task in numpy
alone runs before every timed run, and the bounded time metrics are
ratios to its median, which cancels the drift of a shared host's speed;
the same figures in seconds are printed and recorded beside them (see
``measure.REF_POINTS`` and ``README.md``).  Set-up time is measured in
``N_SETUP`` fresh processes: the measuring process and set-up-only ones
(``--mode setup``), one before it and the rest after.  ``--trace 1`` runs
one traced process and reports the per-layer metrics (see ``README.md``).

Correctness: an operation fails when it raises, when its report holds a
NaN or inf (reports are serialized with ``allow_nan=False``), or when its
canonical report bytes differ from those of the first run of the same
operation, at any ``jobs`` value and in any process.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a record of the run, with the environment,
goes to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up samples per run (fresh processes); the median is reported.
N_SETUP = 4

#: A measuring process must finish within this many seconds.
CHILD_TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure(workload: str, seed: int, nproc: int, mode: str, **flags) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--nproc", str(nproc), "--mode", mode]
    for k, v in flags.items():
        cmd += [f"--{k.replace('_', '-')}", str(v)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"measure.py --mode {mode} failed:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if Path(res["setup"]["sedlab_file"]).resolve().parent != SRC / "sedlab":
        raise RuntimeError(f"imported sedlab from {res['setup']['sedlab_file']}, not {SRC}")
    return res


class Checker:
    """Counts operations and the ones that failed.

    The first canonical report of each operation is the reference every
    later run of that operation must match.
    """

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, runs):
        for r in runs:
            self.attempted += 1
            if r["error"] is not None:
                self.failures.append(f"{r['name']} jobs={r['jobs']}: {r['error']}")
                continue
            ref = self.reference.setdefault(r["name"], r["digest"])
            if r["digest"] != ref:
                self.failures.append(f"{r['name']} jobs={r['jobs']}: report bytes differ")


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def timed_run(workload: str, seed: int, seconds: float, nproc: int, checker: Checker):
    start = time.perf_counter()
    # one set-up-only process first; its length budgets the ones still owed
    setups = [measure(workload, seed, nproc, "setup")["setup"]]
    setup_cost = time.perf_counter() - start
    budget = seconds - (N_SETUP - 1) * setup_cost
    res = measure(workload, seed, nproc, "timed", budget_s=budget)
    runs = res["runs"]
    checker.check(runs)
    setups.append(res["setup"])
    setups += [measure(workload, seed, nproc, "setup")["setup"]
               for _ in range(N_SETUP - len(setups))]

    def per_op(jobs, key):
        """Each operation's median over its runs, summed over operations."""
        values = {}
        for r in runs:
            if r["jobs"] == jobs:
                values.setdefault(r["name"], []).append(r[key])
        return sum(statistics.median(v) for v in values.values())

    wall_j1, wall_jn = per_op(1, "wall_s"), per_op(nproc, "wall_s")
    cpu = per_op(nproc, "cpu_s")
    ref = statistics.median(res["ref_s"])
    # the first cycle's jobs=1 runs, one per operation
    first = [r for r in runs if r["jobs"] == 1][:len(WORKLOADS[workload])]
    samples = sum(r["samples"] for r in first)
    rows_failed = sum(r["rows_failed"] for r in first)
    rows_total = sum(r["rows_total"] for r in first)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_j1_ref": (wall_j1 / ref, "ref"),
        "wall_jn_ref": (wall_jn / ref, "ref"),
        "msamples_per_ref": (samples / 1e6 / (wall_jn / ref), "Msample/ref"),
        "speedup_jn": (wall_j1 / wall_jn, "ratio"),
        "cpu_ref": (cpu / ref, "ref"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "rows_pass_frac": (1.0 - rows_failed / rows_total, "ratio"),
    }
    # the same figures in seconds, printed and recorded but not bounded
    seconds = {
        "wall_j1_s": (wall_j1, "s"),
        "wall_jn_s": (wall_jn, "s"),
        "msamples_per_s": (samples / 1e6 / wall_jn, "Msample/s"),
        "cpu_s": (cpu, "s"),
        "ref_s": (ref, "s"),
    }
    extra = {
        "seconds": seconds,
        "runs_per_op": len(runs) / (2 * len(first)),
        "ops_failed_frac": len(checker.failures) / checker.attempted,
        "rows_failed": rows_failed,
        "rows_total": rows_total,
        "failed_rows": [row for r in first for row in r["failed_rows"]],
        "runs": [{k: r[k] for k in ("name", "jobs", "wall_s", "cpu_s")} for r in runs],
        "setups": setups,
    }
    return metrics, extra


def traced_run(workload: str, seed: int, nproc: int, checker: Checker):
    OUT.mkdir(exist_ok=True)
    res = measure(workload, seed, nproc, "traced",
                  spans_out=OUT / f"{workload}-seed{seed}-spans.json")
    checker.check(r for p in res["passes"] for r in p["ops"])
    setups = [res["setup"]] + [measure(workload, seed, nproc, "setup")["setup"]
                               for _ in range(N_SETUP - 1)]
    metrics = {"cli.import_s": (statistics.median(s["import_s"] for s in setups), "s")}
    metrics.update((k, tuple(v)) for k, v in res["layers"].items())
    untraced, p1, pn = res["passes"]
    extra = {
        "untraced_j1_wall_s": untraced["wall_s"],
        "traced_j1_wall_s": p1["wall_s"],
        "traced_jn_wall_s": pn["wall_s"],
        "member_ptail_pct": res["member_ptail_pct"],
        "member_ptail_count": res["member_ptail_count"],
        "resolved_names": res["resolved_names"],
        "setups": setups,
    }
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=202608)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the measuring process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "sedlab" / "__init__.py").is_file():
        print(f"sedlab sources not found under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = environment(args.seed, nproc)
    checker = Checker()
    if args.trace:
        metrics, extra = traced_run(args.workload, args.seed, nproc, checker)
    else:
        metrics, extra = timed_run(args.workload, args.seed, args.seconds, nproc, checker)

    ops = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "ops": [list(op) for op in ops],
              "jobs": [1, nproc], "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": checker.attempted, "failures": checker.failures, **extra}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, allow_nan=False))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs 1/{nproc}: " + ", ".join(f"{n} x{k or 1}" for n, k in ops))
    for name, (value, unit) in {**metrics, **extra.get("seconds", {})}.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for key in ("runs_per_op", "ops_failed_frac", "rows_failed", "rows_total",
                "member_ptail_pct", "member_ptail_count"):
        if key in extra:
            print(f"  {key:34s} {extra[key]:14.6g}")
    for line in extra.get("failed_rows", []):
        print(f"  failed row: {line}")
    for line in checker.failures:
        print(f"  FAILED OP: {line}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
