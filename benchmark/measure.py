"""One measuring process of the sedlab benchmark.

    python3 benchmark/measure.py --workload trajectories --seed 1 --nproc 2 \\
        --mode timed --budget-s 30

``run.py`` starts this script once per run to measure the workload, and
again in set-up-only processes.  Every mode first measures set-up:
``import sedlab`` and, for each scenario of the workload, the run up to
the moment its first ensemble member would start (validation and the
analytic predictions made before the ensemble).  A missing
``sedlab.experiments.ensemble_reduce`` fails the process.

Modes:

* ``setup``: set-up only.
* ``timed``: set-up, an untimed warm-up, then cycles in which every
  operation runs at ``jobs=1`` and at ``jobs=nproc``, each run after the
  reference task, while runs still fit in ``--budget-s`` seconds from the
  start of the process (the first cycle always runs whole).
* ``traced``: set-up, warm-up, the workload untraced at ``jobs=1``, then
  traced at ``jobs=1`` and at ``jobs=nproc``; reports the per-layer
  metrics and writes the spans to ``--spans-out``.

Prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

#: sedlab is imported from the ``src/`` directory beside this one.
SRC = Path(__file__).resolve().parent.parent / "src"

PROPERTIES = "criterion_9_properties"

#: Operations per workload: (scenario, n_ensemble).  Every scenario runs at
#: its default SystemParams/GridSpec; only n_ensemble is reduced, to the 8
#: groups the scenarios use for standard errors (None: the property suite).
WORKLOADS = {
    # zero-padded lag-correlation FFTs in experiments, periodogram and
    # windowed energy in estimators, plus the property suite
    "lag_spectra": (("commutators", 8), ("energy_time", 8), (PROPERTIES, None)),
    # synthesis plus time-domain integration; estimators nearly idle
    "trajectories": (("ground_state", 8), ("planck_thermal", 8), ("dipoles", 8)),
}


class FirstMember(Exception):
    """Raised in place of the ensemble, which ends the set-up phase."""


def _stop_at_ensemble(*args, **kwargs):
    raise FirstMember


def measure_setup(ops, seed: int) -> dict:
    """Import sedlab and run each scenario up to its first ensemble member."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sedlab
    import sedlab.acceptance  # noqa: F401
    import_s = time.perf_counter() - t0

    from sedlab import experiments

    orig = experiments.ensemble_reduce
    experiments.ensemble_reduce = _stop_at_ensemble
    try:
        for name, _ in ops:
            if name == PROPERTIES:
                continue
            params, grid = experiments.scenario_defaults(name)
            try:
                experiments.run_scenario(name, params, replace(grid, seed=seed))
            except FirstMember:
                continue
            raise RuntimeError(f"scenario {name} finished without an ensemble")
    finally:
        experiments.ensemble_reduce = orig
    return {"sedlab_file": sedlab.__file__, "import_s": import_s,
            "setup_s": time.perf_counter() - t0}


def _failed_rows(name: str, doc) -> list:
    if name == PROPERTIES:
        return [f"{name}: {line.strip()}" for line in doc["lines"]
                if line.split()[0] == "FAIL"]
    return [f"{name}.{row['quantity']}" for row in doc["rows"] if row["pass"] is False]


def run_op(op, seed: int, jobs: int) -> dict:
    """One operation; its canonical bytes are serialized with allow_nan=False."""
    from sedlab.acceptance import criterion_9_properties
    from sedlab.experiments import run_scenario, scenario_defaults

    name, n_ensemble = op
    res = {"name": name, "jobs": jobs, "digest": None, "error": None,
           "rows_failed": 0, "rows_total": 0, "failed_rows": [], "samples": 0}
    c0, t0 = _cpu_s(), time.perf_counter()
    try:
        if name == PROPERTIES:
            ok, lines = criterion_9_properties(jobs=jobs)
            doc = {"passed": ok, "lines": lines}
            res["rows_total"] = len(lines)
        else:
            params, grid = scenario_defaults(name)
            grid = replace(grid, seed=seed, n_ensemble=n_ensemble)
            report = run_scenario(name, params, grid, jobs=jobs)
            doc = report.to_dict(include_runtime=False)
            res["rows_total"] = sum(r.passed is not None for r in report.rows)
            g = report.config["grid"]
            res["samples"] = g["n_ensemble"] * g["n_samples"]
        res["wall_s"], res["cpu_s"] = time.perf_counter() - t0, _cpu_s() - c0
        canonical = json.dumps(doc, sort_keys=True, allow_nan=False)
    except Exception as exc:  # an operation that raises is counted, not fatal
        res["wall_s"], res["cpu_s"] = time.perf_counter() - t0, _cpu_s() - c0
        res["error"] = f"{type(exc).__name__}: {exc}"
        return res
    res["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    res["failed_rows"] = _failed_rows(name, doc)
    res["rows_failed"] = len(res["failed_rows"])
    return res


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(ops, seed: int, jobs: int) -> dict:
    c0, t0 = _cpu_s(), time.perf_counter()
    results = [run_op(op, seed, jobs) for op in ops]
    return {"jobs": jobs, "wall_s": time.perf_counter() - t0,
            "cpu_s": _cpu_s() - c0, "ops": results}


def warm_up(ops, seed: int, nproc: int):
    """Run each scenario once, untimed and unchecked, with nproc members.

    The first run of a scenario in a process pays one-off costs (lazy
    imports, first touch of large buffers, transform set-up): the first
    ``commutators`` run took 7.2 s against 4.8 s warm.  The property suite
    showed no such cost and is not warmed.
    """
    from sedlab.experiments import run_scenario, scenario_defaults

    with warnings.catch_warnings():
        # tiny ensembles leave some group standard errors empty
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, _ in ops:
            if name == PROPERTIES:
                continue
            params, grid = scenario_defaults(name)
            run_scenario(name, params, replace(grid, seed=seed, n_ensemble=nproc),
                         jobs=nproc)


#: The reference task: an FFT round trip of this many points, in numpy
#: alone, about the size of the zero-padded correlation transforms of
#: lag_spectra.  It runs before every timed operation run, and the time
#: metrics are given as multiples of its median over the run.  On a shared
#: 2-core machine the host's speed drifts over minutes: over eleven
#: one-minute windows of lag_spectra runs the jobs=1 time spread 0.216
#: (quartile distance over median) and its ratio to this task 0.040; a
#: 2^20-point round trip gave 0.102, a pure-Python loop 0.133.
REF_POINTS = 1 << 22


def reference_s(x) -> float:
    import numpy

    t0 = time.perf_counter()
    numpy.fft.irfft(numpy.fft.rfft(x, REF_POINTS), REF_POINTS)
    return time.perf_counter() - t0


def timed_cycles(ops, seed: int, nproc: int, deadline: float) -> dict:
    """Run each operation at both jobs values, cycle after cycle.

    A cycle runs every operation at jobs=1 and at jobs=nproc back to back,
    the order of the two alternating between cycles.  The first cycle runs
    whole; after it, each run starts only if its own first run, as long,
    would still end before ``deadline``.  Every run is preceded by the
    reference task.  Returns the operation results (``runs``), the
    reference times (``ref_s``) and the peak RSS (``peak_rss_mb``) at the
    end of the first cycle: later cycles add fragmentation that varies
    from process to process (the peak after two ``lag_spectra`` cycles
    ranged from 496 to 631 MB, after one from 471 to 498 MB), and a user
    runs the workload once.
    """
    import numpy

    x = numpy.random.default_rng(0).standard_normal(REF_POINTS // 2)
    runs, refs, took = [], [], {}
    out = {"runs": runs, "ref_s": refs}
    for cycle in itertools.count():
        if cycle == 1:
            out["peak_rss_mb"] = _peak_rss_mb()
        order = (1, nproc) if cycle % 2 == 0 else (nproc, 1)
        for op in ops:
            for jobs in order:
                key = (op[0], jobs)
                if key in took and time.perf_counter() + took[key] > deadline:
                    return out
                refs.append(reference_s(x))
                runs.append(run_op(op, seed, jobs))
                took.setdefault(key, runs[-1]["wall_s"])


# ---------------------------------------------------------------------------
# traced passes: per-layer metrics

def _tail_percentile(n: int) -> float:
    """Highest percentile with ten of ``n`` samples beyond it (0 for n <= 10).

    With linear interpolation between order statistics, the 100·(1 − 10/n)th
    percentile lies between the eleventh- and the tenth-largest sample.
    """
    return max(0.0, 100.0 * (1.0 - 10.0 / n)) if n else 0.0


def _percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(values, pct)) if values else 0.0


def traced_passes(ops, seed: int, nproc: int, spans_out: str) -> dict:
    import layer_trace as tr
    import sedlab.core

    untraced = run_pass(ops, seed, 1)
    counters = tr.sedlab_counters(sedlab.core.burn_in_samples)
    traced = {}
    for jobs in (1, nproc):
        tracer = tr.Tracer()
        with tr.instrument(tracer, counters=counters):
            t0 = tracer.clock()
            p = run_pass(ops, seed, jobs)
            t1 = tracer.clock()
        traced[jobs] = (p, tracer.spans, t0, t1)

    p1, spans1, t0, t1 = traced[1]
    pn, spansn, _, _ = traced[nproc]
    layer = tr.summarize(spans1)

    def get(name):
        return layer.get(name, tr.LayerSummary())

    def est_s(*names):
        return sum(get("estimators").by_name.get(n, 0.0) for n in names)

    exp = get("experiments")
    members = [s.end - s.start for s in spans1
               if s.layer == "experiments" and s.name == tr.MEMBER]
    busy_n = sum(s.end - s.start for s in spansn
                 if s.layer == "experiments" and s.name == tr.MEMBER)
    tail = _tail_percentile(len(members))
    ptail_s = _percentile(members, tail)
    dyn = get("dynamics").counts
    integrated = dyn.get("integrated", 0)

    metrics = {
        "core.validate_s": (get("core").by_name.get("validate", 0.0), "s"),
        "analytic.calls": (get("analytic").calls, "count"),
        "analytic.self_s": (get("analytic").self_s, "s"),
        "spectra.calls": (get("spectra").calls, "count"),
        "spectra.self_s": (get("spectra").self_s, "s"),
        "noise.calls": (get("noise").calls, "count"),
        "noise.self_s": (get("noise").self_s, "s"),
        "noise.msamples": (get("noise").counts.get("samples", 0) / 1e6, "Msample"),
        "noise.fft_points": (get("noise").fft_points, "points"),
        "dynamics.calls": (get("dynamics").calls, "count"),
        "dynamics.self_s": (get("dynamics").self_s, "s"),
        "dynamics.msamples": (integrated / 1e6, "Msample"),
        "dynamics.burn_in_frac": (dyn.get("discarded", 0) / integrated
                                  if integrated else 0.0, "ratio"),
        "estimators.calls": (get("estimators").calls, "count"),
        "estimators.self_s": (get("estimators").self_s, "s"),
        "estimators.fft_points": (get("estimators").fft_points, "points"),
        "estimators.periodogram_s": (est_s("periodogram"), "s"),
        "estimators.correlation_s": (est_s("correlation", "two_sided_correlation",
                                           "commutator", "commutator_from_spectrum"), "s"),
        "estimators.hilbert_s": (est_s("hilbert_transform"), "s"),
        "estimators.structure_function_s": (est_s("structure_function"), "s"),
        "estimators.windowed_energy_s": (est_s("windowed_energy"), "s"),
        "estimators.ks_s": (est_s("ks_distance", "ks_critical", "decorrelated"), "s"),
        "experiments.self_s": (exp.self_s, "s"),
        "experiments.fft_calls": (exp.fft_calls, "count"),
        "experiments.fft_points": (exp.fft_points, "points"),
        "experiments.fft_s": (exp.fft_s, "s"),
        "experiments.members": (len(members), "count"),
        "experiments.member_p50_s": (_percentile(members, 50.0), "s"),
        "experiments.member_ptail_s": (ptail_s, "s"),
        "experiments.reduce_s": (exp.by_name.get(tr.REDUCE, 0.0), "s"),
        "experiments.thread_busy_frac": (busy_n / (pn["wall_s"] * nproc), "ratio"),
        "acceptance.calls": (get("acceptance").calls, "count"),
        "acceptance.self_s": (get("acceptance").self_s, "s"),
        "trace.overhead_frac": (p1["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
        "trace.coverage": (tr.coverage(spans1, t0, t1), "ratio"),
    }
    with open(spans_out, "w") as fh:
        json.dump({"jobs_1": [s.to_dict() for s in spans1],
                   f"jobs_{nproc}": [s.to_dict() for s in spansn]}, fh, allow_nan=False)
    return {
        "passes": [untraced, p1, pn],
        "layers": metrics,
        "member_ptail_pct": tail,
        "member_ptail_count": sum(m > ptail_s for m in members),
        "resolved_names": {k: list(v) for k, v in tr.LAYER_FUNCTIONS.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    ap.add_argument("--budget-s", type=float, default=0.0,
                    help="timed mode: seconds from process start for the cycles")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    ops = WORKLOADS[args.workload]
    out = {"setup": measure_setup(ops, args.seed)}
    if args.mode != "setup":
        warm_up(ops, args.seed, args.nproc)
    if args.mode == "timed":
        out.update(timed_cycles(ops, args.seed, args.nproc, start + args.budget_s))
    elif args.mode == "traced":
        out.update(traced_passes(ops, args.seed, args.nproc, args.spans_out))
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
