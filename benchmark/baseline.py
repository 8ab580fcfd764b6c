"""Summarize the run records in benchmark/out/ into benchmark/baseline.json.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 benchmark/run.py --workload lag_spectra --seed $s --seconds 60 --trace 0
    done
    python3 benchmark/run.py --workload lag_spectra --seed 202608 --trace 1
    python3 benchmark/baseline.py

Per workload: the median and quartiles of each end-to-end metric, and of
the same times in seconds, over the untraced records (one per seed), the
failing rows of every seed, and the per-layer metrics of every traced
record.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(records: list) -> dict:
    out = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["environment"]["seed"])):
        w = out.setdefault(rec["workload"], {"ops": rec["ops"], "end_to_end": {},
                                             "seconds": {}, "seeds": {},
                                             "per_layer": {}})
        seed = str(rec["environment"]["seed"])
        if "rows_failed" in rec:
            w["seeds"][seed] = {
                "rows_failed": rec["rows_failed"], "rows_total": rec["rows_total"],
                "failed_rows": rec["failed_rows"], "ops_failed": len(rec["failures"]),
                "attempted": rec["attempted"], "runs_per_op": rec["runs_per_op"],
            }
            for name, m in rec["metrics"].items():
                w["end_to_end"].setdefault(name, {"unit": m["unit"], "values": []})
                w["end_to_end"][name]["values"].append(m["value"])
            for name, (value, unit) in rec["seconds"].items():
                w["seconds"].setdefault(name, {"unit": unit, "values": []})
                w["seconds"][name]["values"].append(value)
        else:
            w["per_layer"][seed] = rec["metrics"]
    for w in out.values():
        for m in [*w["end_to_end"].values(), *w["seconds"].values()]:
            v = m["values"]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            m.update(median=statistics.median(v), q1=q[0], q3=q[2],
                     spread=(q[2] - q[0]) / statistics.median(v))
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted((HERE / "out").glob("*-trace[01].json"))]
    if not records:
        print("no run records under benchmark/out/", file=sys.stderr)
        return 2
    env = dict(records[0]["environment"])
    env.pop("seed")
    doc = {"environment": env, "workloads": summarize(records)}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    for name, w in doc["workloads"].items():
        for metric, m in w["end_to_end"].items():
            print(f"{name:15s} {metric:16s} median {m['median']:10.4f} {m['unit']:10s} "
                  f"spread {m['spread']:.3f} (n={len(m['values'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
