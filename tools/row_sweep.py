"""Print, for one scenario over a range of seeds, how often each pass/fail
row fails and its largest margin, so that two checkouts can be compared
row by row:

    python tools/row_sweep.py --scenario energy_time --seeds 61:100 --n-ensemble 8

``--seeds A:B`` runs the seeds A through B, both included, each at the
scenario's default params and grid with ``n_ensemble`` members.  A row's
margin is its distance from the analytic value over its allowance,
max(tolerance * |analytic|, 3 * stderr), the quantity ``Row.passed``
compares with 1: |estimated - analytic| for a match row, and for a bound
row the signed excess past its bound, negative on the allowed side.  A
bound row with no allowance (a KS row, whose bound is its critical
distance, and the rows bounded with a zero stderr) takes the ratio of
estimate to bound instead, bound to estimate for a lower bound, so that
a KS row's margin is d over its critical value.  A row fails where its
margin exceeds 1.  Info rows neither pass nor fail
and are left out.  Reports are the same at every jobs value, so each
runs on ``os.cpu_count()`` threads.

sedlab is imported from the ``src/`` directory of the checkout that holds
this file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sedlab.experiments import SCENARIO_NAMES, run_scenario, scenario_defaults  # noqa: E402


def margin(row) -> float:
    """The row's excess over its allowance, as ``Row.passed`` measures it."""
    excess = {"match": abs(row.estimated - row.analytic),
              "lower_bound": row.analytic - row.estimated,
              "upper_bound": row.estimated - row.analytic}[row.kind]
    allowance = max(row.tolerance * abs(row.analytic), 3.0 * row.stderr)
    if allowance > 0.0:
        return excess / allowance
    if row.kind == "upper_bound" and row.analytic > 0.0:
        return row.estimated / row.analytic
    if row.kind == "lower_bound" and row.estimated > 0.0:
        return row.analytic / row.estimated
    return math.inf if excess > 0.0 else 0.0


def seed_range(text: str) -> range:
    first, _, last = text.partition(":")
    return range(int(first), int(last) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A:B, both included")
    parser.add_argument("--n-ensemble", required=True, type=int)
    args = parser.parse_args(argv)

    grid = replace(scenario_defaults(args.scenario)[1], n_ensemble=args.n_ensemble)
    failures, worst = {}, {}
    for seed in args.seeds:
        report = run_scenario(args.scenario, grid=replace(grid, seed=seed),
                              jobs=os.cpu_count() or 1)
        for row in report.rows:
            if row.passed is None:
                continue
            failures.setdefault(row.quantity, [])
            if not row.passed:
                failures[row.quantity].append(seed)
            if row.quantity not in worst or margin(row) > worst[row.quantity][0]:
                worst[row.quantity] = (margin(row), seed)

    print(f"{args.scenario}, {args.n_ensemble} members, seeds "
          f"{args.seeds.start}-{args.seeds.stop - 1}")
    print(f"{'row':28s} {'fails':>5s} {'worst':>8s} {'at seed':>7s}  failing seeds")
    for quantity, seeds in failures.items():
        m, at = worst[quantity]
        print(f"{quantity:28s} {len(seeds):5d} {m:8.3f} {at:7d}  "
              f"{' '.join(map(str, seeds))}")
    m, quantity = max((worst[q][0], q) for q in worst)
    print(f"worst margin {m:.3f} ({quantity}); "
          f"{sum(len(s) for s in failures.values())} failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
