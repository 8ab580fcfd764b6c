"""Print the SHA-256 of every file a scenario run writes, and the property
suite's lines, so that two checkouts can be compared byte for byte.

For each seed, in the order given, and each jobs value, each scenario runs
at its default params and grid and that seed, with every emit kind
(report, trajectories, spectra), into a temporary directory.  One line
per file, ``jobs=J <file> <sha256>``, covers the reports (JSON and CSV)
and every artifact with its sidecar.
Then come the criterion-9 lines of ``sedlab verify`` at that jobs value.
Several seeds print one seed's lines after another, so the output equals
that of one run per seed.  Run it in each checkout and compare with
``diff``:

    python tools/report_digests.py --seed 202608 1 2 3 --jobs 1 2 > after.txt

sedlab is imported from the ``src/`` directory of the checkout that holds
this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sedlab.acceptance import criterion_9_properties  # noqa: E402
from sedlab.experiments import SCENARIO_NAMES, run_scenario, scenario_defaults  # noqa: E402
from sedlab.report import EMIT_KINDS  # noqa: E402


def digests(seed: int, jobs: int):
    """Yield the output lines of one jobs value."""
    ground_state = None
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in SCENARIO_NAMES:
            grid = replace(scenario_defaults(name)[1], seed=seed)
            report = run_scenario(name, grid=grid, jobs=jobs, out_dir=out, emit=EMIT_KINDS)
            report.write(out)
            if name == "ground_state":
                ground_state = report
        for path in sorted(out.iterdir()):
            yield f"jobs={jobs} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
    _, lines = criterion_9_properties(jobs=jobs, heisenberg_report=ground_state)
    for line in lines:
        yield f"jobs={jobs} criterion_9 {line.strip()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[202608])
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    for seed in args.seed:
        for jobs in args.jobs:
            for line in digests(seed, jobs):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
