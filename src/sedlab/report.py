"""Reports and artifact files, the one module that writes a file: the
``ExperimentReport`` as canonical JSON and as CSV, and the ``--emit``
artifacts of an ``Emitter``, sampled series as little-endian float64 with
a JSON sidecar and plot-ready curves as CSV."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteReport

#: Kinds of output ``--emit`` selects; a run writes only the kinds asked for.
EMIT_KINDS = ("report", "trajectories", "spectra")


@dataclass
class Row:
    """One report row.  A match row passes when |estimated - analytic| <=
    max(tolerance * |analytic|, 3 * stderr); bound rows are one-sided with
    the same 3-sigma allowance, and info rows neither pass nor fail."""

    quantity: str
    estimated: float
    stderr: float
    analytic: float
    tolerance: float
    kind: str = "match"  # match | lower_bound | upper_bound | info
    note: str = ""

    @property
    def rel_error(self) -> float | None:
        if self.analytic == 0.0:
            return None
        return (self.estimated - self.analytic) / abs(self.analytic)

    @property
    def passed(self) -> bool | None:
        if self.kind == "info":
            return None
        slack = 3.0 * self.stderr
        if self.kind == "match":
            return abs(self.estimated - self.analytic) <= max(
                self.tolerance * abs(self.analytic), slack
            )
        if self.kind == "lower_bound":
            return self.estimated >= self.analytic - slack
        if self.kind == "upper_bound":
            return self.estimated <= self.analytic + slack
        raise ValueError(f"unknown row kind {self.kind}")

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "estimated": self.estimated,
            "stderr": self.stderr,
            "analytic": self.analytic,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "pass": self.passed,
            "note": self.note,
        }


@dataclass
class ExperimentReport:
    scenario: str
    config: dict
    rows: list
    runtime: float
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)

    def to_dict(self, include_runtime: bool = True) -> dict:
        d = {
            "scenario": self.scenario,
            "config": self.config,
            "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
        }
        if include_runtime:
            d["runtime"] = self.runtime
        return d

    def to_json(self) -> str:
        """Canonical JSON: stable key order and no runtime, so that
        identical (name, params, grid, seed) give byte-identical reports.

        Raises NonFiniteReport, naming every offending row, instead of
        writing a NaN or infinity (which is not JSON).
        """
        d = self.to_dict(include_runtime=False)
        bad = [row["quantity"] for row in d["rows"]
               if any(isinstance(v, float) and not math.isfinite(v)
                      for v in row.values())]
        if bad:
            raise NonFiniteReport(
                f"scenario {self.scenario}: non-finite values in rows "
                + ", ".join(bad))
        try:
            return json.dumps(d, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NonFiniteReport(f"scenario {self.scenario}: {exc}") from exc

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["quantity", "estimated", "stderr", "analytic",
                         "rel_error", "tolerance", "kind", "pass", "note"])
            wr.writerows(r.to_dict().values() for r in self.rows)  # in that order

    def write(self, out_dir):
        """Write ``<scenario>_report.json`` and ``<scenario>_report.csv``
        under ``out_dir``.  A non-finite value raises before any write."""
        text = self.to_json()
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{self.scenario}_report.json").write_text(text)
        self.write_csv(out_dir / f"{self.scenario}_report.csv")

    def summary_lines(self):
        out = [f"scenario {self.scenario} (seed {self.seed})"]
        for r in self.rows:
            status = {True: "PASS", False: "FAIL", None: "INFO"}[r.passed]
            rel = "" if r.rel_error is None else f" rel={r.rel_error:+.3%}"
            out.append(
                f"  [{status}] {r.quantity}: est={r.estimated:.6g} "
                f"ana={r.analytic:.6g}{rel} (tol={r.tolerance:g}, stderr={r.stderr:.2g})"
            )
        return out


class Emitter:
    """Writes optional artifacts under an output directory."""

    def __init__(self, out_dir=None, emit=()):
        self.out_dir = Path(out_dir) if out_dir else None
        self.emit = set(emit)

    def wants(self, kind: str) -> bool:
        return self.out_dir is not None and kind in self.emit

    def _path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def dump(self, name: str, samples, dt: float, seed, model_label: str):
        """Write ``samples`` as ``<name>.bin``, little-endian float64, with the
        sidecar ``<name>.json`` (dt, n, repr of the seed, model label, dtype)."""
        path = self._path(name)
        path.with_suffix(".bin").write_bytes(np.asarray(samples, dtype="<f8").tobytes())
        meta = {"dt": dt, "n": int(np.asarray(samples).size), "seed": repr(seed),
                "model": model_label, "dtype": "<f8"}
        path.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=2))

    def series(self, scenario: str, quantity: str, first_name, first, values,
               stderr=None):
        """If ``wants("spectra")``, write ``<scenario>_<quantity>.csv`` with
        the columns ``first_name,value,stderr`` (stderr 0 when not given)."""
        if not self.wants("spectra"):
            return
        with open(self._path(f"{scenario}_{quantity}.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow([first_name, "value", "stderr"])
            se = stderr if stderr is not None else np.zeros(len(first))
            for row in zip(first, values, se):
                wr.writerow([repr(float(v)) for v in row])
