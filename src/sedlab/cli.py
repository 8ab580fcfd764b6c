"""Batch command-line entry point.

Subcommands: ``list`` (scenario names), ``run`` (one scenario to a report),
``verify`` (full acceptance suite), ``analytic`` (closed forms without
simulation).  Exit codes: 0 success, 1 acceptance/report failure,
2 configuration error or a report holding a NaN or infinity.  Reports are canonical JSON (stable key order,
runtime excluded) so identical (scenario, config, seed) runs are
byte-identical for any ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import sys
from pathlib import Path

import numpy as np

from . import analytic
from .core import OMEGA_CUT_TAUS, GridSpec, SystemParams, validate
from .errors import InvalidParams, SedlabError
from .experiments import SCENARIO_NAMES, run_scenario, scenario_defaults
from .report import EMIT_KINDS

_PARAM_KEYS = {f.name for f in dataclasses.fields(SystemParams)}
_GRID_KEYS = {f.name for f in dataclasses.fields(GridSpec)}
_META_KEYS = {"scenario", "seed", "out", "emit", "jobs"}


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    # ValueError: malformed JSON or UTF-8, or an integer literal beyond the
    # interpreter's digit limit
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = set(data) - _PARAM_KEYS - _GRID_KEYS - _META_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _jobs(flag, file_cfg: dict) -> int:
    """Worker threads: the --jobs flag, else the config file's "jobs", else
    SEDLAB_JOBS, else 1; an integer >= 1."""
    if flag is not None:
        source, jobs = "--jobs", flag
    elif "jobs" in file_cfg:
        source, jobs = "config jobs", file_cfg["jobs"]
    else:
        source, jobs = "SEDLAB_JOBS", os.environ.get("SEDLAB_JOBS", "1")
        with contextlib.suppress(ValueError):
            jobs = int(jobs)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {jobs!r}")
    return jobs


def _resolve(scenario: str, file_cfg: dict, args) -> tuple[SystemParams, GridSpec, dict]:
    params, grid = scenario_defaults(scenario)
    pd = dataclasses.asdict(params)
    gd = dataclasses.asdict(grid)
    for key, val in file_cfg.items():
        if key in _PARAM_KEYS:
            pd[key] = val
        elif key in _GRID_KEYS:
            gd[key] = val
    if args.seed is not None:
        gd["seed"] = args.seed
    emit = args.emit or file_cfg.get("emit", ["report"])
    if not isinstance(emit, list):
        raise ConfigError(f"emit must be a list of flags, got {emit!r}")
    for flag in emit:
        if flag not in EMIT_KINDS:
            raise ConfigError(f"unknown emit flag {flag!r}; valid: {EMIT_KINDS}")
    out = args.out or file_cfg.get("out") or "sedlab_out"
    if not isinstance(out, str):
        raise ConfigError(f"out must be a directory name, got {out!r}")
    meta = {"out": out, "emit": tuple(emit), "jobs": _jobs(args.jobs, file_cfg)}
    return SystemParams(**pd), GridSpec(**gd), meta


def _cmd_list(args) -> int:
    for name in SCENARIO_NAMES:
        print(name)
    return 0


def _cmd_run(args) -> int:
    file_cfg = _load_config(args.config) if args.config else {}
    scenario = args.scenario or file_cfg.get("scenario")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    params, grid, meta = _resolve(scenario, file_cfg, args)
    if meta["emit"]:  # every emit kind writes files: make their directory before any member
        # runs (before validate, too, so a refused config may leave it behind, empty)
        try:
            Path(meta["out"]).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out {meta['out']!r} is not a writable directory: {exc}") from None

    report = run_scenario(scenario, params=params, grid=grid, jobs=meta["jobs"],
                          out_dir=meta["out"], emit=meta["emit"])
    if "report" in meta["emit"]:
        report.write(meta["out"])

    for line in report.summary_lines():
        print(line)
    print(f"runtime: {report.runtime:.1f}s", file=sys.stderr)
    ru = resource.getrusage(resource.RUSAGE_SELF)  # the whole process, ru_maxrss in KiB
    print(f"resources: user {ru.ru_utime:.2f}s sys {ru.ru_stime:.2f}s "
          f"minor_faults {ru.ru_minflt} peak_rss {ru.ru_maxrss / 1024:.1f}MB",
          file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    ok = run_all(jobs=_jobs(args.jobs, {}))
    print("acceptance suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _closed_forms(q: str, params: SystemParams, args) -> list:
    """The (name, value, format) triples that ``sedlab analytic`` prints."""
    if q == "ground_state":
        gs = analytic.ground_state(params)
        return [("x_var", gs.x_var, "g"), ("p_var", gs.p_var, "g"),
                ("mean_energy", gs.mean_energy, "g")]
    if q == "heisenberg":
        return [("x_var*p_var", analytic.heisenberg_product(params), "g")]
    if q == "commutators":
        c_xx, c_pp, c_xp = analytic.commutator_closed(params, args.t)
        return [(f"c_xx({args.t:g})", float(c_xx), "g"), ("c_pp", float(c_pp), "g"),
                ("c_xp", float(c_xp), "g")]
    if q == "energy_fluctuation":
        ef = analytic.energy_fluctuation(params, args.t)
        return [("recomputed", ef.recomputed, "g"), ("paper_printed", ef.paper_printed, "g"),
                ("window_exact", ef.window_exact, "g")]
    if q == "dipoles":
        dp = analytic.dipole_prediction(params)
        return [("x_plus_var", dp.x_plus_var, "g"), ("x_minus_var", dp.x_minus_var, "g"),
                ("cross", dp.cross_cov, "g"), ("mean_H", dp.mean_H, ".9g"),
                ("E_int_exact", dp.E_int_exact, "g"),
                ("E_int_paper_series", dp.E_int_paper_series, "g")]
    if q == "planck":
        return [("mean_energy", analytic.planck_prediction(params).mean_energy, ".9g")]
    if q == "free_particle":
        fp = analytic.free_particle(params, args.t, args.omega_c)
        return [("thermal_dx2", fp.thermal_dx2, "g"), ("thermal_v_var", fp.thermal_v_var, "g"),
                ("zpf_dx2", fp.zpf_dx2, "g"), ("zpf_dv2", fp.zpf_dv2, "g"),
                ("electron_size", fp.electron_size, "g")]
    raise ConfigError(f"unknown quantity {q!r}")


def _cmd_analytic(args) -> int:
    q = args.quantity
    free = q == "free_particle"
    tau_ok = 0 < args.tau < math.inf  # else validate lists it
    if args.omega_c is None and tau_ok:  # a run's default cutoff
        args.omega_c = OMEGA_CUT_TAUS / args.tau
    # the free particle reads tau and kT alone: no omega0, no coupling
    params = (SystemParams(tau=args.tau, omega0=0.0, kT=args.kT) if free
              else SystemParams(tau=args.tau, omega0=args.omega0, kT=args.kT, K=args.K))
    violations = []
    try:
        validate(params, oscillator=not free)
    except InvalidParams as exc:
        violations = exc.violations
    if not math.isfinite(args.t):
        violations.append(f"--t must be finite, got {args.t}")
    elif q in ("free_particle", "energy_fluctuation") and not args.t > 0:
        violations.append(f"--t must be > 0, got {args.t}")
    if free and tau_ok and not args.omega_c * args.tau > 1.0:
        # zpf_dv2 is (2 hbar/pi m tau) ln(omega_c tau); a bad tau is listed above
        violations.append(f"omega_c*tau = {args.omega_c * args.tau:g} must be > 1")
    if violations:
        raise InvalidParams(violations)
    with np.errstate(all="ignore"):  # a value that leaves float64 is refused below
        values = _closed_forms(q, params, args)
    overflow = [f"{name} = {value} is beyond float64 at these options"
                for name, value, _ in values if not math.isfinite(value)]
    if overflow:
        raise InvalidParams(overflow)
    print(" ".join(f"{name}={value:{fmt}}" for name, value, fmt in values))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedlab",
        description="Zeropoint-field simulation scenarios and their closed-form checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print scenario names").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    p_run.add_argument("--scenario", help="scenario name (see `sedlab list`)")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", help="output directory (default sedlab_out)")
    p_run.add_argument("--emit", nargs="+", metavar="KIND",
                       help="artifacts to write: report trajectories spectra")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="worker threads (default: config file, then "
                            "SEDLAB_JOBS, then 1); never changes results")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the full acceptance suite")
    p_ver.add_argument("--jobs", type=int, default=None,
                       help="worker threads (default: SEDLAB_JOBS, then 1)")
    p_ver.set_defaults(fn=_cmd_verify)

    p_ana = sub.add_parser("analytic", help="print closed forms, no simulation")
    p_ana.add_argument("--quantity", required=True,
                       choices=["ground_state", "heisenberg", "commutators",
                                "energy_fluctuation", "dipoles", "planck",
                                "free_particle"])
    p_ana.add_argument("--tau", type=float, default=0.01)
    p_ana.add_argument("--omega0", type=float, default=1.0)
    p_ana.add_argument("--kT", type=float, default=0.0)
    p_ana.add_argument("--K", type=float, default=0.0)
    p_ana.add_argument("--t", type=float, default=1.0,
                       help="lag or window length for time-dependent forms")
    p_ana.add_argument("--omega-c", dest="omega_c", type=float, default=None,
                       help="synthesis cutoff of free_particle's zpf_dv2 (default 5/tau)")
    p_ana.set_defaults(fn=_cmd_analytic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SedlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
