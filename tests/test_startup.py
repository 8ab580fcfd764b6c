"""Start-up: ``import sedlab`` loads numpy alone, no scenario loads scipy
at all, and each scipy submodule that the property suite and the tests'
oracles use loads where it is first used.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from sedlab.acceptance import _property_fourth_moment
from sedlab.core import GridSpec
from sedlab.experiments import run_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

#: The scipy submodules that no import and no scenario set-up may load.
DEFERRED = ("scipy.signal", "scipy.stats", "scipy.integrate", "scipy.fft", "scipy.special")

#: Prints the deferred submodules loaded so far, as a JSON list.
LOADED = f"print(json.dumps(sorted(set({DEFERRED!r}) & set(sys.modules))))"

#: A small ground_state grid: enough members for the KS rows to run.
SMALL = dict(dt=0.1, n_samples=1 << 16, omega_cut=16.0, n_ensemble=8, seed=77)

#: Every scenario's default grid with these changes: small, but every row runs.
SMALL_GRIDS = {
    "commutators": dict(n_samples=1 << 16, n_ensemble=8),
    "energy_time": dict(dt=1.0, n_samples=1 << 17, omega_cut=3.0, n_ensemble=8),
    "coherent_decay": dict(n_ensemble=8),
    "free_thermal": dict(dt=0.01, n_samples=1 << 17, omega_cut=300.0, n_ensemble=8),
    "free_zpf": dict(n_samples=1 << 17, n_ensemble=8),
    "dipoles": dict(n_samples=1 << 17, n_ensemble=8),
    "ground_state": dict(n_samples=1 << 16, omega_cut=16.0, n_ensemble=8),
    "planck_thermal": dict(n_samples=1 << 16, n_ensemble=8),
}


def _run(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports sedlab from the
    source tree; returns its standard output lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_import_and_analytic_load_no_deferred_scipy():
    lines = _run(f"""
import json, runpy, sys
import sedlab, sedlab.acceptance, sedlab.cli
{LOADED}
sys.argv = ["sedlab", "analytic", "--quantity", "ground_state"]
try:
    runpy.run_module("sedlab", run_name="__main__")
except SystemExit as exc:
    print(exc.code)
{LOADED}
""")
    assert lines[0] == "[]"
    # after the printed values: the exit code, and nothing more loaded
    assert lines[-2:] == ["0", "[]"]


def test_trajectory_setups_load_no_deferred_scipy():
    """ground_state, planck_thermal and dipoles up to their first member,
    the set-up the benchmark times."""
    lines = _run(f"""
import json, sys
from sedlab import experiments

class FirstMember(Exception):
    pass

def stop(*args, **kwargs):
    raise FirstMember

experiments.ensemble_reduce = stop
for name in ("ground_state", "planck_thermal", "dipoles"):
    try:
        experiments.run_scenario(name)
    except FirstMember:
        print(name)
{LOADED}
""")
    assert lines == ["ground_state", "planck_thermal", "dipoles", "[]"]


def test_lag_spectra_setups_load_no_deferred_scipy():
    """commutators and energy_time up to their first ``ensemble_reduce``:
    the Hilbert route's analytic signal and its padding length are numpy's
    and sedlab's own, so no scipy module loads at all."""
    lines = _run(f"""
import json, sys
from sedlab import experiments

class FirstEnsemble(Exception):
    pass

def stop(*args, **kwargs):
    raise FirstEnsemble

experiments.ensemble_reduce = stop
for name in ("commutators", "energy_time"):
    try:
        experiments.run_scenario(name)
    except FirstEnsemble:
        print(name)
{LOADED}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")
    assert lines == ["commutators", "energy_time", "[]", "[]"]


def test_scenario_reports_load_no_scipy():
    """Every scenario's full report, members, KS p-values and coherent
    decay included: no scipy module loads at all."""
    lines = _run(f"""
import json, sys
from dataclasses import replace
from sedlab.experiments import SCENARIO_NAMES, run_scenario, scenario_defaults
for name, changes in {SMALL_GRIDS!r}.items():
    run_scenario(name, grid=replace(scenario_defaults(name)[1], **changes))
    print(name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(json.dumps(sorted(SCENARIO_NAMES)))
""")
    assert lines[:-2] == list(SMALL_GRIDS)
    assert lines[-2] == "[]"
    assert json.loads(lines[-1]) == sorted(SMALL_GRIDS)


def test_first_lfilter_import_from_two_pool_threads():
    """The fourth-moment property at jobs=2 as a process's first work: both
    pool threads reach the first ``lfilter`` import at once."""
    lines = _run(f"""
import json, sys
from sedlab.acceptance import _property_fourth_moment
{LOADED}
print(json.dumps(_property_fourth_moment(2)))
""")
    assert lines[0] == "[]"
    assert json.loads(lines[1]) == list(_property_fourth_moment(1))


def test_ground_state_report_first_made_at_jobs_2():
    """A cold process's first ground_state report, made at jobs=2, has the
    bytes of a report at jobs=1."""
    lines = _run(f"""
import json, sys
from sedlab.core import GridSpec
from sedlab.experiments import run_scenario
{LOADED}
print(run_scenario("ground_state", grid=GridSpec(**{SMALL!r}), jobs=2).to_json())
""")
    assert lines[0] == "[]"
    ref = run_scenario("ground_state", grid=GridSpec(**SMALL), jobs=1).to_json()
    assert "\n".join(lines[1:]) == ref
