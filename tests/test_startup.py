"""Start-up: ``import sedlab`` loads numpy alone, and neither a scenario
nor the property suite loads scipy at all: scipy is the tests' oracle,
not a dependency of sedlab.

Each check runs in a fresh interpreter, since the test process has long
since imported scipy.
"""

import ast
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

#: Prints every scipy module loaded so far, as a JSON list.
SCIPY_LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')))")

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


def test_no_sedlab_module_imports_scipy():
    """At module level or inside a function: scipy is a test dependency."""
    found = []
    for path in sorted((SRC / "sedlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "scipy imports:\n" + "\n".join(found)


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
{SCIPY_LOADED}
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
{SCIPY_LOADED}
print(json.dumps(sorted(SCENARIO_NAMES)))
""")
    assert lines[:-2] == list(SMALL_GRIDS)
    assert lines[-2] == "[]"
    assert json.loads(lines[-1]) == sorted(SMALL_GRIDS)


def test_fourth_moment_first_made_at_jobs_2():
    """The fourth-moment property at jobs=2 as a process's first work: both
    pool threads integrate at once, no scipy module loads, and the result
    equals that at jobs=1."""
    lines = _run(f"""
import json, sys
from sedlab.acceptance import _property_fourth_moment
print(json.dumps(_property_fourth_moment(2)))
{SCIPY_LOADED}
""")
    assert json.loads(lines[0]) == list(_property_fourth_moment(1))
    assert lines[1] == "[]"


def test_property_suite_loads_no_scipy():
    """Criterion 9 whole: its Gaussianity test and its time-domain
    integrator are numpy's alone."""
    lines = _run(f"""
import json, sys
from sedlab.acceptance import criterion_9_properties
print(criterion_9_properties(jobs=1)[0])
{SCIPY_LOADED}
""")
    assert lines == ["True", "[]"]


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
