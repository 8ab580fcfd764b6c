"""Acceptance suite: every criterion at its stated tolerance, full budget.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one pass/fail
line per criterion.  The same checks back ``sedlab verify``.
"""

import os

import numpy as np
import pytest

from sedlab.acceptance import (
    SCENARIO_CRITERIA,
    _property_fourth_moment,
    _property_periodogram_calibration,
    criterion_9_properties,
)
from sedlab.experiments import run_scenario

JOBS = int(os.environ.get("SEDLAB_JOBS", str(min(4, os.cpu_count() or 1))))

_cache = {}


def scenario_report(name):
    if name not in _cache:
        _cache[name] = run_scenario(name, jobs=JOBS)
    return _cache[name]


def _assert_report(criterion, name):
    report = scenario_report(name)
    failed = [r for r in report.rows if r.passed is False]
    status = "PASS" if not failed else "FAIL"
    print(f"\n{status} {criterion} [{name}] ({report.runtime:.1f}s)")
    for line in report.summary_lines()[1:]:
        print(line)
    assert not failed, f"{criterion}: " + "; ".join(
        f"{r.quantity} est={r.estimated:.6g} ana={r.analytic:.6g}" for r in failed
    )


def test_criterion_1_ground_state():
    _assert_report("criterion 1 (ground state moments + distributions)",
                   "ground_state")


def test_criterion_2_commutators():
    _assert_report("criterion 2 (commutators, both routes)", "commutators")


def test_criterion_3_energy_time():
    _assert_report("criterion 3 (energy-time uncertainty sweep)", "energy_time")


def test_criterion_4_coherent_decay():
    _assert_report("criterion 4 (coherent decay)", "coherent_decay")


def test_criterion_5_free_thermal():
    _assert_report("criterion 5 (thermal free particle)", "free_thermal")


def test_criterion_6_free_zpf():
    _assert_report("criterion 6 (zeropoint free particle)", "free_zpf")


def test_criterion_7_dipoles():
    _assert_report("criterion 7 (entangled dipoles)", "dipoles")


def test_criterion_8_planck():
    _assert_report("criterion 8 (Planck-spectrum oscillator)", "planck_thermal")


def test_criterion_9_property_suite():
    ok, lines = criterion_9_properties(
        jobs=JOBS, heisenberg_report=scenario_report("ground_state")
    )
    print(f"\n{'PASS' if ok else 'FAIL'} criterion 9 (property suite)")
    for line in lines:
        print(line)
    assert ok


def test_scenario_registry_covers_all_criteria():
    assert set(SCENARIO_CRITERIA.values()) == {
        "ground_state", "commutators", "energy_time", "coherent_decay",
        "free_thermal", "free_zpf", "dipoles", "planck_thermal",
    }


@pytest.mark.parametrize("check", [_property_fourth_moment,
                                   _property_periodogram_calibration])
def test_pooled_properties_independent_of_jobs(check):
    assert check(1) == check(2)


def test_fourth_moment_transforms_only_its_syntheses(monkeypatch):
    # its 51-lag correlations are direct sums: the padded transforms of the
    # correlation route would show as rfft calls
    irfft, calls = np.fft.irfft, []

    def no_rfft(*args, **kwargs):
        raise AssertionError("the fourth moment took a forward transform")

    monkeypatch.setattr(np.fft, "rfft", no_rfft)
    monkeypatch.setattr(np.fft, "irfft",
                        lambda *a, **k: calls.append(1) or irfft(*a, **k))
    _, ok = _property_fourth_moment(1)
    assert ok
    # one synthesized field per member of its 16
    assert len(calls) == 16
