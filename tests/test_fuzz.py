"""Steered fuzz of every scenario and of ``sedlab analytic``: every
configuration that ``run_scenario`` accepts gives an honest report (its
canonical JSON is written, so no row holds a NaN or an infinity) with the
same bytes at every jobs, and every other one is refused with a
``SedlabError``; every ``sedlab analytic`` call prints finite values with
exit 0 or lists its violations with exit 2.  Neither gives a warning.

Configurations lie near each scenario's defaults: n_samples from 2 to
2^14 (odd ones included), dt scaled by 0.25-4, 2-9 members, omega_cut
None, the default or at Nyquist, and tau, kT and K inside the ranges
``validate`` admits and just outside them.  A random grid of at most
2^14 samples almost never resolves the oscillator's resonance, so most
draws take the shortest n_samples that passes the resonance, stationarity,
lag and fit-lag guards, or a few more.  energy_time reads lags of 10^4
and free_thermal of 100 time units, which need n >= 10^5/dt and
n >= 10^3/dt samples: their steered grids hold 2^18 samples at about 4x
the default dt, and they run fewer examples.
"""

import contextlib
import io
import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sedlab.cli import main
from sedlab.core import FIT_LAG_TAUS, KT_MAX
from sedlab.errors import SedlabError
from sedlab.estimators import HILBERT_MARGIN
from sedlab.experiments import run_scenario, scenario_defaults

MAX_SAMPLES = 1 << 14

#: the steered n_samples of the scenarios whose lags need more than 2^14
LONG_GRIDS = {"energy_time": 1 << 18, "free_thermal": 1 << 18}

#: the longest lag a scenario reads, in time units: lag_count needs
#: round(lag/dt) <= n//10
LONGEST_LAG = {"commutators": HILBERT_MARGIN * 100.0, "energy_time": 1e4, "free_thermal": 100.0}

#: validate's warning above tau*omega0 = 0.1, the one warning a run may give.
SOFT_LIMIT = r"tau\*omega0 = .* above the soft limit"


def _mostly(draw, inside, *outside):
    """A draw of ``inside`` seven times in eight, else one of ``outside``."""
    return draw(inside) if draw(st.integers(0, 7)) < 7 else draw(st.sampled_from(outside))


def _guarded_steps(name, params, cap):
    """(dt_lo, dt_hi, need): the steps dt in [dt_lo, dt_hi] at which some
    n_samples <= cap passes the scenario's grid guards, and need(dt), the
    fewest such samples."""
    tau, w0 = params.tau, params.omega0
    if name == "free_zpf":
        # the first fit lag, round(100 tau/dt), is a sample or more, and
        # (n//10 - 1) dt lies a sample or more above it
        def need(dt):
            return 10 * (round(FIT_LAG_TAUS * tau / dt) + 2)
        return FIT_LAG_TAUS * tau / (cap // 10 - 2), FIT_LAG_TAUS * tau / 0.6, need

    def need(dt):  # the lags; on an oscillator domega <= tau w0^2/4, and 100 periods
        lag = 10 * round(LONGEST_LAG.get(name, 0.0) / dt)
        if w0 == 0.0:
            return lag
        return max(lag, math.ceil(max(8.0 * math.pi / (dt * tau * w0 ** 2),
                                      200.0 * math.pi / (w0 * dt))))
    return need(1.0) / cap, math.inf, need


@st.composite
def configurations(draw, name):
    """(params, grid, both_jobs): one configuration near ``name``'s defaults,
    steered through the grid guards unless it draws a bad parameter or
    one of every four draws."""
    params, grid = scenario_defaults(name)
    cap = LONG_GRIDS.get(name, MAX_SAMPLES)
    tau_hi = 1.0 if params.omega0 == 0.0 else 0.5  # tau*omega0 < 0.5 on the oscillators
    tau = _mostly(draw, st.floats(0.25 * params.tau, tau_hi), 1e-4, 0.1, tau_hi, 0.0, -0.01)
    params = replace(params, tau=tau)
    if name in ("planck_thermal", "free_thermal"):
        kT = _mostly(draw, st.floats(0.0, 5.0), -1e-3, KT_MAX, 2.0 * KT_MAX)
        params = replace(params, kT=kT)
    if name == "dipoles":
        params = replace(params, K=_mostly(draw, st.floats(-0.999, 0.999), -1.0, 1.0))
    dt_lo, dt_hi = 0.25 * grid.dt, 4.0 * grid.dt
    steer = 0.0 < tau < tau_hi and draw(st.integers(0, 3)) < 3
    if steer:
        lo, hi, need = _guarded_steps(name, params, cap)
        steer = max(lo, dt_lo) < min(hi, dt_hi)
    if steer:
        dt = draw(st.floats(max(lo, dt_lo), min(hi, dt_hi)))
        n_samples = cap if name in LONG_GRIDS else draw(st.integers(min(need(dt), cap), cap))
    else:
        dt = draw(st.floats(dt_lo, dt_hi))
        n_samples = draw(st.integers(2, MAX_SAMPLES))
    # omega_cut None is 5/tau; a steered grid takes one within Nyquist
    nyquist = math.pi / dt
    cuts = [None, grid.omega_cut, nyquist, nyquist * (1 + 1e-9)]
    if steer:
        cuts = [c for c in cuts[:3] if params.omega0 < (5.0 / tau if c is None else c) <= nyquist]
    grid = replace(grid, dt=dt, n_samples=n_samples, omega_cut=draw(st.sampled_from(cuts)),
                   n_ensemble=draw(st.integers(2, 9)), seed=draw(st.integers(0, 2 ** 32)))
    return params, grid, draw(st.integers(0, 3)) == 0


def check_configuration(name, params, grid, both_jobs) -> bool:
    """Run one configuration with every warning but the soft limit an error;
    True if it gave a report, False if it was refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", SOFT_LIMIT, UserWarning)
        try:
            report = run_scenario(name, params, grid)
        except SedlabError:
            return False
        canonical = report.to_json()
        if both_jobs:
            assert run_scenario(name, params, grid, jobs=2).to_json() == canonical
    return True


@pytest.mark.parametrize("name", ["ground_state", "planck_thermal", "dipoles", "free_zpf",
                                  "commutators", "coherent_decay"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configuration_gives_a_report_or_a_refusal(name, data):
    check_configuration(name, *data.draw(configurations(name)))


@pytest.mark.parametrize("name", ["energy_time", "free_thermal"])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_long_lag_configuration_gives_a_report_or_a_refusal(name, data):
    check_configuration(name, *data.draw(configurations(name)))


#: ``sedlab analytic``'s options and their defaults
ANALYTIC_OPTIONS = {"--tau": 0.01, "--omega0": 1.0, "--kT": 0.0, "--K": 0.0, "--t": 1.0,
                    "--omega-c": 500.0}
QUANTITIES = ["ground_state", "heisenberg", "commutators", "energy_fluctuation", "dipoles",
              "planck", "free_particle"]


@st.composite
def analytic_argv(draw):
    """``sedlab analytic`` with each option at its default, a value within
    a factor of 10^3 of it (either sign), or any float: subnormal, huge,
    infinite or NaN.  The one warning it may give is the soft limit's."""
    argv = ["analytic", "--quantity", draw(st.sampled_from(QUANTITIES))]
    for flag, default in ANALYTIC_OPTIONS.items():
        value = draw(st.one_of(
            st.just(default),
            st.builds(lambda sign, e: sign * (default or 1.0) * 10.0 ** e,
                      st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0)),
            st.floats(allow_nan=True, allow_infinity=True)))
        argv.append(f"{flag}={value!r}")  # "=": a value like -1e-05 is no flag
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=analytic_argv())
def test_fuzzed_analytic_prints_finite_values_or_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", SOFT_LIMIT, UserWarning)
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert code == 0 and err.getvalue() == ""
        assert all(math.isfinite(float(pair.rpartition("=")[2])) for pair in out.getvalue().split())
