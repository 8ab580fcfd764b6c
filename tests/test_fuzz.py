"""Steered fuzz of the steady-state scenarios: every configuration that
``run_scenario`` accepts gives an honest report (its canonical JSON is
written, so no row holds a NaN or an infinity) with the same bytes at
every jobs, and every other one is refused with a ``SedlabError``.

Configurations lie near each scenario's defaults: n_samples from 2 to
2^14 (odd ones included), dt scaled by 0.25-4, 2-9 members, omega_cut
None, the default or at Nyquist, and tau, kT and K inside the ranges
``validate`` admits and just outside them.  A random grid of at most
2^14 samples almost never resolves the oscillator's resonance, so most
draws take the shortest n_samples that passes the resonance, stationarity
and fit-lag guards, or a few more.
"""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sedlab.core import FIT_LAG_TAUS
from sedlab.errors import SedlabError
from sedlab.experiments import run_scenario, scenario_defaults

MAX_SAMPLES = 1 << 14

#: validate's warning above tau*omega0 = 0.1, the one warning a run may give.
SOFT_LIMIT = r"tau\*omega0 = .* above the soft limit"


def _mostly(draw, inside, *outside):
    """A draw of ``inside`` seven times in eight, else one of ``outside``."""
    return draw(inside) if draw(st.integers(0, 7)) < 7 else draw(st.sampled_from(outside))


def _guarded_steps(name, params):
    """(dt_lo, dt_hi, need): the steps dt in [dt_lo, dt_hi] at which some
    n_samples <= 2^14 passes the scenario's grid guards, and need(dt), the
    fewest such samples."""
    tau = params.tau
    if name == "free_zpf":
        # the first fit lag, round(100 tau/dt), is a sample or more, and
        # (n//10 - 1) dt lies a sample or more above it
        def need(dt):
            return 10 * (round(FIT_LAG_TAUS * tau / dt) + 2)
        return FIT_LAG_TAUS * tau / (MAX_SAMPLES // 10 - 2), FIT_LAG_TAUS * tau / 0.6, need
    w0 = params.omega0

    def need(dt):  # domega <= tau w0^2/4, and 100 periods
        return math.ceil(max(8.0 * math.pi / (dt * tau * w0 ** 2), 200.0 * math.pi / (w0 * dt)))
    return need(1.0) / MAX_SAMPLES, math.inf, need


@st.composite
def configurations(draw, name):
    """(params, grid, both_jobs): one configuration near ``name``'s defaults,
    steered through the grid guards unless it draws a bad parameter or
    one of every four draws."""
    params, grid = scenario_defaults(name)
    tau_hi = 1.0 if name == "free_zpf" else 0.5  # tau*omega0 < 0.5 on the oscillators
    tau = _mostly(draw, st.floats(0.25 * params.tau, tau_hi), 1e-4, 0.1, tau_hi, 0.0, -0.01)
    params = replace(params, tau=tau)
    if name == "planck_thermal":
        params = replace(params, kT=_mostly(draw, st.floats(0.0, 5.0), -1e-3))
    if name == "dipoles":
        params = replace(params, K=_mostly(draw, st.floats(-0.999, 0.999), -1.0, 1.0))
    dt_lo, dt_hi = 0.25 * grid.dt, 4.0 * grid.dt
    steer = 0.0 < tau < tau_hi and draw(st.integers(0, 3)) < 3
    if steer:
        lo, hi, need = _guarded_steps(name, params)
        steer = max(lo, dt_lo) < min(hi, dt_hi)
    if steer:
        dt = draw(st.floats(max(lo, dt_lo), min(hi, dt_hi)))
        n_samples = draw(st.integers(min(need(dt), MAX_SAMPLES), MAX_SAMPLES))
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


@pytest.mark.parametrize("name", ["ground_state", "planck_thermal", "dipoles", "free_zpf"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configuration_gives_a_report_or_a_refusal(name, data):
    check_configuration(name, *data.draw(configurations(name)))
