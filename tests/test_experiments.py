import ast
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.stats import ks_2samp, kstest, kstwobign

import sedlab.experiments as experiments
from sedlab.core import ZPF, GridSpec, SystemParams, validate
from sedlab.dynamics import canonical_momentum, momentum_step, response_transfer
from sedlab.errors import InvalidParams, LagTooLong, SedlabError, UnknownScenario
from sedlab.estimators import (
    HILBERT_MARGIN,
    commutator_from_spectrum,
    decorrelated,
    fold,
    fold_bins,
    hilbert_commutator,
    hilbert_zero_functional,
    ks_critical,
    ks_sf,
    lag_count,
    mean_square_displacement,
    mean_square_displacement_variance,
    spectrum_from_power,
    window_samples,
    windowed_energy,
)
from sedlab.experiments import (
    N_GROUPS,
    SCENARIO_NAMES,
    ExperimentReport,
    Row,
    Workspace,
    _draw_fold,
    _energy,
    _energy_covariance,
    _fold_law,
    _gain_scale,
    _group_bounds,
    _lag_window,
    _mean_power,
    _momentum_commutator,
    _mean_stderr,
    _window_variance,
    _u_decorrelation_time,
    _x_decorrelation_time,
    _xp_correlations,
    draw_power_groups,
    join_members,
    run_scenario,
    scenario_defaults,
    sum_members,
)
from sedlab.noise import field_synthesis, member_seed, synthesis_band, synthesize_field
from sedlab.report import Emitter

FAST_GRID = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=16.0, n_ensemble=8, seed=420)


def test_unknown_scenario_lists_names():
    with pytest.raises(UnknownScenario) as exc:
        run_scenario("nosuch")
    msg = str(exc.value)
    for name in SCENARIO_NAMES:
        assert name in msg


def test_row_pass_policy():
    assert Row("q", 1.02, 0.0, 1.0, 0.03).passed
    assert not Row("q", 1.05, 0.0, 1.0, 0.03).passed
    # 3 sigma statistical allowance can rescue a noisy row
    assert Row("q", 1.05, 0.02, 1.0, 0.03).passed
    assert Row("q", 0.49, 0.0, 0.5, 0.0, kind="lower_bound").passed is False
    assert Row("q", 0.51, 0.0, 0.5, 0.0, kind="lower_bound").passed is True
    assert Row("q", 0.49, 0.01, 0.5, 0.0, kind="lower_bound").passed is True
    assert Row("q", 0.02, 0.0, 0.05, 0.0, kind="upper_bound").passed is True
    assert Row("q", 0.2, 0.0, 1.0, 0.0, kind="info").passed is None


def test_row_rel_error():
    assert Row("q", 1.1, 0.0, 1.0, 0.1).rel_error == pytest.approx(0.1)
    assert Row("q", 1.0, 0.0, 0.0, 0.1, kind="info").rel_error is None


def test_ground_state_small_budget_report():
    report = run_scenario("ground_state", grid=FAST_GRID)
    names = {r.quantity for r in report.rows}
    assert {"x_variance", "p_variance", "mean_energy", "position_ks",
            "energy_ks", "heisenberg_product"} <= names
    x_row = next(r for r in report.rows if r.quantity == "x_variance")
    assert x_row.analytic == 0.5
    assert abs(x_row.estimated - 0.5) < 0.1
    assert x_row.stderr > 0.0
    assert report.seed == 420
    assert report.config["grid"]["n_ensemble"] == 8


def test_report_is_deterministic_across_jobs():
    r1 = run_scenario("ground_state", grid=FAST_GRID, jobs=1)
    r4 = run_scenario("ground_state", grid=FAST_GRID, jobs=4)
    assert r1.to_json() == r4.to_json()
    # runtime is excluded from canonical JSON but kept on the object
    assert r1.runtime > 0.0
    assert "runtime" not in json.loads(r1.to_json())


def test_seed_changes_estimates_within_stderr():
    r1 = run_scenario("ground_state", grid=FAST_GRID)
    r2 = run_scenario("ground_state",
                      grid=GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=16.0,
                                    n_ensemble=8, seed=421))
    row1 = next(r for r in r1.rows if r.quantity == "x_variance")
    row2 = next(r for r in r2.rows if r.quantity == "x_variance")
    sigma = math.hypot(row1.stderr, row2.stderr)
    assert abs(row1.estimated - row2.estimated) < 4.0 * sigma
    assert row1.estimated != row2.estimated


def test_report_analytic_values_rederivable_from_config():
    from sedlab import analytic

    report = run_scenario("ground_state", grid=FAST_GRID)
    params = SystemParams(**report.config["params"])
    gs = analytic.ground_state(params)
    by_name = {r.quantity: r for r in report.rows}
    assert by_name["x_variance"].analytic == gs.x_var
    assert by_name["p_variance"].analytic == gs.p_var
    assert by_name["heisenberg_product"].analytic == analytic.heisenberg_product(params)


def test_report_csv_roundtrip(tmp_path):
    report = run_scenario("ground_state", grid=FAST_GRID)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("quantity,")
    assert len(lines) == len(report.rows) + 1


def test_emitted_artifacts(tmp_path):
    run_scenario("ground_state", grid=FAST_GRID, out_dir=tmp_path,
                 emit=("trajectories", "spectra"))
    assert (tmp_path / "ground_state_field.bin").exists()
    assert (tmp_path / "ground_state_field.json").exists()
    assert (tmp_path / "ground_state_x.bin").exists()
    assert (tmp_path / "ground_state_p.bin").exists()
    assert not list(tmp_path.glob("ground_state_v.*"))
    params, grid = validate(scenario_defaults("ground_state")[0], FAST_GRID)
    field = synthesize_field(ZPF, params, grid, member_seed(FAST_GRID.seed, 0))
    assert (tmp_path / "ground_state_field.bin").read_bytes() == field.samples.tobytes()


def _response(synthesis, H, seed):
    """X as a member forms it: the draw on H's bins, then times H in place."""
    X = synthesis.draw(seed, out=np.empty(H.size, dtype=complex))
    X *= H
    return X


@pytest.mark.parametrize("name", ["free_thermal", "dipoles", "commutators", "energy_time",
                                  "free_zpf"])
def test_emitted_trajectory_is_member_zero_at_every_jobs(name, tmp_path):
    grid = _default_grid(name, **SMALL_GRIDS[name])
    for jobs in (1, 2):
        run_scenario(name, grid=grid, jobs=jobs, out_dir=tmp_path / str(jobs),
                     emit=("trajectories",))
    names = sorted(f.name for f in (tmp_path / "1").iterdir())
    assert names == [f"{name}_{q}.{ext}" for q in "px" for ext in ("bin", "json")]
    assert names == sorted(f.name for f in (tmp_path / "2").iterdir())
    for f in names:
        assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes()
    params, grid = validate(scenario_defaults(name)[0], grid)
    _, _, field, _ = experiments.SCENARIO_DEFAULTS[name]
    synthesis = field_synthesis(field, params, grid)
    n = grid.n_samples
    if name == "dipoles":
        band = synthesis.j_max + 1
        xp, xm = (np.fft.irfft(_response(synthesis, response_transfer(
            params.mode_params(sign), grid)[0][:band], child), n)
            for sign, child in zip((+1, -1), member_seed(grid.seed, 0).spawn(2)))
        x = (xp + xm) / math.sqrt(2.0)
    else:
        H, _ = response_transfer(params, grid)
        x = np.fft.irfft(_response(synthesis, H, member_seed(grid.seed, 0)), n)
    assert (tmp_path / "1" / f"{name}_x.bin").read_bytes() == x.tobytes()


@pytest.mark.parametrize("name", ["ground_state", "dipoles"])
def test_emitted_sidecars_record_the_seed_of_member_zero(name, tmp_path):
    # the dipoles draw from children of member 0's seed; spawning them from
    # the recorded sequence would change its repr
    grid = _default_grid(name, **SMALL_GRIDS[name])
    run_scenario(name, grid=grid, out_dir=tmp_path, emit=("trajectories",))
    sidecars = sorted(tmp_path.glob("*.json"))
    assert len(sidecars) == (3 if name == "ground_state" else 2)
    for f in sidecars:
        assert json.loads(f.read_text())["seed"] == repr(member_seed(grid.seed, 0))


def test_scenario_defaults_are_validated():
    from sedlab.core import validate

    for name in SCENARIO_NAMES:
        params, grid = scenario_defaults(name)
        validate(params, grid)


def test_free_zpf_small_budget():
    grid = GridSpec(dt=0.01, n_samples=1 << 17, omega_cut=300.0,
                    n_ensemble=8, seed=5)
    report = run_scenario("free_zpf", grid=grid)
    by_name = {r.quantity: r for r in report.rows}
    slope = by_name["log_slope"]
    assert abs(slope.estimated - slope.analytic) < 0.5 * slope.analytic
    assert by_name["p_variance_zero"].estimated == 0.0


class _MeanGamma:
    """A generator whose every ``standard_gamma(m)`` draw is its mean m."""

    def standard_gamma(self, shape, out):
        out[...] = shape
        return out


def test_free_zpf_intercept_on_the_mean_power_is_the_band_constant(monkeypatch):
    # every group sum at its mean: the scenario's own fit on the exact mean
    # power, the row's value for an infinite ensemble, on the default grid
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _MeanGamma())
    grid = _default_grid("free_zpf", n_ensemble=2)
    row = next(r for r in run_scenario("free_zpf", grid=grid).rows
               if r.quantity == "euler_intercept")
    from sedlab import analytic

    assert row.analytic == analytic.free_particle(
        scenario_defaults("free_zpf")[0], 1.0, grid.omega_cut).zpf_log_constant
    assert abs(row.estimated - row.analytic) <= 0.01 * row.analytic
    # Euler's constant alone, which leaves out the band's term, is 9% off
    assert abs(row.estimated - analytic.EULER_GAMMA) > 0.05 * analytic.EULER_GAMMA


@pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", True, None])
def test_run_scenario_refuses_a_bad_jobs_before_any_member(jobs, monkeypatch):
    def no_members(*args, **kwargs):
        raise AssertionError("a member ran with a bad jobs")

    monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
    with pytest.raises(InvalidParams) as exc:
        run_scenario("ground_state", grid=FAST_GRID, jobs=jobs)
    assert exc.value.violations == [f"jobs must be an integer >= 1, got {jobs!r}"]


def test_dipoles_small_budget():
    grid = GridSpec(dt=0.1, n_samples=1 << 17, omega_cut=4.0,
                    n_ensemble=8, seed=6)
    report = run_scenario("dipoles", grid=grid)
    by_name = {r.quantity: r for r in report.rows}
    assert by_name["x_plus_variance"].analytic == pytest.approx(0.5270462766947299)
    info = by_name["interaction_energy_series"]
    assert info.passed is None
    assert info.estimated == pytest.approx(-0.0012539268896673, rel=1e-9)


def _default_grid(name, **changes):
    return replace(scenario_defaults(name)[1], **changes)


SMALL_GRIDS = {
    "commutators": dict(n_samples=1 << 16, n_ensemble=8),
    "free_thermal": dict(dt=0.01, n_samples=1 << 17, omega_cut=300.0, n_ensemble=8),
    "free_zpf": dict(n_samples=1 << 17, n_ensemble=8),
    "coherent_decay": dict(n_ensemble=24),
    "ground_state": dict(n_samples=1 << 16, omega_cut=16.0, n_ensemble=8),
    "planck_thermal": dict(n_samples=1 << 16, n_ensemble=8),
    "dipoles": dict(n_samples=1 << 17, n_ensemble=8),
    "energy_time": dict(dt=1.0, n_samples=1 << 17, omega_cut=3.0, n_ensemble=8),
}


@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_scenario_report_independent_of_jobs(name):
    # three threads take members in another order than two, so state left
    # in a reused workspace would show
    grid = _default_grid(name, **SMALL_GRIDS[name])
    reports = [run_scenario(name, grid=grid, jobs=jobs).to_json() for jobs in (1, 2, 3)]
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


@pytest.mark.parametrize("name, changes", [
    ("free_thermal", dict(hbar=1e-120)), ("free_thermal", dict(hbar=1e300)),
    ("free_zpf", dict(kT=1e-120)), ("ground_state", dict(kT=1e150)),
])
def test_a_scale_the_field_does_not_read_changes_no_row(name, changes):
    # validate refused these, bounding a scale that the scenario's field
    # (Rayleigh-Jeans: no hbar; zeropoint: no kT) never reads
    grid = _default_grid(name, **SMALL_GRIDS[name])
    params = scenario_defaults(name)[0]
    rows = [[row.to_dict() for row in run_scenario(name, p, grid).rows]
            for p in (params, replace(params, **changes))]
    assert rows[1] == rows[0]


@pytest.mark.parametrize("name, label", [("ground_state", "zpf"),
                                         ("planck_thermal", "planck(kT=0.5)")])
def test_field_sidecar_names_the_kind_and_the_temperature_it_reads(name, label, tmp_path):
    grid = _default_grid(name, **SMALL_GRIDS[name])
    run_scenario(name, grid=grid, out_dir=tmp_path, emit=("trajectories",))
    assert json.loads((tmp_path / f"{name}_field.json").read_text())["model"] == label


def test_report_holds_with_more_threads_than_cores_switching_often():
    grid = _default_grid("dipoles", **SMALL_GRIDS["dipoles"])
    serial = run_scenario("dipoles", grid=grid, jobs=1).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = run_scenario("dipoles", grid=grid, jobs=6).to_json()
    finally:
        sys.setswitchinterval(interval)
    assert stressed == serial


class _Captured(Exception):
    pass


def _member_worker(monkeypatch, name, grid):
    """The worker ``name`` hands to its first ensemble_reduce: a member's,
    or, where the scenario draws only group sums, a drawn group's."""
    captured = []

    def capture(worker, n_ensemble, jobs, reducer, state):
        captured.append(worker)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(experiments, "ensemble_reduce", capture)
        with pytest.raises(_Captured):
            run_scenario(name, grid=grid)
    return captured[0]


def _bytes(member):
    return {key: np.asarray(v).tobytes() for key, v in member.items()}


#: energy_time at its default dt: lags of 10,000 need 2^20 samples
WORKSPACE_GRIDS = dict(SMALL_GRIDS, energy_time=dict(n_ensemble=8))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_member_after_others_on_its_thread_equals_a_cold_member(name, monkeypatch):
    grid = _default_grid(name, **WORKSPACE_GRIDS[name])
    cold = _member_worker(monkeypatch, name, grid)(3)
    worker = _member_worker(monkeypatch, name, grid)
    for k in (5, 0, 1):
        worker(k)
    assert _bytes(worker(3)) == _bytes(cold)


def _member_from_children(seed, mode, synthesis, grid, x_dec, u_dec=None):
    """A mode's member values rebuilt from the three children of its seed:
    the power's exponentials from the first, the x fold from the second,
    the energy's (x, p) fold from the third."""
    n, dt = grid.n_samples, grid.dt
    H, T = response_transfer(mode, grid)
    power = _mean_power(synthesis, H)
    p_power = np.abs(T) ** 2 * power
    power_seed, x_seed, u_seed = seed.spawn(3)
    e = np.random.default_rng(power_seed).standard_exponential(synthesis.j_max)
    out = {"x_sq": 2.0 * power[1:] @ e / n ** 2, "p_sq": 2.0 * p_power[1:] @ e / n ** 2,
           "x_sub": decorrelated(_draw_fold(np.random.default_rng(x_seed),
                                            *_fold_law(power, n, dt, x_dec))[0], n, dt, x_dec)}
    if u_dec is not None:
        fx, fp = _draw_fold(np.random.default_rng(u_seed), *_fold_law(power, n, dt, u_dec, T,
                                                                        p_power))
        out["u_sub"] = _energy(mode, decorrelated(fx, n, dt, u_dec) ** 2,
                               decorrelated(fp, n, dt, u_dec) ** 2)
    return out


def _check_member(member, mode_index, ref):
    for key in ("x_sq", "p_sq"):
        assert member[f"{key}{mode_index}"] == pytest.approx(ref[key], rel=1e-12)
    for key in ("x_sub", "u_sub"):
        if key in ref:
            assert member[f"{key}{mode_index}"].tobytes() == ref[key].tobytes()


def test_dipole_member_draws_each_mode_from_one_child_of_its_seed(monkeypatch):
    grid = _default_grid("dipoles", **SMALL_GRIDS["dipoles"])
    member = _member_worker(monkeypatch, "dipoles", grid)(3)
    params, grid = validate(scenario_defaults("dipoles")[0], grid)
    synthesis = field_synthesis(ZPF, params, grid)
    x_dec = _x_decorrelation_time(params.mode_params(+1))
    for mode, sign, child in zip((0, 1), (+1, -1), member_seed(grid.seed, 3).spawn(2)):
        _check_member(member, mode, _member_from_children(
            child, params.mode_params(sign), synthesis, grid, x_dec))


def test_ground_state_member_draws_power_and_folds_from_three_children_of_its_seed(monkeypatch):
    grid = _default_grid("ground_state", **SMALL_GRIDS["ground_state"])
    member = _member_worker(monkeypatch, "ground_state", grid)(3)
    params, grid = validate(scenario_defaults("ground_state")[0], grid)
    _check_member(member, 0, _member_from_children(
        member_seed(grid.seed, 3), params, field_synthesis(ZPF, params, grid), grid,
        _x_decorrelation_time(params), _u_decorrelation_time(params)))


#: members per route in the drawn-against-band checks
ROUTE_MEMBERS = 600


@pytest.fixture(scope="module", params=[
    pytest.param(("ground_state", None), id="ground_state"),
    pytest.param(("planck_thermal", None), id="planck_thermal"),
    pytest.param(("dipoles", +1), id="dipoles-plus"),
    pytest.param(("dipoles", -1), id="dipoles-minus"),
])
def routes(request):
    """One steady-state mode on its scenario's small grid, ROUTE_MEMBERS
    members each by the drawn route (``_mode_members``) and by the band
    route (``oracles.band_mode_members``), at both the position and the
    energy spacing: each route's member values and the folded entries it
    transformed, (members, entries) arrays of x at the position spacing,
    and of x and p at the energy one, with the mode's mean power folded at
    those spacings."""
    name, sign = request.param
    _, _, field, _ = experiments.SCENARIO_DEFAULTS[name]
    params, grid = validate(scenario_defaults(name)[0], _default_grid(
        name, **dict(SMALL_GRIDS[name], n_ensemble=ROUTE_MEMBERS)), field=field)
    mode = params if sign is None else params.mode_params(sign)
    decs = (_x_decorrelation_time(mode), _u_decorrelation_time(mode))
    out = {}
    for route, module, run in (
            ("drawn", experiments, lambda: experiments._mode_members(
                name, field, params, grid, [mode], 1, Emitter(), *decs)),
            ("band", oracles, lambda: oracles.band_mode_members(
                field, params, grid, [mode], 1, *decs))):
        halves, original = [], module.decorrelated
        module.decorrelated = lambda half, *a: halves.append(np.array(half)) or original(half, *a)
        try:
            ens = run()
        finally:
            module.decorrelated = original
        out[route] = ens, [np.array(halves[i::3]) for i in range(3)]
    H, T = response_transfer(mode, grid)
    power = _mean_power(field_synthesis(field, params, grid), H)
    p_power = np.abs(T) ** 2 * power
    n, dt = grid.n_samples, grid.dt
    out["law"] = [fold(power, n, dt, decs[0]), fold(power, n, dt, decs[1]),
                  fold(p_power, n, dt, decs[1])]
    out["bins"] = [fold_bins(n, dt, t) for t in (decs[0], decs[1], decs[1])]
    return out


def _normalized(entries, variance, bins):
    """Folded entries over their law's sd, as (members, parts) real arrays:
    the real and imaginary parts of variance V/2 each, and of the real
    entries (r = 0 and, L even, L/2) the real part, of variance V."""
    real = np.zeros(variance.size, dtype=bool)
    real[0] = True
    real[-1] = bins % 2 == 0
    assert np.all(entries[:, real].imag == 0.0)
    sd = np.sqrt(np.where(real, variance, 0.5 * variance))
    return np.hstack([entries.real / sd, (entries.imag / sd)[:, ~real]])


def test_drawn_parseval_sums_follow_the_band_route(routes):
    (drawn, _), (band, _) = routes["drawn"], routes["band"]
    for key in ("x_sq0", "p_sq0"):
        d, b = drawn[key], band[key]
        assert abs(d.mean() - b.mean()) <= 4.0 * math.sqrt((d.var() + b.var()) / ROUTE_MEMBERS)
        # each variance's standard error, from the fourth central moment
        se = [math.sqrt((np.mean((v - v.mean()) ** 4) - v.var() ** 2) / ROUTE_MEMBERS)
              for v in (d, b)]
        assert abs(d.var() - b.var()) <= 4.0 * math.hypot(*se)
    # x^2 and p^2 of a member move together on both routes (one power)
    for ens in (drawn, band):
        assert np.corrcoef(ens["x_sq0"], ens["p_sq0"])[0, 1] > 0.99


def test_drawn_folds_follow_the_band_route(routes):
    members = ROUTE_MEMBERS
    for i, (variance, bins) in enumerate(zip(routes["law"], routes["bins"])):
        d, b = (_normalized(routes[route][1][i], variance, bins) for route in ("drawn", "band"))
        assert d.shape == b.shape == (members, bins)
        # every part's mean over the members (sd 1/sqrt(members) on each route)
        assert np.max(np.abs(d.mean(axis=0) - b.mean(axis=0))) <= 5.0 * math.sqrt(2.0 / members)
        # and its variance (sd sqrt(2/members)), each route's near the law's 1
        var_d, var_b = (np.mean(v ** 2, axis=0) for v in (d, b))
        assert np.max(np.abs(var_d - var_b)) <= 5.0 * math.sqrt(4.0 / members)
        for v in (var_d, var_b):
            assert abs(v.mean() - 1.0) <= 5.0 * math.sqrt(2.0 / v.size / members)
        assert ks_2samp(d.ravel(), b.ravel()).pvalue > 1e-3
        assert kstest(b.ravel(), "norm").pvalue > 1e-3


def test_drawn_energy_pair_covariance_follows_the_band_route(routes):
    # the empirical 2x2 covariance of the folded (x, p) entries at the energy
    # spacing, each entry normalized by sqrt(V_x V_p): it holds the mirror
    # bins' conj(T), which the diagonal alone would not show
    members = ROUTE_MEMBERS
    vx, vp = routes["law"][1:]
    covs = []
    for route in ("drawn", "band"):
        fx, fp = routes[route][1][1:]
        covs.append(np.array([np.mean(np.abs(fx) ** 2, axis=0) / vx,
                              np.mean(fp * np.conj(fx), axis=0) / np.sqrt(vx * vp),
                              np.mean(np.abs(fp) ** 2, axis=0) / vp]))
    # each normalized entry's sd is at most sqrt(2/members) on each route
    assert np.max(np.abs(covs[0] - covs[1])) <= 5.0 * math.sqrt(4.0 / members)
    # the cross term is not vacuous: x and p are strongly correlated in some bins
    assert np.max(np.abs(covs[1][1])) > 0.5


def test_heisenberg_stderr_matches_the_spread_over_ensembles():
    # a member's x^2 and p^2 correlate near 1, so the product's error is
    # sqrt(2) larger than independent errors would give: the stated stderr
    # is the spread of the product over independent small-grid ensembles
    grid = GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=16.0, n_ensemble=16)
    rows = [next(r for r in run_scenario("ground_state", grid=replace(grid, seed=seed)).rows
                 if r.quantity == "heisenberg_product") for seed in range(1, 201)]
    spread = np.std([r.estimated for r in rows], ddof=1)
    stated = math.sqrt(np.mean([r.stderr ** 2 for r in rows]))
    # 200 ensembles: the spread's own relative error is about 5%
    assert stated == pytest.approx(spread, rel=0.2)


def test_heisenberg_stderr_is_finite_at_a_far_action_scale():
    # at hbar = 1e100 the product is 2.5e199, whose square overflows: its
    # stderr must come from relative deviations, not from the product's own
    params = SystemParams(hbar=1e100, m=1.0, omega0=1.0, tau=0.05)
    grid = GridSpec(dt=0.25, n_samples=2514, omega_cut=10.0, n_ensemble=2)
    row = next(r for r in run_scenario("ground_state", params, grid).rows
               if r.quantity == "heisenberg_product")
    assert math.isfinite(row.estimated) and math.isfinite(row.stderr) and row.stderr > 0.0


@pytest.mark.parametrize("name, changes", [
    *(pytest.param(name, WORKSPACE_GRIDS[name], id=name)
      for name in ("commutators", "dipoles", "energy_time", "free_zpf", "ground_state",
                   "planck_thermal")),
    # dt = 1: the grid on which the T = 1 window is one sample, w = 1
    pytest.param("energy_time", SMALL_GRIDS["energy_time"], id="energy_time-one-sample"),
])
def test_warmed_member_allocates_less_than_one_series(name, changes, monkeypatch):
    grid = _default_grid(name, **changes)
    worker = _member_worker(monkeypatch, name, grid)
    worker(0)
    tracemalloc.start()
    try:
        worker(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n_samples


@pytest.mark.parametrize("name, per_member, per_operation, folds, hilbert", [
    # the ensemble window and the spectral c_xx (c_xp(0) per group is a
    # product with a functional, whose one transform is an rfft); on the
    # Hilbert route's padded lattice, the analytic signals of that
    # functional and of the window
    pytest.param("commutators", 0, 2, 0, 2, id="commutators-0-2"),
    # a window per group: every row is a functional of its correlations
    pytest.param("energy_time", 0, N_GROUPS, 0, 0, id="energy_time-0-8"),
    # folds of x at two strides and of p at one
    pytest.param("ground_state", 0, 0, 3, 0, id="ground_state-0-0"),
    # no position KS row: folds of x and of p at the energy's stride alone
    pytest.param("planck_thermal", 0, 0, 2, 0, id="planck_thermal-0-0"),
    # folds of x+ and x-
    pytest.param("dipoles", 0, 0, 2, 0, id="dipoles-0-0"),
    # a structure function per group, and the model variance of its lags
    pytest.param("free_zpf", 0, N_GROUPS + 1, 0, 0, id="free_zpf-0-9"),
])
def test_series_transforms_per_operation(name, per_member, per_operation, folds, hilbert,
                                         monkeypatch):
    # the momentum comes from x by its recursion, or from P = T X, never by a
    # transform of its own; KS subsamples are folds of at most n/32 points
    grid = _default_grid(name, **SMALL_GRIDS[name])
    lengths, sizes = [], []
    irfft = np.fft.irfft

    def counted(a, n=None, *args, **kw):
        lengths.append(n)
        sizes.append(np.size(a))
        return irfft(a, n, *args, **kw)

    monkeypatch.setattr(np.fft, "irfft", counted)
    run_scenario(name, grid=grid)
    n = grid.n_samples
    assert lengths.count(n) == per_member * grid.n_ensemble + per_operation
    # every n-point transform reads the band alone: irfft pads the zero tail
    band = synthesis_band(grid.dt, n, validate(scenario_defaults(name)[0], grid)[1].omega_cut)
    assert all(size == band + 1 for size, m in zip(sizes, lengths) if m == n)
    # commutators' Hilbert route pads its 2L + 1 lags to next_fast_len(4(2L + 1))
    pad = (next_fast_len(4 * (2 * lag_count(HILBERT_MARGIN * 100.0, grid.dt, n) + 1))
           if hilbert else None)
    assert lengths.count(pad) == hilbert
    folded = [m for m in lengths if m not in (n, pad)]
    assert len(folded) == folds * grid.n_ensemble
    assert all(32 * m <= n for m in folded)


def _steady_power(name, n_samples):
    """``name``'s validated parameters and default grid at n_samples, one
    member's |X_j|^2 and the gain T."""
    params, grid = scenario_defaults(name)
    params, grid = validate(params, replace(grid, n_samples=n_samples))
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(ZPF, params, grid)
    X = np.multiply(H, synthesis.draw(member_seed(grid.seed, 0)))
    return params, grid, np.abs(X) ** 2, T


def test_structure_function_model_variance_matches_the_spread_over_members():
    # free_zpf's fit weights: each |X_j|^2 is exponential, so the variance of
    # a member's structure function follows from the mean power alone
    params, grid = scenario_defaults("free_zpf")
    params, grid = validate(params, replace(grid, n_samples=1 << 16))
    n, dt, members = grid.n_samples, grid.dt, 400
    deltas = np.geomspace(100.0 * params.tau, (n // 10 - 1) * dt, 24)
    lags = np.array([lag_count(t, dt, n) for t in deltas])
    H, _ = response_transfer(params, grid)
    synthesis = field_synthesis(ZPF, params, grid)
    sf = np.array([
        mean_square_displacement(np.abs(
            _response(synthesis, H, member_seed(grid.seed, k))) ** 2, n, lags)
        for k in range(members)])
    # E|X_j|^2 = 2 |H_j|^2 amplitude_j^2 on the band
    power = np.zeros(n // 2 + 1)
    band = slice(1, synthesis.j_max + 1)
    power[band] = 2.0 * np.abs(H[band]) ** 2 * synthesis.amplitude ** 2
    model = mean_square_displacement_variance(power, n, lags)
    spread = sf.var(axis=0, ddof=1)
    # the spread's own standard error, from the fourth central moment
    dev4 = np.mean((sf - sf.mean(axis=0)) ** 4, axis=0)
    assert np.all(np.abs(spread - model) <= 4.0 * np.sqrt((dev4 - spread ** 2) / members))
    # the model is not vacuous: the spread varies over more than a decade
    assert spread.max() > 10.0 * spread.min()


@pytest.mark.parametrize("n_samples", [1 << 16, (1 << 16) + 1])
def test_lag_correlations_match_their_transforms(n_samples):
    params, grid, pw, T = _steady_power("energy_time", n_samples)
    n, lags = n_samples, np.arange(n_samples // 10)
    c = _xp_correlations(pw, 1.0 + T, np.abs(T) ** 2, momentum_step(params, grid.dt),
                         lags[-1], Workspace(n))
    for row, gain in zip(c, (1.0, np.abs(T) ** 2, T)):
        ref = np.fft.irfft(pw * gain, n)[lags] / n
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_window_variance_is_that_of_the_members_windows():
    # the member route as the reference: members' x = irfft(H E) in double,
    # p by its recursion, and windowed_energy at every window of energy_time's
    # sweep (w = 1 included); their pooled window variance about the exact
    # mean is Var U_T at the exact mean power 2 a^2 |H|^2
    params, grid = validate(scenario_defaults("energy_time")[0],
                            _default_grid("energy_time", **SMALL_GRIDS["energy_time"]))
    n, dt, members = grid.n_samples, grid.dt, 64
    sweep = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    assert window_samples(sweep[0], dt) == 1
    H, T = response_transfer(params, grid)
    synthesis = field_synthesis(ZPF, params, grid)
    power = np.zeros(H.size)
    power[1:] = 2.0 * np.square(np.abs(H[1:]) * synthesis.amplitude)
    scale = _gain_scale(params)
    c = _xp_correlations(power, 1.0 + T / scale, np.abs(T) ** 2, momentum_step(params, dt),
                         lag_count(max(sweep), dt, n), Workspace(n), scale)
    g = 0.5 * _energy_covariance(params, c)
    mw2, m = params.m * params.omega0 ** 2, params.m
    u_mean = 0.5 * (mw2 * c[0, 0] + c[1, 0] / m)
    spread = np.empty((members, len(sweep)))
    for k in range(members):
        x = np.fft.irfft(_response(synthesis, H, member_seed(grid.seed, k)), n)
        p = canonical_momentum(x, params, dt)
        energy = 0.5 * (mw2 * x ** 2 + p ** 2 / m)
        spread[k] = [np.mean((windowed_energy(energy, t, dt) - u_mean) ** 2) for t in sweep]
    model = [_window_variance(g, window_samples(t, dt)) for t in sweep]
    stderr = spread.std(axis=0, ddof=1) / math.sqrt(members)
    assert np.all(np.abs(spread.mean(axis=0) - model) <= 4.0 * stderr)


@pytest.mark.parametrize("name", ["commutators", "energy_time", "free_thermal", "free_zpf"])
def test_power_only_scenario_reduces_one_ensemble(name, monkeypatch):
    # one group draw, on one thread pool, and no member
    calls, reduce = [], experiments.ensemble_reduce

    def counted(*args):
        calls.append(args[1])
        return reduce(*args)

    monkeypatch.setattr(experiments, "ensemble_reduce", counted)
    run_scenario(name, grid=_default_grid(name, **SMALL_GRIDS[name]), jobs=2)
    assert calls == [N_GROUPS]


@pytest.mark.parametrize("n_samples", [1 << 16, (1 << 16) + 1])
def test_xp_zero_functional_matches_the_hilbert_route(n_samples):
    params, grid, pw, T = _steady_power("commutators", n_samples)
    n = grid.n_samples
    lag = lag_count(HILBERT_MARGIN * 100.0, grid.dt, n)
    w = _lag_window(pw, 1.0 + T, lag, Workspace(n))
    ref = hilbert_commutator(0.5 * (w - w[::-1]), 1)[0]
    assert abs(hilbert_zero_functional(1.0 + T, n, lag) @ pw - ref) <= 1e-12 * abs(ref)


def test_momentum_commutator_matches_the_spectral_route():
    params, grid, pw, T = _steady_power("commutators", 1 << 16)
    n, dt = grid.n_samples, grid.dt
    spec_x = spectrum_from_power(pw, n, dt)
    c_xx = commutator_from_spectrum(spec_x, n, dt, 100.0)
    ref = commutator_from_spectrum(spectrum_from_power(pw * np.abs(T) ** 2, n, dt),
                                   n, dt, 100.0)
    c_pp = _momentum_commutator(c_xx, spec_x, grid.domega, T,
                                momentum_step(params, dt))
    assert np.max(np.abs(c_pp - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_workspace_buffers_are_per_thread():
    ws = Workspace(1000)
    main = ws.spectrum(0)
    assert ws.spectrum(0) is main and main.shape == (501,)
    assert ws.series(0).shape == (1000,) and np.shares_memory(ws.series(0), main)
    other = []
    thread = threading.Thread(target=lambda: other.append(ws.spectrum(0)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not np.shares_memory(other[0], main)


@pytest.mark.parametrize("name", ["coherent_decay", "commutators", "dipoles",
                                  "energy_time", "ground_state", "planck_thermal"])
def test_oscillator_scenario_rejects_omega0_zero_before_any_member(name, monkeypatch):
    def no_members(*args, **kwargs):
        raise AssertionError("a member ran before validation")

    monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
    params = replace(scenario_defaults(name)[0], omega0=0.0)
    with pytest.raises(InvalidParams) as exc:
        run_scenario(name, params=params, grid=_default_grid(name, n_ensemble=0))
    assert "omega0 must be > 0, got 0.0" in exc.value.violations
    assert "n_ensemble must be >= 2, got 0" in exc.value.violations


def _check_group_sizes(n_ensemble):
    groups = _group_bounds(n_ensemble)
    sizes = [len(members) for members in groups]
    assert len(groups) == min(N_GROUPS, n_ensemble)
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    # consecutive runs that cover every member once, member k in group k * G // n
    assert [k for members in groups for k in members] == list(range(n_ensemble))
    for g, members in enumerate(groups):
        assert all(k * len(groups) // n_ensemble == g for k in members)


@pytest.mark.parametrize("n_ensemble", [1, 3, 4, 8, 12, 64, 100])
def test_group_sizes_count_every_member(n_ensemble):
    _check_group_sizes(n_ensemble)


def _synthetic_worker(k):
    """Cheap deterministic member: a scalar, a subsample and a summed array."""
    rng = np.random.default_rng(k)
    return {"k": k, "value": rng.standard_normal(),
            "sub": rng.standard_normal(3), "power": rng.standard_normal(5) ** 2}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_grouping_invariants_and_member_order(n_ensemble):
    _check_group_sizes(n_ensemble)
    joined = join_members(_synthetic_worker, n_ensemble, 1)
    # a scalar key is a 1-D array, a subsample key the pool, in member order
    assert np.array_equal(joined["k"], np.arange(n_ensemble))
    expected = [_synthetic_worker(k) for k in range(n_ensemble)]
    assert np.array_equal(joined["value"], [e["value"] for e in expected])
    assert np.array_equal(joined["sub"], np.concatenate([e["sub"] for e in expected]))
    groups = _group_bounds(n_ensemble)
    # the nonempty groups of k * N_GROUPS // n, in their order: for n >= 8
    # the same groups, below it each member a group of its own
    _, wide = np.unique(np.arange(n_ensemble) * N_GROUPS // n_ensemble, return_inverse=True)
    assert np.array_equal(wide, [g for g, members in enumerate(groups) for _ in members])
    acc = sum_members(_synthetic_worker, n_ensemble, 1)
    assert len(acc.groups) == len(groups)
    for group, members in zip(acc.groups, groups):
        assert group["k"] == sum(members)
        assert np.allclose(group["power"], np.sum([expected[k]["power"] for k in members], axis=0))
    assert np.allclose(acc.total("power"),
                       np.mean([e["power"] for e in expected], axis=0))


def _small_response(name, n_samples):
    """The ``field_synthesis`` and gain H of ``name``'s zeropoint field on
    its default grid at n_samples, a lattice too short for ``validate``."""
    params, grid = scenario_defaults(name)
    grid = replace(grid, n_samples=n_samples)
    return field_synthesis(ZPF, params, grid), response_transfer(params, grid)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_accumulator_identical_at_jobs_1_and_3(n_ensemble):
    synthesis, H = _small_response("commutators", 1 << 12)

    def digest(jobs):
        joined = join_members(_synthetic_worker, n_ensemble, jobs)
        acc = sum_members(_synthetic_worker, n_ensemble, jobs)
        drawn = draw_power_groups(synthesis, H, GridSpec(n_ensemble=n_ensemble, seed=7), jobs,
                                  lambda pw: {"window": np.cumsum(pw)})
        assert len(drawn.groups) == min(N_GROUPS, n_ensemble)
        return (joined["k"].tobytes(), _mean_stderr(joined["value"]), joined["sub"].tobytes(),
                [group["power"].tobytes() for group in acc.groups],
                acc.estimate(np.sum, "power"),
                [group["window"].tobytes() for group in drawn.groups],
                drawn.estimate(lambda w: w[-1], "window"))

    assert digest(1) == digest(3)


@pytest.mark.parametrize("route", ["members", "groups"])
def test_group_power_sums_follow_the_gamma_law(route):
    # the member route is the reference for the drawn groups: over its mean,
    # each bin's power summed over a group of m members is Gamma(m, 1),
    # independently per bin
    from scipy.stats import gamma, kstest

    synthesis, H = _small_response("commutators", 1 << 12)
    n_ensemble, m = 4 * N_GROUPS, 4
    mean = 2.0 * np.abs(H[1:]) ** 2 * synthesis.amplitude ** 2
    pooled, p_values = [], []
    for seed in range(6, 26):
        if route == "groups":
            groups = draw_power_groups(synthesis, H, GridSpec(n_ensemble=n_ensemble, seed=seed),
                                       1, lambda pw: {"power": pw}).groups
        else:
            groups = sum_members(
                lambda k: {"power": np.abs(_response(synthesis, H, member_seed(seed, k))) ** 2},
                n_ensemble, 1).groups
        sums = [group["power"] for group in groups]
        assert len(sums) == N_GROUPS and all(s[0] == 0.0 for s in sums)
        z = np.concatenate([s[1:] / mean for s in sums])
        pooled.append(z)
        p_values.append(kstest(z, gamma(m).cdf).pvalue)
    z = np.concatenate(pooled)
    # mean and variance m within 4 standard errors; Gamma(m, 1) has fourth
    # central moment 3 m^2 + 6 m
    assert abs(z.mean() - m) <= 4.0 * math.sqrt(m / z.size)
    assert abs(z.var() - m) <= 4.0 * math.sqrt((2 * m ** 2 + 6 * m) / z.size)
    # one seed's KS p-value is uniform over seeds
    assert kstest(p_values, "uniform").pvalue > 0.01


def test_group_means_are_formed_once_per_key():
    acc = sum_members(_synthetic_worker, 20, 1)
    seen = []
    first = acc.estimate(lambda m: seen.append(m) or float(m.sum()), "power")
    second = acc.estimate(lambda m: seen.append(m) or float(m.sum()), "power")
    assert first == second
    half = len(seen) // 2
    assert all(a is b for a, b in zip(seen[:half], seen[half:]))
    assert seen[half - 1] is acc.total("power")


@pytest.mark.parametrize("name", ["ground_state", "dipoles"])
def test_mode_members_join_their_members_in_member_order(name):
    # 11 members on 3 threads, each member's values in its place
    _, _, field, _ = experiments.SCENARIO_DEFAULTS[name]
    params, grid = validate(scenario_defaults(name)[0], _default_grid(
        name, **dict(SMALL_GRIDS[name], n_ensemble=11)), field=field)
    modes = [params] if name == "ground_state" else [params.mode_params(s) for s in (+1, -1)]
    x_dec = _x_decorrelation_time(modes[0])
    acc = experiments._mode_members(name, field, params, grid, modes, 3, Emitter(), x_dec)
    synthesis = field_synthesis(field, params, grid)
    for i, mode in enumerate(modes):
        members = [_member_from_children(experiments._mode_seeds(grid.seed, k, len(modes))[i],
                                         mode, synthesis, grid, x_dec) for k in range(11)]
        for key in ("x_sq", "p_sq"):
            assert acc[f"{key}{i}"] == pytest.approx(np.array([m[key] for m in members]),
                                                     rel=1e-12)
        pool = np.concatenate([m["x_sub"] for m in members])
        assert acc[f"x_sub{i}"].tobytes() == pool.tobytes()


def test_an_ensemble_starts_no_more_threads_than_members(monkeypatch):
    # jobs far beyond the members: only as many threads as there are members
    grid = _default_grid("coherent_decay", n_ensemble=N_GROUPS)
    serial = run_scenario("coherent_decay", grid=grid, jobs=1).to_json()
    threads, steady_state = set(), experiments._steady_state

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return steady_state(*args, **kwargs)

    monkeypatch.setattr(experiments, "_steady_state", recorded)
    assert run_scenario("coherent_decay", grid=grid, jobs=64).to_json() == serial
    assert 1 <= len(threads) <= grid.n_ensemble


@pytest.mark.parametrize("name, n_samples, n_ensemble", [
    ("commutators", 1 << 16, 4),
    ("commutators", 1 << 16, 12),
    ("coherent_decay", 1 << 15, 3),
])
def test_small_ensembles_give_finite_stderr(name, n_samples, n_ensemble):
    grid = _default_grid(name, n_samples=n_samples, n_ensemble=n_ensemble)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_scenario(name, grid=grid)
    assert all(math.isfinite(r.stderr) for r in report.rows)
    json.loads(report.to_json())


@pytest.mark.parametrize("n_ensemble", [1, 3])
def test_coherent_decay_runs_odd_and_single_member_ensembles(n_ensemble, monkeypatch):
    grid = _default_grid("coherent_decay", n_ensemble=n_ensemble)
    if n_ensemble == 1:
        # one member would report a standard error of 0: refused before it runs
        def no_members(*args, **kwargs):
            raise AssertionError("a member ran before validation")

        monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
        with pytest.raises(InvalidParams) as exc:
            run_scenario("coherent_decay", grid=grid)
        assert exc.value.violations == ["n_ensemble must be >= 2, got 1"]
        return
    report = run_scenario("coherent_decay", grid=grid)
    assert report.config["grid"]["n_ensemble"] == n_ensemble
    rows = json.loads(report.to_json())["rows"]
    assert all(math.isfinite(r["estimated"]) and math.isfinite(r["stderr"]) for r in rows)


@pytest.mark.parametrize("n_ensemble", [2, 3, 7])
@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_small_ensembles_give_honest_reports_at_every_jobs(name, n_ensemble):
    grid = _default_grid(name, **dict(SMALL_GRIDS[name], n_ensemble=n_ensemble))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = [run_scenario(name, grid=grid, jobs=jobs) for jobs in (1, 2)]
    assert all(math.isfinite(r.stderr) for r in reports[0].rows)
    assert reports[1].to_json() == reports[0].to_json()


def test_free_thermal_lag_beyond_the_periodicity_guard_is_refused(monkeypatch):
    import sedlab.experiments as experiments

    def no_members(*args, **kwargs):
        raise AssertionError("a member ran before the lags were checked")

    monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
    # the 100-unit lag is 10,000 samples, beyond n/10 = 6,553
    grid = _default_grid("free_thermal", **dict(SMALL_GRIDS["free_thermal"],
                                                n_samples=1 << 16))
    with pytest.raises(LagTooLong):
        run_scenario("free_thermal", grid=grid)


def test_free_zpf_lag_under_half_a_sample_is_refused(monkeypatch):
    def no_members(*args, **kwargs):
        raise AssertionError("a member ran before the lags were checked")

    monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
    # 100 tau = 1 is a third of dt: the shortest lag would be 0 samples
    grid = _default_grid("free_zpf", dt=3.0, n_samples=1 << 14, omega_cut=1.0)
    with pytest.raises(InvalidParams) as exc:
        run_scenario("free_zpf", grid=grid)
    assert exc.value.violations == ["shortest lag 100 tau = 1 is under dt/2 = 1.5"]


@pytest.mark.parametrize("n_samples, dt, omega_cut, longest", [
    (15, 0.01, 300.0, "0"),      # (n//10 - 1) dt = 0: geomspace refused a zero
    (8, 0.01, 300.0, "-0.01"),   # negative: log10 warned, then exit 2
    (512, 0.02, 155.5, "1"),     # = 100 tau: 24 equal lags, the SVD failed
])
def test_free_zpf_fit_lags_need_two_distinct_lags(n_samples, dt, omega_cut, longest,
                                                  monkeypatch, tmp_path, capsys):
    def no_members(*args, **kwargs):
        raise AssertionError("a member ran before the lags were checked")

    monkeypatch.setattr(experiments, "ensemble_reduce", no_members)
    changes = dict(n_samples=n_samples, dt=dt, omega_cut=omega_cut, n_ensemble=2)
    message = (f"longest lag (n//10 - 1)*dt = {longest} must exceed 100 tau = 1 "
               "by a sample: the log fit needs two distinct lags")
    with pytest.raises(InvalidParams) as exc:
        run_scenario("free_zpf", grid=_default_grid("free_zpf", **changes))
    assert exc.value.violations == [message]
    # listed with every other violation
    with pytest.raises(InvalidParams) as exc:
        run_scenario("free_zpf", grid=_default_grid("free_zpf", **dict(changes, seed=-1)))
    assert exc.value.violations == ["seed must be >= 0, got -1", message]

    from sedlab.cli import main

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(changes, scenario="free_zpf")))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_group_stderr_uses_actual_group_sizes():
    # at 12 members the groups hold 2 or 1; dividing by 1.5 instead would
    # bias the group means apart and inflate the stderr
    grid = _default_grid("commutators", n_samples=1 << 16, n_ensemble=12)
    row = next(r for r in run_scenario("commutators", grid=grid).rows
               if r.quantity == "c_xp_zero")
    assert row.stderr < 0.1 * row.analytic


def test_non_finite_report_is_refused():
    report = ExperimentReport(
        scenario="ground_state", config={}, runtime=0.0, seed=1,
        rows=[Row("ok", 1.0, 0.1, 1.0, 0.1),
              Row("bad_estimate", float("nan"), 0.1, 1.0, 0.1),
              Row("bad_stderr", 1.0, float("inf"), 1.0, 0.1)])
    with pytest.raises(SedlabError) as exc:
        report.to_json()
    assert str(exc.value).endswith("rows bad_estimate, bad_stderr")


KS_ROWS = {"ground_state": ("position_ks", "energy_ks"),
           "planck_thermal": ("energy_ks",),
           "dipoles": ("mode_plus_ks", "mode_minus_ks")}


@pytest.mark.parametrize("name", sorted(KS_ROWS))
def test_ks_rows_state_their_exact_p_value(name):
    grid = _default_grid(name, **SMALL_GRIDS[name])
    reports = [run_scenario(name, grid=grid, jobs=jobs) for jobs in (1, 2)]
    assert reports[1].to_json() == reports[0].to_json()
    rows = {r.quantity: r for r in reports[0].rows}
    for quantity in KS_ROWS[name]:
        row = rows[quantity]
        # the p-value is Kolmogorov's limit law, that of the critical value
        n, p = re.search(r"; n=(\d+), asymptotic p=(\S+)$", row.note).groups()
        n = int(n)
        assert row.analytic == ks_critical(n)
        assert p == f"{ks_sf(row.estimated, n):.4g}"
        assert float(p) == pytest.approx(kstwobign.sf(math.sqrt(n) * row.estimated), rel=1e-3)
        assert row.passed == (ks_sf(row.estimated, n) >= ks_sf(ks_critical(n), n))


@pytest.mark.parametrize("hbar, rel", [(4.0 ** 60, 1e-12), (4.0 ** -60, 1e-12),
                                       (1e80, 1e-6), (1e-90, 1e-6)])
def test_energy_time_at_a_far_action_scale_is_the_unit_report_scaled(hbar, rel):
    # the energy's squared correlations reach 1e160 at hbar = 1e80 and
    # 1e-180 at 1e-90; a power of four scales x and p by an exact power of two
    params = scenario_defaults("energy_time")[0]
    grid = _default_grid("energy_time", seed=1, **SMALL_GRIDS["energy_time"])
    unit = run_scenario("energy_time", params, grid).rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = run_scenario("energy_time", replace(params, hbar=hbar), grid).rows
    for s, u in zip(scaled, unit):
        assert s.estimated == pytest.approx(hbar * u.estimated, rel=rel, abs=0.0)
        assert s.stderr == pytest.approx(hbar * u.stderr, rel=rel, abs=0.0)



def test_energy_time_states_a_product_its_closed_form_puts_below_the_bound():
    # Delta U_T T >= hbar/2 fails for T below about 1/omega0 in the exact
    # ground state itself: that row is info, at its exact value
    from sedlab.analytic import energy_fluctuation

    params = scenario_defaults("energy_time")[0]
    grid = _default_grid("energy_time", **SMALL_GRIDS["energy_time"])
    rows = {r.quantity: r for r in run_scenario("energy_time", params, grid).rows}
    for t in (1, 10, 100, 1000, 10000):
        row = rows[f"uncertainty_product_T{t}"]
        t_eff = window_samples(t, grid.dt) * grid.dt
        exact = energy_fluctuation(params, t_eff).window_exact * t_eff
        if t == 1:
            assert exact < 0.5 * params.hbar
            assert (row.kind, row.analytic, row.passed) == ("info", exact, None)
            assert "hbar/2 = 0.5 " in row.note
        else:
            assert exact >= 0.5 * params.hbar
            assert (row.kind, row.analytic) == ("lower_bound", 0.5 * params.hbar)

#: numpy's single-precision names: every value in ``src/`` is double
SINGLE_NAMES = {"float32", "complex64", "single", "csingle"}


def _single_precision_uses(source: str) -> list:
    """Line numbers of the single-precision names in ``source``, as a name,
    an attribute or a string."""
    found = []

    def visit(node):
        if (isinstance(node, ast.Name) and node.id in SINGLE_NAMES
                or isinstance(node, ast.Attribute) and node.attr in SINGLE_NAMES
                or isinstance(node, ast.Constant) and node.value in SINGLE_NAMES):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_no_single_precision_name_in_src():
    src = Path(experiments.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py"))
             for line in _single_precision_uses(path.read_text())]
    assert not found, "single precision in src: " + str(found)
    # the guard sees a use as a string and as an attribute
    assert _single_precision_uses("def f(x):\n    return x.astype('single')\n") == [2]
    assert _single_precision_uses("import numpy as np\nx = np.float32(1.0)\n") == [2]


@pytest.mark.parametrize("kT, kind", [(1e3, "match"), (1e100, "info")])
def test_planck_thermal_hot_field_oracle_passes_or_is_info(kT, kind):
    params = replace(scenario_defaults("planck_thermal")[0], kT=kT)
    grid = _default_grid("planck_thermal", **SMALL_GRIDS["planck_thermal"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = {r.quantity: r for r in run_scenario("planck_thermal", params, grid).rows}
    row = rows["boltzmann_oracle"]
    assert row.kind == kind
    assert row.passed is (True if kind == "match" else None)
    assert ("unfinished" in row.note) is (kind == "info")


@pytest.mark.parametrize("name", ["commutators", "energy_time"])
@pytest.mark.parametrize("m", [4.0 ** 30, 4.0 ** -30])
def test_xp_correlations_hold_at_a_far_mass(name, m):
    # x scales by 1/sqrt(m) and p by sqrt(m), exactly at a power of four, so
    # every row is the unit mass's; 1 + T, with |T| ~ m omega0, lost C_xx
    # (m = 4^30) or C_xp (4^-30) to rounding in their one transform
    params = scenario_defaults(name)[0]
    grid = _default_grid(name, **SMALL_GRIDS[name])
    unit = run_scenario(name, params, grid).rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heavy = run_scenario(name, replace(params, m=m), grid).rows
    for h, u in zip(heavy, unit):
        assert h.estimated == pytest.approx(u.estimated, rel=1e-12, abs=0.0)
        assert h.stderr == pytest.approx(u.stderr, rel=1e-12, abs=0.0)
