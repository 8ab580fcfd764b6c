import warnings
from dataclasses import replace

import pytest

from sedlab.core import (
    PLANCK,
    RAYLEIGH_JEANS,
    SCALE_MAX,
    ZPF,
    GridSpec,
    SystemParams,
    burn_in_samples,
    validate,
)
from sedlab.errors import InvalidParams


def test_accepts_reference_configuration():
    params = SystemParams(tau=0.01, omega0=1.0)
    grid = GridSpec(dt=0.005, n_samples=1 << 19, omega_cut=500.0)
    assert validate(params, grid) == (params, grid)


def test_rejects_damping_above_hard_limit():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.6, omega0=1.0), GridSpec(dt=0.05, n_samples=1 << 15, omega_cut=20.0))
    assert any("tau*omega0" in v for v in exc.value.violations)


def test_warns_between_soft_and_hard_limit():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate(SystemParams(tau=0.2, omega0=1.0),
                 GridSpec(dt=0.05, n_samples=1 << 15, omega_cut=20.0))
    assert any("soft limit" in str(w.message) for w in caught)


def test_rejects_nyquist_violation():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01), GridSpec(dt=0.01, n_samples=1 << 17, omega_cut=500.0))
    assert any("Nyquist" in v for v in exc.value.violations)


def test_reports_every_violation_at_once():
    with pytest.raises(InvalidParams) as exc:
        validate(
            SystemParams(tau=-1.0, m=0.0, kT=-2.0),
            GridSpec(dt=0.01, n_samples=1 << 17, omega_cut=500.0),
        )
    text = exc.value.violations
    assert len(text) >= 4  # tau, m, kT, Nyquist


def test_rejects_strong_dipole_coupling():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01, K=1.5),
                 GridSpec(dt=0.05, n_samples=1 << 15, omega_cut=20.0))
    assert any("normal modes" in v for v in exc.value.violations)


def test_default_cutoffs_resolved():
    _, grid = validate(SystemParams(tau=0.01), GridSpec(dt=0.005, n_samples=1 << 20))
    assert grid.omega_cut == pytest.approx(500.0)


def test_requires_cutoff_above_resonance():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01, omega0=2.0),
                 GridSpec(dt=0.05, n_samples=1 << 15, omega_cut=1.0))
    assert any("omega_cut" in v for v in exc.value.violations)


def test_validation_is_pure():
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.05, n_samples=1 << 16, omega_cut=20.0)
    assert validate(params, grid) == validate(params, grid)


def test_duration_guard_for_bound_particle():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01), GridSpec(dt=0.01, n_samples=1 << 12, omega_cut=20.0))
    assert any("100 periods" in v for v in exc.value.violations)


def test_burn_in_is_five_efolds():
    params = SystemParams(tau=0.01, omega0=1.0)
    # 10/(tau*omega0^2) = 1000 time units
    assert burn_in_samples(params, 0.1) == 10000
    assert burn_in_samples(SystemParams(tau=0.01, omega0=0.0), 0.1) == 0


def test_mode_params_split_frequencies():
    params = SystemParams(tau=0.01, K=0.1)
    plus = params.mode_params(+1)
    minus = params.mode_params(-1)
    assert plus.omega0 == pytest.approx(0.9 ** 0.5)
    assert minus.omega0 == pytest.approx(1.1 ** 0.5)
    assert plus.K == 0.0


def test_lists_type_violations_with_the_others():
    params = SystemParams(tau="0.01", m=True, kT=-1.0, K=float("nan"))
    grid = GridSpec(dt=None, n_samples=32768.0, n_ensemble=8.5, seed="abc",
                    omega_cut=None)
    with pytest.raises(InvalidParams) as exc:
        validate(params, grid)
    assert exc.value.violations == [
        "m must be a finite real number, got True",
        "tau must be a finite real number, got '0.01'",
        "K must be a finite real number, got nan",
        "dt must be a finite real number, got None",
        "n_samples must be an integer, got 32768.0",
        "n_ensemble must be an integer, got 8.5",
        "seed must be an integer, got 'abc'",
        "kT must be >= 0, got -1.0",
    ]


def test_run_scenario_rejects_a_wrong_type_before_any_member():
    from sedlab.experiments import run_scenario

    with pytest.raises(InvalidParams, match="n_samples must be an integer"):
        run_scenario("ground_state", grid=GridSpec(n_samples=float(1 << 16)))


def test_rejects_a_negative_seed():
    with pytest.raises(InvalidParams, match="seed must be >= 0, got -1"):
        validate(SystemParams(tau=0.01),
                 GridSpec(dt=0.05, n_samples=1 << 15, omega_cut=20.0, seed=-1))


def test_a_real_beyond_the_float_range_is_a_type_violation():
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01, kT=10 ** 400, K=float("inf")),
                 GridSpec(dt=0.05, n_samples=1 << 16, omega_cut=20.0))
    assert exc.value.violations == [
        f"kT must be a finite real number, got {10 ** 400!r}",
        "K must be a finite real number, got inf",
    ]


@pytest.mark.parametrize("grid, violation", [
    pytest.param(GridSpec(n_samples=10 ** 400),
                 f"n_samples must be an integer within int64, got {10 ** 400!r}",
                 id="n_samples"),
    pytest.param(GridSpec(n_samples=1 << 16, omega_cut=16.0, n_ensemble=10 ** 30),
                 f"n_ensemble must be an integer within int64, got {10 ** 30!r}",
                 id="n_ensemble"),
    pytest.param(GridSpec(omega_cut=16.0, seed=1 << 63),
                 f"seed must be an integer within int64, got {1 << 63!r}", id="seed"),
    pytest.param(GridSpec(n_samples=10 ** 5000),
                 "n_samples must be an integer within int64, got an integer of 16610 bits",
                 id="n_samples-too-long-to-print"),
    pytest.param(GridSpec(dt=1e303, omega_cut=1e-300),
                 "duration dt*n_samples = inf must be finite", id="duration"),
])
def test_an_integer_beyond_int64_or_an_infinite_duration_is_a_violation(grid, violation):
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=0.01, kT=-1.0), grid)
    assert sorted(exc.value.violations) == sorted([violation, "kT must be >= 0, got -1.0"])


def test_run_scenario_rejects_an_ensemble_beyond_int64_before_any_member():
    from sedlab.experiments import run_scenario

    grid = GridSpec(n_samples=1 << 16, omega_cut=16.0, n_ensemble=10 ** 30)
    with pytest.raises(InvalidParams, match="n_ensemble must be an integer within int64"):
        run_scenario("ground_state", grid=grid)


def test_a_temperature_or_frequency_whose_squares_leave_float64_is_a_violation():
    # omega0^2 used to raise OverflowError from validate itself; kT above
    # SCALE_MAX overflowed the runs' standard errors or Parseval sums
    with pytest.raises(InvalidParams) as exc:
        validate(SystemParams(tau=1e-160, omega0=1.4e154, K=1.0, kT=1e200),
                 GridSpec(dt=1e-160, n_samples=1 << 16, omega_cut=2e154))
    assert exc.value.violations[:2] == [
        "omega0 = 1.4e+154 is too large: omega0^2 leaves float64",
        "kT = 1e+200 exceeds 1e+100, beyond which a run's squared energies leave float64",
    ]
    params = SystemParams(kT=SCALE_MAX)
    assert validate(params) == (params, None)


SCALES = {"energy scale": "energy scale E", "x variance scale": "x variance scale E/(m*omega0^2)",
          "p variance scale": "p variance scale m*E", "hbar/m": "hbar/m", "kT/m": "kT/m"}


@pytest.mark.parametrize("changes, listed", [
    # hbar 1e200 overflowed planck_thermal's standard errors at kT 0.5
    (dict(hbar=1e200, kT=0.5), ["energy scale", "x variance scale", "p variance scale"]),
    (dict(hbar=1e-120), ["energy scale", "x variance scale", "p variance scale"]),
    (dict(m=1e120), ["x variance scale", "p variance scale"]),
    (dict(m=1e-120), ["x variance scale", "p variance scale"]),
    (dict(m=1e60, hbar=1e60), ["p variance scale"]),
    (dict(omega0=1e-320), ["energy scale", "x variance scale", "p variance scale"]),
    (dict(omega0=0.0, hbar=1e-120), ["hbar/m"]),
    (dict(omega0=0.0, m=1e-60, kT=1e60), ["kT/m"]),
    (dict(omega0=0.0, m=1e-120, kT=1.0), ["hbar/m", "kT/m"]),
    # free_thermal's standard errors underflowed to 0 at kT 1e-300
    (dict(omega0=0.0, kT=1e-300), ["kT/m"]),
])
def test_a_scale_whose_squares_leave_float64_is_a_violation(changes, listed):
    with pytest.raises(InvalidParams) as exc:
        validate(replace(SystemParams(), **changes))
    assert [v.split(" = ")[0] for v in exc.value.violations] == [SCALES[s] for s in listed]
    assert all("leave float64" in v for v in exc.value.violations)


@pytest.mark.parametrize("field, changes, listed", [
    # free_thermal's Rayleigh-Jeans field reads kT alone, free_zpf's and
    # ground_state's zeropoint field hbar alone, the Planck field both
    (RAYLEIGH_JEANS, dict(omega0=0.0, kT=1.0, hbar=1e-120), []),
    (RAYLEIGH_JEANS, dict(omega0=0.0, kT=1.0, hbar=1e300), []),
    (RAYLEIGH_JEANS, dict(omega0=0.0, kT=1e-300), ["kT/m"]),
    (ZPF, dict(omega0=0.0, kT=1e-120), []),
    (ZPF, dict(omega0=0.0, hbar=1e-120), ["hbar/m"]),
    (ZPF, dict(kT=1e150), []),
    (ZPF, dict(hbar=1e-120, kT=1.0), ["energy scale", "x variance scale", "p variance scale"]),
    (PLANCK, dict(hbar=1e200, kT=0.5), ["energy scale", "x variance scale", "p variance scale"]),
    (PLANCK, dict(kT=1e200), ["kT"]),
])
def test_the_scale_bounds_follow_the_field(field, changes, listed):
    params = replace(SystemParams(), **changes)
    if not listed:
        assert validate(params, field=field) == (params, None)
        return
    with pytest.raises(InvalidParams) as exc:
        validate(params, field=field)
    assert [v.split(" = ")[0] for v in exc.value.violations] == [SCALES.get(s, s) for s in listed]


@pytest.mark.parametrize("changes", [
    dict(hbar=SCALE_MAX), dict(hbar=1 / SCALE_MAX), dict(m=SCALE_MAX), dict(m=1 / SCALE_MAX),
    dict(hbar=1e-60, kT=1.0, m=1e60), dict(omega0=0.0, kT=0.0, hbar=1e90, m=1e-5),
    dict(omega0=0.0, kT=0.0), dict(kT=1e-300),
])
def test_scales_on_or_inside_the_bounds_are_admitted(changes):
    params = replace(SystemParams(), **changes)
    assert validate(params) == (params, None)
