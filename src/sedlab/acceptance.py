"""Acceptance criteria: one callable check per criterion.

Each check returns (name, passed, detail lines).  The scenario-backed
criteria reuse the experiment reports; the property criterion bundles the
cross-cutting checks (noise Gaussianity, periodogram calibration,
linearity, Gaussian fourth moment, commutator structure, Heisenberg
product, and jobs-determinism of reports).

``run_all`` executes everything at the default desk-scale budget
(64 x 2^20 samples per scenario) and prints one pass/fail line per
criterion; the CLI ``verify`` subcommand and the pytest acceptance module
both drive it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import analytic
from .core import ZPF, GridSpec, SystemParams, validate
from .dynamics import canonical_momentum, simulate_oscillator
from .estimators import commutator, correlation, periodogram
from .experiments import run_scenario, sum_members
from .noise import FieldRealization, field_synthesis, member_seed, synthesize_field
from .spectra import field_spectrum

SCENARIO_CRITERIA = {
    "criterion_1_ground_state": "ground_state",
    "criterion_2_commutators": "commutators",
    "criterion_3_energy_time": "energy_time",
    "criterion_4_coherent_decay": "coherent_decay",
    "criterion_5_free_thermal": "free_thermal",
    "criterion_6_free_zpf": "free_zpf",
    "criterion_7_dipoles": "dipoles",
    "criterion_8_planck": "planck_thermal",
}


def _normality(x: np.ndarray) -> tuple[float, float, float]:
    """D'Agostino-Pearson test of a sample's normality: (K^2, p, excess
    kurtosis), from the biased sample moments m2, m3, m4 (n >= 20).

    K^2 = Z_s^2 + Z_k^2, with Z_s the skewness test of D'Agostino (1970),
    a Johnson S_U transform of sqrt(b1) = m3/m2^1.5, and Z_k the kurtosis
    test of Anscombe & Glynn (Biometrika 70, 1983), a Wilson-Hilferty cube
    root of the standardized b2 = m4/m2^2 (D'Agostino & Pearson,
    Biometrika 60, 1973).  Under normality K^2 is asymptotically chi^2
    with 2 degrees of freedom, whose survival function is exp(-K^2/2).
    The same statistic as ``scipy.stats.normaltest``, and b2 - 3 is
    ``scipy.stats.kurtosis``.
    """
    n = x.size
    d = x - x.mean()
    d2 = d * d
    m2 = d2.mean()
    g1 = (d2 * d).mean() / m2 ** 1.5
    b2 = (d2 * d2).mean() / m2 ** 2.0

    y = g1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9)))
    w2 = math.sqrt(2.0 * (beta2 - 1.0)) - 1.0
    z_skew = math.asinh(y * math.sqrt(0.5 * (w2 - 1.0))) / math.sqrt(0.5 * math.log(w2))

    mean_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + math.sqrt(1.0 + 4.0 / sqrt_beta1 ** 2))
    denom = 1.0 + (b2 - mean_b2) / math.sqrt(var_b2) * math.sqrt(2.0 / (a - 4.0))
    cube = math.copysign(((1.0 - 2.0 / a) / abs(denom)) ** (1.0 / 3.0), denom)
    z_kurt = (1.0 - 2.0 / (9.0 * a) - cube) / math.sqrt(2.0 / (9.0 * a))

    k2 = z_skew * z_skew + z_kurt * z_kurt
    return k2, math.exp(-0.5 * k2), b2 - 3.0


def _property_noise_gaussianity(jobs: int) -> tuple[list[str], bool]:
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=20.0, seed=4205)
    validate(params, grid)
    field = synthesize_field(ZPF, params, grid, member_seed(grid.seed, 0))
    _, pvalue, kurt = _normality(field.samples)
    ok = pvalue >= 1e-3
    return [f"{'PASS' if ok else 'FAIL'} normality p={pvalue:.4f} "
            f"(need >= 1e-3), excess kurtosis {kurt:+.4f}"], ok


def _member_fields(field: str, params: SystemParams, grid: GridSpec):
    """Member k's realization of the field of kind ``field``,
    ``synthesize_field`` of ``member_seed(grid.seed, k)`` bit for bit, from a
    synthesis set up once."""
    synthesis = field_synthesis(field, params, grid)

    def member(k):
        seed = member_seed(grid.seed, k)
        return FieldRealization(grid.dt, np.fft.irfft(synthesis.draw(seed), grid.n_samples))

    return member


def _property_periodogram_calibration(jobs: int) -> tuple[list[str], bool]:
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=20.0, seed=515, n_ensemble=64)
    validate(params, grid)
    field = _member_fields(ZPF, params, grid)

    def worker(k):
        return {"spectrum": periodogram(field(k).samples, grid.dt)}

    mean_spec = sum_members(worker, grid.n_ensemble, jobs).total("spectrum")
    omega = grid.domega * np.arange(1, mean_spec.size + 1)
    target = field_spectrum(ZPF, params, omega)

    lo, hi = params.omega0 / 2.0, min(grid.omega_cut, 10.0 * params.omega0)
    edges = np.geomspace(lo, hi, 13)
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (omega >= a) & (omega < b)
        ratio = mean_spec[sel].sum() / target[sel].sum()
        worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 0.05
    return [f"{'PASS' if ok else 'FAIL'} band ratios within {worst:.3%} of 1 "
            "(need 5%) on [w0/2, 10 w0]"], ok


def _property_linearity(jobs: int) -> tuple[list[str], bool]:
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=10.0, seed=99)
    validate(params, grid)
    f1 = synthesize_field(ZPF, params, grid, member_seed(grid.seed, 0))
    f2 = synthesize_field(ZPF, params, grid, member_seed(grid.seed, 1))
    a, b = 0.7, -1.3
    combo = replace(f1, samples=a * f1.samples + b * f2.samples)
    x1 = simulate_oscillator(params, f1)
    x2 = simulate_oscillator(params, f2)
    xc = simulate_oscillator(params, combo)
    scale = np.max(np.abs(xc))
    dev = np.max(np.abs(xc - (a * x1 + b * x2))) / scale
    ok = dev < 1e-10
    return [f"{'PASS' if ok else 'FAIL'} superposition deviation {dev:.2e} "
            "(need < 1e-10 of range)"], ok


def _property_fourth_moment(jobs: int) -> tuple[list[str], bool]:
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.1, n_samples=1 << 18, omega_cut=20.0, seed=808, n_ensemble=16)
    validate(params, grid)
    field = _member_fields(ZPF, params, grid)

    def worker(k):
        x = simulate_oscillator(params, field(k))
        c = correlation(x, x, 5.0, grid.dt)
        x2 = x ** 2
        c2 = correlation(x2, x2, 5.0, grid.dt)
        # Gaussian identity: <x(t)^2 x(t')^2> - <x^2>^2 - 2 <x(t)x(t')>^2 = 0
        return {"resid": c2 - 2.0 * c ** 2}

    resid = sum_members(worker, grid.n_ensemble, jobs).total("resid")
    scale = 2.0 * analytic.ground_state(params).x_var ** 2
    worst = float(np.max(np.abs(resid)) / scale)
    ok = worst < 0.10
    return [f"{'PASS' if ok else 'FAIL'} fourth-moment residual {worst:.3%} of "
            f"2<x^2>^2 over lags [0,5] with {grid.n_ensemble} members "
            "(need < 10%, sampling error)"], ok


def _property_commutator_structure(jobs: int) -> tuple[list[str], bool]:
    params = SystemParams(tau=0.01)
    grid = GridSpec(dt=0.1, n_samples=1 << 18, omega_cut=20.0, seed=3111)
    validate(params, grid)
    f = synthesize_field(ZPF, params, grid, member_seed(grid.seed, 0))
    x = simulate_oscillator(params, f)
    p = canonical_momentum(x, params, grid.dt)

    # an auto-commutator is odd, so c(0) = 0; the Hilbert route does not
    # write it, it computes it
    rx = commutator(x, x, 40.0, grid.dt)
    c0 = float(abs(rx[0]) / np.max(np.abs(rx)))
    odd_ok = c0 <= 1e-12

    # linearity: [a f + b g, h] = a [f,h] + b [g,h] within estimator noise
    a, b = 0.6, 1.7
    combo = a * x + b * p
    lhs = commutator(combo, x, 40.0, grid.dt)
    rp = commutator(p, x, 40.0, grid.dt)
    rhs = a * rx + b * rp
    scale = np.max(np.abs(rhs))
    dev = float(np.max(np.abs(lhs - rhs)) / scale)
    lin_ok = dev < 1e-9
    ok = odd_ok and lin_ok
    return [
        f"{'PASS' if odd_ok else 'FAIL'} auto-commutator |c(0)| {c0:.1e} of its peak, "
        "Hilbert route (need <= 1e-12)",
        f"{'PASS' if lin_ok else 'FAIL'} commutator linearity deviation {dev:.2e}",
    ], ok


def _property_determinism(jobs: int) -> tuple[list[str], bool]:
    grid = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=16.0, n_ensemble=8, seed=77)
    r1 = run_scenario("ground_state", grid=grid, jobs=1)
    r2 = run_scenario("ground_state", grid=grid, jobs=4)
    ok = r1.to_json() == r2.to_json()
    return [f"{'PASS' if ok else 'FAIL'} reports bit-identical for jobs=1 vs jobs=4"], ok


def criterion_9_properties(jobs: int = 1, heisenberg_report=None):
    """Property suite: noise and estimator calibration plus determinism."""
    lines = []
    all_ok = True
    for fn in (
        _property_noise_gaussianity,
        _property_periodogram_calibration,
        _property_linearity,
        _property_fourth_moment,
        _property_commutator_structure,
        _property_determinism,
    ):
        sub, ok = fn(jobs)
        lines.extend("  " + s for s in sub)
        all_ok = all_ok and ok
    if heisenberg_report is not None:
        row = next(r for r in heisenberg_report.rows
                   if r.quantity == "heisenberg_product")
        ok = bool(row.passed)
        lines.append(f"  {'PASS' if ok else 'FAIL'} Heisenberg product "
                     f"{row.estimated:.5f} vs 0.25 (tol 6%)")
        all_ok = all_ok and ok
    return all_ok, lines


def run_all(jobs: int = 1) -> bool:
    """Run the full acceptance suite; one line per criterion."""
    ok_all = True
    ground_report = None
    for crit, scenario in SCENARIO_CRITERIA.items():
        report = run_scenario(scenario, jobs=jobs)
        if scenario == "ground_state":
            ground_report = report
        ok = report.all_passed
        ok_all = ok_all and ok
        print(f"{'PASS' if ok else 'FAIL'} {crit} ({report.runtime:.1f}s)")
        for line in report.summary_lines()[1:]:
            print(line)
    ok, lines = criterion_9_properties(jobs=jobs, heisenberg_report=ground_report)
    ok_all = ok_all and ok
    print(f"{'PASS' if ok else 'FAIL'} criterion_9_properties")
    for line in lines:
        print(line)
    return ok_all
