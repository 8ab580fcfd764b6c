import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sedlab.core import RAYLEIGH_JEANS, ZPF, GridSpec, SystemParams, validate
from sedlab.errors import InvalidParams
from sedlab.estimators import periodogram
from sedlab.experiments import run_scenario, scenario_defaults
from sedlab.noise import (
    field_synthesis,
    group_seed,
    member_seed,
    synthesize_field,
    synthesize_pair,
    synthesize_series,
)
from sedlab.report import Emitter
from sedlab.spectra import field_spectrum

PARAMS = SystemParams(tau=0.01)
GRID = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=20.0, seed=1234)


def test_zero_spectrum_gives_zero_samples():
    rng = np.random.default_rng(member_seed(0, 0))
    x = synthesize_series(lambda w: np.zeros_like(w), 0.1, 4096, 10.0, rng)
    assert np.all(x == 0.0)


def test_sample_variance_matches_band_integral():
    # integral of tau w^3 / pi over [0, 20] = tau * 20^4 / (4 pi)
    target = PARAMS.tau * 20.0 ** 4 / (4.0 * math.pi)
    assert target == pytest.approx(127.32395447, rel=1e-9)
    variances = []
    for k in range(16):
        f = synthesize_field(ZPF, PARAMS, GRID, member_seed(GRID.seed, k))
        variances.append(f.samples.var())
    mean = np.mean(variances)
    sigma = np.std(variances, ddof=1) / math.sqrt(len(variances))
    assert abs(mean - target) < 3.0 * sigma + 0.01 * target


def test_sample_mean_near_zero():
    f = synthesize_field(ZPF, PARAMS, GRID, 5)
    sigma = f.samples.std()
    assert abs(f.samples.mean()) < 5.0 * sigma / math.sqrt(f.samples.size) + 1e-12


def test_fixed_seed_is_bit_identical():
    a = synthesize_field(ZPF, PARAMS, GRID, 42)
    b = synthesize_field(ZPF, PARAMS, GRID, 42)
    assert np.array_equal(a.samples, b.samples)


def test_member_seeds_independent_of_generation_order():
    def draw(k):
        return np.random.default_rng(member_seed(99, k)).standard_normal(8)

    direct = draw(3)
    # generating members 0..2 first must not change member 3
    for k in range(3):
        draw(k)
    again = draw(3)
    assert np.array_equal(direct, again)


def test_periodogram_expectation_matches_target():
    acc = None
    for k in range(64):
        f = synthesize_field(ZPF, PARAMS, GRID, member_seed(7, k))
        est = periodogram(f.samples, GRID.dt)
        acc = est if acc is None else acc + est
    omega = GRID.domega * np.arange(1, acc.size + 1)
    mean_spec = acc / 64
    target = field_spectrum(ZPF, PARAMS, omega)
    lo, hi = 0.5, 10.0
    edges = np.geomspace(lo, hi, 13)
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (omega >= a) & (omega < b)
        ratio = mean_spec[sel].sum() / target[sel].sum()
        assert abs(ratio - 1.0) < 0.05


def test_samples_are_gaussian():
    from scipy import stats

    f = synthesize_field(ZPF, PARAMS, GRID, 2024)
    _, p = stats.normaltest(f.samples)
    assert p >= 1e-3
    assert abs(stats.kurtosis(f.samples)) < 0.05


def test_pair_cross_correlation_within_band():
    pair = synthesize_pair(ZPF, PARAMS, GRID, 31)
    e1 = pair.eps1.samples - pair.eps1.samples.mean()
    e2 = pair.eps2.samples - pair.eps2.samples.mean()
    n = e1.size
    rho = float(e1 @ e2) / n / (e1.std() * e2.std())
    # effective sample count for the broadband field is close to n
    assert abs(rho) < 5.0 / math.sqrt(n / 20.0)


def test_pair_modes_preserve_variance():
    pair = synthesize_pair(ZPF, PARAMS, GRID, 31)
    target = PARAMS.tau * 20.0 ** 4 / (4.0 * math.pi)
    for real in (pair.eps_plus, pair.eps_minus):
        assert abs(real.samples.var() - target) / target < 0.10


def test_pair_mode_sum_identity():
    pair = synthesize_pair(ZPF, PARAMS, GRID, 31)
    lhs = pair.eps_plus.samples + pair.eps_minus.samples
    rhs = math.sqrt(2.0) * pair.eps1.samples
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * pair.eps1.samples.std()


def test_grid_too_coarse_for_resonance():
    short = GridSpec(dt=0.1, n_samples=1 << 12, omega_cut=20.0)
    with pytest.raises(InvalidParams) as exc:
        validate(PARAMS, short)
    assert ("lattice spacing 0.0153398 > tau*omega0^2/4 = 0.0025; "
            "lengthen the trajectory to resolve the resonance") in exc.value.violations


def test_derivative_series_consistency():
    # the velocity V = i omega E of a field draw against finite differences
    free = SystemParams(tau=0.01, omega0=0.0, kT=1.0)
    grid = GridSpec(dt=0.05, n_samples=4096, omega_cut=5.0)
    coeffs = field_synthesis(RAYLEIGH_JEANS, free, grid).draw(
        member_seed(5, 0))
    omega = grid.domega * np.arange(coeffs.size)
    x = np.fft.irfft(coeffs, grid.n_samples)
    v = np.fft.irfft(1j * omega * coeffs, grid.n_samples)
    central = (x[2:] - x[:-2]) / (2.0 * grid.dt)
    # band-limited to 5 rad/s; second-order differences are accurate to (w dt)^2/6
    assert np.max(np.abs(central - v[1:-1])) < 0.011 * np.max(np.abs(v))


def test_dump_realization_roundtrip(tmp_path):
    f = synthesize_field(ZPF, PARAMS, GRID, 77)
    Emitter(tmp_path, ("trajectories",)).dump("field", f.samples, f.dt, 77, ZPF)
    raw = np.frombuffer((tmp_path / "field.bin").read_bytes(), dtype="<f8")
    assert np.array_equal(raw, f.samples)
    meta = json.loads((tmp_path / "field.json").read_text())
    assert meta["dt"] == f.dt
    assert meta["n"] == f.samples.size
    assert meta["model"] == "zpf"
    assert meta["seed"] == "77"


def test_field_coefficients_are_the_realization_spectrum():
    # the draw is the band j = 0..j_max of the series' rfft, whose bins
    # above the band are zero; irfft pads them, bit for bit
    seed = member_seed(GRID.seed, 3)
    synthesis = field_synthesis(ZPF, PARAMS, GRID)
    coeffs = synthesis.draw(seed)
    assert coeffs.shape == (synthesis.j_max + 1,) and coeffs[0] == 0.0
    samples = synthesize_field(ZPF, PARAMS, GRID, seed).samples
    assert np.array_equal(np.fft.irfft(coeffs, GRID.n_samples), samples)
    full = np.zeros(GRID.n_samples // 2 + 1, dtype=complex)
    full[: coeffs.size] = coeffs
    assert np.fft.irfft(full, GRID.n_samples).tobytes() == samples.tobytes()
    assert np.allclose(np.fft.rfft(samples), full, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(coeffs)))


def test_scenarios_refuse_an_unresolved_resonance():
    # the guard is a violation of validate, listed beside the others
    params, grid = scenario_defaults("ground_state")
    with pytest.raises(InvalidParams) as exc:
        run_scenario("ground_state", params=replace(params, kT=-1.0),
                     grid=replace(grid, n_samples=8192))
    assert exc.value.violations == [
        "kT must be >= 0, got -1.0",
        "lattice spacing 0.0076699 > tau*omega0^2/4 = 0.0025; "
        "lengthen the trajectory to resolve the resonance"]


def test_draws_into_dirty_buffers_equal_fresh_ones():
    synthesis = field_synthesis(ZPF, PARAMS, GRID)
    out = np.full(synthesis.j_max + 1, complex(np.nan, np.inf))
    normals = np.full(GRID.n_samples, np.nan)
    for k in range(3):
        seed = member_seed(GRID.seed, k)
        out[:] = complex(np.nan, np.inf)
        drawn = synthesis.draw(seed, out=out, normals=normals)
        assert drawn is out
        assert drawn.tobytes() == field_synthesis(ZPF, PARAMS, GRID).draw(seed).tobytes()
        assert drawn[0] == 0.0 and np.all(np.isfinite(drawn))


def test_group_seeds_are_no_member_seed_nor_a_child_of_member_zero():
    def state(seq):
        return tuple(seq.generate_state(8))

    for master in (0, 1, 202608):
        groups = {state(group_seed(master, g)) for g in range(16)}
        assert len(groups) == 16
        members = {state(member_seed(master, k)) for k in range(1024)}
        children = {state(c) for c in member_seed(master, 0).spawn(16)}
        assert not groups & (members | children)
        # a pure function of (master, g)
        assert state(group_seed(master, 5)) == state(group_seed(master, 5))
