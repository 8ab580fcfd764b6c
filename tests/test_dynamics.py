import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import momentum_spectrum

from sedlab.core import TAU_OMEGA_REJECT, GridSpec, SystemParams, validate
from sedlab.dynamics import (
    _lattice_phases,
    _positions,
    _propagator,
    _scan_block,
    apply_momentum_gain,
    canonical_momentum,
    homogeneous_decay,
    momentum_step,
    response_transfer,
    sample_from_spectrum,
    simulate_dipoles,
    simulate_oscillator,
)
from sedlab.errors import BurnInExceedsTrajectory, InvalidParams
from sedlab.estimators import periodogram, structure_function
from sedlab.experiments import scenario_defaults
from sedlab.noise import (
    FieldRealization,
    field_synthesis,
    member_seed,
    synthesis_band,
    synthesize_field,
    synthesize_pair,
)
from sedlab.spectra import SpectrumModel, field_spectrum, position_transfer

PARAMS = SystemParams(tau=0.01)
ZPF = SpectrumModel.zpf()


def zero_field(dt=0.1, n=1 << 14):
    return FieldRealization(dt=dt, samples=np.zeros(n))


@pytest.mark.parametrize("x0, v0", [(1.0, 0.0), (0.0, 1.0)], ids=["displaced", "kicked"])
def test_free_decay_matches_ode_oracle(x0, v0):
    """Independent oracle: high-accuracy ODE integration of the reduced system."""
    from scipy.integrate import solve_ivp

    dt, n = 0.05, 4000
    x = _positions(PARAMS, np.zeros(n), dt, x0, v0)
    gamma = PARAMS.damping_rate

    def rhs(t, y):
        return [y[1], -y[0] - 2.0 * gamma * y[1]]

    t_eval = np.arange(n) * dt
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), [x0, v0], t_eval=t_eval,
                    rtol=1e-11, atol=1e-12)
    assert np.max(np.abs(x - sol.y[0])) < 1e-7


@pytest.mark.parametrize("x0, v0", [(3.0, -0.015), (0.0, 1.0)], ids=["displaced", "kicked"])
def test_homogeneous_decay_is_the_zero_field_recursion(x0, v0):
    """coherent_decay's mean trajectory: the closed form against
    ``_positions`` on a zero field, over its 1.25 x two e-folds."""
    params, grid = scenario_defaults("coherent_decay")
    n = int(round(2.5 / params.damping_rate / grid.dt)) + 1
    x = _positions(params, np.zeros(n), grid.dt, x0, v0)
    closed = homogeneous_decay(params, np.arange(n) * grid.dt, x0, v0)
    assert np.max(np.abs(closed - x)) <= 1e-12 * math.hypot(x0, v0)


@pytest.mark.parametrize("tau", [0.01, 0.2, 0.98 * TAU_OMEGA_REJECT])
@pytest.mark.parametrize("x0, v0", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                         ids=["rest", "displaced", "kicked"])
def test_positions_match_lfilter(tau, x0, v0):
    """The blocked complex scan of ``_positions`` against scipy's direct
    evaluation of the same two-term recursion: n - 2 steps one short of,
    equal to and one past a block (n = B + 1 .. B + 3), and 2^18 points
    (many blocks)."""
    from scipy.signal import lfilter, lfiltic

    params, dt = SystemParams(tau=tau), 0.1
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    tr, det = a11 + a22, math.exp(-2.0 * params.damping_rate * dt)
    c2 = a12 * b2 - a22 * b1
    size = _scan_block(params, dt)
    eps = np.random.default_rng(2020).standard_normal(1 << 18)
    for n in (1, 2, 3, size - 1, size, size + 1, size + 2, size + 3, 1 << 18):
        x = _positions(params, eps[:n], dt, x0, v0)
        ref = np.empty(n)
        ref[0] = x0
        if n > 1:
            ref[1] = a11 * x0 + a12 * v0 + b1 * eps[0]
        if n > 2:
            zi = lfiltic([b1, c2], [1.0, -tr, det], y=[ref[1], ref[0]], x=[eps[0]])
            ref[2:], _ = lfilter([b1, c2], [1.0, -tr, det], eps[1 : n - 1], zi=zi)
        assert x[:2].tolist() == ref[:2].tolist()
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.ptp(ref), (n, size)


def test_free_decay_envelope():
    # amplitude envelope exp(-tau w0^2 t / 2)
    dt, n = 0.05, 1 << 14
    x = _positions(PARAMS, np.zeros(n), dt, x0=1.0, v0=0.0)
    t = np.arange(n) * dt
    peaks = []
    for k in range(1, n - 1):
        if x[k] > x[k - 1] and x[k] > x[k + 1]:
            peaks.append((t[k], x[k]))
    for tk, xk in peaks[:80]:
        assert xk == pytest.approx(math.exp(-PARAMS.damping_rate * tk), rel=5e-3)


def test_zpf_position_variance():
    grid = GridSpec(dt=0.1, n_samples=1 << 18, omega_cut=20.0, seed=11)
    xv = []
    for k in range(16):
        f = synthesize_field(ZPF, PARAMS, grid, member_seed(grid.seed, k))
        xv.append(simulate_oscillator(PARAMS, f).var())
    assert np.mean(xv) == pytest.approx(0.5, rel=0.03)


def test_dt_halving_changes_expected_variance_little():
    """Discretization-convergence contract, checked on the exact discrete
    response (transfer function times target spectrum, no sampling noise)."""

    def discrete_xvar(dt, n):
        (a11, a12, a21, a22), (b1, b2) = _propagator(PARAMS, dt)
        tr, det = a11 + a22, math.exp(-2.0 * PARAMS.damping_rate * dt)
        c2 = a12 * b2 - a22 * b1
        dw = 2.0 * math.pi / (n * dt)
        w = dw * np.arange(1, int(20.0 / dw) + 1)
        z = np.exp(-1j * w * dt)
        h = (b1 * z + c2 * z ** 2) / (1.0 - tr * z + det * z ** 2)
        return np.sum(np.abs(h) ** 2 * field_spectrum(ZPF, PARAMS, w)) * dw

    coarse = discrete_xvar(0.1, 1 << 18)
    fine = discrete_xvar(0.05, 1 << 19)
    assert abs(coarse - fine) / fine < 0.005


def test_burn_in_guard():
    with pytest.raises(BurnInExceedsTrajectory):
        simulate_oscillator(PARAMS, zero_field(0.1, 1 << 10))


def test_free_particle_rejected_by_integrator():
    free = SystemParams(tau=0.01, omega0=0.0)
    with pytest.raises(InvalidParams):
        simulate_oscillator(free, zero_field())


def test_canonical_momentum_constant_for_zero_position():
    p = canonical_momentum(np.zeros(1000), PARAMS, 0.1)
    assert np.all(p == 0.0)


def test_canonical_momentum_variance_and_spectrum():
    grid = GridSpec(dt=0.1, n_samples=1 << 18, omega_cut=20.0, seed=21)
    pv = []
    spec_acc = None
    for k in range(16):
        f = synthesize_field(ZPF, PARAMS, grid, member_seed(grid.seed, k))
        p = canonical_momentum(simulate_oscillator(PARAMS, f), PARAMS, grid.dt)
        pv.append(p.var())
        est = periodogram(p[: 1 << 17], grid.dt)
        spec_acc = est if spec_acc is None else spec_acc + est
    omega = 2.0 * np.pi / ((1 << 17) * grid.dt) * np.arange(1, spec_acc.size + 1)
    assert np.mean(pv) == pytest.approx(0.5, rel=0.03)

    # band-averaged ratio against m^2 w0^4 S_x / w^2 within 5%
    mean_spec = spec_acc / 16
    target = momentum_spectrum(ZPF, PARAMS, omega)
    for a, b in ((0.5, 0.9), (0.9, 1.1), (1.1, 2.0)):
        sel = (omega >= a) & (omega < b)
        ratio = mean_spec[sel].sum() / target[sel].sum()
        assert abs(ratio - 1.0) < 0.05


def test_linearity_of_the_integrator():
    grid = GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=10.0, seed=9)
    f1 = synthesize_field(ZPF, PARAMS, grid, member_seed(9, 0))
    f2 = synthesize_field(ZPF, PARAMS, grid, member_seed(9, 1))
    a, b = 1.7, -0.3
    combo = FieldRealization(dt=grid.dt, samples=a * f1.samples + b * f2.samples)
    x1 = simulate_oscillator(PARAMS, f1)
    x2 = simulate_oscillator(PARAMS, f2)
    xc = simulate_oscillator(PARAMS, combo)
    assert np.max(np.abs(xc - (a * x1 + b * x2))) < 1e-10 * np.max(np.abs(xc))


def test_sample_from_spectrum_zero_and_pconst():
    free = SystemParams(tau=0.01, omega0=0.0)
    grid = GridSpec(dt=0.01, n_samples=1 << 14, omega_cut=300.0, seed=5)
    x = sample_from_spectrum(lambda w: np.zeros_like(w), grid, 5)
    assert np.all(x == 0.0)
    assert np.all(canonical_momentum(x, free, grid.dt) == 0.0)


def test_thermal_structure_function_slope():
    free = SystemParams(tau=0.01, omega0=0.0, kT=1.0)
    grid = GridSpec(dt=0.01, n_samples=1 << 17, omega_cut=300.0, seed=6)
    model = SpectrumModel.rayleigh_jeans(free.kT)

    def s_x(w):
        return field_spectrum(model, free, w) * position_transfer(w, free)

    deltas = np.linspace(10.0, 100.0, 10)
    acc = np.zeros_like(deltas)
    for k in range(8):
        x = sample_from_spectrum(s_x, grid, member_seed(6, k))
        acc += structure_function(x, grid.dt, deltas)
    slope = np.polyfit(deltas, acc / 8, 1)[0]
    assert slope == pytest.approx(2.0 * free.tau * free.kT / free.m, rel=0.10)


def test_frequency_and_time_domain_routes_agree():
    """Direct spectral sampling of S_x and time-domain integration give the
    same band-averaged position spectrum within 3% on [w0/2, 2 w0]."""
    grid = GridSpec(dt=0.1, n_samples=1 << 17, omega_cut=20.0, seed=33)

    def s_x(w):
        return field_spectrum(ZPF, PARAMS, w) * position_transfer(w, PARAMS)

    spec_fd = spec_td = None
    for k in range(24):
        sub = member_seed(33, k).spawn(2)
        x_fd = sample_from_spectrum(s_x, grid, sub[0])
        field = synthesize_field(ZPF, PARAMS, grid, sub[1])
        x_td = simulate_oscillator(PARAMS, field)
        est_fd = periodogram(x_fd, grid.dt)
        est_td = periodogram(x_td[: 1 << 16], grid.dt)
        spec_fd = est_fd if spec_fd is None else spec_fd + est_fd
        spec_td = est_td if spec_td is None else spec_td + est_td
    om_fd, om_td = (2.0 * np.pi / (n * grid.dt) * np.arange(1, n // 2 + 1)
                    for n in (grid.n_samples, 1 << 16))
    for a, b in ((0.5, 0.95), (0.95, 1.05), (1.05, 2.0)):
        p_fd = spec_fd[(om_fd >= a) & (om_fd < b)].sum() * (om_fd[1] - om_fd[0])
        p_td = spec_td[(om_td >= a) & (om_td < b)].sum() * (om_td[1] - om_td[0])
        assert abs(p_fd / p_td - 1.0) < 0.03


def test_dipole_mode_transform_roundtrip():
    rng = np.random.default_rng(0)
    x1, x2 = rng.standard_normal((2, 1000))
    xp = (x1 + x2) / math.sqrt(2.0)
    xm = (x1 - x2) / math.sqrt(2.0)
    back1 = (xp + xm) / math.sqrt(2.0)
    back2 = (xp - xm) / math.sqrt(2.0)
    assert np.max(np.abs(back1 - x1)) < 1e-14
    assert np.max(np.abs(back2 - x2)) < 1e-14


def test_decoupled_dipoles_are_independent():
    params = SystemParams(tau=0.01, K=0.0)
    grid = GridSpec(dt=0.1, n_samples=1 << 17, omega_cut=4.0, seed=14)
    pair = synthesize_pair(ZPF, params, grid, 14)
    x1, x2 = simulate_dipoles(params, pair)
    x1 = x1 - x1.mean()
    x2 = x2 - x2.mean()
    rho = float(x1 @ x2) / x1.size / (x1.std() * x2.std())
    # position decorrelation time ~ 2/(tau w0^2) limits the effective count
    n_eff = x1.size * grid.dt * params.tau / 2.0
    assert abs(rho) < 5.0 / math.sqrt(n_eff)


def test_coupled_dipole_mode_variances():
    params = SystemParams(tau=0.01, K=0.1)
    grid = GridSpec(dt=0.1, n_samples=1 << 18, omega_cut=4.0, seed=15)
    xp_var, xm_var = [], []
    for k in range(24):
        pair = synthesize_pair(ZPF, params, grid, member_seed(15, k))
        x1, x2 = simulate_dipoles(params, pair)
        xp = (x1 + x2) / math.sqrt(2.0)
        xm = (x1 - x2) / math.sqrt(2.0)
        xp_var.append(xp.var())
        xm_var.append(xm.var())
    for sample, pred in ((xp_var, 0.5270462766947299), (xm_var, 0.4767312946227961)):
        mean = np.mean(sample)
        se = np.std(sample, ddof=1) / math.sqrt(len(sample))
        assert abs(mean - pred) <= 0.03 * pred + 3.0 * se


def test_dipole_rejects_imaginary_mode():
    params = SystemParams(tau=0.01, K=1.2)
    grid = GridSpec(dt=0.1, n_samples=1 << 15, omega_cut=4.0, seed=1)
    pair = synthesize_pair(ZPF, SystemParams(tau=0.01), grid, 1)
    with pytest.raises(InvalidParams):
        simulate_dipoles(params, pair)


def _steady_state_vs_integrator(params, coeffs, grid):
    """Max deviation of the steady state from the second of two integrated
    periods of the same field, for x and for p, relative to their range."""
    dt, n = grid.dt, grid.n_samples
    h, t = response_transfer(params, grid)
    x_ss = np.fft.irfft(h * coeffs, n)
    p_ss = np.fft.irfft(t * h * coeffs, n)
    eps = np.fft.irfft(coeffs, n)
    x = _positions(params, np.concatenate([eps, eps]), dt, 0.0, 0.0)[n:]
    # the periodic trapezoid rule with zero mean, as canonical_momentum
    p = canonical_momentum(x, params, dt)
    return (np.max(np.abs(x - x_ss)) / np.ptp(x_ss),
            np.max(np.abs(p - p_ss)) / np.ptp(p_ss))


def test_steady_state_is_the_periodic_limit_of_the_integrator():
    params, grid = scenario_defaults("commutators")
    params, grid = validate(params, grid)
    coeffs = field_synthesis(ZPF, params, grid).draw(member_seed(grid.seed, 0))
    dx, dp = _steady_state_vs_integrator(params, coeffs, grid)
    assert dx <= 1e-10
    assert dp <= 1e-10


def test_steady_state_of_each_dipole_mode():
    params, grid = scenario_defaults("dipoles")
    params, grid = validate(params, grid)
    # the dipoles scenario's draws of eps_plus and eps_minus for member 0
    children = member_seed(grid.seed, 0).spawn(2)
    modes = [field_synthesis(ZPF, params, grid).draw(child) for child in children]
    for sign, coeffs in zip((+1, -1), modes):
        dx, dp = _steady_state_vs_integrator(params.mode_params(sign), coeffs,
                                             grid)
        assert dx <= 1e-10
        assert dp <= 1e-10


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1, 99991])
def test_momentum_recursion_is_the_momentum_transfer(n):
    params, grid = validate(PARAMS, GridSpec(dt=0.1, n_samples=n, omega_cut=16.0))
    h, t = response_transfer(params, grid)
    X = h * field_synthesis(ZPF, params, grid).draw(member_seed(5, 0))
    x, p_ref = np.fft.irfft(X, n), np.fft.irfft(t * X, n)
    scale = np.ptp(p_ref)
    g = momentum_step(params, grid.dt)
    assert np.max(np.abs(apply_momentum_gain(x, g, p_ref[0]) - p_ref)) <= 1e-12 * scale
    out = np.empty(n)
    p = canonical_momentum(x, params, grid.dt, out=out)
    assert p is out
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * scale


def test_transfer_is_zero_above_the_band_and_momentum_gain_imaginary():
    grid = GridSpec(dt=0.1, n_samples=1 << 16, omega_cut=4.0)
    h, t = response_transfer(PARAMS, grid)
    band = int(4.0 / grid.domega)
    # the gains stop at the band: irfft reads the bins above it as zeros
    assert h.shape == t.shape == (band + 1,)
    assert t[0] == 0.0
    assert np.all(t.real == 0.0)
    assert np.all(h != 0.0)
    # low-frequency gain of the position response is 1/omega0^2
    assert h[0] == pytest.approx(1.0 / PARAMS.omega0 ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1, 99991, 1 << 20])
def test_lattice_phases_match_the_complex_exponential(n):
    for size in (1, 2, 1000, n // 3, n // 2 + 1):
        ref = np.exp(-1j * math.pi * np.arange(size) / n)
        assert np.max(np.abs(_lattice_phases(n, size) - ref)) <= 4e-16


def _transfer_by_exponential(params, grid):
    """``response_transfer`` of a bound oscillator as a complex exponential
    and a tangent per bin: the oracle of its two-table phases."""
    dt, n = grid.dt, grid.n_samples
    j = np.arange(synthesis_band(dt, n, grid.omega_cut) + 1)
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    tr, det = a11 + a22, math.exp(-2.0 * params.damping_rate * dt)
    c2 = a12 * b2 - a22 * b1
    zinv = np.exp(-2j * math.pi * j / n)
    h = zinv * (b1 + c2 * zinv) / (1.0 + zinv * (det * zinv - tr))
    t = np.zeros(j.size, dtype=complex)
    t[1:] = 0.5j * params.m * params.omega0 ** 2 * dt / np.tan(math.pi * j[1:] / n)
    return h, t


@pytest.mark.parametrize("name, params", [
    ("ground_state", None), ("planck_thermal", None), ("dipoles", +1), ("dipoles", -1),
])
def test_transfer_matches_the_exponential_oracle(name, params):
    params_default, grid = scenario_defaults(name)
    params = params_default if params is None else params_default.mode_params(params)
    params, grid = validate(params, grid)
    h, t = response_transfer(params, grid)
    h_ref, t_ref = _transfer_by_exponential(params, grid)
    band = h_ref.size
    assert np.max(np.abs(h[:band] - h_ref) / np.abs(h_ref)) <= 1e-11
    # T by -Re/Im of the phase: relative, or beside the gain where cot is ~0
    g = abs(momentum_step(params, grid.dt))
    assert np.all(np.abs(t[:band] - t_ref) <= 1e-14 * np.maximum(np.abs(t_ref), g))
    assert np.all(t.real == 0.0)


def test_free_transfer_is_the_exact_free_response_on_the_band():
    params, grid = scenario_defaults("free_zpf")
    params, grid = validate(params, grid)
    h, t = response_transfer(params, grid)
    band = synthesis_band(grid.dt, grid.n_samples, grid.omega_cut)
    omega = grid.domega * np.arange(1, band + 1)
    gain = np.abs(h[1 : band + 1]) ** 2
    ref = position_transfer(omega, params)
    assert np.max(np.abs(gain - ref) / ref) < 1e-12
    assert h.shape == t.shape == (band + 1,)
    assert np.all(t == 0.0)
    assert h[0] == 0.0


@pytest.mark.parametrize("name, model", [
    ("free_zpf", ZPF),
    ("free_thermal", SpectrumModel.rayleigh_jeans(1.0)),
])
def test_free_response_power_matches_the_direct_sampler(name, model):
    # both routes draw the same normals from one member seed
    params, grid = scenario_defaults(name)
    params, grid = validate(params, replace(grid, n_samples=1 << 17))
    seed = member_seed(grid.seed, 3)
    h, _ = response_transfer(params, grid)
    X = h * field_synthesis(model, params, grid).draw(seed)
    power = np.abs(X) ** 2

    def s_x(w):
        return field_spectrum(model, params, w) * position_transfer(w, params)

    x = sample_from_spectrum(s_x, grid, seed)
    direct = np.abs(np.fft.rfft(x)) ** 2
    # the band of the power is the series' power there, and nothing lies above it
    assert np.max(np.abs(power - direct[: power.size])) <= 1e-10 * direct.max()
    assert np.all(direct[power.size :] <= 1e-20 * direct.max())
