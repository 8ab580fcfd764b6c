import ast
import csv
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sedlab.estimators as estimators
from sedlab.core import GridSpec, SystemParams
from sedlab.dynamics import canonical_momentum, simulate_oscillator
from sedlab.errors import InvalidParams, LagTooLong, WindowTooLong
from sedlab.estimators import (
    commutator,
    commutator_from_spectrum,
    correlation,
    decorrelated,
    hilbert_commutator,
    hilbert_transform,
    hilbert_zero_functional,
    ks_critical,
    ks_distance,
    ks_sf,
    lag_count,
    mean_square,
    mean_square_displacement,
    periodogram,
    spectrum_from_power,
    structure_function,
    two_sided_correlation,
    windowed_energy,
)
from sedlab.noise import member_seed, synthesize_field, synthesize_series
from sedlab.report import Emitter
from sedlab.spectra import SpectrumModel, field_spectrum, position_transfer

PARAMS = SystemParams(tau=0.01)
ZPF = SpectrumModel.zpf()
GAMMA = PARAMS.damping_rate
DT = 0.1


def lattice(n, dt):
    """omega_j = j * 2 pi/(n dt) on the bins j = 1..n//2 of a one-sided spectrum."""
    return 2.0 * math.pi / (n * dt) * np.arange(1, n // 2 + 1)


def oscillator_ensemble(n_members=24, n=1 << 18, dt=DT, seed=77, omega_cut=20.0):
    """Each member's (x, p) on a grid of step dt."""
    grid = GridSpec(dt=dt, n_samples=n, omega_cut=omega_cut, seed=seed)
    for k in range(n_members):
        f = synthesize_field(ZPF, PARAMS, grid, member_seed(seed, k))
        x = simulate_oscillator(PARAMS, f)
        yield x, canonical_momentum(x, PARAMS, dt)


def test_periodogram_tone_power():
    dt, n = 0.1, 1 << 14
    t = np.arange(n) * dt
    a, w0 = 1.7, 1.0
    est = periodogram(a * np.cos(w0 * t), dt)
    omega = lattice(n, dt)
    assert est.size == omega.size
    assert np.sum(est) * omega[0] == pytest.approx(a ** 2 / 2.0, rel=0.02)
    assert abs(omega[np.argmax(est)] - w0) <= omega[0]


def test_periodogram_parseval():
    rng = np.random.default_rng(3)
    dt = 0.1
    for n in (1 << 14, (1 << 14) + 1):
        x = synthesize_series(lambda w: w ** 2, dt, n, 20.0, rng)
        est = periodogram(x, dt)
        # the full-length periodogram carries the whole variance exactly
        assert np.sum(est) * lattice(n, dt)[0] == pytest.approx(x.var(), rel=1e-10)


def test_periodogram_white_spectrum_flat():
    # tabulated white spectrum: every band within 5% after 64 averages
    grid = GridSpec(dt=0.1, n_samples=1 << 13, omega_cut=20.0, seed=8)
    acc = None
    for k in range(64):
        rng = np.random.default_rng(member_seed(8, k))
        x = synthesize_series(lambda w: np.ones_like(w), grid.dt,
                              grid.n_samples, grid.omega_cut, rng)
        est = periodogram(x, grid.dt)
        acc = est if acc is None else acc + est
    omega = lattice(grid.n_samples, grid.dt)
    mean_spec = acc / 64
    sel = omega <= 20.0
    edges = np.linspace(0.5, 20.0, 14)
    for a, b in zip(edges[:-1], edges[1:]):
        band = (omega >= a) & (omega < b)
        assert abs(np.mean(mean_spec[band]) - 1.0) < 0.05


def test_correlation_lag_zero_is_variance():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    series = correlation(x, x, 5.0, 0.1)
    assert series.size == 51
    assert series[0] == pytest.approx(x.var(), rel=1e-12)


def test_auto_correlation_transforms_once_with_the_same_result(monkeypatch):
    # 51 lags are direct sums, no transform; 401 lags take the padded
    # route, where the auto case transforms its series once
    x = np.random.default_rng(1).standard_normal(4096)
    rfft = np.fft.rfft
    for max_lag, transforms in ((5.0, 0), (40.0, 1)):
        separate = correlation(x, x.copy(), max_lag, 0.1)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
            auto = correlation(x, x, max_lag, 0.1)
        assert len(calls) == transforms
        assert auto.tobytes() == separate.tobytes()


def test_mean_square_leaves_its_input_and_allocates_no_band():
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(100_001) + 1j * rng.standard_normal(100_001)
    before = coeffs.tobytes()
    mean_square(coeffs, 1 << 18)
    tracemalloc.start()
    try:
        mean_square(coeffs, 1 << 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coeffs.tobytes() == before
    # one band of reals would be 800 kB
    assert peak < 8 * 1000


@pytest.mark.parametrize("n, band, contiguous", [
    (4096, 2049, True),   # the full half-spectrum, with its Nyquist bin
    (4097, 2049, True),   # odd n: no Nyquist bin
    (4096, 900, True),    # a band
    (4097, 900, True),
    (4096, 2049, False),  # a strided view
    (4097, 900, False),
])
def test_mean_square_is_the_series_mean_square(n, band, contiguous):
    rng = np.random.default_rng(n + band)
    coeffs = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    coeffs[0] = coeffs[0].real  # irfft reads the real part of j = 0 only
    if band == n // 2 + 1 and n % 2 == 0:
        coeffs[-1] = coeffs[-1].real  # and of the Nyquist bin
    if not contiguous:
        strided = np.empty(2 * band, dtype=complex)[::2]
        strided[:] = coeffs
        coeffs = strided
    x = np.fft.irfft(coeffs, n)
    assert mean_square(coeffs, n) == pytest.approx(np.mean(x ** 2), rel=1e-12)


def test_correlation_lag_guard():
    with pytest.raises(LagTooLong):
        correlation(np.zeros(1000), np.zeros(1000), 20.0, 0.1)


def test_position_autocorrelation_matches_closed_form():
    # <x(0)x(t)> = 0.5 cos(t) exp(-tau t/2) within 5% of C(0) up to t = 200
    acc = None
    count = 0
    for x, _ in oscillator_ensemble(n_members=32):
        c = correlation(x, x, 200.0, DT)
        acc = c if acc is None else acc + c
        count += 1
    lags = DT * np.arange(acc.size)
    mean_c = acc / count
    ref = 0.5 * np.cos(lags) * np.exp(-GAMMA * lags)
    assert np.max(np.abs(mean_c - ref)) < 0.05 * 0.5


def test_cross_correlation_sign_convention():
    """<x(t) p(t+u)> ramps negative: the paper's printed sin(w0(t-t'))
    evaluated at (t, t') = (0, u) is -sin(w0 u); with the lag on the first
    argument the sign flips."""
    acc_xp = None
    count = 0
    for x, p in oscillator_ensemble(n_members=16):
        cxp = correlation(x, p, 30.0, DT)
        cpx = correlation(p, x, 30.0, DT)
        if acc_xp is None:
            acc_xp, acc_px = cxp.copy(), cpx.copy()
        else:
            acc_xp += cxp
            acc_px += cpx
        count += 1
    lags = DT * np.arange(acc_xp.size)
    mean_xp = acc_xp / count
    mean_px = acc_px / count
    ref = -0.5 * np.sin(lags) * np.exp(-GAMMA * lags)
    assert np.max(np.abs(mean_xp - ref)) < 0.05 * 0.5
    assert np.max(np.abs(mean_px + ref)) < 0.05 * 0.5
    # odd: zero at zero lag within the sampling band
    assert abs(mean_xp[0]) < 0.02


def test_commutator_auto_is_odd_and_zero_at_origin():
    # the sine-transform route sets c(0) = 0; the Hilbert route computes it
    rng = np.random.default_rng(12)
    x = synthesize_series(lambda w: w ** 2, 0.1, 1 << 14, 20.0, rng)
    c = commutator_from_spectrum(periodogram(x, 0.1), x.size, 0.1, 50.0)
    assert c.size == 501 and c[0] == 0.0
    c = commutator(x, x, 50.0, 0.1)
    assert c.size == 501 and abs(c[0]) <= 1e-12 * np.max(np.abs(c))


def test_commutator_routes_agree_on_oscillator():
    spec_acc = None
    corr_pos = corr_neg = None
    count = 0
    for x, _ in oscillator_ensemble(n_members=24):
        est = periodogram(x[: 1 << 17], DT)
        cxx = correlation(x[: 1 << 17], x[: 1 << 17], 60.0, DT)
        spec_acc = est if spec_acc is None else spec_acc + est
        corr_pos = cxx if corr_pos is None else corr_pos + cxx
        count += 1
    c_spec = commutator_from_spectrum(spec_acc / count, 1 << 17, DT, 50.0)
    mean_corr = corr_pos / count
    two = np.concatenate([mean_corr[:0:-1], mean_corr])
    c_hilb = hilbert_commutator(two, c_spec.size)

    lags = DT * np.arange(c_spec.size)
    ref = np.sin(lags) * np.exp(-GAMMA * lags)
    strong = np.abs(ref) > 0.3
    assert np.max(np.abs(c_spec[strong] - c_hilb[strong])) < 0.05


def test_equal_time_xp_commutator_is_hbar():
    acc = None
    count = 0
    for x, p in oscillator_ensemble(n_members=24):
        c = commutator(x, p, 60.0, DT)
        acc = c if acc is None else acc + c
        count += 1
    c_xp0 = (acc / count)[0]
    assert c_xp0 == pytest.approx(1.0, rel=0.05)


def test_hilbert_commutator_keeps_every_lag_or_raises():
    # the Hilbert route spans 1.2 max_lag: 180 of the guard's 200 at
    # max_lag 150; at 195 it would need 234, past the guard
    rng = np.random.default_rng(5)
    n, dt = 20000, 0.1
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    c = commutator(a, b, 150.0, dt)
    assert c.size == 1501
    two = two_sided_correlation(a, b, 180.0, dt)
    assert np.array_equal(c, hilbert_commutator(two, 1501))
    with pytest.raises(LagTooLong):
        commutator(a, b, 195.0, dt)


def test_hilbert_transform_lorentzian_pair():
    # H[1/(1+t^2)](u) = u/(1+u^2) with the 1/(u-t) kernel
    dt = 0.02
    t = np.arange(-3000, 3001) * dt
    f = 1.0 / (1.0 + t ** 2)
    h = hilbert_transform(f)
    ref = t / (1.0 + t ** 2)
    core = np.abs(t) < 10.0
    assert np.max(np.abs(h[core] - ref[core])) < 0.01


@pytest.mark.parametrize("size", [100, 101, 1000, 2401, 5001])
def test_hilbert_transform_is_the_analytic_signal_of_its_padded_buffer(size):
    # the imaginary part of scipy's analytic signal on the same padded lattice
    from scipy.fft import next_fast_len
    from scipy.signal import hilbert

    v = np.random.default_rng(size).standard_normal(size)
    m = next_fast_len(4 * size)
    buf = np.zeros(m)
    off = (m - size) // 2
    buf[off : off + size] = v
    ref = np.imag(hilbert(buf))[off : off + size]
    assert np.max(np.abs(hilbert_transform(v) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_structure_function_zero_lag_and_white_noise():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1 << 16)
    out = structure_function(x, 1.0, [0.0, 1.0, 5.0])
    assert out[0] == 0.0
    # iid samples: <(x(t+d) - x(t))^2> = 2 var
    assert out[1] == pytest.approx(2.0, rel=0.02)
    assert out[2] == pytest.approx(2.0, rel=0.02)
    with pytest.raises(LagTooLong):
        structure_function(x, 1.0, [x.size / 5.0])


def test_mean_square_displacement_is_the_circular_average():
    free = SystemParams(tau=0.01, omega0=0.0, kT=1.0)
    model = SpectrumModel.rayleigh_jeans(free.kT)
    dt, n = 0.01, 1 << 17

    def s_x(w):
        return field_spectrum(model, free, w) * position_transfer(w, free)

    deltas = np.geomspace(1.0, 100.0, 8)
    lags = [lag_count(t, dt, n) for t in deltas]
    circular, direct = [], []
    for k in range(8):
        x = synthesize_series(s_x, dt, n, 300.0, np.random.default_rng(member_seed(8, k)))
        sf = mean_square_displacement(np.abs(np.fft.rfft(x)) ** 2, n, lags)
        rolled = np.array([np.mean((np.roll(x, -d) - x) ** 2) for d in lags])
        assert np.max(np.abs(sf - rolled) / rolled) < 1e-10
        circular.append(sf)
        direct.append(structure_function(x, dt, deltas))
    # the circular average adds the d wrapped pairs of the periodic series:
    # the same statistic, within the sampling error of the ensemble mean
    stderr = np.std(direct, axis=0, ddof=1) / math.sqrt(len(direct))
    assert np.all(np.abs(np.mean(circular, axis=0) - np.mean(direct, axis=0))
                  <= 3.0 * stderr)


def test_windowed_energy_single_sample_limit():
    rng = np.random.default_rng(9)
    n = 1 << 17
    x = rng.normal(0.0, math.sqrt(0.5), n)
    p = rng.normal(0.0, math.sqrt(0.5), n)
    energy = 0.5 * (x ** 2 + p ** 2)
    u = windowed_energy(energy, 0.1, 0.1)
    assert u is energy
    assert u.mean() == pytest.approx(0.5, rel=0.02)
    assert u.std() == pytest.approx(0.5, rel=0.02)


@pytest.mark.parametrize("t_window", [0.1, 1.0, 10.0])
def test_windowed_energy_dispersion_is_the_root_of_its_variance(t_window):
    # energy_time takes each member's dispersion as sqrt(var) of the samples
    energy = np.random.default_rng(11).exponential(0.5, 1 << 14)
    u = windowed_energy(energy, t_window, 0.1)
    w = round(t_window / 0.1)
    assert u.size == (energy.size if w == 1 else (energy.size - 1) // w)
    assert math.sqrt(float(u.var())) == u.std()


def test_windowed_energy_mean_stable_for_any_window():
    rng = np.random.default_rng(10)
    n = 1 << 16
    x = rng.normal(0.0, math.sqrt(0.5), n)
    p = rng.normal(0.0, math.sqrt(0.5), n)
    for t_window in (1.0, 10.0, 100.0):
        u = windowed_energy(0.5 * (x ** 2 + p ** 2), t_window, 0.1)
        assert u.mean() == pytest.approx(0.5, rel=0.03)


def test_windowed_energy_guard():
    with pytest.raises(WindowTooLong):
        windowed_energy(np.zeros(1000), 50.0, 0.1)


def test_ks_distance_detects_wrong_scale():
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 2.0, 1 << 14)
    from scipy.special import erf

    cdf = lambda s: 0.5 * (1.0 + erf(s / math.sqrt(2.0)))
    assert ks_distance(x, cdf) > 10.0 * ks_critical(x.size)


def _ks_boundary_grid():
    """(n, d) on and beside every region boundary of ``ks_sf``: n d = 0.5,
    1 and n - 1; d = 0.5; n d^2 = 0.754693, 2.2, 4, 18 and 370; n d^1.5
    = 1.4; at n on both sides of 140, from 2 to 20,000."""
    cases = []
    for n in (2, 3, 7, 30, 139, 140, 141, 142, 500, 4096, 20000):
        edges = [0.5 / n, 1.0 / n, (n - 1.0) / n, 0.5, (1.4 / n) ** (2.0 / 3.0)]
        edges += [math.sqrt(c / n) for c in (0.754693, 2.2, 4.0, 18.0, 370.0)]
        for d in edges:
            for dd in (d * (1.0 - 1e-6), d, d * (1.0 + 1e-6)):
                if 0.0 < dd < 1.0:
                    cases.append((n, dd))
    return cases


def test_ks_sf_matches_scipy_kstwo_across_region_boundaries():
    from scipy.stats import kstwo

    tiny = np.finfo(float).tiny
    for n, d in _ks_boundary_grid():
        ref = float(kstwo.sf(d, n))
        got = ks_sf(d, n)
        if n > 140 and n * d * d >= 370.0:
            assert got == ref == 0.0, (n, d)
            continue
        if ref < tiny:
            # just below n d^2 = 370, a p that is nil or subnormal has too
            # few digits to compare
            assert got < tiny, (n, d)
            continue
        assert got == pytest.approx(ref, rel=1e-9), (n, d)
        assert f"{got:.4g}" == f"{ref:.4g}", (n, d)


def test_ks_sf_outside_the_unit_interval():
    for n in (1, 10, 1000):
        assert ks_sf(-0.1, n) == ks_sf(0.0, n) == 1.0
        assert ks_sf(1.0, n) == ks_sf(1.5, n) == 0.0


def test_write_series_csv(tmp_path):
    path = tmp_path / "s_series.csv"
    Emitter(tmp_path, ("spectra",)).series("s", "series", "lag", [0.0, 0.1], [1.0, 2.0],
                                           [0.01, 0.02])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lag", "value", "stderr"]
    assert float(rows[2][1]) == 2.0


def test_two_sided_correlation_symmetry_for_auto():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(1 << 12)
    values = two_sided_correlation(x, x, 10.0, 1.0)
    mid = values.size // 2
    assert values.size == 21
    assert np.allclose(values[mid + 1 :], values[:mid][::-1])
    assert values[mid] == pytest.approx(x.var(), rel=1e-12)


@pytest.mark.parametrize("n", [1000, 1001])
def test_correlation_matches_direct_sum(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 0.3
    b = np.roll(a, 7) + 0.5 * rng.standard_normal(n)
    dt, lags = 0.1, n // 10
    am, bm = a - a.mean(), b - b.mean()
    direct = np.array([am[: n - u] @ bm[u:] / (n - u) for u in range(lags + 1)])
    pos = correlation(a, b, lags * dt, dt)
    assert pos.size == lags + 1
    assert np.allclose(pos, direct, rtol=0.0, atol=1e-12)
    # negative lags are C_ab(-u) = C_ba(u), from the same transform
    back = np.array([bm[: n - u] @ am[u:] / (n - u) for u in range(lags + 1)])
    two = two_sided_correlation(a, b, lags * dt, dt)
    assert np.allclose(two, np.concatenate([back[:0:-1], direct]), rtol=0.0, atol=1e-12)


def test_spectrum_helpers_match_the_series_route():
    rng = np.random.default_rng(3)
    for n in (4096, 4097):
        x = rng.standard_normal(n)
        x -= x.mean()
        coeffs = np.fft.rfft(x)
        direct = periodogram(x, 0.1)
        viaps = spectrum_from_power(np.abs(coeffs) ** 2, n, 0.1)
        assert viaps.size == direct.size == n // 2
        assert np.allclose(viaps, direct, rtol=1e-12)
        assert mean_square(coeffs, n) == pytest.approx(np.mean(x ** 2), rel=1e-12)


@pytest.mark.parametrize("n, band", [(4096, 1500), (4096, 2048), (4097, 1500), (4097, 2049)])
def test_spectrum_from_a_band_power_is_the_full_spectrum_on_the_band(n, band):
    # a band of b bins stops short of the Nyquist bin, and only a power that
    # reaches it halves it
    full = np.random.default_rng(n).standard_normal(n // 2 + 1) ** 2
    full[band:] = 0.0
    from_band = spectrum_from_power(full[:band], n, 0.1)
    from_full = spectrum_from_power(full, n, 0.1)
    assert from_band.size == band - 1
    assert np.array_equal(from_band, from_full[: band - 1])


@pytest.mark.parametrize("n, stride, band", [
    (4096, 64, 1500),    # s divides n
    (4096, 96, 1500),    # gcd 32: neither divides nor is coprime
    (1001, 32, 501),     # odd n, s coprime to n (L = n)
    (2187, 96, 800),     # odd n, gcd 3
    (1000, 1024, 501),   # s > n: one sample
    (4096, 1024, 2049),  # nonzero Nyquist bin, band far longer than L = 4
    (4097, 32, 2049),    # odd n, whole half-spectrum
    (1 << 16, 24000, 16690),  # ground_state's small grid, L = 1024
])
def test_decorrelated_fold_matches_the_series_subsample(n, stride, band):
    rng = np.random.default_rng(n + stride)
    coeffs = rng.standard_normal(band) + 1j * rng.standard_normal(band)
    x = np.fft.irfft(coeffs, n)
    dt = 0.25
    sub = decorrelated(coeffs, n, dt, stride * dt)
    ref = x[::stride]
    assert sub.shape == ref.shape
    assert np.max(np.abs(sub - ref)) <= 1e-12 * np.ptp(x)


def test_decorrelated_rounds_its_stride_up_to_a_multiple_of_32():
    n = 1 << 20
    coeffs = np.random.default_rng(9).standard_normal(70000).astype(complex)
    x = np.fft.irfft(coeffs, n)
    # the dipoles' x+ stride: 26,667 samples becomes 26,688 (L = 16,384)
    sub = decorrelated(coeffs, n, 0.1, 24.0 / (0.01 * 0.9))
    assert sub.size == 40
    assert np.max(np.abs(sub - x[::26688])) <= 1e-12 * np.ptp(x)


@pytest.mark.parametrize("n", [4096, 4097])
def test_mean_square_of_a_band_is_the_series_variance(n):
    rng = np.random.default_rng(n)
    coeffs = np.zeros(n // 2 + 1, dtype=complex)
    coeffs[1:900] = rng.standard_normal(899) + 1j * rng.standard_normal(899)
    var = np.fft.irfft(coeffs, n).var()
    assert mean_square(coeffs[:900], n) == pytest.approx(var, rel=1e-12)
    assert mean_square(coeffs, n) == pytest.approx(var, rel=1e-12)


def test_commutator_from_spectrum_on_an_odd_lattice():
    # one tone on the lattice of an odd-length series: c(t) = 2 S domega sin(w t)
    n, dt, j = 4097, 0.1, 40
    values = np.zeros(n // 2)
    values[j - 1] = 1.5
    domega = 2.0 * math.pi / (n * dt)
    c = commutator_from_spectrum(values, n, dt, 30.0)
    ref = 2.0 * 1.5 * domega * np.sin(j * domega * dt * np.arange(c.size))
    assert c.size == 301
    assert np.allclose(c, ref, rtol=0.0, atol=1e-12)


def _routes(monkeypatch, f, *args):
    """f(*args) by direct lag sums and by the padded transforms."""
    out = []
    for weight in (math.inf, 0.0):
        with monkeypatch.context() as m:
            m.setattr(estimators, "FFT_LAG_SUMS", weight)
            out.append(f(*args))
    return out


@pytest.mark.parametrize("n", [4096, 4097])
@pytest.mark.parametrize("lags", [20, 400])  # below and above the crossover
@pytest.mark.parametrize("auto", [True, False])
def test_direct_lag_sums_match_the_transform_route(n, lags, auto, monkeypatch):
    rng = np.random.default_rng(n + lags)
    a = rng.standard_normal(n) + 0.4
    b = a if auto else np.roll(a, 5) + 0.7 * rng.standard_normal(n)
    dt = 0.1
    direct, padded = _routes(monkeypatch, correlation, a, b, lags * dt, dt)
    scale = abs(padded[0])
    assert direct.size == padded.size == lags + 1
    assert np.max(np.abs(direct - padded)) <= 1e-12 * scale
    d_two, p_two = _routes(monkeypatch, two_sided_correlation, a, b, lags * dt, dt)
    assert d_two.size == p_two.size == 2 * lags + 1
    assert np.max(np.abs(d_two - p_two)) <= 1e-12 * scale


def test_the_route_switches_between_the_crossover_lags(monkeypatch):
    # 2^18 points: 51 lags (the fourth-moment property) are direct sums,
    # 961 two-sided lags (its commutator structure) take the transforms
    x = np.random.default_rng(5).standard_normal(1 << 18)
    rfft, calls = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
    correlation(x, x, 5.0, 0.1)
    assert calls == []
    two_sided_correlation(x, x ** 2, 48.0, 0.1)
    assert len(calls) == 2


@pytest.mark.parametrize("max_lag", [-1.0, -0.01, math.nan, math.inf])
def test_negative_or_non_finite_max_lag_is_refused(max_lag):
    # n = 4096 at dt = 0.1: -1 gave a broadcasting error, empty arrays or a
    # commutator of 4,087 values on no lags; NaN an integer conversion error
    x = np.random.default_rng(6).standard_normal(4096)
    p = np.roll(x, 3)
    message = f"max_lag must be finite and >= 0, got {max_lag!r}"
    spec = periodogram(x, 0.1)
    for call in (
        lambda: lag_count(max_lag, 0.1, x.size),
        lambda: correlation(x, p, max_lag, 0.1),
        lambda: two_sided_correlation(x, p, max_lag, 0.1),
        lambda: commutator(x, x, max_lag, 0.1),
        lambda: commutator(x, p, max_lag, 0.1),
        lambda: commutator_from_spectrum(spec, x.size, 0.1, max_lag),
    ):
        with pytest.raises(InvalidParams) as exc:
            call()
        assert exc.value.violations == [message]


@pytest.mark.parametrize("n", [4096, 4097])
def test_hilbert_zero_functional_on_a_full_spectrum(n):
    # every bin carries power, the Nyquist bin of even n included, and the
    # gain is a generic complex one
    rng = np.random.default_rng(n)
    pw = rng.standard_normal(n // 2 + 1) ** 2
    gain = rng.standard_normal(pw.size) + 1j * rng.standard_normal(pw.size)
    lag = 300
    w = np.fft.irfft(pw * gain, n)[np.arange(-lag, lag + 1)] / n
    ref = hilbert_commutator(0.5 * (w - w[::-1]), 1)[0]
    assert abs(hilbert_zero_functional(gain, n, lag) @ pw - ref) <= 1e-12 * abs(ref)


def test_next_fast_len_is_scipys_default():
    # the padding lengths of the Hilbert and lag-correlation routes are
    # those that scipy.fft.next_fast_len gives, on short lags and at the
    # 2M-point lengths of the default grids
    from scipy.fft import next_fast_len

    for targets in (range(1, 200_001), range(2_000_000, 2_050_001)):
        assert [t for t in targets if estimators._next_fast_len(t) != next_fast_len(t)] == []


#: Calls that go to numpy's threaded BLAS ("No BLAS" in the estimators notes).
BLAS_CALLS = {"dot", "vdot", "inner", "matmul"}


@pytest.mark.parametrize("module", ["experiments.py", "estimators.py"])
def test_scenario_path_makes_no_blas_call(module):
    path = Path(estimators.__file__).with_name(module)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in BLAS_CALLS):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not found, "BLAS calls:\n" + "\n".join(found)
