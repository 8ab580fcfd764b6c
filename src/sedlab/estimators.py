"""Estimators turning trajectories into measurable quantities.

Spectra, lag correlations, stochastic-process commutators, structure
functions, windowed energies, and moment/histogram statistics.  All
estimators are pure functions over immutable arrays.

Conventions
-----------
Correlations use the lag-on-second-argument convention,

    C_ab(u) = < a(t) * b(t + u) >,  u >= 0,

which is the convention under which the commutator of two stationary
processes is 2i times the Hilbert transform of the cross-correlation with
kernel 1/(u - t).  Concretely, the coefficient series c(t) with
[a(0), b(t)] = i c(t) is computed as c = 2 * H[C_ab]; for an
auto-commutator this reduces to the one-sided sine transform of the
spectrum, c(t) = 2 * integral S(omega) sin(omega t) domega, which is the
primary (lower-noise) route.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal import hilbert

from .core import SystemParams
from .errors import (
    EmptySeries,
    InvalidParams,
    LagTooLong,
    SegmentTooLong,
    WindowTooLong,
)

#: One-sided KS critical coefficients c(alpha): D_crit = c / sqrt(n).
KS_COEFF = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628, 0.001: 1.949}


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided band spectrum on the lattice omega_j = j * domega."""

    omega: np.ndarray
    values: np.ndarray

    @property
    def domega(self) -> float:
        return float(self.omega[0]) if self.omega.size else 0.0

    def band_power(self) -> float:
        """Integral of the estimate over its band (Parseval check)."""
        return float(np.sum(self.values) * self.domega)


@dataclass(frozen=True)
class CorrelationSeries:
    """Lag correlation on a uniform nonnegative lag grid."""

    lags: np.ndarray
    values: np.ndarray
    n_eff: np.ndarray


@dataclass(frozen=True)
class CommutatorSeries:
    """Real coefficients c(t) with [a(0), b(t)] = i c(t)."""

    lags: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EnergyWindowStats:
    """Windowed energies U_T over disjoint windows."""

    t_window: float
    samples: np.ndarray
    mean: float
    dispersion: float


@dataclass(frozen=True)
class MomentsReport:
    variance: float
    excess_kurtosis: float
    hist_edges: np.ndarray
    hist_density: np.ndarray
    ks_distance: float | None


def periodogram(
    series: np.ndarray,
    dt: float,
    segment_length: int | None = None,
    overlap: float = 0.5,
    window: str = "hann",
) -> SpectrumEstimate:
    """Averaged modified periodogram, one-sided, density-normalized.

    With the default ``segment_length=None`` a single full-length
    rectangular periodogram is returned, which on the synthesis lattice is
    an unbiased estimate of the target spectrum bin by bin.  Otherwise
    Welch averaging with the given overlap and window is used, with the
    window power correction keeping sum(S)*domega equal to the sample
    variance within one percent.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if segment_length is None:
        segment_length = n
    if segment_length > n:
        raise SegmentTooLong(f"segment {segment_length} > series length {n}")
    seg = int(segment_length)

    if window not in ("hann", "rect"):
        raise InvalidParams([f"unknown window {window!r}; valid: hann, rect"])
    if window == "hann" and seg < n:
        w = np.hanning(seg)
    else:
        w = np.ones(seg)
    wpow = float(np.sum(w ** 2))

    step = max(1, int(round(seg * (1.0 - overlap)))) if seg < n else seg
    starts = range(0, n - seg + 1, step)

    acc = np.zeros(seg // 2 + 1)
    count = 0
    for s0 in starts:
        chunk = y[s0 : s0 + seg]
        chunk = (chunk - chunk.mean()) * w
        acc += np.abs(np.fft.rfft(chunk)) ** 2
        count += 1
    acc /= count
    return spectrum_from_power(acc, seg, dt, wpow)


def spectrum_from_power(power: np.ndarray, n: int, dt: float,
                        window_power: float | None = None) -> SpectrumEstimate:
    """One-sided density from the mean |rfft|^2 of length-n (windowed) series.

    ``window_power`` is sum(w^2) of the window, n for the rectangular one.
    Bins j = 1..n//2 on omega_j = j * 2*pi/(n*dt); the mean bin is dropped.
    """
    wpow = float(n) if window_power is None else window_power
    values = dt / (math.pi * wpow) * np.asarray(power, dtype=float)[1:]
    if n % 2 == 0:
        values[-1] *= 0.5  # Nyquist bin appears once in the two-sided sum
    domega = 2.0 * math.pi / (n * dt)
    omega = domega * np.arange(1, values.size + 1)
    return SpectrumEstimate(omega=omega, values=values)


def mean_square(coeffs: np.ndarray, n: int) -> float:
    """Time average of x^2 for x = irfft(coeffs, n), by Parseval."""
    w = coeffs.real ** 2 + coeffs.imag ** 2
    total = w[0] + 2.0 * w[1:].sum()
    if n % 2 == 0:
        total -= w[-1]  # the Nyquist bin appears once
    return float(total) / n ** 2


def lag_count(max_lag: float, dt: float, n: int) -> int:
    """Lag samples in max_lag, within the periodicity guard of n/10."""
    lag_samples = int(round(max_lag / dt))
    if lag_samples > n // 10:
        raise LagTooLong(
            f"max_lag {max_lag:g} = {lag_samples} samples exceeds n/10 = {n // 10} "
            "(periodicity guard)"
        )
    return lag_samples


def _cross_raw(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float):
    """sum_t a(t) b(t+u) of the demeaned series at every lag of a buffer whose
    padding keeps lags within +-max_lag free of wrap-around.

    Entry u is lag u, entry m - u is lag -u.  Returns (raw, lag count, n).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size == 0:
        raise EmptySeries("series must be nonempty and of equal length")
    n = a.size
    lags = lag_count(max_lag, dt, n)
    m = next_fast_len(n + lags + 1)
    fa = np.fft.rfft(a - a.mean(), m)
    fb = np.fft.rfft(b - b.mean(), m)
    return np.fft.irfft(np.conj(fa) * fb, m), lags, n


def correlation(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float) -> CorrelationSeries:
    """Unbiased lag estimator of C_ab(u) = <a(t) b(t+u)> for u in [0, max_lag]."""
    raw, lags, n = _cross_raw(a, b, max_lag, dt)
    n_eff = n - np.arange(lags + 1)
    return CorrelationSeries(
        lags=dt * np.arange(lags + 1),
        values=raw[: lags + 1] / n_eff,
        n_eff=n_eff,
    )


def two_sided_correlation(a, b, max_lag: float, dt: float):
    """C_ab(u) on u = -max_lag..max_lag; negative lags C_ab(-u) = C_ba(u)
    come from the tail of the same cross transform."""
    raw, lags, n = _cross_raw(a, b, max_lag, dt)
    u = np.arange(-lags, lags + 1)
    return dt * u, raw[u] / (n - np.abs(u))


def hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform with kernel 1/(u-t), via the analytic signal.

    The input is embedded centered in a zero-padded buffer so the FFT
    periodicity does not wrap the long-range kernel back into the data.
    """
    v = np.asarray(values, dtype=float)
    m = next_fast_len(max(4 * v.size, 64))
    buf = np.zeros(m)
    off = (m - v.size) // 2
    buf[off : off + v.size] = v
    return np.imag(hilbert(buf))[off : off + v.size]


def commutator_from_spectrum(spec: SpectrumEstimate, max_lag: float, dt: float) -> CommutatorSeries:
    """Auto-commutator coefficients c(t) = 2 * sum_j S_j sin(omega_j t) domega."""
    lags_n = int(round(max_lag / dt))
    # the full lattice of the series the spectrum came from
    n_full = int(round(2.0 * math.pi / (spec.domega * dt)))
    half = np.zeros(n_full // 2 + 1, dtype=complex)
    half[1 : spec.values.size + 1] = -1j * spec.values
    # irfft of -i S_j is (2/n) sum_j S_j sin(2 pi j k / n), for all k at once
    sines = np.fft.irfft(half, n_full)[: lags_n + 1] * (0.5 * n_full)
    ks = np.arange(lags_n + 1)
    values = 2.0 * spec.domega * sines
    values[0] = 0.0
    return CommutatorSeries(lags=dt * ks, values=values)


def commutator(
    a: np.ndarray,
    b: np.ndarray,
    max_lag: float,
    dt: float,
    method: str | None = None,
    end_discard: float = 0.05,
) -> CommutatorSeries:
    """Commutator coefficient series for stationary processes a, b.

    The auto case (``b is a``) defaults to the spectral sine-transform
    route; the cross case to the discrete Hilbert transform of the
    cross-correlation.  End effects of the Hilbert route are excluded by
    computing on an extended lag window and discarding ``end_discard`` of
    the lags at each end.
    """
    if method is None:
        method = "spectral" if b is a else "hilbert"

    if method == "spectral":
        if b is not a:
            raise InvalidParams(["spectral route applies to the auto case only"])
        series = np.asarray(a, dtype=float)
        if series.size % 2:
            series = series[:-1]  # even length keeps the lattice on k*dt
        spec = periodogram(series, dt)
        return commutator_from_spectrum(spec, max_lag, dt)

    if method != "hilbert":
        raise InvalidParams([f"unknown commutator method {method!r}"])

    n = np.asarray(a).size
    ext = max_lag / (1.0 - 2.0 * end_discard)
    ext = min(ext, (n // 10) * dt)
    lags, values = two_sided_correlation(a, b, ext, dt)
    h = 2.0 * hilbert_transform(values)
    keep = int(math.floor(end_discard * lags.size))
    if keep:
        lags, h = lags[keep:-keep], h[keep:-keep]
    mid = lags.size // 2
    stop = mid + int(round(max_lag / dt)) + 1
    return CommutatorSeries(lags=lags[mid:stop], values=h[mid:stop])


def structure_function(x: np.ndarray, dt: float, delta_ts) -> np.ndarray:
    """Mean squared displacement <[x(t+dt) - x(t)]^2> for each requested lag."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty(len(delta_ts))
    for i, t in enumerate(delta_ts):
        d = int(round(t / dt))
        if d > n // 10:
            raise LagTooLong(f"delta_t {t:g} exceeds duration/10")
        if d == 0:
            out[i] = 0.0
        else:
            diff = x[d:] - x[:-d]
            out[i] = float(diff @ diff) / diff.size
    return out


def windowed_energy(
    x: np.ndarray,
    p: np.ndarray,
    params: SystemParams,
    t_window: float,
    dt: float,
) -> EnergyWindowStats:
    """Time-averaged energies over disjoint windows of length t_window.

    U_T = (1/2T) * integral over the window of (m omega0^2 x^2 + p^2/m),
    by the trapezoidal rule; a window of a single sample is the
    instantaneous energy.  Energies use the canonical momentum, whose
    variance is finite, not the velocity.
    """
    n = x.size
    w = max(1, int(round(t_window / dt)))
    if w > n // 10 and w > 1:
        raise WindowTooLong(f"t_window {t_window:g} exceeds duration/10")
    g = params.m * params.omega0 ** 2 * x ** 2 + p ** 2 / params.m
    if w == 1:
        u = 0.5 * g
        t_eff = dt
    else:
        # contiguous partition [0,T], [T,2T], ...; adjacent windows share
        # only a boundary sample, so each spans exactly w intervals
        nw = (n - 1) // w
        t_eff = w * dt
        base = g[: nw * w].reshape(nw, w)
        edge = g[w : nw * w + 1 : w]
        integral = dt * (base.sum(axis=1) - 0.5 * base[:, 0] + 0.5 * edge)
        u = integral / (2.0 * t_eff)
    return EnergyWindowStats(
        t_window=t_eff,
        samples=u,
        mean=float(u.mean()),
        dispersion=float(u.std()),
    )


def moments_and_histogram(
    series: np.ndarray,
    n_bins: int,
    reference_cdf=None,
) -> MomentsReport:
    """Variance, excess kurtosis, density histogram, and KS distance.

    The KS distance is computed against the supplied reference cumulative;
    the caller is responsible for passing a decorrelated series.
    """
    s = np.asarray(series, dtype=float)
    if s.size == 0:
        raise EmptySeries("empty series")
    if n_bins < 10:
        raise InvalidParams([f"n_bins must be >= 10, got {n_bins}"])
    mu = s.mean()
    var = s.var()
    kurt = float(np.mean((s - mu) ** 4) / var ** 2 - 3.0) if var > 0 else 0.0
    density, edges = np.histogram(s, bins=n_bins, density=True)
    ks = ks_distance(s, reference_cdf) if reference_cdf is not None else None
    return MomentsReport(
        variance=float(var),
        excess_kurtosis=kurt,
        hist_edges=edges,
        hist_density=density,
        ks_distance=ks,
    )


def ks_distance(series: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup |ECDF - CDF|."""
    s = np.sort(np.asarray(series, dtype=float))
    n = s.size
    if n == 0:
        raise EmptySeries("empty series")
    c = np.asarray(cdf(s), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - c)
    d_minus = np.max(c - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Critical KS distance at the given level for n independent samples."""
    return KS_COEFF[alpha] / math.sqrt(n)


def decorrelated(series: np.ndarray, dt: float, t_decorr: float) -> np.ndarray:
    """Subsample at the decorrelation spacing for independence-based tests."""
    stride = max(1, int(round(t_decorr / dt)))
    return np.asarray(series)[::stride]


def write_series_csv(path, first_name: str, first, values, stderr=None):
    """Export a series as CSV ``lag_or_omega,value,stderr``."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([first_name, "value", "stderr"])
        se = stderr if stderr is not None else np.zeros(len(first))
        for row in zip(first, values, se):
            wr.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(row[2]))])
