"""Estimators turning trajectories into measurable quantities.

Spectra, lag correlations, stochastic-process commutators, structure
functions, windowed energies, and KS statistics.  All estimators are pure
functions over immutable arrays.

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

from .errors import EmptySeries, InvalidParams, LagTooLong, WindowTooLong

#: KS critical coefficient at the 1% level: D_crit = KS_COEFF / sqrt(n).
KS_COEFF = 1.628

#: The Hilbert route transforms a two-sided correlation over HILBERT_MARGIN
#: times the longest lag it keeps, which leaves its end effects outside.
HILBERT_MARGIN = 1.2


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided band spectrum on the lattice omega_j = j * domega."""

    omega: np.ndarray
    values: np.ndarray

    @property
    def domega(self) -> float:
        return float(self.omega[0]) if self.omega.size else 0.0


@dataclass(frozen=True)
class LagSeries:
    """Values on a uniform nonnegative lag grid: a lag correlation, or the
    real coefficients c(t) of a commutator [a(0), b(t)] = i c(t)."""

    lags: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EnergyWindowStats:
    """Windowed energies U_T over disjoint windows; ``dispersion`` is
    sqrt(``variance``), the population spread of the samples."""

    t_window: float
    samples: np.ndarray
    mean: float
    variance: float
    dispersion: float


def periodogram(series: np.ndarray, dt: float) -> SpectrumEstimate:
    """Full-length rectangular periodogram of the demeaned series, one-sided,
    density-normalized; on the synthesis lattice it is an unbiased estimate
    of the target spectrum bin by bin, and sum(S)*domega is the variance."""
    y = np.asarray(series, dtype=float)
    return spectrum_from_power(np.abs(np.fft.rfft(y - y.mean())) ** 2, y.size, dt)


def spectrum_from_power(power: np.ndarray, n: int, dt: float) -> SpectrumEstimate:
    """One-sided density from the mean |rfft|^2 of length-n series.

    Bins j = 1..n//2 on omega_j = j * 2*pi/(n*dt); the mean bin is dropped.
    """
    values = dt / (math.pi * n) * np.asarray(power, dtype=float)[1:]
    if n % 2 == 0:
        values[-1] *= 0.5  # Nyquist bin appears once in the two-sided sum
    domega = 2.0 * math.pi / (n * dt)
    omega = domega * np.arange(1, values.size + 1)
    return SpectrumEstimate(omega=omega, values=values)


def coefficient_power(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|c_j|^2 = c.real**2 + c.imag**2 of complex coefficients.

    ``out``, a complex array of the same size (not ``coeffs``; a fresh one
    by default), lends its memory: the power is a view of its first half,
    read as reals.
    """
    out = np.empty(coeffs.size, dtype=complex) if out is None else out
    re_sq, im_sq = out.view(np.float64).reshape(2, coeffs.size)
    np.square(coeffs.real, out=re_sq)
    np.square(coeffs.imag, out=im_sq)
    return np.add(re_sq, im_sq, out=re_sq)


def mean_square(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> float:
    """Time average of x^2 for x = irfft(coeffs, n), by Parseval; ``out``
    as for ``coefficient_power``."""
    w = coefficient_power(coeffs, out)
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
    auto = b is a
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size == 0:
        raise EmptySeries("series must be nonempty and of equal length")
    n = a.size
    lags = lag_count(max_lag, dt, n)
    m = next_fast_len(n + lags + 1)
    fa = np.fft.rfft(a - a.mean(), m)
    fb = fa if auto else np.fft.rfft(b - b.mean(), m)
    return np.fft.irfft(np.conj(fa) * fb, m), lags, n


def correlation(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float) -> LagSeries:
    """Unbiased lag estimator of C_ab(u) = <a(t) b(t+u)> for u in [0, max_lag]."""
    raw, lags, n = _cross_raw(a, b, max_lag, dt)
    return LagSeries(
        lags=dt * np.arange(lags + 1),
        values=raw[: lags + 1] / (n - np.arange(lags + 1)),
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


def hilbert_commutator(two_sided: np.ndarray, n_lags: int) -> np.ndarray:
    """Commutator coefficients c = 2 H[C_ab] on the first n_lags lags from
    the centre of a two-sided correlation C_ab on lags -L..L (the Hilbert
    route); take L from ``lag_count(HILBERT_MARGIN * max_lag, ...)``."""
    mid = np.asarray(two_sided).size // 2
    return (2.0 * hilbert_transform(two_sided))[mid : mid + n_lags]


def commutator_from_spectrum(spec: SpectrumEstimate, max_lag: float, dt: float) -> LagSeries:
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
    return LagSeries(lags=dt * ks, values=values)


def commutator(
    a: np.ndarray,
    b: np.ndarray,
    max_lag: float,
    dt: float,
    method: str | None = None,
) -> LagSeries:
    """Commutator coefficient series for stationary processes a, b.

    The auto case (``b is a``) defaults to the spectral sine-transform
    route; the cross case to the discrete Hilbert transform of the
    cross-correlation (``hilbert_commutator``), taken over
    HILBERT_MARGIN * max_lag; LagTooLong is raised when that exceeds the
    periodicity guard.
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

    n_lags = int(round(max_lag / dt)) + 1
    _, values = two_sided_correlation(a, b, HILBERT_MARGIN * max_lag, dt)
    return LagSeries(lags=dt * np.arange(n_lags), values=hilbert_commutator(values, n_lags))


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


def mean_square_displacement(power: np.ndarray, n: int, lags, out=None) -> np.ndarray:
    """``structure_function`` as the circular average over one period of a
    length-n lattice series with mean |rfft|^2 ``power``, at lag indices
    ``lags``: 2(C(0) - C(d)) with C = irfft(power)/n, the circular
    autocorrelation.  Take lags through ``lag_count``.  ``out`` (n reals)
    receives irfft(power); a complex ``power`` (zero imaginary part) is
    transformed without a converted copy."""
    c = np.fft.irfft(power, n, out=out)
    return 2.0 / n * (c[0] - c[lags])


def windowed_energy(energy: np.ndarray, t_window: float, dt: float) -> EnergyWindowStats:
    """Time-averaged energies over disjoint windows of length t_window.

    ``energy`` is the instantaneous energy series (m omega0^2 x^2 + p^2/m)/2,
    formed once per trajectory whatever the number of windows; energies use
    the canonical momentum, whose variance is finite, not the velocity.
    U_T = (1/T) * its integral over the window, by the trapezoidal rule; a
    window of a single sample is the instantaneous energy.
    """
    n = energy.size
    w = max(1, int(round(t_window / dt)))
    if w > n // 10 and w > 1:
        raise WindowTooLong(f"t_window {t_window:g} exceeds duration/10")
    if w == 1:
        u = energy
        t_eff = dt
    else:
        # contiguous partition [0,T], [T,2T], ...; adjacent windows share
        # only a boundary sample, so each spans exactly w intervals
        nw = (n - 1) // w
        t_eff = w * dt
        base = energy[: nw * w].reshape(nw, w)
        edge = energy[w : nw * w + 1 : w]
        integral = dt * (base.sum(axis=1) - 0.5 * base[:, 0] + 0.5 * edge)
        u = integral / t_eff
    # u.std() is sqrt(u.var()) bit for bit: one pass over u, not two
    variance = float(u.var())
    return EnergyWindowStats(
        t_window=t_eff,
        samples=u,
        mean=float(u.mean()),
        variance=variance,
        dispersion=math.sqrt(variance),
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


def ks_critical(n: int) -> float:
    """Critical KS distance at the 1% level for n independent samples."""
    return KS_COEFF / math.sqrt(n)


def decorrelated(series: np.ndarray, dt: float, t_decorr: float) -> np.ndarray:
    """Subsample at the decorrelation spacing for independence-based tests.

    Returns a copy, not a strided view: an ensemble keeps every member's
    subsample, and a view would keep each member's whole series alive.
    """
    stride = max(1, int(round(t_decorr / dt)))
    return np.asarray(series)[::stride].copy()


def write_series_csv(path, first_name: str, first, values, stderr=None):
    """Export a series as CSV ``lag_or_omega,value,stderr``."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([first_name, "value", "stderr"])
        se = stderr if stderr is not None else np.zeros(len(first))
        for row in zip(first, values, se):
            wr.writerow([repr(float(row[0])), repr(float(row[1])), repr(float(row[2]))])
