"""Estimators turning trajectories into measurable quantities.

Spectra, lag correlations, stochastic-process commutators, structure
functions, windowed energies, and KS statistics.  All estimators are pure
functions over immutable arrays that return plain arrays: a one-sided
spectrum on the bins omega_j = j * 2 pi/(n dt), j = 1..b-1, a lag series
on the lags 0, dt, ..., max_lag (or -max_lag..max_lag).

Conventions
-----------
Correlations use the lag-on-second-argument convention,

    C_ab(u) = < a(t) * b(t + u) >,  u >= 0,

which is the convention under which the commutator of two stationary
processes is 2i times the Hilbert transform of the cross-correlation with
kernel 1/(u - t).  Concretely, the coefficient series c(t) with
[a(0), b(t)] = i c(t) is computed as c = 2 * H[C_ab] (``commutator``); for
an auto-commutator this reduces to the one-sided sine transform of the
spectrum, c(t) = 2 * integral S(omega) sin(omega t) domega, the
lower-noise route (``commutator_from_spectrum``).

A KS row states its exact p-value P(D_n >= d) beside the distance
(``ks_sf``): the two-sided Kolmogorov distribution at finite n, by the
method that Simard & L'Ecuyer (2011) pick for each region of (n, d) and
``scipy.stats.kstwo`` follows, with Durbin's matrix evaluated as Marsaglia,
Tsang & Wang (2003) do.  It is numpy's alone, so a scenario loads no
scipy for it.

No BLAS: an inner product is ``np.einsum("i,i->", a, b)`` and a matrix
product ``np.einsum("ij,jk->ik", a, b)``, never ``np.dot``, ``np.vdot``,
``np.inner``, ``np.matmul`` or ``@``, here and in ``experiments``.  Those
go to numpy's threaded BLAS, which hands a band-length product to its
worker threads; the threads then busy-wait between calls and
oversubscribe the cores under member threads.  A Tier-1 test parses both
modules for them.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .errors import EmptySeries, InvalidParams, LagTooLong, WindowTooLong

#: KS critical coefficient at the 1% level: D_crit = KS_COEFF / sqrt(n).
KS_COEFF = 1.628

#: ``decorrelated`` rounds its stride up to a multiple of this, which keeps
#: the fold of a power-of-two lattice at n/32 bins or fewer.
STRIDE_QUANTUM = 32

#: The Hilbert route transforms a two-sided correlation over HILBERT_MARGIN
#: times the longest lag it keeps, which leaves its end effects outside.
HILBERT_MARGIN = 1.2

#: A lag correlation by the padded-transform route costs about as much as
#: FFT_LAG_SUMS * log2(m) direct lag sums per m-point transform (numpy's
#: pocketfft against ``einsum``, 2^14 to 2^21 points); ``_cross_raw``
#: takes whichever route is cheaper by this count.
FFT_LAG_SUMS = 2.7


def periodogram(series: np.ndarray, dt: float) -> np.ndarray:
    """Full-length rectangular periodogram of the demeaned series, one-sided,
    density-normalized, on the bins j = 1..n//2 (``spectrum_from_power``);
    on the synthesis lattice it is an unbiased estimate of the target
    spectrum bin by bin, and sum(S)*domega is the variance."""
    y = np.asarray(series, dtype=float)
    return spectrum_from_power(np.abs(np.fft.rfft(y - y.mean())) ** 2, y.size, dt)


def spectrum_from_power(power: np.ndarray, n: int, dt: float) -> np.ndarray:
    """One-sided density from the mean |rfft|^2 of length-n series.

    Bins j = 1..b-1 on omega_j = j * 2*pi/(n*dt) for a power of b entries:
    the whole half-spectrum (b = n//2 + 1) or a band with zeros above it;
    the mean bin is dropped.
    """
    power = np.asarray(power, dtype=float)
    values = dt / (math.pi * n) * power[1:]
    if n % 2 == 0 and power.size == n // 2 + 1:
        values[-1] *= 0.5  # Nyquist bin appears once in the two-sided sum
    return values


def mean_square(coeffs: np.ndarray, n: int) -> float:
    """Time average of x^2 for x = irfft(coeffs, n), by Parseval.

    ``coeffs`` may stop short of the Nyquist bin: entries j = 0..b-1 of the
    half-spectrum, b <= n//2 + 1, with zeros above (a band).

    One pass and no temporary: sum_j |c_j|^2 is the inner product of the
    coefficients' float64 view with itself (``einsum``; see "No BLAS" in
    the module notes).  Every bin counts twice but j = 0 and an even-n
    Nyquist bin, which appear once.  A non-contiguous input is copied
    first.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    v = c.view(np.float64)
    total = 2.0 * np.einsum("i,i->", v, v) - (v[0] ** 2 + v[1] ** 2)
    if n % 2 == 0 and c.size == n // 2 + 1:
        total -= v[-2] ** 2 + v[-1] ** 2
    return float(total) / n ** 2


def _lag_samples(max_lag: float, dt: float) -> int:
    """max_lag in samples; InvalidParams unless max_lag is finite and >= 0."""
    if not (math.isfinite(max_lag) and max_lag >= 0):
        raise InvalidParams([f"max_lag must be finite and >= 0, got {max_lag!r}"])
    return int(round(max_lag / dt))


def lag_count(max_lag: float, dt: float, n: int) -> int:
    """Lag samples in max_lag, within the periodicity guard of n/10."""
    lag_samples = _lag_samples(max_lag, dt)
    if lag_samples > n // 10:
        raise LagTooLong(
            f"max_lag {max_lag:g} = {lag_samples} samples exceeds n/10 = {n // 10} "
            "(periodicity guard)"
        )
    return lag_samples


@functools.lru_cache(maxsize=None)
def _smooth_numbers(bits: int) -> list[int]:
    """The 11-smooth integers (no prime factor above 11) up to 2**bits,
    ascending."""
    top = 1 << bits
    nums = [1]
    for p in (2, 3, 5, 7, 11):
        powers = []
        for k in nums:
            while k <= top:
                powers.append(k)
                k *= p
        nums = powers
    return sorted(nums)


def _next_fast_len(target: int) -> int:
    """The smallest 11-smooth integer >= target (>= 1): a length that
    pocketfft transforms fast, the same as ``scipy.fft.next_fast_len``'s
    default.  Each power of two's table is built once."""
    table = _smooth_numbers((target - 1).bit_length())
    return table[bisect.bisect_left(table, target)]


def _cross_raw(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float, two_sided: bool):
    """sum_t a(t) b(t+u) of the demeaned series on the lags u = 0..L, or
    -L..L if ``two_sided``, with L = ``lag_count(max_lag, dt, n)``.

    Each sum is formed directly (one ``einsum`` per lag; see "No BLAS" in
    the module notes) when that costs less than the transforms of the
    padded route (see FFT_LAG_SUMS): rfft of each series, zero-padded
    against wrap-around, and one irfft.  Returns (u, raw, n), u the lags
    in samples.
    """
    auto = b is a
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size == 0:
        raise EmptySeries("series must be nonempty and of equal length")
    n = a.size
    lags = lag_count(max_lag, dt, n)
    u = np.arange(-lags if two_sided else 0, lags + 1)
    a = a - a.mean()
    b = a if auto else b - b.mean()
    m = _next_fast_len(n + lags + 1)
    if u.size * n <= FFT_LAG_SUMS * (2 if auto else 3) * m * math.log2(m):
        # lag k < 0 is sum_t a(t - k) b(t)
        raw = np.array([np.einsum("i,i->", a[: n - k], b[k:]) if k >= 0
                        else np.einsum("i,i->", b[: n + k], a[-k:]) for k in u])
        return u, raw, n
    fa = np.fft.rfft(a, m)
    fb = fa if auto else np.fft.rfft(b, m)
    return u, np.fft.irfft(np.conj(fa) * fb, m)[u], n


def correlation(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float) -> np.ndarray:
    """Unbiased lag estimator of C_ab(u) = <a(t) b(t+u)> on the lags
    u = 0, dt, ..., max_lag."""
    u, raw, n = _cross_raw(a, b, max_lag, dt, two_sided=False)
    return raw / (n - u)


def two_sided_correlation(a, b, max_lag: float, dt: float) -> np.ndarray:
    """C_ab(u) on the lags u = -max_lag, ..., max_lag (step dt); negative
    lags C_ab(-u) = C_ba(u) come from the same cross sums."""
    u, raw, n = _cross_raw(a, b, max_lag, dt, two_sided=True)
    return raw / (n - np.abs(u))


def hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Discrete Hilbert transform with kernel 1/(u-t), via the analytic signal.

    The input is embedded centered in a zero-padded buffer so the FFT
    periodicity does not wrap the long-range kernel back into the data.
    Its imaginary part is irfft(-i rfft(buf)) without the mean and Nyquist
    bins (the slice drops an even buffer's Nyquist bin, and irfft pads it).
    """
    v = np.asarray(values, dtype=float)
    m = _next_fast_len(max(4 * v.size, 64))
    buf = np.zeros(m)
    off = (m - v.size) // 2
    buf[off : off + v.size] = v
    spec = -1j * np.fft.rfft(buf)[: (m + 1) // 2]
    spec[0] = 0.0
    return np.fft.irfft(spec, m)[off : off + v.size]


def hilbert_commutator(two_sided: np.ndarray, n_lags: int) -> np.ndarray:
    """Commutator coefficients c = 2 H[C_ab] on the first n_lags lags from
    the centre of a two-sided correlation C_ab on lags -L..L (the Hilbert
    route); take L from ``lag_count(HILBERT_MARGIN * max_lag, ...)``."""
    mid = np.asarray(two_sided).size // 2
    return (2.0 * hilbert_transform(two_sided))[mid : mid + n_lags]


def hilbert_zero_functional(gain: np.ndarray, n: int, lag: int) -> np.ndarray:
    """Weights K with K @ pw = ``hilbert_commutator(odd part of w, 1)[0]``
    for every real power pw, where w = irfft(pw gain, n)/n on the lags
    -lag..lag: the Hilbert route's c(0) of a lattice correlation as one
    linear functional of its power, formed by one n-point transform.

    c(0) is h @ w with h = -2 ``hilbert_transform``(e_mid), the middle row
    of the route, read off as its transposed column: the kernel is odd, so
    the row is, and h sees only the odd part of w.  With h placed on the
    lags -lag..lag (mod n) and G = rfft(h),
    h @ w = sum_j c_j Re(pw_j gain_j conj(G_j)) / n^2, where c_j is 1 at
    j = 0 and at an even-n Nyquist bin and 2 elsewhere, as in ``irfft``.
    K has the size of ``gain``: a band gain (zero above) gives the band's K.
    """
    e_mid = np.zeros(2 * lag + 1)
    e_mid[lag] = 1.0
    h = np.zeros(n)
    h[np.arange(-lag, lag + 1)] = -2.0 * hilbert_transform(e_mid)
    G = np.conj(np.fft.rfft(h)[: gain.size])
    G *= gain
    weights = np.full(G.size, 2.0 / n ** 2)
    weights[0] = 1.0 / n ** 2
    if n % 2 == 0 and G.size == n // 2 + 1:
        weights[-1] = 1.0 / n ** 2
    return np.multiply(weights, G.real, out=weights)


def commutator_from_spectrum(spec: np.ndarray, n: int, dt: float, max_lag: float) -> np.ndarray:
    """Auto-commutator coefficients c(t) = 2 * sum_j S_j sin(omega_j t) domega
    on the lags 0, dt, ..., max_lag from the spectrum S_j, j = 1..b-1, of a
    length-n series (``spectrum_from_power``); c(0) is set to 0."""
    lags_n = _lag_samples(max_lag, dt)
    domega = 2.0 * math.pi / (n * dt)
    # irfft pads the bins above the spectrum's with zeros
    half = np.zeros(spec.size + 1, dtype=complex)
    half[1:] = -1j * spec
    # irfft of -i S_j is (2/n) sum_j S_j sin(2 pi j k / n), for all k at once
    sines = np.fft.irfft(half, n)[: lags_n + 1] * (0.5 * n)
    values = 2.0 * domega * sines
    values[0] = 0.0
    return values


def commutator(a: np.ndarray, b: np.ndarray, max_lag: float, dt: float) -> np.ndarray:
    """Commutator coefficients c(t) for stationary processes a, b on the
    lags t = 0, dt, ..., max_lag, by the Hilbert route for every pair: the
    discrete Hilbert transform of the cross-correlation
    (``hilbert_commutator``), taken over HILBERT_MARGIN * max_lag;
    LagTooLong is raised when that exceeds the periodicity guard.  The
    sine-transform route of an auto-commutator is
    ``commutator_from_spectrum(periodogram(x, dt), n, dt, max_lag)``.
    """
    n_lags = _lag_samples(max_lag, dt) + 1
    return hilbert_commutator(two_sided_correlation(a, b, HILBERT_MARGIN * max_lag, dt), n_lags)


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
            out[i] = float(np.einsum("i,i->", diff, diff)) / diff.size
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


def mean_square_displacement_variance(power: np.ndarray, n: int, lags) -> np.ndarray:
    """Variance of ``mean_square_displacement`` at the lag indices ``lags``
    (an array) of a series whose bins j = 1..n/2-1 are independent complex
    Gaussians of mean power m_j = ``power``: each |X_j|^2 is exponential, of
    variance m_j^2 (Brockwell & Davis, *Time Series: Theory and Methods*,
    §10.3), so Var SF(d) = (16/n^4) sum_j m_j^2 (1 - cos 2 pi j d/n)^2
    = (8/n^3) (3/2 r(0) - 2 r(d) + r(2d)/2), with r = irfft(m^2, n)."""
    r = np.fft.irfft(np.square(power), n)
    return 8.0 / n ** 3 * (1.5 * r[0] - 2.0 * r[lags] + 0.5 * r[2 * lags])


def window_samples(t_window: float, dt: float) -> int:
    """Samples in a window of length t_window: t_window/dt rounded, at least 1."""
    return max(1, int(round(t_window / dt)))


def windowed_energy(energy: np.ndarray, t_window: float, dt: float) -> np.ndarray:
    """The time-averaged energies U_T over disjoint windows of
    ``window_samples(t_window, dt)`` samples, in time order.

    ``energy`` is the instantaneous energy series (m omega0^2 x^2 + p^2/m)/2,
    formed once per trajectory whatever the number of windows; energies use
    the canonical momentum, whose variance is finite, not the velocity.
    U_T = (1/T) * its integral over the window, by the trapezoidal rule; a
    window of a single sample is the instantaneous energy (``energy``
    itself, not a copy).
    """
    n = energy.size
    w = window_samples(t_window, dt)
    if w > n // 10 and w > 1:
        raise WindowTooLong(f"t_window {t_window:g} exceeds duration/10")
    if w == 1:
        return energy
    # contiguous partition [0,T], [T,2T], ...; adjacent windows share
    # only a boundary sample, so each spans exactly w intervals
    nw = (n - 1) // w
    base = energy[: nw * w].reshape(nw, w)
    edge = energy[w : nw * w + 1 : w]
    integral = dt * (base.sum(axis=1) - 0.5 * base[:, 0] + 0.5 * edge)
    return integral / (w * dt)


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


def ks_sf(d: float, n: int) -> float:
    """The two-sided KS p-value P(D_n >= d) for n independent samples.

    Each region of (n, d) takes the method that Simard & L'Ecuyer (2011)
    choose for it, as ``scipy.stats.kstwo.sf`` does: the Ruben-Gambino
    closed forms at n d <= 1 and n d >= n - 1; twice the one-sided
    (Smirnov) probability where the two one-sided events cannot both
    happen (d >= 1/2) or hardly can (n d^2 > 4 at n <= 140, n d^2 >= 2.2
    above, nil from n d^2 = 370 on); Durbin's matrix for the rest of
    n <= 140 (scipy's Pomeranz recursion there is exact too) and for
    n d^1.5 <= 1.4 up to n = 100,000; the Pelz-Good expansion everywhere
    else.
    """
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 1.0:
        if t <= 0.5:
            return 1.0
        return 1.0 - float(np.exp(_log_factorial_over_power(n)
                                  + n * np.log(np.longdouble(2.0 * t - 1.0))))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    nd2 = t * d
    if n > 140 and nd2 >= 370.0:
        return 0.0
    if d >= 0.5 or (nd2 > 4.0 if n <= 140 else nd2 >= 2.2):
        return min(1.0, 2.0 * _smirnov_sf(d, n))
    # numpy's ``power``, as scipy evaluates it: libm's ``pow`` can round
    # the other way at the boundary, where the two methods differ by 3e-6
    if n <= 140 or (n <= 100000 and n * np.power(d, 1.5) <= 1.4):
        cdf = _durbin_cdf(d, n)
    else:
        cdf = _pelz_good_cdf(d, n)
    return min(1.0, max(0.0, 1.0 - cdf))


def _log_factorial_over_power(n: int) -> np.longdouble:
    """log(n!/n^n) in long double, summed term by term, with no
    cancellation against n log n."""
    return np.sum(np.log(np.arange(1, n + 1, dtype=np.longdouble) / n))


def _smirnov_sf(d: float, n: int) -> float:
    """One-sided P(D_n+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum

        d sum_{j=0}^{n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),

    its terms in logs, in long double.  A term with 1 - d - j/n = 0 is nil
    (j < n)."""
    j = np.arange(int(n * (1.0 - d)) + 1, dtype=np.longdouble)
    right = j / n + d
    j, right = j[right < 1.0], right[right < 1.0]
    log_binom = np.concatenate((j[:1] * 0.0, np.cumsum(np.log((n - j[1:] + 1) / j[1:]))))
    logs = log_binom + (n - j) * np.log(1.0 - right) + (j - 1) * np.log(right)
    top = logs.max()
    return float(np.exp(top + np.log(d * np.sum(np.exp(logs - top)))))


def _durbin_cdf(d: float, n: int) -> float:
    """P(D_n <= d) by Durbin's matrix, as Marsaglia, Tsang & Wang (2003)
    evaluate it: entry (k, k) of (n!/n^n) H^n for the m x m matrix H of
    d = (k - h)/n, 0 <= h < 1, m = 2k - 1, with H's powers rescaled by
    2^-128 whenever their central entry grows past 2^128."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    i = np.arange(1, m + 1)
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / i)))   # 1/j!, j = 0..m
    first = (1.0 - h ** i) * inv_fact[1:]
    first[-1] = (1.0 - 2.0 * h ** m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    rows, cols = np.indices((m, m))
    gap = rows - cols + 1
    H = np.where(gap >= 0, inv_fact[np.clip(gap, 0, m)], 0.0)
    H[:, 0] = first
    H[-1, :] = first[::-1]

    power, scale, h_scale = np.eye(m), 0, 0
    big = 2.0 ** 128
    e = n
    while e:
        if e & 1:
            power = np.einsum("ij,jk->ik", power, H)
            scale += h_scale
        H = np.einsum("ij,jk->ik", H, H)
        h_scale *= 2
        if H[k - 1, k - 1] > big:
            H /= big
            h_scale += 128
        e >>= 1
    # n!/n^n and the scale 2^scale join in logs, in long double
    log_cdf = (np.log(np.longdouble(power[k - 1, k - 1])) + scale * np.log(np.longdouble(2.0))
               + _log_factorial_over_power(n))
    return float(np.exp(log_cdf))


def _pelz_good_cdf(d: float, n: int) -> float:
    """P(D_n <= d) by the Pelz-Good (1976) expansion in 1/sqrt(n) of
    Kolmogorov's limit law, in its theta-function form for small z = d sqrt(n)."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z * z, z ** 3, z ** 4, z ** 6
    log_q = -math.pi ** 2 / (8.0 * z2)
    if log_q < -708.0:
        return 0.0
    q = math.exp(log_q)
    pi2, pi4, pi6 = math.pi ** 2, math.pi ** 4, math.pi ** 6
    kmax = math.ceil(16.0 * z / math.pi)
    odd = (2 * np.arange(1, kmax + 1) - 1.0) ** 2          # (2k - 1)^2
    weights = q ** odd
    terms = np.array([
        np.ones_like(odd),
        -z2 + pi2 / 4.0 * odd,
        6 * z6 + 2 * z4 + (2 * z4 - 5 * z2) * pi2 / 4.0 * odd
        + pi4 * (1 - 2 * z2) / 16.0 * odd ** 2,
        -30 * z6 - 90 * z ** 8 + pi2 * (135 * z4 - 96 * z6) / 4.0 * odd
        + pi4 * (-60 * z2 + 212 * z4) / 16.0 * odd ** 2
        + pi6 * (5 - 30 * z2) / 64.0 * odd ** 3,
    ])
    sqrt2pi = math.sqrt(2.0 * math.pi)
    k_sums = sqrt2pi * np.einsum("ij,j->i", terms, weights)
    k_sums /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])
    ks2 = np.arange(1, kmax + 1, dtype=float) ** 2
    weights = math.exp(-pi2 / (2.0 * z2)) ** ks2
    k_sums[2] += pi2 * sqrt2pi / (-36 * z3) * float(np.einsum("i,i->", ks2, weights))
    k_sums[3] += pi2 * sqrt2pi / (216 * z6) * float(
        np.einsum("i,i->", (3 * z2 - pi2 * ks2) * ks2, weights))
    return float(np.einsum("i,i->", k_sums, float(n) ** (-np.arange(4) / 2.0)))


def decorrelated(coeffs: np.ndarray, n: int, dt: float, t_decorr: float) -> np.ndarray:
    """The samples x[::s] of x = irfft(coeffs, n) at the decorrelation
    spacing, for independence-based tests, without forming x.

    ``coeffs`` holds the half-spectrum entries j = 0..b-1, b <= n//2 + 1,
    with zeros above (a band; see ``mean_square``).  The stride s is
    t_decorr/dt rounded up to a multiple of STRIDE_QUANTUM, so that on a
    power-of-two lattice L = n/gcd(s, n) is at most n/STRIDE_QUANTUM.

    By the aliasing theorem, x[s m] depends on the spectrum only through its
    fold onto L bins, F_r = sum_q X_{r + qL} over the full Hermitian
    spectrum: x[s m] = (L/n) irfft(F, L)[(s/gcd) m mod L].  The band and its
    conjugate mirror (bin -j mod L) are folded separately; j = 0 and an
    even-n Nyquist bin, which are their own mirrors, enter at half weight,
    so that, as in ``irfft``, only their real parts count.  The cost is
    one pass over the band and one L-point transform.  The result is a
    fresh array.
    """
    coeffs = np.asarray(coeffs)
    b = coeffs.size
    s = STRIDE_QUANTUM * -(-max(1, int(round(t_decorr / dt))) // STRIDE_QUANTUM)
    g = math.gcd(s, n)
    bins = n // g
    whole, rest = divmod(b, bins)
    fold = np.zeros(bins, dtype=complex)
    if whole:
        np.sum(coeffs[: whole * bins].reshape(whole, bins), axis=0, out=fold)
    fold[:rest] += coeffs[whole * bins :]
    fold[0] -= 0.5 * coeffs[0]
    if n % 2 == 0 and b == n // 2 + 1:
        fold[(n // 2) % bins] -= 0.5 * coeffs[-1]
    r = np.arange(bins // 2 + 1)
    half = fold[r] + np.conj(fold[-r % bins])
    picks = (s // g) * np.arange((n - 1) // s + 1) % bins
    return (bins / n) * np.fft.irfft(half, bins)[picks]

