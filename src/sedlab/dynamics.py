"""Particle trajectories driven by field realizations.

The oscillator is integrated in the order-reduced form

    x'' = -omega0^2 x - tau*omega0^2 x' + eps(t),

where the exact radiation-reaction term (proportional to the third
derivative) has been replaced by its on-shell value x''' ~= -omega0^2 x'.
The reduction is exact in the frequency domain to first order in
tau*omega0 and removes the runaway solutions of naive time stepping; the
resulting amplitude decay rate gamma = tau*omega0^2/2 is the pole rate of
the exact response.  Each step applies the exact matrix exponential of the
damped linear system with the field held constant over dt, so the
integrator is exact for piecewise-constant input at any step size.

No scenario runs the recursion: a field synthesized on the FFT lattice is
periodic with period n*dt, so the exact periodic steady state of the same
recursion is X_j = H(z_j) * E_j on the half-spectrum coefficients E_j of
the field, with z_j = exp(2 pi i j/n) and H the z-transfer of the
recursion (``response_transfer``).  It needs no burn-in.  A kicked start
is, by linearity, that steady state plus the homogeneous decay
(``homogeneous_decay``): the closed form that ``_positions``' recursion
reproduces on a zero field.

The canonical momentum needs no second transform.  Its gain T is the
periodic trapezoid rule p[k] - p[k-1] = -(m omega0^2 dt/2)(x[k] + x[k-1]),
so ``apply_momentum_gain`` applies T to a position series by one
cumulative sum, and applies it along the lags of a correlation as well:
the momentum correlations follow from the position ones.
``canonical_momentum`` is that recursion with the zero-mean constant.

The free particle (omega0 = 0) has no recursion: with no restoring force
the reduction degenerates.  Its gain is the exact free response
chi_j = -1/(omega_j^2 (1 - i tau omega_j)), whose squared modulus is
``spectra.position_transfer``, and its canonical momentum is nil.

The time-domain integrator (``simulate_oscillator``, ``simulate_dipoles``)
and the direct free-particle sampler (``sample_from_spectrum``) stay as
the tests' oracles of these responses; ``simulate_oscillator`` is also the
property suite's path.  They return position arrays; a reader that wants
the momentum of a bound oscillator's x applies ``canonical_momentum``.
The integrator, ``_positions``, runs the two-term recursion as a
first-order recursion over one of its complex poles, scanned in blocks of
at most 8,192 steps by a cumulative sum, with numpy alone; it agrees with
a direct evaluation of the recursion (``scipy.signal.lfilter``, in the
tests) to about 1e-13 of the series' range.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import GridSpec, SystemParams, burn_in_samples
from .errors import BurnInExceedsTrajectory, InvalidParams
from .noise import FieldPair, FieldRealization, synthesis_band, synthesize_series


def _propagator(params: SystemParams, dt: float):
    """Exact one-step (A, B) of the reduced system for piecewise-constant input."""
    w0 = params.omega0
    gam = params.damping_rate
    wd = math.sqrt(w0 ** 2 - gam ** 2)
    e = math.exp(-gam * dt)
    c, s = math.cos(wd * dt), math.sin(wd * dt)
    a11 = e * (c + gam * s / wd)
    a12 = e * s / wd
    a21 = -(w0 ** 2) * e * s / wd
    a22 = e * (c - gam * s / wd)
    b1 = (1.0 - a11) / w0 ** 2
    b2 = -a21 / w0 ** 2
    return (a11, a12, a21, a22), (b1, b2)


#: Steps that ``_positions`` scans per chunk, in whole blocks.
_SCAN_CHUNK = 1 << 15


def _scan_block(params: SystemParams, dt: float) -> int:
    """Steps per block of ``_positions``' scan: the most B <= 8192 with
    |lambda|^-B = e^{gamma dt B} <= 8, so the scaled terms of one block's
    cumulative sum span at most a factor 8 (under one digit)."""
    return max(1, min(8192, int(math.log(8.0) / (params.damping_rate * dt))))


def _positions(params: SystemParams, eps: np.ndarray, dt: float,
               x0: float, v0: float) -> np.ndarray:
    """Propagate the reduced oscillator from (x0, v0) through the field array.

    x[k] is the position at t = k*dt; the field sample eps[k] acts on
    [k*dt, (k+1)*dt).  The exact one-step propagator, eliminated to its
    two-term recursion in x alone,

        x[k] = tr x[k-1] - det x[k-2] + b1 eps[k-1] + c2 eps[k-2],

    evaluated as a first-order complex recursion.  Its poles are lambda and
    conj(lambda), lambda = e^{-gamma dt} e^{i wd dt} (tr = 2 Re lambda,
    det = |lambda|^2), so w[k] = x[k] - conj(lambda) x[k-1] obeys
    w[k] = lambda w[k-1] + v[k], v[k] = b1 eps[k-1] + c2 eps[k-2], and
    x[k] = Im(lambda w[k]) / Im(lambda), since w[k+1] - lambda w[k] = v[k+1]
    is real.  Within a block of B steps after a carried u = lambda w[s-1],

        lambda w[s+i] = lambda^(i+1) (u + cumsum(lambda^-l v[s+l])_i),

    and ``_scan_block`` keeps |lambda|^-B <= 8, so the cumulative sum loses
    under one digit.  Each block's sum gives the next block's carry,
    u <- lambda^B (u + sum), so one cumulative sum along the rows of a
    (blocks x B) array scans up to ``_SCAN_CHUNK`` steps at once: a few
    numpy calls per chunk rather than per block, since each call releases
    and retakes the interpreter lock, which pool threads that integrate at
    once contend for.  The chunk buffer is reused through the call.
    """
    n = eps.size
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    x = np.empty(n)
    x[0] = x0
    if n > 1:
        x[1] = a11 * x0 + a12 * v0 + b1 * eps[0]
    if n > 2:
        c2 = a12 * b2 - a22 * b1
        gam = params.damping_rate
        log_lam = complex(-gam * dt, math.sqrt(params.omega0 ** 2 - gam ** 2) * dt)
        lam = cmath.exp(log_lam)
        size = min(n - 2, _scan_block(params, dt))
        steps = np.arange(size)
        down = np.exp(-log_lam * steps) * (b1 / lam.imag)  # lambda^-l b1 / Im(lambda)
        up = np.exp(log_lam * (steps + 1))                  # lambda^(l+1)
        rows_max = max(1, _SCAN_CHUNK // size)
        acc = np.empty(rows_max * size, dtype=complex)
        carry = np.empty(rows_max, dtype=complex)
        # x[2:] holds v[k]/b1 = eps[k-1] + (c2/b1) eps[k-2] until it is scanned
        v = np.multiply(eps[: n - 2], c2 / b1, out=x[2:])
        v += eps[1 : n - 1]
        u = (lam * x[1] - math.exp(-2.0 * gam * dt) * x0) / lam.imag  # lambda w[1] / Im(lambda)
        full, rest = divmod(n - 2, size)
        chunks = [(size, min(rows_max, full - r)) for r in range(0, full, rows_max)]
        if rest:
            chunks.append((rest, 1))
        s = 2
        for width, rows in chunks:
            m = rows * width
            vs = x[s : s + m].reshape(rows, width)
            a = np.multiply(down[:width], vs, out=acc[:m].reshape(rows, width))
            step = cmath.exp(log_lam * width)
            for k, total in enumerate(a.sum(axis=1).tolist()):
                carry[k] = u                 # lambda w / Im(lambda) before block k
                u = step * (u + total)
            a[:, 0] += carry[:rows]
            np.cumsum(a, axis=1, out=a)
            a *= up[:width]                  # lambda w[s+i] / Im(lambda)
            np.copyto(vs, a.imag)
            s += m
    return x


def homogeneous_decay(params: SystemParams, t: np.ndarray, x0: float, v0: float) -> np.ndarray:
    """The reduced oscillator's free decay from (x0, v0) at the times t,

        x(t) = e^{-gamma t} (x0 cos(wd t) + (v0 + gamma x0)/wd sin(wd t)),

    wd = sqrt(omega0^2 - gamma^2): ``_positions`` on a zero field, in
    closed form."""
    gam = params.damping_rate
    wd = math.sqrt(params.omega0 ** 2 - gam ** 2)
    t = np.asarray(t, dtype=float)
    return np.exp(-gam * t) * (x0 * np.cos(wd * t) + (v0 + gam * x0) / wd * np.sin(wd * t))


def _lattice_phases(n: int, size: int) -> np.ndarray:
    """The half-angle phases e^{-i pi j/n}, j = 0..size-1, from two tables.

    With m = ceil(sqrt(size)) and j = q m + r, the phase is the product of
    a coarse entry e^{-i pi q m/n} and a fine one e^{-i pi r/n}: about
    2 sqrt(size) sines and cosines instead of a complex exponential per
    bin (pocketfft forms its twiddles the same way).  The tables are
    evaluated in long double, and the product as c + c (f - 1), with the
    fine entry less one, f - 1 = -2 sin^2(a/2) - i sin(a), which is small:
    where long double is the x87 extended format, every phase is within
    about 1.1e-16 of its exact value, and within 4e-16 of
    ``np.exp(-1j * pi * j / n)``, whose argument rounds.
    """
    m = math.isqrt(max(size - 1, 0)) + 1
    rows = -(-size // m)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    coarse = pi * (m * np.arange(rows, dtype=np.longdouble)) / n
    fine = pi * np.arange(m, dtype=np.longdouble) / n
    c = (np.cos(coarse) - 1j * np.sin(coarse)).astype(complex)
    f_m1 = (-2.0 * np.sin(0.5 * fine) ** 2 - 1j * np.sin(fine)).astype(complex)
    phases = np.multiply.outer(c, f_m1)
    phases += c[:, None]
    return phases.ravel()[:size]


def response_transfer(params: SystemParams, grid: GridSpec):
    """Steady-state gains (H_j, T_j) of the oscillator on one period of the
    grid, on the synthesis band j = 0..j_max of the fields drawn on it.

    For a field with half-spectrum coefficients E_j (the numpy ``rfft`` of
    one period of its samples) the periodic steady state of
    ``_positions``' recursion is X_j = H_j E_j, with

        H(z) = (b1 z^-1 + c2 z^-2) / (1 - tr z^-1 + det z^-2),  z_j = exp(2 pi i j/n),

    and its canonical momentum, by the periodic trapezoid rule with zero
    mean, is P_j = T_j X_j with

        T_j = -m omega0^2 dt/2 * (1 + z^-1)/(1 - z^-1) = i m omega0^2 dt/2 * cot(pi j/n),

    T_0 = 0.  T is purely imaginary (its real part is exactly 0), so
    C_xp = irfft(T |X|^2)/n is odd in the lag.  Scenarios apply T by its
    recursion, ``apply_momentum_gain``.

    Both come from the half-angle phases w_j = e^{-i pi j/n} of
    ``_lattice_phases`` (within about 1e-16 of exact): z^-1 = w^2, and
    cot(pi j/n) = -Re(w_j)/Im(w_j), so no bin takes an exponential or a
    tangent.  On the default grids H differs from the complex-exponential
    evaluation by at most 3e-12 relative (near the resonance, where the
    denominator is small), and T by rounding.

    For the free particle (omega0 = 0) H is the exact free response
    chi_j = -1/(omega_j^2 (1 - i tau omega_j)), H_0 = 0, and T = 0.

    Above the band the field has no power, so the gains stop there: each
    has j_max + 1 entries, as a ``Synthesis.draw`` has.
    """
    dt, n = grid.dt, grid.n_samples
    band = synthesis_band(dt, n, grid.omega_cut) + 1
    t = np.zeros(band, dtype=complex)
    if params.omega0 == 0.0:
        h = np.zeros(band, dtype=complex)
        w = grid.domega * np.arange(1, band)
        h[1:] = -1.0 / (w ** 2 * (1.0 - 1j * params.tau * w))
        return h, t
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    tr, det = a11 + a22, math.exp(-2.0 * params.damping_rate * dt)
    c2 = a12 * b2 - a22 * b1
    phases = _lattice_phases(n, band)
    tb = np.divide(phases.real[1:], phases.imag[1:], out=t.imag[1:])
    tb *= momentum_step(params, dt)
    zinv = np.square(phases, out=phases)
    h = np.multiply(c2, zinv)
    h += b1
    h *= zinv
    den = np.multiply(det, zinv)
    den -= tr
    den *= zinv
    den += 1.0
    h /= den
    return h, t


def momentum_step(params: SystemParams, dt: float) -> float:
    """g = -m omega0^2 dt/2: T = g (1 + z^-1)/(1 - z^-1) of ``response_transfer``."""
    return -0.5 * params.m * params.omega0 ** 2 * dt


def apply_momentum_gain(f: np.ndarray, g: float, y0: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """The recursion y[k] = y[k-1] + g (f[k] + f[k-1]) from y[0] = y0.

    Its z-transfer is g (1 + z^-1)/(1 - z^-1): for g = ``momentum_step``
    it is the momentum gain T of ``response_transfer``, applied in the time
    domain (f a position series, y its momentum) or in the lag domain (f a
    correlation with x in the leading argument, y the same correlation with
    p there).  It is exact for every sinusoid on the lattice, so it equals
    the transform route whenever y0 is the right start: p[0] for a series,
    the lag-0 value for a correlation.  O(n), one cumulative sum into
    ``out`` (of f's size, not f itself; fresh by default).
    """
    out = np.empty_like(f, dtype=float) if out is None else out
    np.add(f[1:], f[:-1], out=out[1:])
    out[1:] *= g
    out[0] = y0
    return np.cumsum(out, out=out)


def canonical_momentum(x: np.ndarray, params: SystemParams, dt: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """p(t) from dp/dt = -m*omega0^2*x by the trapezoid rule: T of
    ``response_transfer`` applied to x by ``apply_momentum_gain``.

    The integration constant is chosen so the series has zero mean over
    the (stationary) segment; on one period of a steady state this is
    irfft(T X).  ``out`` (not x) receives p; fresh by default.
    """
    p = apply_momentum_gain(x, momentum_step(params, dt), 0.0, out)
    p -= p.mean()
    return p


def simulate_oscillator(
    params: SystemParams,
    field: FieldRealization,
    burn_in: int | None = None,
) -> np.ndarray:
    """Drive the oscillator with a field realization and discard burn-in.

    Parameters
    ----------
    burn_in : int, optional
        Samples to discard; default 10/(tau*omega0^2) time units, five
        e-folds of the slowest relaxation.

    Returns
    -------
    The position x[k] at t = (burn_in + k)*dt, from rest at t = 0.

    Raises
    ------
    BurnInExceedsTrajectory
        When the burn-in would consume the whole realization.
    """
    if params.omega0 <= 0:
        raise InvalidParams(["simulate_oscillator requires omega0 > 0; "
                             "use sample_from_spectrum for the free particle"])
    eps = field.samples
    dt = field.dt
    nb = burn_in_samples(params, dt) if burn_in is None else int(burn_in)
    if nb >= eps.size:
        raise BurnInExceedsTrajectory(
            f"burn-in {nb} samples >= trajectory length {eps.size}"
        )
    return _positions(params, eps, dt, 0.0, 0.0)[nb:]


def sample_from_spectrum(spectrum, grid: GridSpec, seed) -> np.ndarray:
    """Sample a position process directly from its one-sided spectrum.

    The oracle of the free-particle response: from the same seed it draws
    the normals ``Synthesis.draw`` draws, so its |rfft(x)|^2 is
    |H_j E_j|^2 of ``response_transfer``.  Returns the position x,
    ``grid.n_samples`` long; the free particle's canonical momentum has a
    nil spectrum, so it has no series of its own.
    """
    rng = np.random.default_rng(seed)
    return synthesize_series(spectrum, grid.dt, grid.n_samples, grid.omega_cut, rng)


def simulate_dipoles(
    params: SystemParams,
    pair: FieldPair,
) -> tuple[np.ndarray, np.ndarray]:
    """Two coupled dipoles driven by independent fields.

    Decouples into normal modes x_pm = (x1 +- x2)/sqrt(2) with squared
    frequencies omega0^2 -+ K/m driven by eps_pm, integrates each mode
    after a burn-in common to both, and transforms back.  Returns the
    positions (x1, x2) of the two dipoles.
    """
    if not abs(params.K) < params.m * params.omega0 ** 2:
        raise InvalidParams([f"|K| = {abs(params.K)} must be < m*omega0^2"])
    pp = params.mode_params(+1)
    pm = params.mode_params(-1)
    dt = pair.eps_plus.dt
    nb = max(burn_in_samples(pp, dt), burn_in_samples(pm, dt))

    xp = simulate_oscillator(pp, pair.eps_plus, burn_in=nb)
    xm = simulate_oscillator(pm, pair.eps_minus, burn_in=nb)
    root2 = math.sqrt(2.0)
    return (xp + xm) / root2, (xp - xm) / root2
