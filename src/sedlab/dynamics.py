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
is, by linearity, that steady state plus the homogeneous decay, which is
``_positions`` on a zero field.

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
"""

from __future__ import annotations

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


def _positions(params: SystemParams, eps: np.ndarray, dt: float,
               x0: float, v0: float) -> np.ndarray:
    """Propagate the reduced oscillator from (x0, v0) through the field array.

    x[k] is the position at t = k*dt; the field sample eps[k] acts on
    [k*dt, (k+1)*dt).  The exact one-step propagator, eliminated to its
    two-term recursion in x alone.
    """
    from scipy.signal import lfilter, lfiltic

    n = eps.size
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    tr, det = a11 + a22, math.exp(-2.0 * params.damping_rate * dt)

    x = np.empty(n)
    x[0] = x0
    if n > 1:
        x[1] = a11 * x0 + a12 * v0 + b1 * eps[0]
    if n > 2:
        # x[k] = tr x[k-1] - det x[k-2] + b1 eps[k-1] + c2 eps[k-2]
        c2 = a12 * b2 - a22 * b1
        zi = lfiltic([b1, c2], [1.0, -tr, det], y=[x[1], x[0]], x=[eps[0]])
        x[2:], _ = lfilter([b1, c2], [1.0, -tr, det], eps[1 : n - 1], zi=zi)
    return x


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
