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
``_integrate`` on a zero field.

The free particle (omega0 = 0) has no recursion: with no restoring force
the reduction degenerates.  Its gain is the exact free response
chi_j = -1/(omega_j^2 (1 - i tau omega_j)), whose squared modulus is
``spectra.position_transfer``, and its canonical momentum is nil.

The time-domain integrator (``simulate_oscillator``, ``simulate_dipoles``)
and the direct free-particle sampler (``sample_from_spectrum``) stay as
the tests' oracles of these responses; ``simulate_oscillator`` is also the
property suite's path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.signal import lfilter, lfiltic

from .core import GridSpec, SystemParams, burn_in_samples
from .errors import BurnInExceedsTrajectory, InvalidParams
from .noise import FieldPair, FieldRealization, synthesis_band, synthesize_series


@dataclass(frozen=True)
class Trajectory:
    """Time series of one system realization on a uniform grid."""

    dt: float
    x: np.ndarray
    v: np.ndarray | None
    p: np.ndarray
    params: SystemParams

    @property
    def n_samples(self) -> int:
        return self.x.size


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


def _integrate(params: SystemParams, eps: np.ndarray, dt: float,
               x0: float = 0.0, v0: float = 0.0):
    """Propagate the reduced oscillator through the full field array.

    Returns (x, v) with x[k], v[k] the state at t = k*dt; the field sample
    eps[k] acts on [k*dt, (k+1)*dt).
    """
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

    v = np.empty(n)
    v[0] = v0
    if n > 1:
        v[:-1] = (x[1:] - a11 * x[:-1] - b1 * eps[:-1]) / a12
        v[-1] = a21 * x[-2] + a22 * v[-2] + b2 * eps[-2]
    return x, v


def response_transfer(params: SystemParams, grid: GridSpec):
    """Steady-state gains (H_j, T_j), j = 0..n//2, of the oscillator on one
    period of the grid, for fields synthesized on it.

    For a field with half-spectrum coefficients E_j (the numpy ``rfft`` of
    one period of its samples) the periodic steady state of
    ``_integrate``'s recursion is X_j = H_j E_j, with

        H(z) = (b1 z^-1 + c2 z^-2) / (1 - tr z^-1 + det z^-2),  z_j = exp(2 pi i j/n),

    and its canonical momentum, by the periodic trapezoid rule with zero
    mean, is P_j = T_j X_j with

        T_j = -m omega0^2 dt/2 * (1 + z^-1)/(1 - z^-1) = i m omega0^2 dt/2 * cot(pi j/n),

    T_0 = 0.  T is purely imaginary, so C_xp = irfft(T |X|^2)/n is odd in
    the lag.

    For the free particle (omega0 = 0) H is the exact free response
    chi_j = -1/(omega_j^2 (1 - i tau omega_j)), H_0 = 0, and T = 0.

    Both are evaluated on the synthesis band only and are zero above it,
    where the field has no power.
    """
    dt, n = grid.dt, grid.n_samples
    j = np.arange(synthesis_band(dt, n, grid.omega_cut) + 1)
    h = np.zeros(n // 2 + 1, dtype=complex)
    t = np.zeros(n // 2 + 1, dtype=complex)
    if params.omega0 == 0.0:
        w = grid.domega * j[1:]
        h[1 : j.size] = -1.0 / (w ** 2 * (1.0 - 1j * params.tau * w))
        return h, t
    (a11, a12, a21, a22), (b1, b2) = _propagator(params, dt)
    tr, det = a11 + a22, math.exp(-2.0 * params.damping_rate * dt)
    c2 = a12 * b2 - a22 * b1
    zinv = np.exp(-2j * math.pi * j / n)
    h[: j.size] = zinv * (b1 + c2 * zinv) / (1.0 + zinv * (det * zinv - tr))
    t[1 : j.size] = 0.5j * params.m * params.omega0 ** 2 * dt / np.tan(math.pi * j[1:] / n)
    return h, t


def canonical_momentum(x: np.ndarray, params: SystemParams, dt: float) -> np.ndarray:
    """p(t) from dp/dt = -m*omega0^2*x by trapezoidal accumulation.

    The integration constant is chosen so the series has zero mean over
    the (stationary) segment.
    """
    p = -params.m * params.omega0 ** 2 * cumulative_trapezoid(x, dx=dt, initial=0.0)
    return p - p.mean()


def simulate_oscillator(
    params: SystemParams,
    field: FieldRealization,
    burn_in: int | None = None,
) -> Trajectory:
    """Drive the oscillator with a field realization and discard burn-in.

    Parameters
    ----------
    burn_in : int, optional
        Samples to discard; default 10/(tau*omega0^2) time units, five
        e-folds of the slowest relaxation.

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

    x, v = _integrate(params, eps, dt)
    x, v = x[nb:], v[nb:]
    p = canonical_momentum(x, params, dt)
    return Trajectory(dt=dt, x=x, v=v, p=p, params=params)


def sample_from_spectrum(
    spectrum,
    grid: GridSpec,
    seed,
    params: SystemParams,
) -> Trajectory:
    """Sample a position process directly from its one-sided spectrum.

    The oracle of the free-particle response: from the same seed it draws
    the normals ``field_coefficients`` draws, so its |rfft(x)|^2 is
    |H_j E_j|^2 of ``response_transfer``.  The canonical momentum of the
    free particle has a nil spectrum, so p is identically zero; v is
    omitted.
    """
    rng = np.random.default_rng(seed)
    x = synthesize_series(spectrum, grid.dt, grid.n_samples, grid.omega_cut, rng)
    return Trajectory(dt=grid.dt, x=x, v=None, p=np.zeros_like(x), params=params)


def simulate_dipoles(
    params: SystemParams,
    pair: FieldPair,
) -> tuple[Trajectory, Trajectory]:
    """Two coupled dipoles driven by independent fields.

    Decouples into normal modes x_pm = (x1 +- x2)/sqrt(2) with squared
    frequencies omega0^2 -+ K/m driven by eps_pm, integrates each mode,
    and transforms back.  Momenta are the per-mode canonical momenta
    transformed the same way.
    """
    if not abs(params.K) < params.m * params.omega0 ** 2:
        raise InvalidParams([f"|K| = {abs(params.K)} must be < m*omega0^2"])
    pp = params.mode_params(+1)
    pm = params.mode_params(-1)
    dt = pair.eps_plus.dt
    nb = max(burn_in_samples(pp, dt), burn_in_samples(pm, dt))

    tp = simulate_oscillator(pp, pair.eps_plus, burn_in=nb)
    tm = simulate_oscillator(pm, pair.eps_minus, burn_in=nb)

    root2 = math.sqrt(2.0)

    def mix(ap, am, s):
        return (ap + s * am) / root2

    trajs = []
    for s in (+1, -1):
        trajs.append(Trajectory(
            dt=dt,
            x=mix(tp.x, tm.x, s),
            v=mix(tp.v, tm.v, s),
            p=mix(tp.p, tm.p, s),
            params=params,
        ))
    return trajs[0], trajs[1]
