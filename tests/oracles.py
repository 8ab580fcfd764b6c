"""Closed forms and routes that sedlab no longer takes at run time: the
position and canonical-momentum spectra of the oscillator and its
stationary correlations, and the member route of the steady-state normal
modes, which formed each member's band X = E H.  No row reads them (the
scenarios take the response gains of ``sedlab.dynamics``, the closed forms
of ``sedlab.analytic`` and the drawn laws of ``sedlab.experiments``), so
they live beside the tests that cross-check against them.
"""

from __future__ import annotations

import numpy as np

from sedlab.core import GridSpec, SystemParams
from sedlab.dynamics import response_transfer
from sedlab.errors import SedlabError
from sedlab.estimators import decorrelated, fold
from sedlab.experiments import Workspace, _energy, _mode_seeds, _steady_state, join_members
from sedlab.noise import field_synthesis
from sedlab.spectra import field_spectrum, position_transfer


class ZeroFrequencyMomentum(SedlabError):
    """The canonical-momentum spectrum carries 1/omega^2 and is undefined at omega = 0."""


def position_spectrum(field: str, params: SystemParams, omega):
    """S_x(omega) = S_eps(omega) * position_transfer(omega)."""
    return field_spectrum(field, params, omega) * position_transfer(omega, params)


def momentum_spectrum(field: str, params: SystemParams, omega):
    """Canonical-momentum spectrum S_p = m^2 omega0^4 S_x / omega^2.

    Identically zero for the free particle (omega0 = 0); undefined at
    omega = 0 for the bound one.
    """
    omega = np.asarray(omega, dtype=float)
    if params.omega0 == 0.0:
        return np.zeros_like(omega) if omega.ndim else 0.0
    if np.any(omega == 0.0):
        raise ZeroFrequencyMomentum("S_p carries 1/omega^2; omega = 0 not allowed")
    sx = position_spectrum(field, params, omega)
    return params.m ** 2 * params.omega0 ** 4 * sx / omega ** 2


def correlation_closed(params: SystemParams, t):
    """Stationary correlations (C_xx, C_pp, C_xp) at lag t, pole decay rate.

    C_xp is in the lag-on-second-argument convention
    C_xp(u) = <x(t) p(t+u)> = -(hbar/2) sin(omega0 u) exp(-gamma |u|);
    its sign flips if the lag is applied to the first argument instead.
    """
    t = np.asarray(t, dtype=float)
    hb, m, w0 = params.hbar, params.m, params.omega0
    env = np.exp(-params.damping_rate * np.abs(t))
    c_xx = hb / (2.0 * m * w0) * np.cos(w0 * t) * env
    c_pp = 0.5 * m * hb * w0 * np.cos(w0 * t) * env
    c_xp = -0.5 * hb * np.sin(w0 * t) * env
    return c_xx, c_pp, c_xp


def mean_square(coeffs: np.ndarray, n: int) -> float:
    """Time average of x^2 for x = irfft(coeffs, n), by Parseval.

    ``coeffs`` may stop short of the Nyquist bin: entries j = 0..b-1 of the
    half-spectrum, b <= n//2 + 1, with zeros above (a band).

    One pass and no temporary: sum_j |c_j|^2 is the inner product of the
    coefficients' float64 view with itself (``einsum``).  Every bin counts
    twice but j = 0 and an even-n Nyquist bin, which appear once.  A
    non-contiguous input is copied first.
    """
    c = np.ascontiguousarray(coeffs, dtype=complex)
    v = c.view(np.float64)
    total = 2.0 * np.einsum("i,i->", v, v) - (v[0] ** 2 + v[1] ** 2)
    if n % 2 == 0 and c.size == n // 2 + 1:
        total -= v[-2] ** 2 + v[-1] ** 2
    return float(total) / n ** 2


def band_mode_members(field: str, params: SystemParams, grid: GridSpec, modes, jobs: int,
                      x_dec=None, u_dec=None) -> dict:
    """``experiments._mode_members`` by the band route: each member draws
    its band X = E H of every mode (``noise.Synthesis.draw`` from
    ``_mode_seeds``, 2 j_max normals) and P = T X, and keeps the same keys,
    <x^2> and <p^2> by Parseval (``mean_square``) and ``decorrelated``
    subsamples of the folds of X (and P) at ``x_dec`` and ``u_dec``."""
    dt, n = grid.dt, grid.n_samples
    synthesis = field_synthesis(field, params, grid)
    gains = [response_transfer(q, grid) for q in modes]
    ws = Workspace(n)

    def worker(k):
        res = {}
        seeds = _mode_seeds(grid.seed, k, len(modes))
        for i, (q, (H, T), s) in enumerate(zip(modes, gains, seeds)):
            X = _steady_state(synthesis, H, s, ws)
            res[f"x_sq{i}"] = mean_square(X, n)
            if x_dec is not None:
                res[f"x_sub{i}"] = decorrelated(fold(X, n, dt, x_dec), n, dt, x_dec)
            if u_dec is not None:
                x_u = decorrelated(fold(X, n, dt, u_dec), n, dt, u_dec)
            P = np.multiply(T, X, out=X)  # X is spent
            res[f"p_sq{i}"] = mean_square(P, n)
            if u_dec is not None:
                res[f"u_sub{i}"] = _energy(q, x_u ** 2,
                                           decorrelated(fold(P, n, dt, u_dec), n, dt, u_dec) ** 2)
        return res

    return join_members(worker, grid.n_ensemble, jobs)
