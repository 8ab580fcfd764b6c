"""Closed forms that sedlab no longer evaluates at run time: the position
and canonical-momentum spectra of the oscillator and its stationary
correlations.  No row reads them (the scenarios take the response gains
of ``sedlab.dynamics`` and the closed forms of ``sedlab.analytic``), so
they live beside the tests that cross-check against them.
"""

from __future__ import annotations

import numpy as np

from sedlab.core import SystemParams
from sedlab.errors import SedlabError
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
