"""Closed-form spectral densities of the driving field and the particle processes.

All spectra are one-sided: the process variance is the integral of S over
omega >= 0.  The reduced driving field eps = e*E/m has zeropoint density

    S_eps(omega) = hbar * tau * omega^3 / (pi * m),

the Planck model multiplies this by coth(hbar*omega / 2kT), and the
Rayleigh-Jeans model is the classical-limit substitution hbar*omega -> 2kT,
giving 2*kT*tau*omega^2/(pi*m).  The position response of the damped
oscillator carries the exact resonance denominator
(omega0^2 - omega^2)^2 + tau^2*omega^6; no Lorentzian approximation is made
here (approximations live in the analytic module, where tau -> 0 is taken).
"""

from __future__ import annotations

import math

import numpy as np

from .core import FIELD_SCALES, PLANCK, RAYLEIGH_JEANS, ZPF, SystemParams
from .errors import InvalidParams, NegativeFrequency


def _coth(x, out=None):
    """coth(x) for x > 0, as 1/tanh(x), which needs no cases: for tiny x,
    tanh(x) = x - x^3/3 to rounding, so this is 1/x + x/3, and from about
    x = 19 on, tanh(x) rounds to 1.  Given ``out`` (which may be x), it is
    formed there."""
    return np.divide(1.0, np.tanh(np.asarray(x, dtype=float), out=out), out=out)


def field_spectrum(field: str, params: SystemParams, omega):
    """Reduced-field spectral density S_eps(omega), one-sided, of the field
    of kind ``field`` (a key of ``core.FIELD_SCALES``) at ``params.kT``.

    Planck reduces to pure zeropoint pointwise as kT -> 0; every closed
    form vanishes at omega = 0 through its omega-power prefactor.

    The zeropoint form is evaluated in the result array, and the Planck
    factor in one more: each operation is applied in place, in the order
    of the formula, so the values are the formula's to the last bit.
    """
    if field not in FIELD_SCALES:
        raise InvalidParams([f"unknown field kind {field!r}; valid: {tuple(FIELD_SCALES)}"])
    if field != ZPF and params.kT < 0:
        raise InvalidParams([f"kT must be >= 0, got {params.kT}"])
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise NegativeFrequency(f"omega must be >= 0, got min {omega.min()}")
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)

    if field == RAYLEIGH_JEANS:
        s = 2.0 * params.kT * params.tau * w ** 2 / (math.pi * params.m)
    else:
        s = np.power(w, 3)
        s *= params.hbar * params.tau
        s /= math.pi * params.m
        if field == PLANCK and params.kT != 0.0:
            arg = np.multiply(params.hbar, w)
            with np.errstate(over="ignore"):  # past the float range, coth is 1
                arg /= 2.0 * params.kT
            arg[w == 0] = 1.0  # s is 0 there, and coth(1) keeps it so
            s *= _coth(arg, out=arg)
    return float(s[0]) if scalar else s


def position_transfer(omega, params: SystemParams):
    """Squared gain 1/[(omega0^2 - omega^2)^2 + tau^2 omega^6] from S_eps to S_x."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise NegativeFrequency(f"omega must be >= 0, got min {omega.min()}")
    den = (params.omega0 ** 2 - omega ** 2) ** 2 + params.tau ** 2 * omega ** 6
    return 1.0 / den
