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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import SystemParams
from .errors import (
    InvalidParams,
    NegativeFrequency,
    QuadratureFailure,
    ZeroFrequencyMomentum,
)

ZPF = "zpf"
PLANCK = "planck"
RAYLEIGH_JEANS = "rayleigh_jeans"

_KINDS = (ZPF, PLANCK, RAYLEIGH_JEANS)


@dataclass(frozen=True)
class SpectrumModel:
    """One-sided spectral-density family for the reduced driving field."""

    kind: str = ZPF
    kT: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParams([f"unknown spectrum kind {self.kind!r}; valid: {_KINDS}"])
        if self.kind in (PLANCK, RAYLEIGH_JEANS) and self.kT < 0:
            raise InvalidParams([f"kT must be >= 0, got {self.kT}"])

    @classmethod
    def zpf(cls) -> "SpectrumModel":
        return cls(kind=ZPF)

    @classmethod
    def planck(cls, kT: float) -> "SpectrumModel":
        return cls(kind=PLANCK, kT=kT)

    @classmethod
    def rayleigh_jeans(cls, kT: float) -> "SpectrumModel":
        return cls(kind=RAYLEIGH_JEANS, kT=kT)

    def label(self) -> str:
        if self.kind in (PLANCK, RAYLEIGH_JEANS):
            return f"{self.kind}(kT={self.kT:g})"
        return self.kind


def _coth(x):
    """coth(x) for x > 0, as 1/tanh(x), which needs no cases: for tiny x,
    tanh(x) = x - x^3/3 to rounding, so this is 1/x + x/3, and from about
    x = 19 on, tanh(x) rounds to 1."""
    return 1.0 / np.tanh(np.asarray(x, dtype=float))


def field_spectrum(model: SpectrumModel, params: SystemParams, omega):
    """Reduced-field spectral density S_eps(omega), one-sided.

    Planck reduces to pure zeropoint pointwise as kT -> 0; every closed
    form vanishes at omega = 0 through its omega-power prefactor.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise NegativeFrequency(f"omega must be >= 0, got min {omega.min()}")
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)

    zpf = params.hbar * params.tau * w ** 3 / (math.pi * params.m)
    if model.kind == ZPF:
        s = zpf
    elif model.kind == PLANCK:
        if model.kT == 0.0:
            s = zpf
        else:
            arg = params.hbar * w / (2.0 * model.kT)
            s = np.where(w > 0, zpf * _coth(np.where(w > 0, arg, 1.0)), 0.0)
    else:
        s = 2.0 * model.kT * params.tau * w ** 2 / (math.pi * params.m)
    return float(s[0]) if scalar else s


def position_transfer(omega, params: SystemParams):
    """Squared gain 1/[(omega0^2 - omega^2)^2 + tau^2 omega^6] from S_eps to S_x."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise NegativeFrequency(f"omega must be >= 0, got min {omega.min()}")
    den = (params.omega0 ** 2 - omega ** 2) ** 2 + params.tau ** 2 * omega ** 6
    return 1.0 / den


def position_spectrum(model: SpectrumModel, params: SystemParams, omega):
    """S_x(omega) = S_eps(omega) * position_transfer(omega)."""
    return field_spectrum(model, params, omega) * position_transfer(omega, params)


def momentum_spectrum(model: SpectrumModel, params: SystemParams, omega):
    """Canonical-momentum spectrum S_p = m^2 omega0^4 S_x / omega^2.

    Identically zero for the free particle (omega0 = 0); undefined at
    omega = 0 for the bound one.
    """
    omega = np.asarray(omega, dtype=float)
    if params.omega0 == 0.0:
        return np.zeros_like(omega) if omega.ndim else 0.0
    if np.any(omega == 0.0):
        raise ZeroFrequencyMomentum("S_p carries 1/omega^2; omega = 0 not allowed")
    sx = position_spectrum(model, params, omega)
    return params.m ** 2 * params.omega0 ** 4 * sx / omega ** 2


def spectral_moment(
    spectrum,
    n: int,
    omega_lo: float,
    omega_hi: float,
    params: SystemParams | None = None,
) -> float:
    """Integral of omega^n * S(omega) over [omega_lo, omega_hi].

    Adaptive quadrature with the resonance peak explicitly resolved: when
    ``params`` with omega0 > 0 is given and the resonance lies inside the
    range, sub-intervals are forced at omega0 +- 5*tau*omega0^2.

    Parameters
    ----------
    spectrum : callable
        S(omega), vectorized over a 1-d array.
    n : int
        Moment power.
    omega_lo, omega_hi : float
        Integration range, 0 <= omega_lo < omega_hi.

    Raises
    ------
    QuadratureFailure
        If the accumulated error estimate exceeds 1e-9*|result| + 1e-14.
    """
    if omega_lo < 0 or omega_hi <= omega_lo:
        raise InvalidParams([f"bad range [{omega_lo}, {omega_hi}]"])

    pts = {omega_lo, omega_hi}
    if params is not None and params.omega0 > 0:
        w0 = params.omega0
        half = 5.0 * params.tau * w0 ** 2
        for p in (w0 - half, w0, w0 + half, 2.0 * w0):
            if omega_lo < p < omega_hi:
                pts.add(p)
    pts = sorted(pts)

    def integrand(w):
        return w ** n * spectrum(np.asarray(w))

    total, err = 0.0, 0.0
    import warnings as _warnings

    for a, b in zip(pts[:-1], pts[1:]):
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            try:
                out = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-11,
                           limit=500, full_output=1)
            except Warning as w:
                raise QuadratureFailure(f"quad on [{a:g}, {b:g}]: {w}") from w
        val, e = out[0], out[1]
        if len(out) > 3:  # ier != 0 appends an explanation message
            raise QuadratureFailure(f"quad on [{a:g}, {b:g}]: {out[3]}")
        total += val
        err += e
    if err > 1e-9 * abs(total) + 1e-14:
        raise QuadratureFailure(
            f"error estimate {err:g} exceeds 1e-9*|{total:g}| + 1e-14"
        )
    return total
