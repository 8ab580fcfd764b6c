"""Adaptive quadrature of spectral moments: the tests' independent oracle of
the closed forms in ``sedlab.analytic`` and ``sedlab.spectra``.

sedlab itself integrates no spectrum at run time (its rows take closed
forms, and its estimators sum the synthesis lattice), so this cross-check
lives beside the tests that call it, with scipy's ``quad``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import quad

from sedlab.core import SystemParams
from sedlab.errors import InvalidParams, SedlabError


class QuadratureFailure(SedlabError):
    """Adaptive quadrature did not reach the requested accuracy."""


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
    for a, b in zip(pts[:-1], pts[1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
