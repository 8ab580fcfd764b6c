"""Closed-form predictions, evaluated exactly.

Every analytic value a report row compares against has its closed form
here, and only here; so has every value ``sedlab analytic`` prints.  The
only other entry is an oracle of those forms (the Boltzmann sum).  Where a
printed expression is internally inconsistent, the variance-consistent
(corrected) form is used and the printed one is exposed alongside, never
silently merged:

* Gaussian distributions take the variances fixed by the second moments
  (ground-state x variance hbar/(2 m omega0), etc.); printed exponents
  that imply twice that variance are treated as factor-2 slips.
* The amplitude decay rate is the pole rate gamma = tau*omega0^2/2
  everywhere.
* The windowed-energy dispersion returns three forms: the corrected
  closed form of the correlation-functional (the quantity the
  correlation-route estimator measures), the literal printed large-T
  expression, and the exact dispersion of a boxcar window average (which
  keeps the triangular overlap factor the correlation functional drops).
* The dipole interaction energy returns both the exact normal-mode value
  and the printed series coefficient, which disagree by a factor 4; the
  exact form is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams
from .errors import InvalidParams

EULER_GAMMA = 0.5772156649015329


#: ``math.erf`` over an array, element by element (an object array out).
_erf = np.frompyfunc(math.erf, 1, 1)


def _gaussian_cdf(var: float):
    sig = math.sqrt(var)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (1.0 + np.asarray(_erf(x / (sig * math.sqrt(2.0))), dtype=float))

    return cdf


def _exponential_cdf(mean: float):
    def cdf(u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0, 1.0 - np.exp(-u / mean), 0.0)

    return cdf


@dataclass(frozen=True)
class GroundStateStats:
    """Stationary statistics of the oscillator in the zeropoint field."""

    x_var: float
    p_var: float
    mean_energy: float
    x_cdf: object
    energy_cdf: object


def ground_state(params: SystemParams) -> GroundStateStats:
    """Ground-state moments and distributions in the tau -> 0 limit.

    x_var = hbar/(2 m omega0), p_var = m hbar omega0 / 2, mean energy
    hbar omega0 / 2.
    """
    if params.omega0 <= 0:
        raise InvalidParams(["ground_state requires omega0 > 0"])
    hb, m, w0 = params.hbar, params.m, params.omega0
    x_var = hb / (2.0 * m * w0)
    p_var = m * hb * w0 / 2.0
    mean_energy = 0.5 * hb * w0
    return GroundStateStats(
        x_var=x_var,
        p_var=p_var,
        mean_energy=mean_energy,
        x_cdf=_gaussian_cdf(x_var),
        energy_cdf=_exponential_cdf(mean_energy),
    )


def commutator_closed(params: SystemParams, t):
    """Closed-form commutator coefficients (c_xx, c_pp, c_xp) at lag t.

    c_xx(t) = (hbar/m omega0)[sin(omega0 t) + tau*omega0*sign(t)*cos(omega0 t)]
              * exp(-gamma |t|),
    c_pp(t) = hbar m omega0 sin(omega0 t) exp(-gamma |t|),
    c_xp(t) = hbar cos(omega0 t) in the tau -> 0 limit,
    with gamma = tau*omega0^2/2 the pole rate.
    """
    if params.omega0 <= 0:
        raise InvalidParams(["commutator_closed requires omega0 > 0"])
    t = np.asarray(t, dtype=float)
    hb, m, w0, tau = params.hbar, params.m, params.omega0, params.tau
    env = np.exp(-params.damping_rate * np.abs(t))
    c_xx = hb / (m * w0) * (np.sin(w0 * t) + tau * w0 * np.sign(t) * np.cos(w0 * t)) * env
    c_pp = hb * m * w0 * np.sin(w0 * t) * env
    c_xp = hb * np.cos(w0 * t)
    return c_xx, c_pp, c_xp


@dataclass(frozen=True)
class EnergyFluctuation:
    """Dispersion of the energy measured over a window T, three ways."""

    recomputed: float      # (hbar w0/2) sqrt((1-e^-x)/x), x = tau w0^2 T
    paper_printed: float   # hbar (1-e^-x) / (2 T w0 tau), no square root
    window_exact: float    # boxcar window average, triangular factor kept


def energy_fluctuation(params: SystemParams, t_window: float) -> EnergyFluctuation:
    """Closed forms for Delta U_T at window length T.

    ``recomputed`` rederives the correlation functional
    (1/2T) * integral_0^T of the squared stationary correlations with the
    Gaussian factorization and the pole decay rate; this is what the
    correlation-route estimator measures.  ``window_exact`` is the true
    standard deviation of the boxcar window average, which keeps the
    (1 - u/T) overlap factor and exceeds the recomputed form by sqrt(2)
    at large T.  ``paper_printed`` is the literal printed large-T
    expression, reported for side-by-side comparison, never asserted.
    All three approach hbar*omega0/2 as T -> 0.
    """
    if t_window <= 0:
        raise InvalidParams([f"t_window must be > 0, got {t_window}"])
    hb, w0, tau = params.hbar, params.omega0, params.tau
    x = tau * w0 ** 2 * t_window
    scale = 0.5 * hb * w0

    if x < 1e-6:
        recomputed = scale * math.sqrt(1.0 - 0.5 * x + x * x / 6.0)
        window = scale * math.sqrt(1.0 - x / 3.0 + x * x / 12.0)
        printed = scale * (1.0 - 0.5 * x + x * x / 6.0)
    else:
        em = math.exp(-x)
        recomputed = scale * math.sqrt((1.0 - em) / x)
        window = scale * math.sqrt(2.0 * (x - 1.0 + em)) / x
        printed = scale * (1.0 - em) / x
    return EnergyFluctuation(
        recomputed=recomputed, paper_printed=printed, window_exact=window
    )


@dataclass(frozen=True)
class FreeParticlePrediction:
    """Free-particle diffusion diagnostics."""

    thermal_dx2: float
    thermal_v_var: float
    zpf_log_slope: float
    zpf_log_constant: float
    zpf_dx2: float
    zpf_dv2: float
    electron_size: float


def free_particle(
    params: SystemParams,
    delta_t: float,
    omega_c: float,
) -> FreeParticlePrediction:
    """Closed-form free-particle dispersions at temperature ``params.kT``.

    Thermal (Rayleigh-Jeans) driving: Brownian structure function
    2 tau kT dt / m and equilibrium velocity variance kT/m.  Zeropoint
    driving: logarithmic position dispersion
    (2 hbar tau / pi m)(C + ln(dt/tau)) for dt >> tau, whose slope in
    ln(dt) is ``zpf_log_slope`` (C less ln(1 + (omega_c tau)^-2)/2, which a
    field cut at omega_c leaves out, is ``zpf_log_constant``), and a
    cutoff-dependent velocity dispersion (2 hbar / pi m tau) ln(omega_c tau),
    which is nonphysical where it exceeds c^2 (a known breakdown of the
    nonrelativistic treatment).  The electron-size output
    sqrt(4 C hbar tau / 3 pi m) is an order-of-magnitude quantity only.
    """
    if delta_t <= 0:
        raise InvalidParams([f"delta_t must be > 0, got {delta_t}"])
    if params.kT < 0:
        raise InvalidParams([f"kT must be >= 0, got {params.kT}"])
    hb, m, tau, kT = params.hbar, params.m, params.tau, params.kT
    thermal_dx2 = 2.0 * tau * kT * delta_t / m
    thermal_v_var = kT / m
    log_slope = 2.0 * hb * tau / (math.pi * m)
    zpf_dx2 = log_slope * (EULER_GAMMA + math.log(delta_t) - math.log(tau))
    zpf_dv2 = (2.0 * hb / (math.pi * m * tau)) * math.log(omega_c * tau)
    size = math.sqrt(4.0 * EULER_GAMMA * hb * tau / (3.0 * math.pi * m))
    return FreeParticlePrediction(
        thermal_dx2=thermal_dx2,
        thermal_v_var=thermal_v_var,
        zpf_log_slope=log_slope,
        zpf_log_constant=EULER_GAMMA - 0.5 * math.log1p((omega_c * tau) ** -2),
        zpf_dx2=zpf_dx2,
        zpf_dv2=zpf_dv2,
        electron_size=size,
    )


def heisenberg_product(params: SystemParams) -> float:
    """x_var * p_var = hbar^2/4 for the oscillator, independent of omega0."""
    gs = ground_state(params)
    return gs.x_var * gs.p_var


@dataclass(frozen=True)
class DipolePrediction:
    """Two coupled dipoles in independent zeropoint fields."""

    x_plus_var: float
    x_minus_var: float
    cross_cov: float
    mean_H: float
    E_int_exact: float
    E_int_paper_series: float
    rho_plus_cdf: object
    rho_minus_cdf: object


def dipole_prediction(params: SystemParams) -> DipolePrediction:
    """Normal-mode statistics of the coupled-dipole system.

    x_pm variance hbar/(2 m Omega_pm) with Omega_pm = sqrt(omega0^2 -+ K/m);
    mean energy (hbar/2)(Omega_+ + Omega_-); cross moment
    <x1 x2> = (<x_+^2> - <x_-^2>)/2.  E_int_exact = mean_H - hbar*omega0 is
    authoritative; the printed series coefficient -K^2 hbar/(2 m^2 omega0^3)
    disagrees with the expansion of the exact form, which gives
    -K^2 hbar/(8 m^2 omega0^3), and is exposed for comparison only.
    """
    hb, m, w0, K = params.hbar, params.m, params.omega0, params.K
    if not abs(K) < m * w0 ** 2:
        raise InvalidParams([f"|K| = {abs(K)} must be < m*omega0^2 = {m * w0 ** 2}"])
    wp = math.sqrt(w0 ** 2 - K / m)
    wm = math.sqrt(w0 ** 2 + K / m)
    xp_var = hb / (2.0 * m * wp)
    xm_var = hb / (2.0 * m * wm)
    mean_h = 0.5 * hb * (wp + wm)
    return DipolePrediction(
        x_plus_var=xp_var,
        x_minus_var=xm_var,
        cross_cov=0.5 * (xp_var - xm_var),
        mean_H=mean_h,
        E_int_exact=mean_h - hb * w0,
        # -K^2 hbar/(2 m^2 w0^3), in factors that stay finite where the
        # normal modes are real (|K|/(m w0) < w0)
        E_int_paper_series=-(hb / (2.0 * w0)) * (K / (m * w0)) ** 2,
        rho_plus_cdf=_gaussian_cdf(xp_var),
        rho_minus_cdf=_gaussian_cdf(xm_var),
    )


@dataclass(frozen=True)
class PlanckPrediction:
    """Oscillator in Planck radiation at temperature kT."""

    mean_energy: float
    energy_cdf: object


def planck_prediction(params: SystemParams) -> PlanckPrediction:
    """Mean oscillator energy (hbar w0/2) coth(hbar w0 / 2kT) at temperature
    ``params.kT``, and its exponential energy distribution."""
    kT = params.kT
    if kT < 0:
        raise InvalidParams([f"kT must be >= 0, got {kT}"])
    hb, w0 = params.hbar, params.omega0
    if kT == 0.0:
        mean = 0.5 * hb * w0
    else:
        # hb w0 / kT / 2 is hb w0 / (2 kT) to the bit, and 2 kT may overflow
        mean = 0.5 * hb * w0 / math.tanh(hb * w0 / kT / 2.0)
    return PlanckPrediction(mean_energy=mean, energy_cdf=_exponential_cdf(mean))


#: The Boltzmann sum's cap on its terms: past it the sum stops unfinished.
BOLTZMANN_MAX_TERMS = 1 << 20

#: The Boltzmann sum stops where the tails of both of its sums are below
#: this fraction of their partial sums.
BOLTZMANN_TAIL = 2.0 ** -53


def boltzmann_mean_energy(params: SystemParams) -> tuple[float, bool]:
    """Boltzmann-weighted mean over E_n = (n + 1/2) hbar w0 at temperature
    ``params.kT``, summed numerically, and whether the sum is complete.

    Independent oracle for the coth closed form.  The weights
    w_n = q^(n + 1/2), q = exp(-hbar w0/kT), are summed directly, in chunks
    of doubling length (numpy's pairwise sums), and the sum stops where the
    tails of both sums are below ``BOLTZMANN_TAIL`` of their partial sums:
    after N terms they are geometric, at most w_N / (1 - q) and
    w_N ((N + 1/2)/(1 - q) + q/(1 - q)^2).  Where that takes more than
    ``BOLTZMANN_MAX_TERMS`` terms (kT above about 3e4 hbar w0), the sum
    stops there, unfinished, and the flag is False.
    """
    # where exp(-beta) underflows, so may the ground state's own weight
    # (past beta = 1417), and the mean is the ground energy to the last bit
    if params.kT <= 0 or math.exp(-params.hbar * params.omega0 / params.kT) == 0.0:
        return 0.5 * params.hbar * params.omega0, True
    beta = params.hbar * params.omega0 / params.kT
    q, one_minus_q = math.exp(-beta), -math.expm1(-beta)
    z = ez = 0.0  # sums of w_n and of (n + 1/2) w_n
    done, size = 0, 64
    while done < BOLTZMANN_MAX_TERMS:
        levels = np.arange(done, min(done + size, BOLTZMANN_MAX_TERMS)) + 0.5
        w = np.exp(-beta * levels)
        z += float(np.sum(w))
        ez += float(np.sum(levels * w))
        done += levels.size
        # the tail bounds, times (1 - q) and (1 - q)^2: no division by an
        # underflowed 1 - q
        w_next = math.exp(-beta * (done + 0.5))
        if (w_next <= BOLTZMANN_TAIL * z * one_minus_q
                and w_next * ((done + 0.5) * one_minus_q + q)
                <= BOLTZMANN_TAIL * ez * one_minus_q * one_minus_q):
            return params.hbar * params.omega0 * (ez / z), True
        size *= 2
    return params.hbar * params.omega0 * (ez / z), False
