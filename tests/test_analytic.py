import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import correlation_closed, position_spectrum
from quadrature import spectral_moment
from scipy.integrate import quad

from sedlab.analytic import (
    EULER_GAMMA,
    boltzmann_mean_energy,
    commutator_closed,
    dipole_prediction,
    energy_fluctuation,
    free_particle,
    ground_state,
    heisenberg_product,
    planck_prediction,
)
from sedlab.core import ZPF, SystemParams
from sedlab.errors import InvalidParams

PARAMS = SystemParams(tau=0.01)


def test_gaussian_cdf_matches_the_erf_form():
    from scipy.special import erf

    from sedlab.analytic import _gaussian_cdf

    x = np.random.default_rng(5).normal(0.0, 2.0, 1 << 14)
    for var in (0.5, 1.0, 3.7):
        ref = 0.5 * (1.0 + erf(x / (math.sqrt(var) * math.sqrt(2.0))))
        assert np.max(np.abs(_gaussian_cdf(var)(x) - ref)) <= 1e-15
    assert _gaussian_cdf(1.0)(0.0) == 0.5


def cdf_mean(cdf):
    """Mean of a distribution on u >= 0: the integral of 1 - F."""
    return quad(lambda u: 1.0 - float(cdf(u)), 0.0, np.inf)[0]


def cdf_variance(cdf):
    """Variance of a distribution symmetric about 0: E x^2 is the integral
    of 2u (1 - F(u) + F(-u)) over u >= 0."""
    tail = lambda u: 2.0 * u * (1.0 - float(cdf(u)) + float(cdf(-u)))
    return quad(tail, 0.0, np.inf)[0]


def test_ground_state_internal_units():
    gs = ground_state(PARAMS)
    assert gs.x_var == 0.5
    assert gs.p_var == 0.5
    assert gs.mean_energy == 0.5
    assert gs.energy_cdf(0.5) == pytest.approx(1.0 - math.exp(-1.0))


def test_ground_state_densities_normalized():
    """The CDFs of the KS rows hold the ground-state moments."""
    gs = ground_state(PARAMS)
    assert gs.x_cdf(0.0) == 0.5
    assert gs.x_cdf(-np.inf) == 0.0 and gs.x_cdf(np.inf) == 1.0
    assert cdf_variance(gs.x_cdf) == pytest.approx(gs.x_var, rel=1e-9)
    assert gs.energy_cdf(-1.0) == 0.0
    assert cdf_mean(gs.energy_cdf) == pytest.approx(gs.mean_energy, rel=1e-9)


def test_ground_state_requires_bound_particle():
    with pytest.raises(InvalidParams):
        ground_state(SystemParams(tau=0.01, omega0=0.0))


def test_commutator_closed_values():
    c_xx, c_pp, c_xp = commutator_closed(PARAMS, 0.0)
    assert c_xx == 0.0
    assert c_pp == 0.0
    assert c_xp == pytest.approx(1.0)

    c_xx, _, _ = commutator_closed(PARAMS, math.pi / 2.0)
    # sin term * exp(-0.005 * pi/2); the tau cos term vanishes at pi/2
    assert c_xx == pytest.approx(0.9921767802925615, rel=1e-12)


def test_commutator_closed_oddness():
    t = np.linspace(0.1, 20.0, 40)
    pos, _, _ = commutator_closed(PARAMS, t)
    neg, _, _ = commutator_closed(PARAMS, -t)
    assert np.allclose(neg, -pos, rtol=1e-12)


def test_commutator_closed_matches_the_position_spectrum():
    """Oracle for c_xx, tau term included: 2 * integral S_x(w) sin(w t) dw
    of the exact finite-tau spectrum, by quadrature split at the
    resonance, within 5e-3 of the peak for t in [0.05, 100].  The
    tau-less form sin(w0 t) e^{-gamma t} misses it by 9.9e-3."""
    sx = lambda w: position_spectrum(ZPF, PARAMS, w)
    w0 = PARAMS.omega0
    parts = ((0.0, w0), (w0, 2.0 * w0), (2.0 * w0, np.inf))

    def c_xx_quad(t):
        return 2.0 * sum(quad(sx, lo, hi, weight="sin", wvar=t, limit=200)[0]
                         for lo, hi in parts)

    t = np.linspace(0.05, 100.0, 101)
    ref = np.array([c_xx_quad(u) for u in t])
    c_xx, _, _ = commutator_closed(PARAMS, t)
    peak = PARAMS.hbar / (PARAMS.m * w0)
    assert np.max(np.abs(c_xx - ref)) < 5e-3 * peak
    tau_less = peak * np.sin(w0 * t) * np.exp(-PARAMS.damping_rate * t)
    assert np.max(np.abs(tau_less - ref)) > 5e-3 * peak


def test_correlations_match_commutators_through_hilbert_pair():
    """The closed-form correlation and commutator coefficients are a
    cos/sin pair of the same envelope, so their spectra are Hilbert
    transforms of each other; check the pair identity numerically."""
    from sedlab.estimators import hilbert_transform

    dt = 0.02
    t = np.arange(-2 ** 15, 2 ** 15) * dt
    c_xx, _, _ = correlation_closed(PARAMS, t)
    k_xx, _, _ = commutator_closed(PARAMS, t)
    h = hilbert_transform(c_xx / 0.5)  # scaled to unit amplitude
    core = np.abs(t) < 100.0
    assert np.max(np.abs(h[core] - k_xx[core])) < 0.02


def test_energy_fluctuation_small_window_limit():
    ef = energy_fluctuation(PARAMS, 1e-9)
    assert ef.recomputed == pytest.approx(0.5, rel=1e-6)
    assert ef.paper_printed == pytest.approx(0.5, rel=1e-6)
    assert ef.window_exact == pytest.approx(0.5, rel=1e-6)


def test_energy_fluctuation_at_unit_decay_argument():
    t = 1.0 / (PARAMS.tau * PARAMS.omega0 ** 2)  # x = 1
    ef = energy_fluctuation(PARAMS, t)
    assert ef.recomputed == pytest.approx(0.39753004881032505, rel=1e-12)
    assert ef.paper_printed == pytest.approx(0.5 * (1.0 - math.exp(-1.0)), rel=1e-12)


def test_energy_fluctuation_forms_match_their_defining_integrals():
    """Quadrature oracle for both closed forms: integrate the squared
    tau->0 correlations with (recomputed) and without (window) dropping
    the triangular overlap factor."""
    for t_window in (0.5, 5.0, 50.0, 500.0):
        us = np.linspace(0.0, t_window, 40001)
        cxx, cpp, cxp = correlation_closed(PARAMS, us)
        f = cxx ** 2 + 2.0 * cxp ** 2 + cpp ** 2
        recomputed = math.sqrt(np.trapezoid(f, us) / (2.0 * t_window))
        window = math.sqrt(np.trapezoid((t_window - us) * f, us)) / t_window
        ef = energy_fluctuation(PARAMS, t_window)
        assert ef.recomputed == pytest.approx(recomputed, rel=1e-6)
        assert ef.window_exact == pytest.approx(window, rel=1e-6)


def test_energy_time_uncertainty_domain():
    """Delta U_T * T >= hbar/2 holds for the recomputed form once
    T >= 1.0026/omega0 (at tau = 0.01); at T = 1/omega0 exactly it falls
    short by 2.5e-3 relative, so the bound cannot hold for all T >= tau."""
    t_lo = 1.0025073125533792
    for t in np.geomspace(t_lo * 1.001, 1e6, 50):
        assert energy_fluctuation(PARAMS, t).recomputed * t >= 0.5
    assert energy_fluctuation(PARAMS, 1.0).recomputed * 1.0 < 0.5
    assert energy_fluctuation(PARAMS, 1.0).recomputed * 1.0 > 0.5 * (1.0 - 0.004)


def test_free_particle_thermal_values():
    pred = free_particle(replace(PARAMS, kT=1.0), delta_t=100.0, omega_c=500.0)
    assert pred.thermal_dx2 == pytest.approx(2.0, rel=1e-12)
    assert pred.thermal_v_var == pytest.approx(1.0, rel=1e-12)


def test_free_particle_zpf_log_identity():
    # delta_t / tau = e makes the bracket C + 1
    pred = free_particle(PARAMS, delta_t=PARAMS.tau * math.e, omega_c=500.0)
    expected = 2.0 * PARAMS.tau / math.pi * (EULER_GAMMA + 1.0)
    assert pred.zpf_dx2 == pytest.approx(expected, rel=1e-12)
    assert pred.zpf_log_slope == pytest.approx(2.0 * PARAMS.tau / math.pi, rel=1e-15)


def test_heisenberg_product():
    assert heisenberg_product(PARAMS) == pytest.approx(0.25)
    # invariant under omega0 rescaling
    assert heisenberg_product(SystemParams(tau=0.001, omega0=7.0)) == pytest.approx(0.25)


def test_dipole_decoupled_limit():
    pred = dipole_prediction(SystemParams(tau=0.01, K=0.0))
    assert pred.x_plus_var == pytest.approx(0.5)
    assert pred.x_minus_var == pytest.approx(0.5)
    assert pred.E_int_exact == pytest.approx(0.0, abs=1e-15)
    assert pred.cross_cov == pytest.approx(0.0, abs=1e-15)


def test_dipole_coupled_values():
    pred = dipole_prediction(SystemParams(tau=0.01, K=0.1))
    assert pred.x_plus_var == pytest.approx(0.5270462766947299, rel=1e-12)
    assert pred.x_minus_var == pytest.approx(0.4767312946227961, rel=1e-12)
    assert pred.mean_H == pytest.approx(0.9987460731103327, rel=1e-12)
    assert pred.cross_cov == pytest.approx(0.0251574910359669, rel=1e-12)
    # exact expansion carries K^2/8, the printed series K^2/2
    assert pred.E_int_exact == pytest.approx(-0.0012539268896673, rel=1e-9)
    assert pred.E_int_paper_series == pytest.approx(-0.005, rel=1e-12)
    series_k2_over_8 = -0.1 ** 2 / 8.0
    assert pred.E_int_exact == pytest.approx(series_k2_over_8, rel=4e-3)


def test_dipole_symmetries():
    plus = dipole_prediction(SystemParams(tau=0.01, K=0.08))
    minus = dipole_prediction(SystemParams(tau=0.01, K=-0.08))
    assert plus.mean_H == pytest.approx(minus.mean_H, rel=1e-14)
    assert plus.x_plus_var == pytest.approx(minus.x_minus_var, rel=1e-14)


def test_dipole_mode_density_matches_variance():
    pred = dipole_prediction(SystemParams(tau=0.01, K=0.1))
    assert cdf_variance(pred.rho_plus_cdf) == pytest.approx(pred.x_plus_var, rel=1e-9)
    assert cdf_variance(pred.rho_minus_cdf) == pytest.approx(pred.x_minus_var, rel=1e-9)


def test_dipole_rejects_strong_coupling():
    with pytest.raises(InvalidParams):
        dipole_prediction(SystemParams(tau=0.01, K=1.0))


def test_planck_mean_energy():
    pred = planck_prediction(replace(PARAMS, kT=0.5))
    assert pred.mean_energy == pytest.approx(0.6565176427496656, rel=1e-12)
    assert planck_prediction(PARAMS).mean_energy == pytest.approx(0.5)


def test_planck_rejects_negative_temperature():
    with pytest.raises(InvalidParams, match="kT must be >= 0"):
        planck_prediction(replace(PARAMS, kT=-0.1))


def test_planck_boltzmann_oracle():
    for kT in (0.2, 0.5, 2.0):
        params = replace(PARAMS, kT=kT)
        pred = planck_prediction(params)
        oracle, complete = boltzmann_mean_energy(params)
        assert complete and abs(oracle - pred.mean_energy) < 1e-10 * pred.mean_energy


@pytest.mark.parametrize("kT", [1e-3, 2.988e-112, 5e-324])
def test_boltzmann_oracle_near_zero_temperature_is_the_ground_energy(kT):
    # every Boltzmann weight underflowed at kT = 3e-112: the sum divided 0 by 0
    params = replace(PARAMS, kT=kT)
    assert boltzmann_mean_energy(params) == (planck_prediction(params).mean_energy, True)
    assert planck_prediction(params).mean_energy == 0.5


@pytest.mark.parametrize("kT", [10.0, 500.0, 1e3, 1e4])
def test_boltzmann_oracle_sums_hot_fields_to_their_tail(kT):
    # a sum that stopped on its current term left a tail of about
    # 1e-14 kT/hbar w0 of itself: 2.5e-10 at kT 1e3, 4.5e-4 at 1e4
    params = replace(PARAMS, kT=kT)
    oracle, complete = boltzmann_mean_energy(params)
    assert complete
    assert abs(oracle - planck_prediction(params).mean_energy) <= 1e-13 * oracle


def test_boltzmann_oracle_past_its_cap_is_unfinished():
    oracle, complete = boltzmann_mean_energy(replace(PARAMS, kT=1e5))
    assert not complete and 0.5 < oracle < 1e5


def test_planck_classical_limit():
    for kT in (50.0, 200.0):
        pred = planck_prediction(replace(PARAMS, kT=kT))
        assert pred.mean_energy == pytest.approx(kT, rel=0.01)


def test_planck_density_mean_consistent():
    pred = planck_prediction(replace(PARAMS, kT=0.5))
    assert cdf_mean(pred.energy_cdf) == pytest.approx(pred.mean_energy, rel=1e-9)


def test_closed_forms_against_spectral_quadrature():
    """Ground-state moments agree with the brute-force quadrature of the
    finite-tau spectra to O(tau*omega0)."""
    gs = ground_state(PARAMS)
    sx = lambda w: position_spectrum(ZPF, PARAMS, w)
    xq = spectral_moment(sx, 0, 0.0, 5.0, params=PARAMS)
    assert abs(xq - gs.x_var) / gs.x_var < 3.0 * PARAMS.tau * PARAMS.omega0
