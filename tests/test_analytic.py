import math

import numpy as np
import pytest
from scipy.integrate import quad

from sedlab import analytic
from sedlab.analytic import (
    EULER_GAMMA,
    boltzmann_mean_energy,
    commutator_closed,
    correlation_closed,
    dipole_prediction,
    energy_fluctuation,
    free_particle,
    ground_state,
    heisenberg_product,
    planck_prediction,
    quantum_reference_densities,
)
from sedlab.core import SystemParams
from sedlab.errors import InvalidParams

PARAMS = SystemParams(tau=0.01)


def test_ground_state_internal_units():
    gs = ground_state(PARAMS)
    assert gs.x_var == 0.5
    assert gs.p_var == 0.5
    assert gs.mean_energy == 0.5
    assert gs.energy_density(0.0) == pytest.approx(2.0)


def test_ground_state_densities_normalized():
    gs = ground_state(PARAMS)
    total, _ = quad(gs.x_density, -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    second, _ = quad(lambda x: x ** 2 * gs.x_density(x), -np.inf, np.inf)
    assert second == pytest.approx(gs.x_var, rel=1e-9)
    etot, _ = quad(gs.energy_density, 0.0, np.inf)
    assert etot == pytest.approx(1.0, abs=1e-10)


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
    pred = free_particle(PARAMS, kT=1.0, delta_t=100.0, omega_c=500.0)
    assert pred.thermal_dx2 == pytest.approx(2.0, rel=1e-12)
    assert pred.thermal_v_var == pytest.approx(1.0, rel=1e-12)


def test_free_particle_zpf_log_identity():
    # delta_t / tau = e makes the bracket C + 1
    pred = free_particle(PARAMS, kT=0.0, delta_t=PARAMS.tau * math.e,
                         omega_c=500.0)
    expected = 2.0 * PARAMS.tau / math.pi * (EULER_GAMMA + 1.0)
    assert pred.zpf_dx2 == pytest.approx(expected, rel=1e-12)


def test_free_particle_velocity_dispersion_flagged_nonphysical():
    params = SystemParams(tau=0.01, c=1.0, e=math.sqrt(3.0 * 0.01 / 2.0))
    pred = free_particle(params, kT=0.0, delta_t=1.0, omega_c=1e4)
    assert pred.zpf_dv2 > params.c ** 2
    assert pred.zpf_dv2_nonphysical is True
    unknown = free_particle(PARAMS, kT=0.0, delta_t=1.0, omega_c=1e4)
    assert unknown.zpf_dv2_nonphysical is None


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


def test_dipole_joint_density_correlation_sign():
    pred = dipole_prediction(SystemParams(tau=0.01, K=0.1))
    h = 1e-4

    def mixed_log_derivative(density):
        f = lambda a, b: math.log(float(density(a, b)))
        return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)

    assert mixed_log_derivative(pred.joint_density) > 0.0
    assert mixed_log_derivative(pred.quantum_joint_density) > 0.0
    neg = dipole_prediction(SystemParams(tau=0.01, K=-0.1))
    assert mixed_log_derivative(neg.joint_density) < 0.0


def test_dipole_mode_density_matches_variance():
    pred = dipole_prediction(SystemParams(tau=0.01, K=0.1))
    second, _ = quad(lambda x: x ** 2 * pred.rho_plus(x), -np.inf, np.inf)
    assert second == pytest.approx(pred.x_plus_var, rel=1e-9)


def test_dipole_rejects_strong_coupling():
    with pytest.raises(InvalidParams):
        dipole_prediction(SystemParams(tau=0.01, K=1.0))


def test_planck_mean_energy():
    pred = planck_prediction(PARAMS, kT=0.5)
    assert pred.mean_energy == pytest.approx(0.6565176427496656, rel=1e-12)
    assert planck_prediction(PARAMS, kT=0.0).mean_energy == pytest.approx(0.5)


def test_planck_boltzmann_oracle():
    for kT in (0.2, 0.5, 2.0):
        pred = planck_prediction(PARAMS, kT)
        oracle = boltzmann_mean_energy(PARAMS, kT)
        assert abs(oracle - pred.mean_energy) < 1e-10 * pred.mean_energy


def test_planck_classical_limit():
    for kT in (50.0, 200.0):
        pred = planck_prediction(PARAMS, kT)
        assert pred.mean_energy == pytest.approx(kT, rel=0.01)


def test_planck_quantum_levels():
    pred = planck_prediction(PARAMS, kT=0.5)
    assert pred.quantum_levels(1) == pytest.approx(1.5)
    assert pred.quantum_levels(0) == pytest.approx(0.5)


def test_planck_density_mean_consistent():
    pred = planck_prediction(PARAMS, kT=0.5)
    mean, _ = quad(lambda u: u * pred.energy_density(u), 0.0, np.inf)
    assert mean == pytest.approx(pred.mean_energy, rel=1e-9)


def test_quantum_reference_densities():
    rho0, rho1 = quantum_reference_densities(PARAMS)
    assert rho1(0.0) == 0.0
    n0, _ = quad(rho0, -np.inf, np.inf)
    n1, _ = quad(rho1, -np.inf, np.inf)
    assert n0 == pytest.approx(1.0, abs=1e-10)
    assert n1 == pytest.approx(1.0, abs=1e-10)
    var0, _ = quad(lambda x: x ** 2 * rho0(x), -np.inf, np.inf)
    assert var0 == pytest.approx(0.5, rel=1e-9)


def test_closed_forms_against_spectral_quadrature():
    """Ground-state moments agree with the brute-force quadrature of the
    finite-tau spectra to O(tau*omega0)."""
    from sedlab.spectra import SpectrumModel, position_spectrum, spectral_moment

    gs = ground_state(PARAMS)
    sx = lambda w: position_spectrum(SpectrumModel.zpf(), PARAMS, w)
    xq = spectral_moment(sx, 0, 0.0, 5.0, params=PARAMS)
    assert abs(xq - gs.x_var) / gs.x_var < 3.0 * PARAMS.tau * PARAMS.omega0
