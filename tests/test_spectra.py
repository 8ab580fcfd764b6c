import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import ZeroFrequencyMomentum, momentum_spectrum, position_spectrum
from quadrature import QuadratureFailure, spectral_moment

from sedlab.core import PLANCK, RAYLEIGH_JEANS, ZPF, SystemParams
from sedlab.errors import InvalidParams, NegativeFrequency
from sedlab.spectra import _coth, field_spectrum, position_transfer

PARAMS = SystemParams(tau=0.01)

# frozen oracle values (independent Simpson quadrature, test-authoring time)
XVAR_CUT500 = 0.5129061829301053      # integral of S_x over [0, 5/tau]
PVAR_CUT500 = 0.49838853936408123     # integral of S_p over [0, 5/tau]
VVAR_CUT5 = 0.5479590256711366        # integral of w^2 S_x over [0, 5 w0]
COTH_1 = 1.3130352854993312


def simpson_moment(spectrum, n, a, b, subdiv=200_000):
    """Independent dense-grid oracle for the spectral moments."""
    xs = np.linspace(a, b, 2 * subdiv + 1)
    ys = xs ** n * spectrum(xs)
    h = (b - a) / (2 * subdiv)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())


#: (hbar, m) pairs and frequencies off 1, where a wrong power of omega,
#: hbar or m would show
SCALES = ((1.0, 1.0), (0.3, 2.5), (7.0, 0.04))
OMEGAS = (1.0, 0.2, 2.5, 17.0, 300.0)


def test_zpf_field_spectrum_value():
    for hbar, m in SCALES:
        params = replace(PARAMS, hbar=hbar, m=m)
        for w in OMEGAS:
            assert field_spectrum(ZPF, params, w) == pytest.approx(
                hbar * 0.01 * w ** 3 / (math.pi * m), rel=1e-14), (hbar, m, w)


def test_all_models_vanish_at_zero_frequency():
    for field, kT in ((ZPF, 0.0), (PLANCK, 0.5), (RAYLEIGH_JEANS, 1.0)):
        assert field_spectrum(field, replace(PARAMS, kT=kT), 0.0) == 0.0


def test_planck_coth_factor():
    got = field_spectrum(PLANCK, replace(PARAMS, kT=0.5), 1.0)
    assert got == pytest.approx(0.01 / math.pi * COTH_1, rel=1e-12)


@pytest.mark.parametrize("x", [1e-12, 1e-5, 19.9, 20.1, 700.0])
def test_coth_matches_its_series(x):
    # coth x = 1/x + x/3 - x^3/45 + ... near 0, and 1 + 2 e^{-2x} + ... far out
    series = 1.0 / x + x / 3.0 - x ** 3 / 45.0 if x < 1.0 else 1.0 + 2.0 * math.exp(-2.0 * x)
    assert _coth(x) == pytest.approx(series, rel=1e-15)
    assert _coth(np.array([x]))[0] == _coth(x)


def test_planck_reduces_to_zpf_at_low_temperature():
    # relative difference < 1e-12 once hbar*omega/kT > 60
    kT = 1.0 / 61.0
    w = np.linspace(1.0, 30.0, 50)
    planck = field_spectrum(PLANCK, replace(PARAMS, kT=kT), w)
    zpf = field_spectrum(ZPF, PARAMS, w)
    assert np.max(np.abs(planck / zpf - 1.0)) < 1e-12


@pytest.mark.parametrize("kT", [1e-300, 5e-324])
def test_planck_at_a_subnormal_temperature_is_the_zeropoint_spectrum(kT):
    # at kT = 5e-324, hbar omega/2kT overflows (a RuntimeWarning: an error here)
    w = np.linspace(0.0, 30.0, 50)
    planck = field_spectrum(PLANCK, replace(PARAMS, kT=kT), w)
    assert np.array_equal(planck, field_spectrum(ZPF, PARAMS, w))


def test_rayleigh_jeans_is_classical_substitution():
    # hbar*omega -> 2 kT turns hbar tau w^3/(pi m) into 2 kT tau w^2/(pi m)
    kT = 0.7
    for hbar, m in SCALES:
        params = replace(PARAMS, kT=kT, hbar=hbar, m=m)
        for w in OMEGAS:
            assert field_spectrum(RAYLEIGH_JEANS, params, w) == pytest.approx(
                2.0 * kT * 0.01 * w ** 2 / (math.pi * m), rel=1e-14), (hbar, m, w)


def test_an_unknown_field_kind_is_refused():
    with pytest.raises(InvalidParams, match="unknown field kind 'zeropoint'"):
        field_spectrum("zeropoint", PARAMS, 1.0)


@pytest.mark.parametrize("field", [PLANCK, RAYLEIGH_JEANS])
def test_a_thermal_field_refuses_a_negative_temperature(field):
    with pytest.raises(InvalidParams, match=r"kT must be >= 0, got -0.5"):
        field_spectrum(field, replace(PARAMS, kT=-0.5), 1.0)
    # the zeropoint field reads no kT
    assert field_spectrum(ZPF, replace(PARAMS, kT=-0.5), 1.0) == field_spectrum(ZPF, PARAMS, 1.0)


def test_negative_frequency_rejected():
    with pytest.raises(NegativeFrequency):
        field_spectrum(ZPF, PARAMS, -1.0)
    with pytest.raises(NegativeFrequency):
        position_transfer(np.array([0.5, -0.5]), PARAMS)


def test_position_transfer_limits():
    assert position_transfer(0.0, PARAMS) == pytest.approx(1.0)
    assert position_transfer(1.0, PARAMS) == pytest.approx(1e4, rel=1e-12)
    w = 1e4
    assert position_transfer(w, PARAMS) == pytest.approx(
        1.0 / (PARAMS.tau ** 2 * w ** 6), rel=1e-3
    )


def test_position_spectrum_at_resonance():
    got = position_spectrum(ZPF, PARAMS, 1.0)
    assert got == pytest.approx(0.01 / math.pi * 1e4, rel=1e-12)


def test_momentum_spectrum_free_particle_is_nil():
    free = SystemParams(tau=0.01, omega0=0.0)
    w = np.linspace(0.0, 10.0, 11)
    assert np.all(momentum_spectrum(ZPF, free, w) == 0.0)


def test_momentum_spectrum_equals_position_at_resonance():
    sp = momentum_spectrum(ZPF, PARAMS, 1.0)
    sx = position_spectrum(ZPF, PARAMS, 1.0)
    assert sp == pytest.approx(sx, rel=1e-14)


def test_momentum_spectrum_rejects_zero_frequency():
    with pytest.raises(ZeroFrequencyMomentum):
        momentum_spectrum(ZPF, PARAMS, 0.0)


def test_spectral_moment_xvar_full_band():
    sx = lambda w: position_spectrum(ZPF, PARAMS, w)
    val = spectral_moment(sx, 0, 0.0, 500.0, params=PARAMS)
    assert val == pytest.approx(XVAR_CUT500, rel=1e-8)
    # the tau-dependent tail pushes the full-band value ~2.6% above the
    # tau -> 0 limit hbar/(2 m w0)
    assert abs(val - 0.5) / 0.5 < 0.03


def test_spectral_moment_pvar_full_band():
    sp = lambda w: momentum_spectrum(ZPF, PARAMS, np.maximum(w, 1e-12))
    val = spectral_moment(sp, 0, 1e-9, 500.0, params=PARAMS)
    assert val == pytest.approx(PVAR_CUT500, rel=1e-7)
    assert abs(val - 0.5) / 0.5 < 0.01


def test_spectral_moment_vvar_matches_log_correction():
    sx = lambda w: position_spectrum(ZPF, PARAMS, w)
    val = spectral_moment(sx, 2, 0.0, 5.0, params=PARAMS)
    assert val == pytest.approx(VVAR_CUT5, rel=1e-8)
    approx = 0.5 + math.log(1.0 + PARAMS.tau ** 2 * 25.0) / (2.0 * math.pi * PARAMS.tau)
    assert abs(val - approx) / val < 0.02  # closed form is O(tau w0) accurate


def test_xvar_converges_to_half_as_tau_vanishes():
    small = SystemParams(tau=1e-4)
    sx = lambda w: position_spectrum(ZPF, small, w)
    val = spectral_moment(sx, 0, 0.0, 5.0 / small.tau, params=small)
    assert abs(val - 0.5) / 0.5 < 1e-3


def test_quadrature_matches_simpson_oracle_on_smooth_range():
    s_eps = lambda w: field_spectrum(ZPF, PARAMS, w)
    val = spectral_moment(s_eps, 0, 2.0, 10.0)
    oracle = simpson_moment(s_eps, 0, 2.0, 10.0)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_spectral_moment_rejects_bad_range():
    s = lambda w: np.ones_like(w)
    with pytest.raises(InvalidParams):
        spectral_moment(s, 0, 5.0, 1.0)


def test_spectral_moment_reports_quadrature_failure():
    singular = lambda w: 1.0 / np.abs(np.asarray(w) - 3.0) ** 1.5
    with pytest.raises(QuadratureFailure):
        spectral_moment(singular, 0, 0.0, 5.0)


def test_spectra_nonnegative_everywhere():
    w = np.geomspace(1e-3, 500.0, 400)
    for field, kT in ((ZPF, 0.0), (PLANCK, 0.3), (RAYLEIGH_JEANS, 2.0)):
        assert np.all(position_spectrum(field, replace(PARAMS, kT=kT), w) >= 0.0)
        assert np.all(momentum_spectrum(field, replace(PARAMS, kT=kT), w) >= 0.0)


def test_low_frequency_position_spectrum_scaling():
    # S_x ~ S_eps / omega0^4 as omega -> 0
    w = 1e-4
    sx = position_spectrum(ZPF, PARAMS, w)
    se = field_spectrum(ZPF, PARAMS, w)
    assert sx == pytest.approx(se / PARAMS.omega0 ** 4, rel=1e-6)
