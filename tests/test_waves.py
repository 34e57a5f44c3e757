import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

from bchsim.waves import (
    Params,
    WaveProfile,
    amplitude_of_period,
    period_of_amplitude,
    periodic_wave,
    sn_cn_dn,
)

# Landmark values for alpha = beta = 1, kappa = 1e-3, L = 1.
P_MIN = 0.198691765315922
P_S = 0.28099258924162906
A_S = 0.8007807756666083
LAMBDA_TOP = 250.0


def quarter_period_quadrature(a: float, params: Params) -> float:
    """Independent oracle: the period integral in angular form.

    Substituting phi = a sin(theta) into the first-integral form of the
    profile equation removes the turning-point singularity and leaves a
    smooth integrand for adaptive quadrature.
    """
    alpha, beta = params.alpha, params.beta

    def integrand(theta):
        s = math.sin(theta)
        return 1.0 / math.sqrt(2.0 * beta / alpha - a * a * (1.0 + s * s))

    val, err = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-10
    return 4.0 * math.sqrt(2.0 * params.kappa / alpha) * val


@given(u=st.floats(-8.0, 8.0), k=st.floats(0.0, 0.999))
@example(u=5.283734860544659, k=0.61328125)
@settings(max_examples=60, deadline=None)
def test_jacobi_identities(u, k):
    sn, cn, dn = sn_cn_dn(u, k)
    assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
    assert dn * dn + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_jacobi_matches_scipy():
    for u in (-2.3, 0.4, 1.7):
        for k in (0.1, 0.6, 0.97):
            sn, cn, dn = sn_cn_dn(u, k)
            s, c, d, _ = ellipj(u, k * k)
            assert sn == pytest.approx(float(s), abs=1e-12)
            assert cn == pytest.approx(float(c), abs=1e-12)
            assert dn == pytest.approx(float(d), abs=1e-12)


def test_jacobi_periodicity():
    k = 0.8
    big_k = float(ellipk(k * k))
    sn0, cn0, _ = sn_cn_dn(0.37, k)
    sn4, cn4, _ = sn_cn_dn(0.37 + 4.0 * big_k, k)
    assert sn4 == pytest.approx(sn0, abs=1e-11)
    assert cn4 == pytest.approx(cn0, abs=1e-11)


def test_landmarks(params):
    assert params.p_min == pytest.approx(P_MIN, rel=1e-12)
    assert params.p_s == pytest.approx(P_S, rel=1e-12)
    assert amplitude_of_period(params.p_s, params) == pytest.approx(A_S, rel=1e-10)
    assert params.lambda_top == pytest.approx(LAMBDA_TOP, rel=1e-14)
    assert params.p_s == pytest.approx(math.sqrt(2.0) * params.p_min, rel=1e-12)


def test_params_reject_nan():
    for name in ("alpha", "beta", "kappa", "half_length", "nu", "K"):
        with pytest.raises(ValueError, match=name):
            Params(**{name: math.nan})


@pytest.mark.parametrize("a", [0.05, 0.3, 0.7, 0.95, 0.999])
def test_period_matches_quadrature(a, params):
    assert period_of_amplitude(a, params) == pytest.approx(
        quarter_period_quadrature(a, params), rel=1e-10)


def test_period_monotone_in_amplitude(params):
    amps = np.linspace(0.01, 0.9999, 120)
    periods = [period_of_amplitude(float(a), params) for a in amps]
    assert np.all(np.diff(periods) > 0)


@given(a=st.floats(0.05, 0.995))
@settings(max_examples=30, deadline=None)
def test_amplitude_period_round_trip(a):
    params = Params()
    p = period_of_amplitude(a, params)
    assert amplitude_of_period(p, params) == pytest.approx(a, rel=1e-9)


def test_amplitude_of_period_rejects_below_p_min(params):
    with pytest.raises(ValueError):
        amplitude_of_period(0.9 * params.p_min, params)


def test_amplitude_of_period_array_matches_scalar_calls(params):
    # elements near p_min need many more halvings than the rest, so each
    # element must stop at its own tolerance
    p = params.p_min * np.array([1.0 + 1e-9, 1.001, 1.5, 3.0, 6.0, 12.0, 16.0])
    a = amplitude_of_period(p, params)
    assert np.array_equal(a, [amplitude_of_period(float(q), params) for q in p])
    assert np.array_equal(period_of_amplitude(a, params),
                          [period_of_amplitude(float(x), params) for x in a])
    assert isinstance(amplitude_of_period(np.array(p[2]), params), float)
    assert isinstance(period_of_amplitude(np.float64(0.5), params), float)


@pytest.mark.parametrize("bad", [math.nan, 0.9 * P_MIN, 10.0])
def test_amplitude_of_period_rejects_any_bad_element(bad, params):
    # 10.0 lies beyond the longest period resolvable in double precision
    with pytest.raises(ValueError):
        amplitude_of_period(bad, params)
    with pytest.raises(ValueError):
        amplitude_of_period(np.array([0.3, bad, 0.6]), params)
    # the message names the bad element, not the whole input
    periods = np.linspace(0.3, 0.6, 201)
    periods[100] = bad
    with pytest.raises(ValueError) as info:
        amplitude_of_period(periods, params)
    assert len(str(info.value)) < 200


def test_sn_is_odd_bitwise():
    # sn is odd and cn, dn are even in u bit for bit, not only to rounding,
    # so a wave sampled on a grid symmetric about 0 is exactly odd and its
    # slope a h cn dn exactly even
    u = np.linspace(-60.0, 60.0, 4001)
    for k, complement in [(0.0, None), (1e-13, None), (0.3, None), (0.9, None),
                          (math.sqrt(1.0 - 1e-14), 1e-7)]:
        sn, cn, dn = sn_cn_dn(u, k, complement=complement)
        sn_m, cn_m, dn_m = sn_cn_dn(-u, k, complement=complement)
        assert np.array_equal(sn_m, -sn)
        assert np.array_equal(cn_m, cn)
        assert np.array_equal(dn_m, dn)


def test_wave_profile_shape(params):
    a = 0.7
    wave = periodic_wave(a, params)
    p = wave.period
    x = np.linspace(-p, p, 2001)
    def profile(x):
        return wave.with_derivatives(x)[0]

    phi = profile(x)
    assert np.max(np.abs(phi)) == pytest.approx(a, rel=1e-9)
    assert profile(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    # odd symmetry and periodicity
    assert np.allclose(profile(-x), -phi, atol=1e-10)
    assert np.allclose(profile(x + p), phi, atol=1e-9)


def test_wave_satisfies_profile_equation(params):
    """kappa phi'' = F'(phi), checked with finite differences."""
    a = 0.85
    wave = periodic_wave(a, params)
    x = np.linspace(0.0, wave.period, 4001)
    h = x[1] - x[0]
    phi = wave.with_derivatives(x)[0]
    lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2
    residual = params.kappa * lap - params.df(phi[1:-1])
    assert np.max(np.abs(residual)) < 5e-4 * np.max(np.abs(params.df(phi)))


def test_wave_derivatives_consistent(params):
    a = 0.6
    wave = periodic_wave(a, params)
    x = np.linspace(0.0, wave.period, 101)
    phi, phi_x, phi_xx = wave.with_derivatives(x)
    h = 1e-7
    fd_x = (wave.with_derivatives(x + h)[0] - wave.with_derivatives(x - h)[0]) / (2 * h)
    assert np.allclose(phi_x, fd_x, rtol=1e-5, atol=1e-5 * np.max(np.abs(phi_x)))
    assert np.allclose(params.kappa * phi_xx, params.df(phi), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("modulus,complement", [(0.0, 1.0), (1e-13, 1.0), (0.6, 0.8),
                                                (0.999, math.sqrt(0.001 * 1.999)), (1.0, 0.0)])
def test_potential_integral_matches_quadrature(modulus, complement, params):
    # the general elliptic form and its sin (k < 1e-12) and tanh
    # (k' < 1e-12) limits, against quadrature of F(a sn(h x)) from ellipj
    wave = WaveProfile(amplitude=0.7, modulus=modulus, complement=complement, scale=20.0,
                       params=params)
    m = 1.0 - complement**2

    def density(x):
        return params.f(wave.amplitude * ellipj(wave.scale * x, m)[0])

    for x in (0.05, 0.3, 1.0):
        oracle, _ = quad(density, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200)
        assert wave.potential_integral(x) == pytest.approx(oracle, rel=1e-12)


def test_kink_energy_values(params):
    # the infinite-line kink energy (2/3)(beta^2/alpha) sqrt(2 kappa/beta);
    # the finite-box correction at L = 1 is exponentially small
    e_inf = (2.0 / 3.0) * (params.beta**2 / params.alpha) * math.sqrt(
        2.0 * params.kappa / params.beta)
    assert params.e_min == pytest.approx(e_inf, rel=1e-10)
    assert params.e_min == pytest.approx(0.0298142396999972, rel=1e-10)


def test_spinodal_closes_the_loop(params):
    a_s = amplitude_of_period(params.p_s, params)
    assert period_of_amplitude(a_s, params) == pytest.approx(params.p_s, rel=1e-10)
