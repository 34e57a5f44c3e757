import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipj, ellipk

import bchsim.energy as energy
import bchsim.waves as waves
from bchsim.energy import wave_window_energy
from bchsim.evans import leading_eigenvalue, monodromy
from bchsim.waves import (
    Params,
    WaveProfile,
    _ladder,
    _landen_fold,
    _sn_cn_dn,
    amplitude_of_period,
    period_of_amplitude,
    periodic_wave,
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


def jacobi(u, k, complement=None):
    """sn, cn, dn at u and modulus k from the evaluator, on k's ladder built here."""
    if complement is None:
        complement = np.sqrt((1.0 - k) * (1.0 + k))
    return _sn_cn_dn(np.asarray(u, dtype=float), _ladder(k, complement), complement)


@given(u=st.floats(-8.0, 8.0), k=st.floats(0.0, 0.999))
@example(u=5.283734860544659, k=0.61328125)
@settings(max_examples=60, deadline=None)
def test_jacobi_identities(u, k):
    sn, cn, dn = jacobi(u, k)
    assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
    assert dn * dn + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_jacobi_matches_scipy():
    for u in (-2.3, 0.4, 1.7):
        for k in (0.1, 0.6, 0.97):
            sn, cn, dn = jacobi(u, k)
            s, c, d, _ = ellipj(u, k * k)
            assert sn == pytest.approx(float(s), abs=1e-12)
            assert cn == pytest.approx(float(c), abs=1e-12)
            assert dn == pytest.approx(float(d), abs=1e-12)


def test_jacobi_periodicity():
    k = 0.8
    big_k = float(ellipk(k * k))
    sn0, cn0, _ = jacobi(0.37, k)
    sn4, cn4, _ = jacobi(0.37 + 4.0 * big_k, k)
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
        sn, cn, dn = jacobi(u, k, complement=complement)
        sn_m, cn_m, dn_m = jacobi(-u, k, complement=complement)
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


# The scalar elliptic code the array ladder replaced, kept as the reference
# the ladder must match bit for bit: AGM(1, b) for K, a Landen fold that
# builds its own ladder for one modulus, and int_0^x F(phi) for one wave.
EPS = np.finfo(float).eps


def agm_oracle(b):
    b = np.array(b, dtype=float)
    a = np.ones_like(b)
    for _ in range(200):
        live = a - b > 4.0 * EPS * a
        if not np.count_nonzero(live):
            break
        a_next = 0.5 * (a + b)
        np.copyto(b, np.sqrt(a * b), where=live)
        np.copyto(a, a_next, where=live)
    return 0.5 * (a + b)


def landen_fold_oracle(u, k: float, complement: float):
    if complement < 1e-12:
        sn, cn = np.tanh(u), 1.0 / np.cosh(u)
        return sn, cn, cn.copy(), u - sn
    a, b = 1.0, complement
    a_list, c_list = [1.0], [k]
    while len(a_list) < 64:
        an, bn = 0.5 * (a + b), math.sqrt(a * b)
        cn_ = 0.5 * (a - b)
        a_list.append(an)
        c_list.append(cn_)
        a, b = an, bn
        if cn_ <= 4.0 * EPS * an:
            break
    n = len(a_list) - 1
    phi = (2.0**n) * a_list[n] * u
    c_sin = 0.0
    for i in range(n, 0, -1):
        sin_phi = np.sin(phi)
        c_sin = c_sin + c_list[i] * sin_phi
        phi = 0.5 * (phi + np.arcsin(c_list[i] / a_list[i] * sin_phi))
    s = 0.5 * sum((2.0**i) * c * c for i, c in reversed(list(enumerate(c_list))))
    cn = np.cos(phi)
    return np.sin(phi), cn, np.sqrt(complement * complement + k * k * cn * cn), u * s - c_sin


def sn_cn_dn_oracle(u, k: float, complement: float):
    if k < 1e-12:
        return np.sin(u), np.cos(u), np.ones_like(u)
    return landen_fold_oracle(u, k, complement)[:3]


def wave_oracle(a: float, params: Params):
    """(modulus, complement, scale, period) of the amplitude-a wave."""
    al, be = params.alpha, params.beta
    denom = 2.0 * be - al * a * a
    m2 = al * a * a / denom
    mc2 = 2.0 * al * (params.binodal - a) * (params.binodal + a) / denom
    scale = float(np.sqrt((2.0 * be - al * a * a) / (2.0 * params.kappa)))
    period = 4.0 * (math.pi / (2.0 * agm_oracle(np.sqrt(mc2)))) / scale
    return math.sqrt(m2), math.sqrt(mc2), scale, float(period)


def potential_integral_oracle(wave: WaveProfile, x: float) -> float:
    u, k = x * wave.scale, wave.modulus
    if k < 1e-12:
        s2 = 0.5 * u - 0.25 * math.sin(2.0 * u)
        s4 = 0.375 * u - 0.25 * math.sin(2.0 * u) + math.sin(4.0 * u) / 32.0
    else:
        sn, cn, dn, deficit = landen_fold_oracle(u, k, wave.complement)
        s2 = deficit / (k * k)
        s4 = (2.0 * (1.0 + k * k) * s2 - u + sn * cn * dn) / (3.0 * k * k)
    a2 = wave.amplitude * wave.amplitude
    b2 = wave.params.beta / wave.params.alpha
    return wave.params.alpha / (4.0 * wave.scale) * (a2 * a2 * s4 - 2.0 * a2 * b2 * s2 + b2 * b2 * u)


def window_energy_oracle(a: float, params: Params) -> float:
    """4 int_0^L F(phi) - 2 L F(a), the integral as the scalar code took it."""
    if a == 0.0:
        return params.e_max
    k, complement, scale, _ = wave_oracle(a, params)
    wave = WaveProfile(amplitude=a, modulus=k, complement=complement, scale=scale, params=params)
    length = params.half_length
    return 4.0 * potential_integral_oracle(wave, length) - 2.0 * length * params.f(a)


@pytest.mark.parametrize("params", [Params(), Params(alpha=1.3, beta=0.7, kappa=5e-4,
                                                     half_length=1.5)])
def test_ladder_matches_the_scalar_code_bit_for_bit(params):
    rng = np.random.default_rng(17)
    b = params.binodal
    amps = np.concatenate([
        rng.uniform(1e-3, 0.999, 2500) * b,
        b * -np.expm1(-rng.uniform(7.0, 36.0, 1000)),  # within 1e-3 to 1e-15 of the binodal
        b * 10.0 ** -rng.uniform(3.0, 15.0, 500),  # below a ~ 1e-12, k < 1e-12
    ])
    amps = amps[amps < b]
    assert amps.size >= 4000
    k, complement, scale, period = np.array([wave_oracle(float(a), params) for a in amps]).T
    assert np.count_nonzero(k < 1e-12) >= 50

    wave = periodic_wave(amps, params)
    assert np.array_equal(wave.modulus, k)
    assert np.array_equal(wave.complement, complement)
    assert np.array_equal(wave.scale, scale)
    assert np.array_equal(period_of_amplitude(amps, params), period)
    assert np.array_equal(wave.period, period)

    # the fold at u = h L, with k' < 1e-12 and k < 1e-12 pairs besides
    tiny = np.repeat([0.0, 1e-300, 1e-13, 5e-13], 25)
    k = np.concatenate([k, np.sqrt((1.0 - tiny) * (1.0 + tiny)), tiny])
    complement = np.concatenate([complement, tiny, np.sqrt((1.0 - tiny) * (1.0 + tiny))])
    u = np.concatenate([params.half_length * scale, rng.uniform(-30.0, 30.0, 2 * tiny.size)])
    oracle = np.array([landen_fold_oracle(*args) for args in zip(u, k, complement)]).T
    for new, old in zip(_landen_fold(u, _ladder(k, complement), complement), oracle):
        assert np.array_equal(new, old)
    oracle = np.array([sn_cn_dn_oracle(*args) for args in zip(u, k, complement)]).T
    for new, old in zip(jacobi(u, k, complement=complement), oracle):
        assert np.array_equal(new, old)

    # potential_integral on a family whose amplitudes leave every term of
    # F(a sn)'s integral visible, in all three branches
    wave = WaveProfile(amplitude=rng.uniform(0.05, 0.99, k.size) * b, modulus=k,
                       complement=complement, scale=rng.uniform(5.0, 60.0, k.size), params=params)
    oracle = [potential_integral_oracle(WaveProfile(*fields, params=params), 0.37)
              for fields in zip(wave.amplitude, k, complement, wave.scale)]
    assert np.array_equal(wave.potential_integral(0.37), oracle)

    energies = [window_energy_oracle(float(a), params) for a in amps]
    assert np.array_equal(wave_window_energy(amps, params), energies)
    assert np.array_equal(wave_window_energy(np.append(amps[:5], 0.0), params),
                          energies[:5] + [params.e_max])


def test_ladder_on_one_wave_gives_floats_and_the_scalar_code(params):
    for a in (1e-13, 0.3, 0.8, 0.99):
        k, complement, scale, period = wave_oracle(a, params)
        wave = periodic_wave(np.float64(a), params)
        fields = (wave.amplitude, wave.modulus, wave.complement, wave.scale)
        assert all(type(f) is float for f in fields)
        assert (wave.modulus, wave.complement, wave.scale) == (k, complement, scale)
        assert type(wave.period) is float and wave.period == period
        energy = wave_window_energy(np.array(a), params)
        assert type(energy) is float and energy == window_energy_oracle(a, params)
        # one modulus across a grid of arguments, as the Evans transfer map samples it
        x = np.linspace(-period, period, 2049)
        for new, old in zip(jacobi(x * scale, k, complement=complement),
                            sn_cn_dn_oracle(x * scale, k, complement)):
            assert np.array_equal(new, old)
        # the wave's own samples, on the ladder its period built
        phi, phi_x, _ = wave.with_derivatives(x)
        sn, cn, dn = sn_cn_dn_oracle(x * scale, k, complement)
        assert np.array_equal(phi, a * sn)
        assert np.array_equal(phi_x, a * scale * cn * dn)
    assert wave_window_energy(0.0, params) == params.e_max


def test_one_wave_builds_one_ladder(monkeypatch, energy_table):
    built, waves_made = [], []
    ladder, make = waves._ladder, energy.periodic_wave
    monkeypatch.setattr(waves, "_ladder", lambda *args: built.append(1) or ladder(*args))
    monkeypatch.setattr(energy, "periodic_wave", lambda *args: waves_made.append(1) or make(*args))
    params = energy_table.params
    wave = periodic_wave(np.array([0.3, 0.8, 0.99]), params)
    assert wave.period[0] < wave.period[1] < wave.period[2]
    wave.potential_integral(params.half_length)  # on the ladder the period built
    assert len(built) == 1
    # the energy -> period bisection: one wave, and so one ladder, per round
    built.clear()
    energy.period_from_energy(np.linspace(0.2, 0.45, 50), energy_table)
    assert len(waves_made) > 10 and len(built) == len(waves_made)
    # the Evans layer samples its wave on the ladder the wave's period built
    for evaluate in (lambda: monodromy(3.0, 0.5, params), lambda: leading_eigenvalue(0.5, params)):
        built.clear()
        evaluate()
        assert len(built) == 1
