import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import linprog
from scipy.special import ellipj, ellipk

import bchsim.energy as energy
from bchsim.energy import (
    ClampWarning,
    EnergyPeriodTable,
    coarseness_table,
    energy_of_period,
    energy_scale,
    free_energy,
    kohn_otto_length,
    period_from_energy,
    plateau_slope_bound,
    wave_window_energy,
)
from bchsim.grid import Field, Grid
from bchsim.waves import Params, amplitude_of_period, period_of_amplitude, periodic_wave

E_MAX = 0.5
E_SPINODAL = 0.4219061143562932
TWO_E_MIN = 0.0596284793999944


def test_free_energy_of_constants(params):
    g = Grid(64)
    assert free_energy(Field(g, np.zeros(64)), params) == pytest.approx(E_MAX, rel=1e-14)
    binodal = np.full(64, params.binodal)
    assert free_energy(Field(g, binodal), params) == pytest.approx(0.0, abs=1e-15)


def test_free_energy_of_sine_analytic(params):
    # For phi = c sin(kx) with whole wavelengths in the box, the gradient
    # term integrates to kappa c^2 k^2 L / 2 and the potential term follows
    # from the moments <sin^2> = 1/2, <sin^4> = 3/8.
    g = Grid(256)
    c, m = 0.3, 4
    k = m * math.pi / g.half_length
    phi = Field(g, c * np.sin(k * g.x))
    a, b = params.alpha, params.beta
    box = 2.0 * g.half_length
    grad = 0.5 * params.kappa * c**2 * k**2 * (box / 2.0)
    pot = box * (a / 4.0 * (c**4 * 3.0 / 8.0) - a / 2.0 * (b / a) * c**2 * 0.5
                 + a / 4.0 * (b / a) ** 2)
    assert free_energy(phi, params) == pytest.approx(grad + pot, rel=1e-12)


@pytest.mark.parametrize("a", [0.2, 0.7, 0.97])
def test_window_energy_against_quadrature(a, params):
    """Integrate the genuine gradient density of the profile over the box.

    The implementation integrates 2F(phi) - F(a) via the first integral;
    the oracle uses kappa/2 phi_x^2 + F(phi) directly, so the two agree
    only if the first-integral substitution is correct.
    """
    wave = periodic_wave(a, params)
    half = params.half_length
    x = np.linspace(-half, half, 400_001)
    phi, phi_x, _ = wave.with_derivatives(x)
    density = 0.5 * params.kappa * phi_x**2 + params.f(phi)
    oracle = simpson(density, x=x)
    assert wave_window_energy(a, params) == pytest.approx(oracle, rel=1e-8)


def _quadrature_window_energy(a: float, params: Params) -> float:
    """Independent oracle: adaptive quadrature of (kappa/2) phi_x^2 + F(phi),
    phi = a sn(h x), phi_x = a h cn dn, split at quarter periods.

    Each quarter period carries the same energy and the density is even, so
    the window holds 2 (j Q + R): j whole quarters of energy Q in [0, L] and
    the rest R.  sn, cn and dn come from scipy's ellipj, except where
    k'^2 < 1e-6: there ellipj's expansion in 1 - m fails at large argument,
    and m = k^2 in double precision would lose the digits of 1 - m that set
    the period, so mpmath evaluates them at m = 1 - k'^2 in 20 digits.
    """
    wave = periodic_wave(a, params)
    h, m, mc = wave.scale, wave.modulus**2, wave.complement**2
    if mc > 1e-6:
        def jacobi(u):
            return ellipj(u, m)[:3]
        quarter = float(ellipk(m)) / h
    else:
        def jacobi(u):
            with mpmath.workdps(20):
                return [float(mpmath.ellipfun(f, u, m=1 - mpmath.mpf(mc))) for f in ("sn", "cn", "dn")]
        with mpmath.workdps(20):
            quarter = float(mpmath.ellipk(1 - mpmath.mpf(mc))) / h

    def density(x):
        sn, cn, dn = jacobi(h * x)
        return 0.5 * params.kappa * (a * h * cn * dn) ** 2 + params.f(a * sn)

    whole = int(params.half_length // quarter)
    each, _ = quad(density, 0.0, quarter, epsabs=1e-16, epsrel=1e-13, limit=200)
    rest, _ = quad(density, whole * quarter, params.half_length, epsabs=1e-16, epsrel=1e-13,
                   limit=200)
    return 2.0 * (whole * each + rest)


@pytest.mark.parametrize("kappa", [1e-3, 1e-4, 3e-5])
def test_window_energy_matches_quadrature_oracle(kappa):
    params = Params(kappa=kappa)
    fractions = [1e-3, 0.2, 0.6, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-14]
    for a in [params.binodal * f for f in fractions]:
        oracle = _quadrature_window_energy(a, params)
        assert abs(wave_window_energy(a, params) / oracle - 1.0) <= 1e-12


def test_window_energy_limits(params):
    assert wave_window_energy(0.0, params) == params.e_max
    # below k = 1e-12 the profile is a sin(h x)
    assert wave_window_energy(1e-13, params) == pytest.approx(E_MAX, rel=1e-15)
    assert wave_window_energy(1e-3, params) == pytest.approx(E_MAX, rel=1e-5)
    # deep in the kink-train regime the window energy approaches 2 e_min
    # per window pair, scaled to the box
    assert wave_window_energy(0.2, params) < wave_window_energy(0.05, params)


def test_energy_of_period_consistent(params):
    p = period_of_amplitude(0.6, params)
    assert energy_of_period(p, params) == pytest.approx(
        wave_window_energy(0.6, params), rel=1e-12)


def test_energy_of_period_rejects_non_finite_periods(params):
    # nan fails both the p < p_min and the p == p_min test, and inf has no
    # amplitude; neither may end at some energy of the family
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            energy_of_period(p, params)


def test_energy_of_period_array_matches_scalar_calls(params):
    p = np.array([[params.p_min, params.p_min * (1.0 + 1e-9), 0.35],
                  [0.6, 1.0, 1.9]])
    e = energy_of_period(p, params)
    assert e.shape == p.shape
    assert np.array_equal(e, [[energy_of_period(float(q), params) for q in row] for row in p])
    assert e[0, 0] == params.e_max
    assert isinstance(energy_of_period(np.array(0.6), params), float)
    assert energy_of_period(params.p_min, params) == params.e_max


@pytest.mark.parametrize("bad", [math.nan, 0.1, 10.0])
def test_energy_of_period_rejects_any_bad_element(bad, params):
    # 0.1 < p_min; 10.0 lies beyond double-precision amplitude resolution
    with pytest.raises(ValueError):
        energy_of_period(bad, params)
    with pytest.raises(ValueError):
        energy_of_period(np.array([0.3, bad, 0.6]), params)


def test_energy_of_period_names_the_first_bad_element(params):
    with pytest.raises(ValueError, match=r"p_min = [0-9.]+, got 0.01$"):
        energy_of_period(np.linspace(0.01, 0.5, 201), params)
    with pytest.raises(ValueError, match="finite, got inf$"):
        energy_of_period(np.array([0.3, math.inf, math.nan]), params)


def test_coarseness_table_is_shared_across_flow_parameters(params):
    table = coarseness_table(params)
    assert coarseness_table(Params(nu=1.0, K=3.0)) is table
    assert coarseness_table(Params(kappa=2e-3)) is not table
    assert np.array_equal(table.periods, EnergyPeriodTable.build(params).periods)


def test_energy_scale_landmarks(params):
    sc = energy_scale(params)
    assert sc.e_max == pytest.approx(E_MAX, rel=1e-14)
    assert sc.e_spinodal == pytest.approx(E_SPINODAL, rel=1e-10)
    assert 2.0 * sc.e_min == pytest.approx(TWO_E_MIN, rel=1e-10)
    assert sc.e_min == pytest.approx(params.e_min, rel=1e-14)


def test_table_envelope_invariants(params, energy_table):
    t = energy_table
    assert not t.truncated
    assert np.all(np.diff(t.periods) > 0)
    assert t.periods[0] == params.p_min
    assert t.energies[0] == params.e_max
    # gap rule: adjacent energies differ by at most 1/200 of the range
    gap = np.max(np.abs(np.diff(t.energies)))
    assert gap <= (params.e_max - params.e_min) / 200.0 * (1.0 + 1e-9)
    assert t.e_floor == t.energies.min()
    assert t.p_cap == t.periods[np.argmin(t.energies)]


def test_table_matches_direct_evaluation(params, energy_table):
    mid = len(energy_table.amplitudes) // 2
    a = float(energy_table.amplitudes[mid])
    assert energy_table.energies[mid] == pytest.approx(
        wave_window_energy(a, params), rel=1e-10)
    assert energy_table.periods[mid] == pytest.approx(
        period_of_amplitude(a, params), rel=1e-12)


def test_pseudoinverse_monotone(params, energy_table):
    energies = np.linspace(energy_table.e_floor * 1.01, params.e_max, 40)
    periods = [period_from_energy(float(e), energy_table) for e in energies]
    assert np.all(np.diff(periods) <= 1e-12)


def test_pseudoinverse_at_e_max(params, energy_table):
    p = period_from_energy(params.e_max, energy_table)
    assert p == pytest.approx(params.p_min, rel=1e-4)


def test_pseudoinverse_clamps_with_warning(params, energy_table):
    with pytest.warns(ClampWarning):
        p_hi = period_from_energy(params.e_max * 1.5, energy_table)
    assert p_hi == pytest.approx(params.p_min)
    with pytest.warns(ClampWarning):
        p_lo = period_from_energy(energy_table.e_floor * 0.5, energy_table)
    assert p_lo == pytest.approx(energy_table.p_cap)


def test_pseudoinverse_inverts_interior_energies(params, energy_table):
    # inf{p : E(p) <= e} composed with E is the identity on the strictly
    # decreasing branch
    for e in (0.4, 0.25, 0.1):
        p = period_from_energy(e, energy_table)
        assert energy_of_period(p, params) == pytest.approx(e, rel=1e-8)


def _period_from_energy_by_period_bisection(e, table, rtol=1e-10):
    """The bisection on p through energy_of_period that the amplitude bisection replaced."""
    idx = int(np.argmax(table.energies <= e))
    p_lo, p_hi = table.periods[idx - 1], table.periods[idx]
    for _ in range(80):
        p_mid = 0.5 * (p_lo + p_hi)
        if energy_of_period(p_mid, table.params) <= e:
            p_hi = p_mid
        else:
            p_lo = p_mid
        if p_hi - p_lo <= rtol * p_hi:
            break
    return float(p_hi)


@pytest.mark.parametrize("k", [1, 2, 10, 60, 120, 199])
def test_pseudoinverse_matches_period_bisection(k, params, energy_table):
    # energies from criterion 10's grid.  Near the binodal one ulp of the
    # amplitude moves p by up to 1.7e-8 relative and E is a staircase on
    # those amplitudes, so there the two bisections may end one step apart
    e = float(np.linspace(energy_table.e_floor, params.e_max, 201)[k])
    mine = period_from_energy(e, energy_table)
    old = _period_from_energy_by_period_bisection(e, energy_table)
    a = amplitude_of_period(mine, params)
    ulp_step = period_of_amplitude(a, params) - period_of_amplitude(np.nextafter(a, 0.0), params)
    assert abs(mine - old) <= 2e-10 * old + ulp_step


def _period_from_energy_one_at_a_time(e, table):
    """The scalar amplitude bisection that the elementwise map runs on all energies at once."""
    params = table.params
    if e >= params.e_max:
        return params.p_min
    if e <= table.e_floor:
        return table.p_cap
    idx = int(np.argmax(table.energies <= e))
    a_lo, a_hi = table.amplitudes[idx - 1], table.amplitudes[idx]
    p_lo, p_hi = table.periods[idx - 1], table.periods[idx]
    while p_hi - p_lo > energy._PERIOD_RTOL * p_hi:
        a_mid = 0.5 * (a_lo + a_hi)
        if not a_lo < a_mid < a_hi:
            break  # near the binodal the amplitude resolves no finer
        p_mid = period_of_amplitude(a_mid, params)
        if wave_window_energy(a_mid, params) <= e:
            a_hi, p_hi = a_mid, p_mid
        else:
            a_lo, p_lo = a_mid, p_mid
    return float(p_hi)


@pytest.mark.parametrize("kappa", [1e-3, 1e-4])
def test_pseudoinverse_on_arrays_matches_the_scalar_loop(kappa):
    table = coarseness_table(Params(kappa=kappa))
    e = np.linspace(table.e_floor, table.params.e_max, 4002)[1:-1]
    oracle = np.array([_period_from_energy_one_at_a_time(float(x), table) for x in e])
    assert np.array_equal(period_from_energy(e, table), oracle)
    assert np.array_equal(period_from_energy(e[::-1].reshape(2, -1), table),
                          oracle[::-1].reshape(2, -1))


def test_pseudoinverse_of_one_energy_is_a_float(params, energy_table):
    e = 0.5 * (energy_table.e_floor + params.e_max)
    oracle = _period_from_energy_one_at_a_time(e, energy_table)
    for one in (e, np.float64(e), np.array(e)):
        p = period_from_energy(one, energy_table)
        assert type(p) is float and p == oracle


def test_pseudoinverse_clamps_both_edges_of_an_array(params, energy_table):
    e_max, e_floor = params.e_max, energy_table.e_floor
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e_max itself is in range
        assert np.array_equal(period_from_energy(np.array([e_max, e_max]), energy_table),
                              [params.p_min, params.p_min])
    edges = np.array([2.0 * e_max, e_max, e_floor, 0.5 * e_floor])
    with pytest.warns(ClampWarning) as caught:
        p = period_from_energy(edges, energy_table)
    messages = " ".join(str(w.message) for w in caught)
    assert "above e_max" in messages and "at or below e_floor" in messages
    assert np.array_equal(p, [params.p_min, params.p_min, energy_table.p_cap, energy_table.p_cap])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pseudoinverse_refuses_non_finite_energies(bad, energy_table):
    with pytest.raises(ValueError, match="energy must be finite"):
        period_from_energy(bad, energy_table)
    with pytest.raises(ValueError, match="energy must be finite"):
        period_from_energy(np.array([0.3, bad]), energy_table)


def test_plateau_bound_positive_denominator(params):
    # the bound is finite and positive across the admissible amplitudes
    for a in (0.2, 0.5, 0.9, 0.99):
        assert plateau_slope_bound(a, params) > 0.0


def test_plateau_bound_caps_positive_slopes(params, energy_table):
    p = energy_table.periods
    e = energy_table.energies
    slopes = np.diff(e) / np.diff(p)
    mids = 0.5 * (energy_table.amplitudes[1:] + energy_table.amplitudes[:-1])
    pos = slopes > 0
    assert pos.any()
    bounds = np.array([plateau_slope_bound(float(a), params) for a in mids[pos]])
    assert np.all(slopes[pos] <= bounds * (1.0 + 1e-6))


# Kohn-Otto interface length


def test_ko_length_of_sine_analytic():
    # phi = A sin(m pi x / L): the antiderivative has mean |cos| = 2/pi,
    # so the length is 2 A L / (pi^2 m).  The grid sum of |cos| carries an
    # O(dx^2) kink error, hence the tolerance.
    g = Grid(2048)
    for m, amp in ((1, 1.0), (2, 0.7)):
        phi = Field(g, amp * np.sin(m * math.pi * g.x / g.half_length))
        expected = 2.0 * amp * g.half_length / (math.pi**2 * m)
        assert kohn_otto_length(phi) == pytest.approx(expected, rel=1e-5)


def test_ko_length_rejects_nonzero_mean():
    g = Grid(32)
    with pytest.raises(ValueError):
        kohn_otto_length(Field(g, np.full(32, 0.2)))


def _random_zero_mean(g: Grid, seed: int) -> Field:
    rng = np.random.default_rng(seed)
    f = g.physical(g.spectral(rng.standard_normal(g.n)))
    return Field(g, f - f.mean())


def test_ko_length_against_linear_program():
    """Brute-force the variational definition on the grid.

    maximize (dx / 2L) sum(phi * zeta) subject to |zeta_{i+1} - zeta_i| <= dx
    cyclically; zeta_0 is pinned since the objective is shift-invariant for
    zero-mean phi.
    """
    g = Grid(64)
    phi = _random_zero_mean(g, 42)
    n, dx = g.n, g.dx
    rows = []
    for i in range(n):
        row = np.zeros(n)
        row[(i + 1) % n] = 1.0
        row[i] -= 1.0
        rows.append(row)
    a_ub = np.vstack(rows + [-r for r in rows])
    b_ub = np.full(2 * n, dx)
    a_eq = np.zeros((1, n))
    a_eq[0, 0] = 1.0
    res = linprog(-phi.values, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[0.0],
                  bounds=[(None, None)] * n, method="highs")
    assert res.success
    oracle = -res.fun * dx / (2.0 * g.half_length)
    assert kohn_otto_length(phi) == pytest.approx(oracle, rel=5e-3)


@given(scale=st.floats(0.1, 10.0), shift=st.integers(0, 63))
@settings(max_examples=20, deadline=None)
def test_ko_length_homogeneous_and_translation_invariant(scale, shift):
    g = Grid(64)
    phi = _random_zero_mean(g, 7)
    base = kohn_otto_length(phi)
    assert kohn_otto_length(Field(g, scale * phi.values)) == pytest.approx(
        scale * base, rel=1e-10)
    assert kohn_otto_length(Field(g, np.roll(phi.values, shift))) == pytest.approx(
        base, rel=1e-8)
