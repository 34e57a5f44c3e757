import math
import warnings

import numpy as np
import pytest

from bchsim.energy import energy_of_period
from bchsim.evans import EigTable
from bchsim.predictors import (
    FitResult,
    Handshake,
    _fit_objective,
    fit_pfit,
    handshake,
    p_fit,
    predicted_energy_curve,
)
from bchsim.series import TimeSeries
from bchsim.waves import Params

E_SPINODAL = 0.4219061143562932


def _table(params: Params, periods, lambda_max) -> EigTable:
    periods = np.asarray(periods, dtype=float)
    return EigTable(amplitudes=np.linspace(0.01, 0.99, periods.size), periods=periods,
                    lambda_max=np.asarray(lambda_max, dtype=float), params=params)


def _periods(t, params, variant, p0, t0=0.0, eig_table=None):
    return predicted_energy_curve(t, params, variant, p0, t0=t0, eig_table=eig_table)["period"]


def test_langer_starts_at_p0(params):
    assert float(_periods(np.array([2.0]), params, "langer", 0.5, t0=2.0)[0]) == 0.5


def test_langer_initial_slope(params):
    # d/dt [p0 + l ln(1 + r (t - t0) e^{-p0/l})] at t0 is l r e^{-p0/l}
    p0, t0 = 0.4, 1.0
    ell = math.sqrt(2.0 * params.kappa / params.beta)
    r = 16.0 * params.beta**2 / params.kappa
    expected = ell * r * math.exp(-p0 / ell)
    h = 1e-9
    vals = _periods(np.array([t0, t0 + h]), params, "langer", p0, t0=t0)
    assert (vals[1] - vals[0]) / h == pytest.approx(expected, rel=1e-4)


def test_langer_landmark_value(params):
    # starting from the spinodal period at t0 = 0
    val = float(_periods(np.array([100.0]), params, "langer", params.p_s)[0])
    assert val == pytest.approx(0.638882581265463, rel=1e-12)


def test_langer_monotone_and_concave(params):
    t = np.linspace(0.0, 50.0, 400)
    p = _periods(t, params, "langer", params.p_s)
    assert np.all(np.diff(p) > 0)
    assert np.all(np.diff(p, 2) < 1e-12)


def test_langer_rejects_early_times(params):
    with pytest.raises(ValueError):
        _periods(np.array([0.5]), params, "langer", params.p_s, t0=1.0)


def test_langer_rejects_a_decreasing_grid(params):
    with pytest.raises(ValueError, match="nondecreasing"):
        _periods(np.array([2.0, 1.0]), params, "langer", params.p_s)


def test_p_fit_rejects_early_times(params):
    with pytest.raises(ValueError):
        p_fit(np.array([-1.0]), 2.0, 3.0, params)


def test_eig_ode_constant_rate_closed_form(params):
    # with lambda(p) = const the ODE dp/dt = factor lambda p integrates to
    # an exact exponential
    rate = 0.05
    table = _table(params, np.linspace(params.p_min, 3.0, 50), np.full(50, rate))
    t = np.linspace(1.0, 21.0, 11)
    got = _periods(t, params, "eig_full", 0.3, t0=1.0, eig_table=table)
    np.testing.assert_allclose(got, 0.3 * np.exp(rate * (t - 1.0)), rtol=1e-14)
    got_half = _periods(t, params, "eig_half", 0.3, t0=1.0, eig_table=table)
    np.testing.assert_allclose(got_half, 0.3 * np.exp(0.5 * rate * (t - 1.0)), rtol=1e-14)


def test_eig_ode_half_is_time_rescaled_full(params, eig_table):
    # p_half(t0 + 2 Delta) = p_full(t0 + Delta) exactly
    t0 = 1.0
    deltas = np.array([0.0, 5.0, 20.0, 60.0])
    full = _periods(t0 + deltas, params, "eig_full", params.p_s, t0=t0, eig_table=eig_table)
    half = _periods(t0 + 2.0 * deltas, params, "eig_half", params.p_s, t0=t0,
                    eig_table=eig_table)
    np.testing.assert_allclose(half, full, rtol=1e-14)


@pytest.mark.parametrize("variant,factor", [("eig_full", 1.0), ("eig_half", 0.5)])
def test_eig_ode_matches_quadrature_of_the_inverse_time(params, eig_table, variant, factor):
    # t(p) = t0 + int_p0^p dq / (factor lambda(q) q), by adaptive quadrature
    # on each interpolation cell, must land the curve on p
    from scipy.integrate import quad

    def lam(q):
        return np.interp(q, eig_table.periods, eig_table.lambda_max)

    p0, t0 = params.p_s, 1.0
    targets = np.array([p0, 0.3, 0.45, 0.6, 0.8, 0.95])
    times = []
    for target in targets:
        inner = eig_table.periods[(eig_table.periods > p0) & (eig_table.periods < target)]
        edges = np.concatenate(([p0], inner, [target]))
        times.append(t0 + math.fsum(
            quad(lambda q: 1.0 / (factor * lam(q) * q), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
            for lo, hi in zip(edges[:-1], edges[1:])))
    got = _periods(np.array(times), params, variant, p0, t0=t0, eig_table=eig_table)
    np.testing.assert_allclose(got, targets, rtol=1e-12)


@pytest.mark.parametrize("variant,factor", [("eig_full", 1.0), ("eig_half", 0.5)])
def test_eig_ode_rate_proportional_to_period(params, variant, factor):
    # lambda = c p on dyadic nodes makes A = lambda - s p exactly 0 in every
    # cell, and dp/dt = factor c p^2 gives p0 / (1 - factor c p0 (t - t0))
    c, p0, t0 = 0.5, 0.5, 2.0
    periods = np.arange(2, 25) / 8.0
    table = _table(params, periods, c * periods)
    t = t0 + np.linspace(0.0, 3.2, 17) / factor
    got = _periods(t, params, variant, p0, t0=t0, eig_table=table)
    np.testing.assert_allclose(got, p0 / (1.0 - factor * c * p0 * (t - t0)), rtol=1e-14)


@pytest.mark.parametrize("variant,factor", [("eig_full", 1.0), ("eig_half", 0.5)])
def test_eig_ode_start_beyond_the_last_node_grows_exponentially(params, variant, factor):
    # past the table the rate is clamped to the last entry
    table = _table(params, np.linspace(params.p_min, 1.0, 50), np.linspace(1.0, 0.05, 50))
    p0, t0 = 1.2, 1.0
    t = np.linspace(t0, 11.0, 6)
    with pytest.warns(RuntimeWarning, match="left the table span"):
        got = _periods(t, params, variant, p0, t0=t0, eig_table=table)
    np.testing.assert_allclose(got, p0 * np.exp(factor * 0.05 * (t - t0)), rtol=1e-14)


def test_eig_ode_start_below_the_first_node(params):
    # below the table the rate is clamped to the first entry: exponential
    # growth to the first node, then the curve started there
    table = _table(params, np.linspace(0.5, 3.0, 50), np.linspace(2.0, 0.05, 50))
    p0, t0 = 0.3, 1.0
    t_node = t0 + math.log(0.5 / p0) / 2.0
    early = np.linspace(t0, t_node, 5)[:-1]
    got = _periods(early, params, "eig_full", p0, t0=t0, eig_table=table)
    np.testing.assert_allclose(got, p0 * np.exp(2.0 * (early - t0)), rtol=1e-14)
    late = t_node + np.array([0.0, 0.1, 0.5, 2.0])
    got = _periods(late, params, "eig_full", p0, t0=t0, eig_table=table)
    from_node = _periods(late, params, "eig_full", 0.5, t0=t_node, eig_table=table)
    np.testing.assert_allclose(got, from_node, rtol=1e-13)


def test_eig_ode_warns_once_when_it_leaves_the_table(params):
    table = _table(params, np.linspace(params.p_min, 1.0, 50), np.linspace(1.0, 0.05, 50))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inside = _periods(np.linspace(0.0, 0.5, 6), params, "eig_full", 0.8, eig_table=table)
        assert inside[-1] < 1.0
        assert not caught
        beyond = _periods(np.linspace(0.0, 10.0, 41), params, "eig_full", 0.8, eig_table=table)
    assert np.count_nonzero(beyond > 1.0) > 1
    assert len(caught) == 1
    assert caught[0].category is RuntimeWarning
    past = beyond[beyond > 1.0]
    assert str(caught[0].message).startswith(
        f"period {past[0]:.4f} left the table span (ends 1.0000)")
    # past the table the rate is the last entry's: 0.05 over each step of 0.25
    np.testing.assert_allclose(past[1:] / past[:-1], math.exp(0.05 * 0.25), rtol=1e-14)


def test_eig_ode_rejects_bad_grids(params, eig_table):
    for t in (np.array([0.0, 2.0]), np.array([3.0, 2.0])):
        with pytest.raises(ValueError):
            _periods(t, params, "eig_full", params.p_s, t0=1.0, eig_table=eig_table)


def test_predict_periods_dispatch(params, eig_table):
    t = np.linspace(0.0, 10.0, 5)
    lp = _periods(t, params, "langer", params.p_s)
    assert np.array_equal(lp, p_fit(t, 1.0, 1.0, params))
    ep = _periods(t, params, "eig_full", params.p_s, eig_table=eig_table)
    assert np.all(np.diff(ep) > 0)


def test_predictor_config_validation(params, eig_table):
    t = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="variant must be one of"):
        _periods(t, params, "nonsense", params.p_s)
    with pytest.raises(ValueError, match="needs an eig_table"):
        _periods(t, params, "eig_full", params.p_s)
    with pytest.raises(ValueError, match="t0 must be nonnegative"):
        _periods(t, params, "langer", params.p_s, t0=-1.0)
    with pytest.raises(ValueError, match="below the shortest admissible period"):
        _periods(t, params, "eig_half", 0.5 * params.p_min, eig_table=eig_table)


def test_langer_path_checks_the_start_period(params):
    with pytest.raises(ValueError, match="below the shortest admissible period"):
        _periods(np.linspace(0.0, 1.0, 3), params, "langer", 0.01)


def test_predicted_energy_curve_composes(params):
    t = np.linspace(0.0, 10.0, 7)
    curve = predicted_energy_curve(t, params, "langer", params.p_s)
    assert curve.names == ("t", "period", "energy")
    for i in (0, 3, 6):
        assert curve["energy"][i] == pytest.approx(
            energy_of_period(float(curve["period"][i]), params), rel=1e-12)
    assert np.all(np.diff(curve["energy"]) < 0)


def test_fit_recovers_synthetic_coefficients(params):
    t = np.linspace(0.05, 20.0, 200)
    p = p_fit(t, 3.0, 7.0, params)
    result = fit_pfit((t, p), params)
    assert result.c1 == pytest.approx(3.0, rel=1e-6)
    assert result.c2 == pytest.approx(7.0, rel=1e-6)
    assert result.objective < 1e-16


def test_fit_accepts_time_series(params):
    t = np.linspace(0.05, 15.0, 120)
    p = p_fit(t, 2.0, 5.0, params)
    series = TimeSeries(t=t, period=p)
    result = fit_pfit(series, params, t_max=15.0)
    assert result.c1 == pytest.approx(2.0, rel=1e-5)
    assert isinstance(result, FitResult)
    # the fitted coefficients reproduce the law
    assert np.allclose(p_fit(t, result.c1, result.c2, params), p, rtol=1e-5)


@pytest.mark.parametrize("size", [3, 4, 57, 1000, 20001])
def test_fit_objective_is_the_trapezoid_rule_of_scipy_bit_for_bit(params, size):
    # fit_pfit writes the trapezoid rule out in numpy; on non-uniform grids it
    # must give scipy.integrate.trapezoid's bits at the fitted point and at any other
    from scipy.integrate import trapezoid

    rng = np.random.default_rng(size)
    t = np.sort(rng.uniform(0.0, 20.0, size))
    p = p_fit(t, 2.0, 4.0, params) * (1.0 + 1e-3 * rng.standard_normal(size))
    fit = fit_pfit((t, p), params)
    weight = 1.0 / np.log1p(t)

    def scipy_objective(c1, c2):
        return float(trapezoid((p_fit(t, c1, c2, params) - p) ** 2 * weight, t))

    assert fit.objective == scipy_objective(fit.c1, fit.c2)
    for log_c in rng.normal(size=(25, 2)):
        c1, c2 = math.exp(log_c[0]), math.exp(log_c[1])
        assert _fit_objective(t, p, c1, c2, params, params.p_s, 0.0) == scipy_objective(c1, c2)


def test_fit_rejects_degenerate_input(params):
    t = np.linspace(0.1, 10.0, 50)
    with pytest.raises(ValueError):
        fit_pfit((t, np.full(50, 0.4)), params)
    with pytest.raises(ValueError):
        fit_pfit((t[:2], np.array([0.3, 0.4])), params)
    # falling data wants c1 < 0; straight growth wants c2 beyond any scale of the window
    for p in (params.p_s - 0.01 * t, params.p_s + 0.01 * t):
        with pytest.raises(ValueError, match="with c1 > 0 is a minimum"):
            fit_pfit((t, p), params)


def test_fit_rejects_non_finite_samples_in_window(params):
    t = np.linspace(0.1, 10.0, 50)
    p = p_fit(t, 3.0, 7.0, params)
    p[30] = np.nan
    with pytest.raises(ValueError, match="non-finite period at t = 6.16"):
        fit_pfit((t, p), params)
    # a sample outside (t0, t_max] is not part of the fit
    assert fit_pfit((t, p), params, t_max=6.0).c1 == pytest.approx(3.0, rel=1e-4)


def test_handshake_finds_spinodal_crossing(params):
    t = np.linspace(0.0, 10.0, 101)
    energies = 0.5 - 0.02 * t  # crosses E_SPINODAL near t = 3.9
    hs = handshake(t, energies, params)
    assert isinstance(hs, Handshake)
    (i,) = np.flatnonzero(t == hs.t0)  # t0 is a record time
    assert energies[i] <= E_SPINODAL
    assert energies[i - 1] > E_SPINODAL
    assert hs.p0 == pytest.approx(params.p_s)


def test_handshake_requires_crossing(params):
    t = np.linspace(0.0, 5.0, 20)
    with pytest.raises(ValueError):
        handshake(t, np.full(20, 0.49), params)
