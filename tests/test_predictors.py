import math

import numpy as np
import pytest

import bchsim.predictors as predictors
from bchsim.energy import energy_of_period
from bchsim.evans import EigTable
from bchsim.predictors import (
    FitResult,
    Handshake,
    fit_pfit,
    handshake,
    p_fit,
    predicted_energy_curve,
)
from bchsim.series import TimeSeries
from bchsim.waves import Params

E_SPINODAL = 0.4219061143562932


def _constant_rate_table(params: Params, rate: float) -> EigTable:
    periods = np.linspace(params.p_min, 3.0, 50)
    return EigTable(
        amplitudes=np.linspace(0.01, 0.99, 50),
        periods=periods,
        lambda_max=np.full(50, rate),
        params=params,
    )


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
    table = _constant_rate_table(params, rate)
    t = np.linspace(1.0, 21.0, 11)
    got = _periods(t, params, "eig_full", 0.3, t0=1.0, eig_table=table)
    assert np.allclose(got, 0.3 * np.exp(rate * (t - 1.0)), rtol=1e-7)
    got_half = _periods(t, params, "eig_half", 0.3, t0=1.0, eig_table=table)
    assert np.allclose(got_half, 0.3 * np.exp(0.5 * rate * (t - 1.0)), rtol=1e-7)


def test_eig_ode_half_is_time_rescaled_full(params, eig_table):
    # p_half(t0 + 2 Delta) = p_full(t0 + Delta) exactly
    t0 = 1.0
    deltas = np.array([0.0, 5.0, 20.0, 60.0])
    full = _periods(t0 + deltas, params, "eig_full", params.p_s, t0=t0, eig_table=eig_table)
    half = _periods(t0 + 2.0 * deltas, params, "eig_half", params.p_s, t0=t0,
                    eig_table=eig_table)
    assert np.allclose(half, full, rtol=1e-6)


def test_eig_ode_step_refinement_converges(monkeypatch, params, eig_table):
    t = np.array([0.0, 50.0, 100.0])
    coarse = _periods(t, params, "eig_full", params.p_s, eig_table=eig_table)
    monkeypatch.setattr(predictors, "_DP_MAX", 0.5 * predictors._DP_MAX)
    fine = _periods(t, params, "eig_full", params.p_s, eig_table=eig_table)
    assert np.max(np.abs(coarse / fine - 1.0)) < 1e-6


def _rk4_with_separate_step_lookup(times, table, p0, t0, factor):
    """The rate-ODE loop that looks lambda up once for the step size and
    again for k1; returns the series and the number of steps."""
    spacing = np.diff(table.periods)

    def rate(p):
        return factor * float(table.lambda_of_period(p)) * p

    def dp_cap(p):
        i = min(max(int(np.searchsorted(table.periods, p)) - 1, 0), spacing.size - 1)
        return float(np.clip(spacing[i], 1e-4, predictors._DP_MAX))

    out, p, t_cur, steps = [], float(p0), float(t0), 0
    for t_next in times:
        while t_next - t_cur > 1e-14 * max(1.0, abs(t_next)):
            r = rate(p)
            h = t_next - t_cur if r <= 0 else min(t_next - t_cur, dp_cap(p) / r)
            k1 = rate(p)
            k2 = rate(p + 0.5 * h * k1)
            k3 = rate(p + 0.5 * h * k2)
            k4 = rate(p + h * k3)
            p += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur += h
            steps += 1
        out.append(p)
    return np.array(out), steps


def test_eig_ode_looks_lambda_up_four_times_per_step(monkeypatch, params, eig_table):
    t = np.linspace(0.0, 100.0, 201)
    expected, steps = _rk4_with_separate_step_lookup(t, eig_table, params.p_s, 0.0, 1.0)
    calls = []
    lookup = EigTable.lambda_of_period
    monkeypatch.setattr(EigTable, "lambda_of_period",
                        lambda self, p: calls.append(p) or lookup(self, p))
    got = _periods(t, params, "eig_full", params.p_s, eig_table=eig_table)
    assert np.array_equal(got, expected)
    assert len(calls) == 4 * steps


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
def test_fit_objective_is_the_trapezoid_rule_of_scipy_bit_for_bit(monkeypatch, params, size):
    # fit_pfit writes the trapezoid rule out in numpy; on non-uniform grids it
    # must give scipy.integrate.trapezoid's bits at every point Nelder-Mead visits
    import scipy.optimize
    from scipy.integrate import trapezoid

    objectives = []
    minimize = scipy.optimize.minimize

    def spy(fun, **kwargs):
        objectives.append(fun)
        return minimize(fun, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    rng = np.random.default_rng(size)
    t = np.sort(rng.uniform(0.0, 20.0, size))
    p = p_fit(t, 2.0, 4.0, params) * (1.0 + 1e-3 * rng.standard_normal(size))
    fit = fit_pfit((t, p), params)
    weight = 1.0 / np.log1p(t)

    def scipy_objective(c1, c2):
        return float(trapezoid((p_fit(t, c1, c2, params) - p) ** 2 * weight, t))

    assert len(objectives) == 2  # one per Nelder-Mead start
    assert fit.objective == scipy_objective(fit.c1, fit.c2)
    for log_c in rng.normal(size=(25, 2)):
        expected = scipy_objective(math.exp(log_c[0]), math.exp(log_c[1]))
        assert all(objective(log_c) == expected for objective in objectives)


def test_fit_rejects_degenerate_input(params):
    t = np.linspace(0.1, 10.0, 50)
    with pytest.raises(ValueError):
        fit_pfit((t, np.full(50, 0.4)), params)
    with pytest.raises(ValueError):
        fit_pfit((t[:2], np.array([0.3, 0.4])), params)


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
