import math

import numpy as np
import pytest

import bchsim.predictors as predictors
from bchsim.energy import energy_of_period
from bchsim.evans import EigTable
from bchsim.predictors import (
    FitResult,
    Handshake,
    PredictorConfig,
    eigenvalue_ode_period,
    fit_pfit,
    handshake,
    langer_period,
    p_fit,
    predict_periods,
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


def test_langer_starts_at_p0(params):
    assert float(langer_period(np.array([2.0]), params, p0=0.5, t0=2.0)[0]) == 0.5


def test_langer_initial_slope(params):
    # d/dt [p0 + l ln(1 + r (t - t0) e^{-p0/l})] at t0 is l r e^{-p0/l}
    p0, t0 = 0.4, 1.0
    ell = math.sqrt(2.0 * params.kappa / params.beta)
    r = 16.0 * params.beta**2 / params.kappa
    expected = ell * r * math.exp(-p0 / ell)
    h = 1e-9
    vals = langer_period(np.array([t0, t0 + h]), params, p0=p0, t0=t0)
    assert (vals[1] - vals[0]) / h == pytest.approx(expected, rel=1e-4)


def test_langer_landmark_value(params):
    # starting from the spinodal period at t0 = 0
    val = float(langer_period(np.array([100.0]), params)[0])
    assert val == pytest.approx(0.638882581265463, rel=1e-12)


def test_langer_monotone_and_concave(params):
    t = np.linspace(0.0, 50.0, 400)
    p = langer_period(t, params)
    assert np.all(np.diff(p) > 0)
    assert np.all(np.diff(p, 2) < 1e-12)


def test_langer_rejects_early_times(params):
    with pytest.raises(ValueError):
        langer_period(np.array([0.5]), params, t0=1.0)


def test_p_fit_reduces_to_langer(params):
    t = np.linspace(0.0, 30.0, 100)
    assert np.allclose(p_fit(t, 1.0, 1.0, params), langer_period(t, params),
                       rtol=1e-14, atol=1e-14)


def test_p_fit_rejects_early_times(params):
    with pytest.raises(ValueError):
        p_fit(np.array([-1.0]), 2.0, 3.0, params)


def test_eig_ode_constant_rate_closed_form(params):
    # with lambda(p) = const the ODE dp/dt = factor lambda p integrates to
    # an exact exponential
    rate = 0.05
    table = _constant_rate_table(params, rate)
    t = np.linspace(1.0, 21.0, 11)
    cfg = PredictorConfig(p0=0.3, t0=1.0, variant="eig_full", eig_table=table)
    got = eigenvalue_ode_period(t, cfg, params)
    expected = 0.3 * np.exp(rate * (t - 1.0))
    assert np.allclose(got["period"], expected, rtol=1e-7)

    cfg_half = PredictorConfig(p0=0.3, t0=1.0, variant="eig_half", eig_table=table)
    got_half = eigenvalue_ode_period(t, cfg_half, params)
    assert np.allclose(got_half["period"], 0.3 * np.exp(0.5 * rate * (t - 1.0)),
                       rtol=1e-7)


def test_eig_ode_half_is_time_rescaled_full(params, eig_table):
    # p_half(t0 + 2 Delta) = p_full(t0 + Delta) exactly
    t0 = 1.0
    deltas = np.array([0.0, 5.0, 20.0, 60.0])
    full = eigenvalue_ode_period(
        t0 + deltas,
        PredictorConfig(t0=t0, variant="eig_full", eig_table=eig_table), Params())
    half = eigenvalue_ode_period(
        t0 + 2.0 * deltas,
        PredictorConfig(t0=t0, variant="eig_half", eig_table=eig_table), Params())
    assert np.allclose(half["period"], full["period"], rtol=1e-6)


def test_eig_ode_step_refinement_converges(monkeypatch, params, eig_table):
    t = np.array([0.0, 50.0, 100.0])
    cfg = PredictorConfig(variant="eig_full", eig_table=eig_table)
    coarse = eigenvalue_ode_period(t, cfg, params)
    monkeypatch.setattr(predictors, "_DP_MAX", 0.5 * predictors._DP_MAX)
    fine = eigenvalue_ode_period(t, cfg, params)
    assert np.max(np.abs(coarse["period"] / fine["period"] - 1.0)) < 1e-6


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
    cfg = PredictorConfig(variant="eig_full", eig_table=eig_table)
    expected, steps = _rk4_with_separate_step_lookup(
        t, eig_table, cfg.start_period(params), cfg.t0, cfg.factor)
    calls = []
    lookup = EigTable.lambda_of_period
    monkeypatch.setattr(EigTable, "lambda_of_period",
                        lambda self, p: calls.append(p) or lookup(self, p))
    got = eigenvalue_ode_period(t, cfg, params)["period"]
    assert np.array_equal(got, expected)
    assert len(calls) == 4 * steps


def test_eig_ode_rejects_bad_grids(params, eig_table):
    cfg = PredictorConfig(t0=1.0, variant="eig_full", eig_table=eig_table)
    with pytest.raises(ValueError):
        eigenvalue_ode_period(np.array([0.0, 2.0]), cfg, params)
    with pytest.raises(ValueError):
        eigenvalue_ode_period(np.array([3.0, 2.0]), cfg, params)


def test_predict_periods_dispatch(params, eig_table):
    t = np.linspace(0.0, 10.0, 5)
    lp = predict_periods(t, PredictorConfig(variant="langer"), params)
    assert np.allclose(lp["period"], langer_period(t, params), rtol=1e-14)
    ep = predict_periods(t, PredictorConfig(variant="eig_full", eig_table=eig_table), params)
    assert np.all(np.diff(ep["period"]) > 0)


def test_predictor_config_validation(params, eig_table):
    with pytest.raises(ValueError):
        PredictorConfig(variant="nonsense")
    with pytest.raises(ValueError):
        PredictorConfig(variant="eig_full")  # needs a table
    with pytest.raises(ValueError):
        PredictorConfig(t0=-1.0)
    with pytest.raises(ValueError):
        PredictorConfig(p0=0.5 * params.p_min).start_period(params)
    assert PredictorConfig(variant="eig_half", eig_table=eig_table).factor == 0.5
    assert PredictorConfig().start_period(params) == pytest.approx(params.p_s)


def test_langer_path_checks_the_start_period(params):
    with pytest.raises(ValueError, match="below the shortest admissible period"):
        predict_periods(np.linspace(0.0, 1.0, 3), PredictorConfig(p0=0.01), params)


def test_predicted_energy_curve_composes(params):
    t = np.linspace(0.0, 10.0, 7)
    curve = predicted_energy_curve(t, PredictorConfig(), params)
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
