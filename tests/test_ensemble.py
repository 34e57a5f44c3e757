"""Ensembles, predictor overlays, crossing times, and drop detection."""

from dataclasses import replace

import numpy as np
import pytest

import bchsim.ensemble as ens
import bchsim.initial as initial
from bchsim.config import SolverConfig
from bchsim.ensemble import (
    CompareReport,
    compare_coupled,
    detect_energy_drops,
    first_crossing,
    run_ensemble,
    uncoupled_twin,
)
from bchsim.grid import Field, Grid
from bchsim.series import TimeSeries
from bchsim.solver import RunResult, Snapshot, run
from bchsim.waves import Params


def _fast_cfg(**overrides) -> SolverConfig:
    base = dict(coupling="uncoupled", n=256, t_final=0.2, dt=1e-3,
                record_every=50, seed=20)
    base.update(overrides)
    return SolverConfig(**base)


def _synthetic_series(t, energy, period=None) -> TimeSeries:
    t = np.asarray(t, dtype=float)
    energy = np.asarray(energy, dtype=float)
    if period is None:
        period = np.linspace(0.3, 0.5, t.size)
    return TimeSeries(t=t, free_energy=energy, period=np.asarray(period, float))


def _fake_run(series_for_index):
    """A stand-in for solver.run_batch that gives trial i of _fast_cfg the
    series series_for_index(i) returns, or fails it with the exception."""
    def fake(cfgs):
        outs = [series_for_index(cfg.seed - _fast_cfg().seed) for cfg in cfgs]
        return [out if isinstance(out, Exception) else _result_with_series(cfg, out)
                for cfg, out in zip(cfgs, outs)]
    return fake


def test_single_trial_mean_equals_the_trial():
    report = run_ensemble(_fast_cfg(), trials=1, overlays=False)
    assert not report.partial
    assert report.completed == [0]
    trial = report.trial_series[0]
    assert np.array_equal(report.mean_free_energy, trial["free_energy"])
    assert np.array_equal(report.mean_period, trial["period"])
    assert report.times[0] == 0.0
    assert report.times[-1] == pytest.approx(0.2)


def test_trials_use_derived_seeds():
    report = run_ensemble(_fast_cfg(), trials=2, overlays=False)
    a, b = report.trial_series
    assert not np.array_equal(a["free_energy"], b["free_energy"])
    expect = 0.5 * (a["free_energy"] + b["free_energy"])
    assert report.mean_free_energy == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("error", [RuntimeError, ValueError, KeyError])
def test_failed_trial_marks_partial(monkeypatch, error):
    t = np.linspace(0.0, 1.0, 6)
    good = _synthetic_series(t, np.linspace(0.5, 0.45, 6))
    exc = error("boom")

    def series_for(index):
        if index == 1:
            return exc
        return good

    monkeypatch.setattr(ens, "run_batch", _fake_run(series_for))
    report = run_ensemble(_fast_cfg(), trials=3, overlays=False)
    assert report.partial
    assert report.failures == [(1, str(exc))]
    assert report.completed == [0, 2]
    summary = report.summary()
    assert summary["partial"] is True
    assert summary["trials_completed"] == 2
    assert summary["failures"] == [{"trial": 1, "error": str(exc)}]


def test_worker_pool_gives_the_serial_series():
    cfg = _fast_cfg(t_final=0.05, record_every=10)
    serial = run_ensemble(cfg, trials=2, workers=1, overlays=False)
    pooled = run_ensemble(cfg, trials=2, workers=2, overlays=False)
    assert pooled.completed == serial.completed == [0, 1]
    for a, b in zip(serial.trial_series, pooled.trial_series):
        assert a.names == b.names
        for name in a.names:
            assert np.array_equal(a[name], b[name])


def test_a_nan_in_one_row_fails_that_trial_only(monkeypatch):
    cfg = _fast_cfg(t_final=0.05, record_every=10)
    serial = [run(replace(cfg, seed=cfg.seed + i)).series for i in (0, 2)]
    build = initial.build_initial_fields

    def planted(c, grid, params):
        phi, v = build(c, grid, params)
        if c.seed == cfg.seed + 1:
            phi.values[7] = np.nan
        return phi, v

    monkeypatch.setattr(initial, "build_initial_fields", planted)
    report = run_ensemble(cfg, trials=3, overlays=False)
    assert report.failures == [(1, "non-finite phase field at t = 0.001")]
    assert report.completed == [0, 2]
    for alone, batched in zip(serial, (report.trial_series[0], report.trial_series[2])):
        for name in alone.names:
            assert np.array_equal(alone[name], batched[name]), name


def test_all_failures_raise(monkeypatch):
    monkeypatch.setattr(ens, "run_batch", _fake_run(lambda i: RuntimeError("dead")))
    with pytest.raises(RuntimeError, match="all 3 trials"):
        run_ensemble(_fast_cfg(), trials=3, overlays=False)


def test_mismatched_record_grids_rejected(monkeypatch):
    def series_for(index):
        t = np.linspace(0.0, 1.0, 6 + index)
        return _synthetic_series(t, np.full(t.size, 0.5))

    monkeypatch.setattr(ens, "run_batch", _fake_run(series_for))
    with pytest.raises(ValueError, match="record grids"):
        run_ensemble(_fast_cfg(), trials=2, overlays=False)


def test_overlays_start_at_the_handshake(monkeypatch, eig_table, params):
    t = np.linspace(0.0, 10.0, 21)
    energy = np.linspace(0.5, 0.35, 21)
    monkeypatch.setattr(ens, "run_batch", _fake_run(lambda i: _synthetic_series(t, energy)))
    report = run_ensemble(_fast_cfg(), trials=2, overlays=True, eig_table=eig_table)
    hs = report.handshake
    assert hs is not None
    assert hs.t0 == 5.5
    assert hs.p0 == pytest.approx(params.p_s, rel=1e-12)
    overlays = report.overlays
    live = t >= hs.t0
    for name in ("langer_period", "eig_full_period", "eig_half_period"):
        col = overlays[name]
        assert np.all(np.isnan(col[~live]))
        assert np.all(np.isfinite(col[live]))
        assert col[live][0] == pytest.approx(params.p_s, rel=1e-12)
    assert np.array_equal(overlays["t"], t)


def test_no_spinodal_crossing_means_no_overlays(monkeypatch):
    t = np.linspace(0.0, 1.0, 6)
    monkeypatch.setattr(ens, "run_batch", _fake_run(lambda i: _synthetic_series(t, np.full(6, 0.49))))
    report = run_ensemble(_fast_cfg(), trials=1, overlays=True)
    assert report.handshake is None
    assert report.overlays is None


def test_trials_must_be_positive():
    with pytest.raises(ValueError, match="trials"):
        run_ensemble(_fast_cfg(), trials=0)


def test_first_crossing_cases():
    t = np.array([0.0, 1.0, 2.0])
    assert first_crossing(t, np.array([0.0, 0.2, 0.6]), 0.4) == pytest.approx(1.5)
    assert first_crossing(t, np.array([0.0, 0.4, 0.6]), 0.4) == 1.0
    assert first_crossing(t, np.array([0.7, 0.8, 0.9]), 0.4) == 0.0
    assert first_crossing(t, np.array([0.0, 0.1, 0.2]), 0.4) is None


def test_uncoupled_twin_fields():
    coupled = SolverConfig(coupling="advective", n=512, seed=9, init_v="bump",
                           t_final=0.5, dt=1e-4)
    twin = uncoupled_twin(coupled, t_final=5.0, dt=1e-3, record_every=10)
    assert twin.coupling == "uncoupled"
    assert twin.init_v == "none"
    assert twin.seed == coupled.seed
    assert twin.n == coupled.n
    assert twin.t_final == 5.0
    assert twin.dt == 1e-3
    assert twin.record_every == 10
    with pytest.raises(ValueError, match="already uncoupled"):
        uncoupled_twin(twin)


def test_compare_coupled_validates_configs():
    coupled = SolverConfig(coupling="advective", n=64, seed=1, init_v="bump")
    with pytest.raises(ValueError, match="must be coupled"):
        compare_coupled(uncoupled_twin(coupled), uncoupled_twin(coupled))
    with pytest.raises(ValueError, match="must be uncoupled"):
        compare_coupled(coupled, coupled)
    mismatched = uncoupled_twin(SolverConfig(coupling="advective", n=64, seed=2,
                                             init_v="bump"))
    with pytest.raises(ValueError, match="disagree on seed"):
        compare_coupled(coupled, mismatched)


def test_uncoupled_twin_pins_the_coupled_grid():
    # an unset n resolves to 8192 coupled but 2048 uncoupled
    coupled = SolverConfig(coupling="advective", seed=3, init_v="bump")
    assert uncoupled_twin(coupled).n_eff == coupled.n_eff == 8192


def test_compare_coupled_rejects_a_twin_on_another_grid(monkeypatch):
    def never(cfg):
        raise AssertionError("the runs must not start")

    monkeypatch.setattr(ens, "run", never)
    coupled = SolverConfig(coupling="advective", seed=3, init_v="bump")
    with pytest.raises(ValueError, match="disagree on n_eff: 8192 vs 2048"):
        compare_coupled(coupled, SolverConfig(seed=3))


def _result_with_series(cfg: SolverConfig, series: TimeSeries) -> RunResult:
    g = Grid(cfg.n_eff)
    phi = Field(g, np.zeros(g.n))
    v = None if not cfg.coupled else Field(g, np.zeros(g.n))
    return RunResult(cfg, series, [], Snapshot(cfg.t_final, phi, v), True, 0.0, 0)


def test_compare_report_ratio_semantics():
    t = np.linspace(0.0, 2.0, 9)
    period = np.linspace(0.3, 1.2, 9)
    series = _synthetic_series(t, np.full(9, 0.4), period)
    cfg_c = SolverConfig(coupling="advective", n=64, t_final=2.0, init_v="bump")
    cfg_u = uncoupled_twin(cfg_c, t_final=5.0)
    res_c = _result_with_series(cfg_c, series)
    res_u = _result_with_series(cfg_u, series)

    # Identical records: every reached threshold gives ratio one.
    same = CompareReport(
        thresholds=(0.5, 0.9),
        coupled=res_c, uncoupled=res_u,
        coupled_crossings=(0.4, 1.1), uncoupled_crossings=(0.4, 1.1),
    )
    for row in same.rows():
        assert row["ratio"] == pytest.approx(1.0)
        assert not row["ratio_is_lower_bound"]
        assert not row["coupled_censored"] and not row["uncoupled_censored"]

    # Censored uncoupled run: ratio becomes a lower bound at its horizon.
    bound = CompareReport(
        thresholds=(1.5,),
        coupled=res_c, uncoupled=res_u,
        coupled_crossings=(0.5,), uncoupled_crossings=(None,),
    )
    row = bound.rows()[0]
    assert row["uncoupled_censored"]
    assert row["uncoupled_time"] == 5.0
    assert row["ratio"] == pytest.approx(10.0)
    assert row["ratio_is_lower_bound"]

    # Both censored: neither run measured a time, so there is no ratio.
    both = CompareReport(
        thresholds=(1.5,),
        coupled=res_c, uncoupled=res_u,
        coupled_crossings=(None,), uncoupled_crossings=(None,),
    )
    row = both.rows()[0]
    assert row["ratio"] is None
    assert not row["ratio_is_lower_bound"]
    summary = both.summary()
    assert summary["thresholds"] == [1.5]
    assert len(summary["rows"]) == 1


def test_compare_coupled_matched_draw():
    # Same seed means the same initial composition, so both runs start at
    # the same free energy.
    coupled = SolverConfig(coupling="advective", n=256, seed=6, init_v="fourier",
                           t_final=0.02, dt=1e-4, record_every=100)
    report = compare_coupled(coupled, uncoupled_twin(coupled, dt=1e-4))
    e_c = report.coupled.series["free_energy"][0]
    e_u = report.uncoupled.series["free_energy"][0]
    assert e_c == pytest.approx(e_u, rel=1e-12)
    assert len(report.rows()) == 2


def test_compare_coupled_on_two_workers_matches_one():
    # the two runs go to spawned workers, which import bchsim afresh
    coupled = SolverConfig(coupling="advective", n=256, seed=6, init_v="bump",
                           t_final=0.2, dt=1e-4, record_every=100)
    twin = uncoupled_twin(coupled, dt=1e-4)
    serial = compare_coupled(coupled, twin, thresholds=(0.3, 0.5))
    pooled = compare_coupled(coupled, twin, thresholds=(0.3, 0.5), workers=2)
    assert serial.uncoupled_crossings[1] is None  # one censored crossing
    assert pooled.coupled_crossings == serial.coupled_crossings
    assert pooled.uncoupled_crossings == serial.uncoupled_crossings
    assert serial.coupled_fit is not None and serial.uncoupled_fit is not None
    assert pooled.coupled_fit == serial.coupled_fit
    assert pooled.uncoupled_fit == serial.uncoupled_fit
    for side in ("coupled", "uncoupled"):
        a, b = getattr(serial, side).series, getattr(pooled, side).series
        assert a.names == b.names
        assert all(np.array_equal(a[name], b[name]) for name in a.names)


def test_detect_energy_drops_staircase():
    t = np.arange(0.0, 101.0)
    e = np.where(t < 30, 0.5, np.where(t < 70, 0.44, 0.38))
    drops = detect_energy_drops(t, e)
    assert len(drops) == 2
    (t1, s1), (t2, s2) = drops
    assert t1 == pytest.approx(29.5)
    assert t2 == pytest.approx(69.5)
    assert s1 == pytest.approx(0.06)
    assert s2 == pytest.approx(0.06)


def test_detect_energy_drops_ignores_smooth_decay():
    t = np.linspace(0.0, 100.0, 201)
    e = 0.5 * np.exp(-t / 20.0)
    assert detect_energy_drops(t, e) == []


def test_detect_energy_drops_respects_drop_min():
    t = np.arange(0.0, 40.0)
    e = np.where(t < 20, 0.5, 0.495)
    assert detect_energy_drops(t, e) == []
    assert detect_energy_drops(t, 10.0 * e) != []


def test_detect_energy_drops_input_checks():
    with pytest.raises(ValueError):
        detect_energy_drops(np.arange(5.0), np.arange(4.0))
    assert detect_energy_drops(np.arange(3.0), np.full(3, 0.5)) == []
