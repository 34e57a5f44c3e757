"""Command-line behavior: exit codes, artifacts, stdout formats."""

import json
import re

import numpy as np
import pytest
from conftest import read_report

import bchsim.cli as cli
from bchsim.cli import main
from bchsim.ensemble import EnsembleReport
from bchsim.grid import Grid
from bchsim.predictors import p_fit
from bchsim.series import TimeSeries
from bchsim.waves import Params

FAST_CFG = """
coupling = uncoupled
n = 256
t_final = 0.05
dt = 1e-3
record_every = 10
seed = 20
snapshot_times = 0.05
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CFG)
    return path


def test_simulate_writes_run(tmp_path, fast_config, capsys):
    code = main(["simulate", "--config", str(fast_config),
                 "--out", str(tmp_path / "o"), "--name", "demo"])
    assert code == 0
    out = tmp_path / "o" / "simulate" / "demo"
    assert (out / "series.csv").exists()
    assert (out / "config.echo").exists()
    assert (out / "snap_0.05.csv").exists()
    report = read_report(out)
    assert report["command"] == "simulate"
    assert report["resolution_ok"] is True
    assert f"wrote {out}" in capsys.readouterr().out


def test_measure_prints_csv(tmp_path, fast_config, capsys):
    assert main(["simulate", "--config", str(fast_config),
                 "--out", str(tmp_path / "o"), "--name", "demo"]) == 0
    snap = tmp_path / "o" / "simulate" / "demo" / "snap_0.05.csv"
    capsys.readouterr()
    code = main(["measure", "--snapshot", str(snap),
                 "--out", str(tmp_path / "o"), "--name", "m"])
    assert code == 0
    out_text = capsys.readouterr().out
    header, row = out_text.strip().splitlines()
    assert header == "energy,period,ko_length"
    energy, period, ko = (float(v) for v in row.split(","))
    assert 0.0 < energy < Params().e_max + 0.01
    assert period >= Params().p_min
    assert ko > 0.0
    assert (tmp_path / "o" / "measure" / "m" / "measure.csv").read_text() == out_text


def test_measure_gives_the_period_of_the_record_at_the_snapshot(tmp_path, capsys):
    # a run's period column and measure share one energy -> period map; the
    # two sum E differently (Parseval against a grid derivative), and at
    # t = 0.5 both energies and both periods agree
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = uncoupled\nn = 256\nt_final = 0.5\ndt = 1e-3\n"
                   "record_every = 50\nseed = 0\nsnapshot_times = 0.5\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--name", "demo"]) == 0
    run_dir = tmp_path / "o" / "simulate" / "demo"
    record = TimeSeries.from_csv(run_dir / "series.csv")
    assert record["t"][-1] == 0.5
    capsys.readouterr()
    assert main(["measure", "--snapshot", str(run_dir / "snap_0.5.csv"),
                 "--out", str(tmp_path / "o"), "--name", "m"]) == 0
    _, row = capsys.readouterr().out.strip().splitlines()
    energy, period, _ = (float(v) for v in row.split(","))
    assert energy == pytest.approx(record["free_energy"][-1], rel=1e-14)
    assert period == pytest.approx(record["period"][-1], rel=1e-9)


def test_fit_recovers_synthetic_curve(tmp_path, capsys):
    params = Params()
    t = np.linspace(0.0, 10.0, 60)
    series = TimeSeries(t=t, period=p_fit(t, 3.0, 7.0, params))
    path = tmp_path / "series.csv"
    series.to_csv(path)
    code = main(["fit", "--series", str(path), "--t-max", "10",
                 "--out", str(tmp_path / "o"), "--name", "f"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c1"] == pytest.approx(3.0, rel=1e-4)
    assert payload["c2"] == pytest.approx(7.0, rel=1e-4)
    report = read_report(tmp_path / "o" / "fit" / "f")
    assert report["c1"] == payload["c1"]


def test_fit_degenerate_series_is_numerical_failure(tmp_path):
    t = np.linspace(0.0, 5.0, 20)
    TimeSeries(t=t, period=np.full(20, 0.3)).to_csv(tmp_path / "flat.csv")
    assert main(["fit", "--series", str(tmp_path / "flat.csv")]) == 2


def test_fit_non_finite_series_exits_one(tmp_path, capsys):
    t = np.linspace(0.0, 10.0, 60)
    period = p_fit(t, 3.0, 7.0, Params())
    period[30] = np.nan
    path = tmp_path / "series.csv"
    TimeSeries(t=t, period=period).to_csv(path)
    assert main(["fit", "--series", str(path), "--t-max", "10",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"bad series {path}: non-finite period" in err
    # the nan row at t = 5.08 lies outside (0, 4]
    assert main(["fit", "--series", str(path), "--t-max", "4",
                 "--out", str(tmp_path / "o")]) == 0


def test_fit_series_without_a_period_column_exits_one(tmp_path, capsys):
    path = tmp_path / "table.csv"
    TimeSeries(amplitude=np.linspace(0.1, 0.9, 9), period=np.linspace(0.2, 1.0, 9)).to_csv(path)
    assert main(["fit", "--series", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"bad series {path}: no column 't' in header ['amplitude', 'period']" in err


def test_ensemble_writes_trials_and_mean(tmp_path, fast_config):
    code = main(["ensemble", "--config", str(fast_config), "--trials", "2",
                 "--no-overlays", "--out", str(tmp_path / "o"), "--name", "e"])
    assert code == 0
    out = tmp_path / "o" / "ensemble" / "e"
    assert (out / "trial_00.csv").exists()
    assert (out / "trial_01.csv").exists()
    mean = TimeSeries.from_csv(out / "mean.csv")
    assert mean.names == ("t", "free_energy", "period")
    report = read_report(out)
    assert report["partial"] is False
    assert report["trials_completed"] == 2
    assert report["trial_series"] == ["trial_00.csv", "trial_01.csv"]


def test_ensemble_partial_exit_code(tmp_path, fast_config, monkeypatch):
    t = np.linspace(0.0, 1.0, 5)
    series = TimeSeries(t=t, free_energy=np.full(5, 0.49), period=np.full(5, 0.2))

    def fake_run_ensemble(cfg, trials, workers=1, overlays=True, eig_table=None):
        return EnsembleReport(
            base_seed=cfg.seed, requested=trials,
            trial_series=[series, None], failures=[(1, "blew up")],
            times=t, mean_free_energy=series["free_energy"],
            mean_period=series["period"])

    monkeypatch.setattr(cli, "run_ensemble", fake_run_ensemble)
    code = main(["ensemble", "--config", str(fast_config), "--trials", "2",
                 "--out", str(tmp_path / "o"), "--name", "p"])
    assert code == 3
    report = read_report(tmp_path / "o" / "ensemble" / "p")
    assert report["partial"] is True
    assert report["trial_series"] == ["trial_00.csv", None]


def _field_file(path, grid, phi):
    TimeSeries(x=grid.x, phi=phi).to_csv(path)
    return path


def test_usage_errors_exit_one(tmp_path, fast_config):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["ensemble", "--config", str(fast_config), "--trials", "0"]) == 1
    assert main(["predict", "--method", "langer", "--half",
                 "--out", str(tmp_path)]) == 1
    assert main(["predict", "--t-max", "0", "--out", str(tmp_path)]) == 1
    assert main(["fit", "--series", str(tmp_path / "none.csv")]) == 1
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,period\n0.0,0.3\n0.5\n")
    assert main(["fit", "--series", str(ragged)]) == 1
    assert main(["measure", "--snapshot", str(tmp_path / "none.csv")]) == 1
    assert main(["waves", "table", "--da", "-0.1", "--out", str(tmp_path)]) == 1
    g = Grid(256)
    phi = 0.1 * np.sin(np.pi * g.x)
    phi[7] = np.nan
    nan_init = tmp_path / "nan.cfg"
    nan_init.write_text(FAST_CFG + f"init_phi = file:{_field_file(tmp_path / 'nan.csv', g, phi)}\n")
    assert main(["simulate", "--config", str(nan_init), "--out", str(tmp_path)]) == 1
    assert main(["ensemble", "--config", str(nan_init), "--trials", "1",
                 "--out", str(tmp_path)]) == 1
    missing_init = tmp_path / "missing.cfg"
    missing_init.write_text(FAST_CFG + f"init_phi = file:{tmp_path / 'gone.csv'}\n")
    assert main(["simulate", "--config", str(missing_init), "--out", str(tmp_path)]) == 1
    odd_n = tmp_path / "odd.cfg"
    odd_n.write_text("coupling = uncoupled\nn = 100\n")
    assert main(["simulate", "--config", str(odd_n), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("overrides,key", [
    ({"seed": "-1"}, "seed"),
    ({"kappa": "-1"}, "kappa"),
    ({"kappa": "nan"}, "kappa"),
    ({"dt": "nan"}, "dt"),
    ({"coupling": "advective", "init_v": "fourier", "fourier_cutoff": "20"}, "fourier_cutoff"),
    ({"L": "-1"}, "L"),
    ({"stabilizer_A": "-1"}, "stabilizer_A"),
    ({"snapshot_times": "nan, -1"}, "snapshot_times"),
    ({"snapshot_times": "-1"}, "snapshot_times"),
    ({"snapshot_times": "inf"}, "snapshot_times"),
    ({"snapshot_times": "0.0041, 0.0042"}, "snapshot_times"),
    ({"snapshot_times": "0.5"}, "snapshot_times"),
])
def test_bad_config_value_exits_one_before_the_run(overrides, key, tmp_path, capsys):
    values = {"coupling": "uncoupled", "n": "64", "t_final": "0.01", "dt": "1e-3"}
    values.update(overrides)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["langer", "eig"])
@pytest.mark.parametrize("flag,value", [("--p0", "0.01"), ("--t0", "-1")])
def test_predict_bad_start_exits_one_naming_the_flag(method, flag, value, tmp_path, capsys):
    assert main(["predict", "--method", method, flag, value, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert flag in err and len(err) < 200
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [("--p0", "-1"), ("--t0", "-5")])
def test_fit_bad_start_exits_one_naming_the_flag(flag, value, tmp_path, capsys):
    t = np.linspace(0.0, 10.0, 60)
    path = tmp_path / "series.csv"
    TimeSeries(t=t, period=p_fit(t, 3.0, 7.0, Params())).to_csv(path)
    assert main(["fit", "--series", str(path), flag, value, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert flag in err and len(err) < 200
    assert not (tmp_path / "o").exists()


def test_init_file_on_another_box_exits_one(tmp_path, capsys):
    g = Grid(256, 2.0)
    path = _field_file(tmp_path / "wide.csv", g, 0.1 * np.sin(np.pi * g.x))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + f"L = 1.0\ninit_phi = file:{path}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "x runs from -2 to 1.98438" in err
    assert "n = 256, L = 1 (from -1 to 0.992188)" in err
    assert not (tmp_path / "o" / "simulate").exists()
    coupled = tmp_path / "coupled.cfg"
    coupled.write_text("coupling = advective\nn = 256\nt_final = 0.02\ndt = 1e-4\n")
    assert main(["compare", "--config", str(coupled), "--uncoupled-config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert f"bad config {cfg}" in capsys.readouterr().err


def test_bad_eig_tables_exit_one(tmp_path, capsys):
    # a nan eigenvalue, then periods out of order, in the middle row
    for name, middle in (("nan", "0.5,0.25,nan"), ("order", "0.5,0.2,1.5")):
        path = tmp_path / f"{name}.csv"
        path.write_text("amplitude,period,lambda_max,kappa\n0.2,0.21,2.5,0.001\n"
                        f"{middle},0.001\n0.8,0.35,0.4,0.001\n")
        assert main(["predict", "--method", "eig", "--table", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "bad table" in capsys.readouterr().err


def test_measure_rejects_irregular_snapshots(tmp_path):
    odd = tmp_path / "snap.csv"
    odd.write_text("x,phi\n" + "\n".join(f"{i / 10},0.0" for i in range(10)) + "\n")
    assert main(["measure", "--snapshot", str(odd)]) == 1
    bad_header = tmp_path / "head.csv"
    bad_header.write_text("y,phi\n0.0,0.0\n0.5,0.0\n")
    assert main(["measure", "--snapshot", str(bad_header)]) == 1
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x,phi,v\n-1.0,0.0,0.0\n0.0,0.0\n")
    assert main(["measure", "--snapshot", str(ragged)]) == 1
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("x,phi\n")
    assert main(["measure", "--snapshot", str(header_only)]) == 1
    g = Grid(64)
    phi = 0.1 * np.sin(np.pi * g.x)
    phi[5] = np.nan
    assert main(["measure", "--snapshot", str(_field_file(tmp_path / "nan.csv", g, phi))]) == 1


def test_measure_rejects_a_duplicated_column(tmp_path, capsys):
    g = Grid(64)
    path = tmp_path / "dup.csv"
    rows = "".join(f"{float(x)!r},0.1,0.2\n" for x in g.x)
    path.write_text("x,phi,phi\n" + rows)
    assert main(["measure", "--snapshot", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "column 'phi' twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_waves_table_format(tmp_path, capsys):
    code = main(["waves", "table", "--da", "0.2",
                 "--out", str(tmp_path / "o"), "--name", "w"])
    assert code == 0
    lines = (tmp_path / "o" / "waves" / "w" / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "amplitude,period,modulus,energy"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert [r[0] for r in rows] == pytest.approx([0.2, 0.4, 0.6, 0.8])
    periods = [r[1] for r in rows]
    assert periods == sorted(periods)
    report = read_report(tmp_path / "o" / "waves" / "w")
    assert report["rows"] == len(rows)


@pytest.mark.parametrize("argv,flag", [
    (["evans", "table", "--da", "nan"], "--da"),
    (["evans", "table", "--p-max", "0"], "--p-max"),
    (["evans", "table", "--p-max", "inf"], "--p-max"),
    (["evans", "table", "--kappa", "nan"], "--kappa"),
    (["waves", "table", "--da", "inf"], "--da"),
    (["predict", "--p0", "nan"], "--p0"),
    (["predict", "--kappa", "nan"], "--kappa"),
    (["predict", "--t-max", "inf"], "--t-max"),
    (["fit", "--series", "series.csv", "--t0", "nan"], "--t0"),
    (["measure", "--snapshot", "snap.csv", "--kappa", "-1"], "--kappa"),
    (["compare", "--thresholds", "1.1,nan"], "--thresholds"),
])
def test_non_finite_or_non_positive_flags_exit_one(argv, flag, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", [["waves", "table"], ["evans", "table"]])
def test_da_outside_unit_interval_exits_one(command, tmp_path, capsys):
    # --da is an amplitude step as a fraction of the binodal; a step of 1 or
    # more leaves no amplitude below the binodal
    for da in ("1", "2", "0", "-0.5"):
        assert main(command + ["--da", da, "--out", str(tmp_path)]) == 1
        assert "argument --da: must lie in (0, 1)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_waves_table_steps_in_fractions_of_the_binodal(tmp_path):
    cfg = tmp_path / "half.cfg"
    cfg.write_text("beta = 0.25\n")  # binodal 0.5
    assert main(["waves", "table", "--da", "0.25", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--name", "w"]) == 0
    table = TimeSeries.from_csv(tmp_path / "o" / "waves" / "w" / "table.csv")
    assert table["amplitude"] == pytest.approx([0.125, 0.25, 0.375], rel=1e-15)


def test_evans_table_rejects_rk_steps_it_cannot_honour(tmp_path, capsys):
    # the membership test integrates half a period at rk_steps / 2 steps
    for steps in ("100", "-5", "2047", "510"):
        assert main(["evans", "table", "--rk-steps", steps, "--out", str(tmp_path)]) == 1
        assert "argument --rk-steps: rk_steps must be an even number" in capsys.readouterr().err
    code = main(["evans", "table", "--da", "0.3", "--rk-steps", "1024",
                 "--out", str(tmp_path / "o"), "--name", "ev"])
    assert code == 0
    assert read_report(tmp_path / "o" / "evans" / "ev")["rk_steps"] == 1024


def test_evans_table_then_predict(tmp_path):
    code = main(["evans", "table", "--da", "0.3",
                 "--out", str(tmp_path / "o"), "--name", "ev"])
    assert code == 0
    table_path = tmp_path / "o" / "evans" / "ev" / "table.csv"
    header = table_path.read_text().splitlines()[0]
    assert header == "amplitude,period,lambda_max,kappa"

    code = main(["predict", "--method", "eig", "--table", str(table_path),
                 "--t-max", "2", "--samples", "21",
                 "--out", str(tmp_path / "o"), "--name", "pr"])
    assert code == 0
    series = TimeSeries.from_csv(tmp_path / "o" / "predict" / "pr" / "series.csv")
    assert series.names == ("t", "period", "energy")
    assert series["period"][0] == pytest.approx(Params().p_s, rel=1e-12)
    assert np.all(np.diff(series["period"]) > 0.0)


def test_predict_langer_defaults(tmp_path):
    code = main(["predict", "--t-max", "5", "--samples", "11",
                 "--out", str(tmp_path / "o"), "--name", "pl"])
    assert code == 0
    out = tmp_path / "o" / "predict" / "pl"
    report = read_report(out)
    assert report["method"] == "langer"
    assert report["p0"] == pytest.approx(Params().p_s, rel=1e-12)
    series = TimeSeries.from_csv(out / "series.csv")
    assert len(series) == 11
    assert series["t"][0] == 0.0
    assert series["t"][-1] == 5.0


def test_compare_runs_twin(tmp_path, capsys):
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(
        "coupling = advective\nn = 256\nt_final = 0.02\ndt = 1e-4\n"
        "record_every = 100\nseed = 6\ninit_v = fourier\n"
    )
    code = main(["compare", "--config", str(cfg),
                 "--out", str(tmp_path / "o"), "--name", "c"])
    assert code == 0
    out = tmp_path / "o" / "compare" / "c"
    assert (out / "coupled" / "series.csv").exists()
    assert (out / "uncoupled" / "series.csv").exists()
    report = read_report(out)
    assert [row["threshold"] for row in report["rows"]] == [1.12, 1.495]
    stdout = capsys.readouterr().out
    assert "threshold 1.12" in stdout
