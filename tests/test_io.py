"""Run persistence round trips."""

import numpy as np
import pytest
from conftest import read_report

from bchsim.config import SolverConfig, parse_config
from bchsim.grid import Field, Grid
from bchsim.io import (
    read_field,
    run_directory,
    snapshot_filename,
    write_report,
    write_run,
    write_snapshot,
)
from bchsim.series import TimeSeries
from bchsim.solver import RunResult, Snapshot


def _tiny_result():
    g = Grid(64)
    phi = Field(g, 0.3 * np.cos(np.pi * g.x))
    v = Field(g, 0.05 * np.sin(np.pi * g.x))
    cfg = SolverConfig(coupling="advective", n=64, t_final=0.5, dt=1e-3)
    series = TimeSeries(
        t=np.array([0.0, 0.25, 0.5]),
        free_energy=np.array([0.5, 0.45, 0.4]),
        period=np.array([0.3, 0.31, 0.33]),
    )
    snaps = [Snapshot(0.0, phi, v), Snapshot(0.5, phi, v)]
    return RunResult(cfg, series, snaps, Snapshot(0.5, phi, v), True, 1.2e-16, 0)


def test_run_directory_named_and_timestamped(tmp_path):
    named = run_directory(tmp_path, "simulate", "alpha")
    assert named == tmp_path / "simulate" / "alpha"
    assert named.is_dir()
    auto1 = run_directory(tmp_path, "simulate")
    auto2 = run_directory(tmp_path, "simulate")
    assert auto1 != auto2
    assert auto1.parent == auto2.parent == tmp_path / "simulate"


def test_snapshot_round_trip(tmp_path):
    g = Grid(32)
    phi = Field(g, np.sin(np.pi * g.x))
    v = Field(g, 0.2 * np.cos(2 * np.pi * g.x))
    path = write_snapshot(tmp_path, Snapshot(0.125, phi, v))
    assert path.name == "snap_0.125.csv"
    phi_r, v_r = read_field(path, "phi"), read_field(path, "v", g)
    assert phi_r.grid == g
    assert np.array_equal(phi_r.values, phi.values)
    assert np.array_equal(v_r.values, v.values)


def test_snapshot_none_velocity_writes_zeros(tmp_path):
    g = Grid(32)
    path = write_snapshot(tmp_path, Snapshot(2.0, Field(g, g.x), None))
    assert np.all(read_field(path, "v").values == 0.0)


def test_snapshot_filename_uses_general_format():
    assert snapshot_filename(10.0) == "snap_10.csv"
    assert snapshot_filename(0.0001) == "snap_0.0001.csv"


def _field_file(path, x, phi):
    TimeSeries(x=x, phi=phi).to_csv(path)
    return path


def test_read_field_rejects_missing_column(tmp_path):
    g = Grid(8)
    bad = _field_file(tmp_path / "snap_1.csv", g.x, np.zeros(g.n))
    with pytest.raises(ValueError, match="no column 'v'"):
        read_field(bad, "v")
    TimeSeries(y=g.x, phi=g.x).to_csv(tmp_path / "y.csv")
    with pytest.raises(ValueError, match="first column must be x"):
        read_field(tmp_path / "y.csv", "phi")


def test_read_field_checks_rows_and_grid(tmp_path):
    g = Grid(8)
    path = _field_file(tmp_path / "f.csv", g.x, np.zeros(g.n))
    with pytest.raises(ValueError, match="8 rows, grid wants 16"):
        read_field(path, "phi", Grid(16))
    with pytest.raises(ValueError, match="power of two"):
        read_field(_field_file(tmp_path / "six.csv", g.x[:6], np.zeros(6)), "phi")
    with pytest.raises(ValueError, match=r"not on the grid n = 8, L = 2"):
        read_field(path, "phi", Grid(8, 2.0))
    shifted = _field_file(tmp_path / "s.csv", g.x + 1e-6, np.zeros(g.n))
    with pytest.raises(ValueError, match="not on the grid"):
        read_field(shifted, "phi", g)
    nudged = _field_file(tmp_path / "n.csv", g.x + 1e-12, np.zeros(g.n))
    assert read_field(nudged, "phi", g).grid == g


def test_read_field_rejects_non_finite_values(tmp_path):
    g = Grid(8)
    for bad in (np.nan, np.inf):
        phi = np.zeros(g.n)
        phi[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            read_field(_field_file(tmp_path / "f.csv", g.x, phi), "phi")


def test_report_round_trip(tmp_path):
    payload = {"command": "simulate", "seed": 3, "values": [1.0, 2.5]}
    write_report(tmp_path, payload)
    assert read_report(tmp_path) == payload


def test_from_csv_refuses_a_duplicated_header(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x,phi,phi\n-1.0,0.1,0.2\n0.0,0.3,0.4\n")
    with pytest.raises(ValueError, match="column 'phi' twice"):
        TimeSeries.from_csv(path)


def test_series_csv_round_trip_is_byte_identical(tmp_path):
    series = _tiny_result().series
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    series.to_csv(first)
    TimeSeries.from_csv(first).to_csv(second)
    assert first.read_bytes() == second.read_bytes()


def test_write_run_contents(tmp_path):
    result = _tiny_result()
    report = write_run(tmp_path / "r", result, command="simulate")
    assert (tmp_path / "r" / "series.csv").exists()
    assert (tmp_path / "r" / "snap_0.csv").exists()
    assert (tmp_path / "r" / "snap_0.5.csv").exists()
    assert report["command"] == "simulate"
    assert report["coupling"] == "advective"
    assert report["resolution_ok"] is True
    assert report["series"]["records"] == 3
    assert report["series"]["t_last"] == 0.5
    assert report["t_final_reached"] == 0.5
    assert report["series"]["final_free_energy"] == 0.4
    assert read_report(tmp_path / "r") == report
    echoed = parse_config((tmp_path / "r" / "config.echo").read_text())
    assert echoed == result.config.resolved()
