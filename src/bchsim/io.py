"""Run persistence: output directories, snapshot files, and reports.

Every command writes into ``<base>/<command>/<run-name>/``.  The run name
is either supplied by the caller or derived from a UTC timestamp.  A run
directory holds ``config.echo`` (reparseable), ``series.csv``, optional
``snap_<t>.csv`` files, and a ``report.json`` summary.  All CSV output
uses shortest round-trip float formatting so a read back followed by a
rewrite is byte identical.

Field files (snapshots, initial data, ``measure`` input) are ``x,<column>``
CSVs, possibly with more columns; `read_field` is their one reader.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import config_echo, snapshot_filename
from .grid import Field, Grid
from .series import TimeSeries
from .solver import RunResult, Snapshot

__all__ = [
    "run_directory",
    "snapshot_filename",
    "write_snapshot",
    "read_field",
    "write_report",
    "write_run",
]


def run_directory(base, command: str, name: str | None = None) -> Path:
    """Create and return ``<base>/<command>/<name>``.

    Without an explicit name a UTC timestamp is used; collisions get a
    numeric suffix so concurrent runs never share a directory.
    """
    root = Path(base) / command
    if name is not None:
        out = root / name
        out.mkdir(parents=True, exist_ok=True)
        return out
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    out = root / stamp
    suffix = 1
    while True:
        try:
            out.mkdir(parents=True, exist_ok=False)
            return out
        except FileExistsError:
            suffix += 1
            out = root / f"{stamp}-{suffix}"


def write_snapshot(out_dir, snap: Snapshot) -> Path:
    """Write one snapshot as ``x,phi,v`` rows; v is zero when absent."""
    path = Path(out_dir) / snapshot_filename(snap.t)
    phi = snap.phi.values
    v = np.zeros_like(phi) if snap.v is None else snap.v.values
    TimeSeries(x=snap.phi.grid.x, phi=phi, v=v).to_csv(path)
    return path


def read_field(path, column: str, grid: Grid | None = None) -> Field:
    """The named column of a field file, on ``grid``.

    The file's first column must be ``x`` and lie within 1e-9 L of the
    grid's points, and the column's values must be finite.  Without a grid
    the file's own ``Grid(rows, -x[0])`` is used.
    """
    table = TimeSeries.from_csv(path)
    if table.names[0] != "x":
        raise ValueError(f"{path}: first column must be x, header is {list(table.names)}")
    if column not in table:
        raise ValueError(f"{path}: no column {column!r} in header {list(table.names)}")
    x = table["x"]
    if x.size == 0:
        raise ValueError(f"{path}: no rows below the header")
    if grid is None:
        grid = Grid(x.size, -float(x[0]))
    elif x.size != grid.n:
        raise ValueError(f"{path}: {x.size} rows, grid wants {grid.n}")
    if not np.allclose(x, grid.x, rtol=0.0, atol=1e-9 * grid.half_length):
        raise ValueError(f"{path}: x runs from {x[0]:g} to {x[-1]:g}, not on the grid "
                         f"n = {grid.n}, L = {grid.half_length:g} (from {grid.x[0]:g} "
                         f"to {grid.x[-1]:g})")
    values = table[column]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: column {column!r} holds non-finite values")
    return Field(grid, values)


def write_report(out_dir, payload: dict) -> Path:
    path = Path(out_dir) / "report.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _series_summary(series: TimeSeries) -> dict:
    out: dict[str, float] = {}
    t = series["t"]
    out["records"] = int(len(series))
    out["t_first"] = float(t[0])
    out["t_last"] = float(t[-1])
    for name in ("free_energy", "period"):
        if name in series:
            col = series[name]
            out[f"final_{name}"] = float(col[-1])
    return out


def write_run(out_dir, result: RunResult, command: str = "simulate") -> dict:
    """Persist a run and return the report payload that was written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.echo", "w") as fh:
        fh.write(config_echo(result.config))
    result.series.to_csv(out_dir / "series.csv")
    snap_files = [write_snapshot(out_dir, s).name for s in result.snapshots]
    report = {
        "command": command,
        "coupling": result.config.coupling,
        "seed": result.config.seed,
        "resolution_ok": bool(result.resolution_ok),
        "resolution_tail": float(result.resolution_tail),
        "period_clamped": result.period_clamped,
        "t_final_reached": float(result.final_state.t),
        "snapshots": snap_files,
        "series": _series_summary(result.series),
    }
    write_report(out_dir, report)
    return report
