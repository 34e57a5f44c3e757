"""Command-line front end.

Subcommands: ``simulate``, ``ensemble``, ``predict``, ``fit``,
``waves table``, ``evans table``, ``measure``, ``compare``.  Every command
that produces artifacts writes them under ``<out>/<command>/<name>/``
where the name defaults to a UTC timestamp.  Exit codes: 0 success,
1 usage error, 2 numerical failure, 3 ensemble finished with failed
trials.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as runio
from .config import SolverConfig, config_echo, parse_config_file
from .energy import ClampWarning, coarseness_table, free_energy, kohn_otto_length
from .energy import period_from_energy, wave_window_energy
from .ensemble import compare_coupled, run_ensemble
from .evans import EigTable, build_eig_table, default_amplitudes
from .grid import Field
from .initial import read_file_fields
from .predictors import fit_pfit, fit_window, predicted_energy_curve
from .series import TimeSeries
from .solver import run
from .waves import Params, periodic_wave

__all__ = ["main"]


class UsageError(Exception):
    """Bad invocation or unreadable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for numerical
    # failure here, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _thresholds(text: str) -> tuple[float, ...]:
    vals = tuple(_finite_float(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise argparse.ArgumentTypeError("threshold list is empty")
    return vals


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="run configuration file (key = value lines)")
    common.add_argument("--out", help="output root directory (default: config out_dir or 'out')")
    common.add_argument("--name", help="run directory name (default: UTC timestamp)")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker processes for trial-parallel commands")

    parser = _Parser(prog="bchsim",
                     description="Phase-separation runs, coarsening tables, and predictors.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common],
                   help="integrate one configured run")

    p_ens = sub.add_parser("ensemble", parents=[common],
                           help="repeat a run over derived seeds and average")
    p_ens.add_argument("--trials", type=_positive_int, required=True)
    p_ens.add_argument("--no-overlays", action="store_true",
                       help="skip predictor overlay curves")
    p_ens.add_argument("--table", help="eigenvalue table CSV to reuse for overlays")

    p_pred = sub.add_parser("predict", parents=[common],
                            help="evaluate a period predictor on a time grid")
    p_pred.add_argument("--method", choices=("langer", "eig"), default="langer")
    p_pred.add_argument("--half", action="store_true",
                        help="half-factor variant of the eigenvalue rate")
    p_pred.add_argument("--p0", type=_finite_float,
                        help="starting period (default: spinodal period)")
    p_pred.add_argument("--t0", type=_finite_float, default=0.0)
    p_pred.add_argument("--t-max", type=_finite_float, default=20.0)
    p_pred.add_argument("--samples", type=int, default=201)
    p_pred.add_argument("--kappa", type=_positive_float, help="override interface parameter")
    p_pred.add_argument("--table", help="eigenvalue table CSV (eig method)")

    p_fit = sub.add_parser("fit", parents=[common],
                           help="fit the logarithmic period law to a series CSV")
    p_fit.add_argument("--series", required=True, help="series.csv from a run")
    p_fit.add_argument("--t-max", type=_finite_float, default=20.0)
    p_fit.add_argument("--t0", type=_finite_float, default=0.0)
    p_fit.add_argument("--p0", type=_finite_float)
    p_fit.add_argument("--kappa", type=_positive_float)

    p_waves = sub.add_parser("waves", help="periodic wave tables")
    waves_sub = p_waves.add_subparsers(dest="waves_command", required=True)
    w_table = waves_sub.add_parser("table", parents=[common],
                                   help="amplitude, period, modulus, energy table")
    w_table.add_argument("--da", type=_fraction, default=0.01, help="amplitude step / binodal")
    w_table.add_argument("--kappa", type=_positive_float)

    p_evans = sub.add_parser("evans", help="Floquet eigenvalue tables")
    evans_sub = p_evans.add_subparsers(dest="evans_command", required=True)
    e_table = evans_sub.add_parser("table", parents=[common],
                                   help="leading eigenvalue per amplitude")
    e_table.add_argument("--da", type=_fraction, default=0.01, help="amplitude step / binodal")
    e_table.add_argument("--kappa", type=_positive_float)

    p_meas = sub.add_parser("measure", parents=[common],
                            help="energy, period, interface length of one snapshot")
    p_meas.add_argument("--snapshot", required=True, help="CSV with columns x,phi[,v]")
    p_meas.add_argument("--kappa", type=_positive_float)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="coupled run against its uncoupled twin")
    p_cmp.add_argument("--uncoupled-config",
                       help="explicit uncoupled configuration (default: derived twin)")
    p_cmp.add_argument("--thresholds", type=_thresholds, default=(1.12, 1.495))
    return parser


def _read(what: str, reader, *args):
    """``reader(*args)``, with unreadable or invalid input as a UsageError."""
    try:
        return reader(*args)
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}")
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}")


def _parse_run_config(path) -> SolverConfig:
    """A config whose ``file:`` initial data are valid fields on its grid."""
    cfg = parse_config_file(path)
    read_file_fields(cfg, cfg.make_grid())
    return cfg


def _load_config(args, required: bool = True) -> SolverConfig | None:
    path = getattr(args, "config", None)
    if path is None:
        if required:
            raise UsageError("this command needs --config")
        return None
    return _read(f"config {path}", _parse_run_config, path)


def _params_for(args) -> tuple[SolverConfig | None, Params]:
    """The optional --config and its params, with --kappa applied and --t0, --p0 checked."""
    cfg = _load_config(args, required=False)
    params = cfg.params if cfg is not None else SolverConfig().params
    kappa = getattr(args, "kappa", None)
    if kappa is not None:
        params = replace(params, kappa=kappa)
    if getattr(args, "t0", 0.0) < 0:
        raise UsageError(f"--t0 must be nonnegative, got {args.t0:g}")
    if getattr(args, "p0", None) is not None and args.p0 < params.p_min:
        raise UsageError(f"--p0 must be at least p_min = {params.p_min:.6g}, got {args.p0:g}")
    return cfg, params


def _out_dir(args, command: str, cfg: SolverConfig | None = None) -> Path:
    root = args.out
    if root is None and cfg is not None and cfg.out_dir is not None:
        root = cfg.out_dir
    return runio.run_directory(root or "out", command, args.name)


def _echo_config(out_dir: Path, cfg: SolverConfig | None) -> None:
    if cfg is not None:
        (out_dir / "config.echo").write_text(config_echo(cfg))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, "simulate", cfg)
    result = run(cfg)
    report = runio.write_run(out, result, command="simulate")
    print(f"wrote {out}")
    print(f"records={report['series']['records']} "
          f"final_energy={report['series'].get('final_free_energy'):.6g} "
          f"resolution_ok={report['resolution_ok']}")
    return 0


def _cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    table = None
    if args.table is not None:
        table = _read("table", EigTable.from_csv, args.table, cfg.params)
    out = _out_dir(args, "ensemble", cfg)
    report = run_ensemble(cfg, args.trials, workers=args.threads,
                          overlays=not args.no_overlays, eig_table=table)
    _echo_config(out, cfg)
    paths: list[str | None] = []
    for i, series in enumerate(report.trial_series):
        if series is None:
            paths.append(None)
            continue
        name = f"trial_{i:02d}.csv"
        series.to_csv(out / name)
        paths.append(name)
    TimeSeries(t=report.times, free_energy=report.mean_free_energy,
               period=report.mean_period).to_csv(out / "mean.csv")
    payload = report.summary()
    payload.update({"command": "ensemble", "mean_series": "mean.csv", "trial_series": paths})
    if report.overlays is not None:
        report.overlays.to_csv(out / "overlays.csv")
        payload["overlays"] = "overlays.csv"
    runio.write_report(out, payload)
    print(f"wrote {out}")
    print(f"trials={len(report.completed)}/{report.requested} partial={report.partial}")
    return 3 if report.partial else 0


def _cmd_predict(args) -> int:
    cfg, params = _params_for(args)
    if args.half and args.method != "eig":
        raise UsageError("--half only applies to --method eig")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    if args.t_max <= args.t0:
        raise UsageError("--t-max must exceed --t0")
    variant = "langer" if args.method == "langer" else (
        "eig_half" if args.half else "eig_full")
    table = None
    if args.method == "eig":
        table = (_read("table", EigTable.from_csv, args.table, params)
                 if args.table is not None else build_eig_table(params))
    p0 = params.p_s if args.p0 is None else args.p0
    grid = np.linspace(args.t0, args.t_max, args.samples)
    curve = predicted_energy_curve(grid, params, variant, p0, t0=args.t0, eig_table=table)
    out = _out_dir(args, "predict", None)
    _echo_config(out, cfg)
    curve.to_csv(out / "series.csv")
    runio.write_report(out, {
        "command": "predict", "method": args.method, "variant": variant,
        "p0": float(p0), "t0": float(args.t0),
        "t_max": float(args.t_max), "samples": int(args.samples),
        "kappa": float(params.kappa), "series": "series.csv",
    })
    print(f"wrote {out}")
    return 0


def _cmd_fit(args) -> int:
    _, params = _params_for(args)
    series = _read("series", TimeSeries.from_csv, args.series)
    window = _read(f"series {args.series}", fit_window, series, args.t_max, args.t0)
    result = fit_pfit(window, params, t_max=args.t_max, p0=args.p0, t0=args.t0)
    payload = {"c1": float(result.c1), "c2": float(result.c2),
               "objective": float(result.objective)}
    print(json.dumps(payload))
    out = _out_dir(args, "fit", None)
    runio.write_report(out, dict(payload, command="fit", series=str(args.series),
                                 t0=float(args.t0), t_max=float(args.t_max),
                                 p0=None if args.p0 is None else float(args.p0)))
    return 0


def _cmd_waves_table(args) -> int:
    _, params = _params_for(args)
    binodal = params.binodal
    amps = np.arange(args.da, 1.0, args.da) * binodal
    amps = amps[amps < binodal * (1.0 - 1e-12)]
    waves = periodic_wave(amps, params)
    out = _out_dir(args, "waves", None)
    TimeSeries(amplitude=amps, period=waves.period, modulus=waves.modulus,
               energy=wave_window_energy(amps, params)).to_csv(out / "table.csv")
    runio.write_report(out, {
        "command": "waves table", "rows": int(len(amps)),
        "da": float(args.da), "kappa": float(params.kappa), "table": "table.csv",
    })
    print(f"wrote {out} ({len(amps)} rows)")
    return 0


def _cmd_evans_table(args) -> int:
    _, params = _params_for(args)
    amps = default_amplitudes(params, da=args.da)
    start = time.perf_counter()
    table = build_eig_table(params, amplitudes=amps)
    build_s = time.perf_counter() - start
    out = _out_dir(args, "evans", None)
    table.to_csv(out / "table.csv")
    runio.write_report(out, {
        "command": "evans table", "rows": int(table.amplitudes.size),
        "da": float(args.da), "kappa": float(params.kappa), "table": "table.csv",
        "build_s": build_s,
    })
    print(f"wrote {out} ({table.amplitudes.size} rows)")
    return 0


def _cmd_measure(args) -> int:
    _, params = _params_for(args)
    phi = _read("snapshot", runio.read_field, args.snapshot, "phi")
    energy = free_energy(phi, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        period = period_from_energy(energy, coarseness_table(params))
    ko = kohn_otto_length(Field(phi.grid, phi.values - phi.mean()))
    out = _out_dir(args, "measure", None)
    TimeSeries(energy=[energy], period=[period], ko_length=[ko]).to_csv(out / "measure.csv")
    sys.stdout.write((out / "measure.csv").read_text())
    runio.write_report(out, {
        "command": "measure", "snapshot": str(args.snapshot),
        "energy": float(energy), "period": float(period), "ko_length": float(ko),
        "kappa": float(params.kappa),
    })
    return 0


def _cmd_compare(args) -> int:
    coupled_cfg = _load_config(args)
    uncoupled_cfg = None
    if args.uncoupled_config is not None:
        uncoupled_cfg = _read(f"config {args.uncoupled_config}", _parse_run_config,
                              args.uncoupled_config)
    out = _out_dir(args, "compare", coupled_cfg)
    report = compare_coupled(coupled_cfg, uncoupled_cfg,
                             thresholds=args.thresholds,
                             workers=args.threads)
    runio.write_run(out / "coupled", report.coupled, command="compare")
    runio.write_run(out / "uncoupled", report.uncoupled, command="compare")
    payload = report.summary()
    payload.update({"command": "compare", "coupled_dir": "coupled",
                    "uncoupled_dir": "uncoupled"})
    runio.write_report(out, payload)
    print(f"wrote {out}")
    for row in report.rows():
        bound = " (lower bound)" if row["ratio_is_lower_bound"] else ""
        # a threshold met at t = 0, or by neither run, has no ratio
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4g}"
        print(f"threshold {row['threshold']}: coupled {row['coupled_time']:.4g}"
              f"{'*' if row['coupled_censored'] else ''}, uncoupled "
              f"{row['uncoupled_time']:.4g}{'*' if row['uncoupled_censored'] else ''}, "
              f"ratio {ratio}{bound}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "predict": _cmd_predict,
        "fit": _cmd_fit,
        "waves": _cmd_waves_table,
        "evans": _cmd_evans_table,
        "measure": _cmd_measure,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"bchsim: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"bchsim: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
