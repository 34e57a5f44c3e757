"""Multi-trial runs, predictor overlays, and coupled-vs-uncoupled timing.

An ensemble repeats one configuration with derived seeds (base seed plus
trial index), steps the trials together as one batch, and averages the
recorded diagnostics pointwise on the shared record grid.  Overlay curves
from the period predictors are attached once the mean free energy crosses
the spinodal level.  A failed trial is reported and skipped rather than
aborting the whole ensemble, whatever the exception that ended it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverConfig
from .evans import EigTable, build_eig_table
from .parallel import parallel_map
from .predictors import (
    VARIANTS,
    FitResult,
    Handshake,
    fit_pfit,
    handshake,
    predicted_energy_curve,
)
from .series import TimeSeries
from .solver import RunResult, run, run_batch
from .waves import Params

__all__ = [
    "EnsembleReport",
    "run_ensemble",
    "CompareReport",
    "compare_coupled",
    "uncoupled_twin",
    "first_crossing",
    "detect_energy_drops",
]


@dataclass
class EnsembleReport:
    base_seed: int
    requested: int
    trial_series: list[TimeSeries | None]
    failures: list[tuple[int, str]]
    times: np.ndarray
    mean_free_energy: np.ndarray
    mean_period: np.ndarray
    handshake: Handshake | None = None
    overlays: TimeSeries | None = None

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    @property
    def completed(self) -> list[int]:
        return [i for i, s in enumerate(self.trial_series) if s is not None]

    def summary(self) -> dict:
        out = {
            "base_seed": self.base_seed,
            "trials_requested": self.requested,
            "trials_completed": len(self.completed),
            "partial": self.partial,
            "failures": [{"trial": i, "error": msg} for i, msg in self.failures],
            "final_mean_free_energy": float(self.mean_free_energy[-1]),
            "final_mean_period": float(self.mean_period[-1]),
        }
        if self.handshake is not None:
            out["handshake_t0"] = float(self.handshake.t0)
            out["handshake_p0"] = float(self.handshake.p0)
        return out


def _trial_outcomes(jobs: list[SolverConfig]) -> list[TimeSeries | str]:
    """Each trial's series, or the message of the fault that ended it."""
    return [out.series if isinstance(out, RunResult) else str(out) for out in run_batch(jobs)]


def _mean_columns(series: list[TimeSeries]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    times = series[0]["t"]
    for s in series[1:]:
        if not np.array_equal(s["t"], times):
            raise ValueError("trial record grids differ, cannot average pointwise")
    energy = np.mean([s["free_energy"] for s in series], axis=0)
    period = np.mean([s["period"] for s in series], axis=0)
    return times, energy, period


def _overlay_series(times: np.ndarray, hs: Handshake, params: Params,
                    table: EigTable) -> TimeSeries:
    """Predictor curves on the record grid, NaN before the handshake time."""
    cols: dict[str, np.ndarray] = {"t": times}
    live = times >= hs.t0
    for variant in VARIANTS:
        curve = predicted_energy_curve(times[live], params, variant, hs.p0, t0=hs.t0,
                                       eig_table=table)
        for name in ("period", "energy"):
            full = np.full(times.shape, math.nan)
            full[live] = curve[name]
            cols[f"{variant}_{name}"] = full
    return TimeSeries(**cols)


def run_ensemble(config: SolverConfig, trials: int, workers: int = 1,
                 overlays: bool = True,
                 eig_table: EigTable | None = None) -> EnsembleReport:
    """Run ``trials`` seeds of one configuration and average diagnostics.

    Trial ``i`` uses seed ``config.seed + i``.  The trials are stepped as
    one batch; ``workers > 1`` splits it into up to that many batches, run in
    their own processes.  Aggregation happens in the calling process.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    jobs = [replace(config, seed=config.seed + i) for i in range(trials)]
    size = math.ceil(trials / max(1, workers))
    batches = [jobs[i:i + size] for i in range(0, trials, size)]
    outcomes = [out for batch in parallel_map(_trial_outcomes, batches, workers) for out in batch]
    results = [None if isinstance(out, str) else out for out in outcomes]
    failures = [(i, out) for i, out in enumerate(outcomes) if isinstance(out, str)]

    done = [s for s in results if s is not None]
    if not done:
        raise RuntimeError(
            f"all {trials} trials failed; first error: {failures[0][1]}")
    times, mean_e, mean_p = _mean_columns(done)

    report = EnsembleReport(
        base_seed=config.seed, requested=trials, trial_series=results,
        failures=failures, times=times, mean_free_energy=mean_e,
        mean_period=mean_p)
    if overlays:
        params = config.params
        try:
            hs = handshake(times, mean_e, params)
        except ValueError:
            hs = None
        if hs is not None:
            if eig_table is None:
                eig_table = build_eig_table(params)
            report.handshake = hs
            report.overlays = _overlay_series(times, hs, params, eig_table)
    return report


def first_crossing(times: np.ndarray, values: np.ndarray,
                   threshold: float) -> float | None:
    """First time the sampled curve reaches ``threshold``, or None.

    Linear interpolation between the bracketing records; None means the
    curve stays below the threshold for the whole record.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    hits = np.nonzero(values >= threshold)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = values[i - 1], values[i]
    if v1 <= v0:
        return float(t1)
    return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))


def uncoupled_twin(config: SolverConfig, t_final: float | None = None,
                   dt: float | None = None,
                   record_every: int | None = None) -> SolverConfig:
    """Uncoupled variant of a coupled configuration with the same seed.

    The random field draw happens before any velocity draw, so the twin
    starts from the identical composition profile.  n is pinned to the
    coupled run's, which an unset n would otherwise resolve differently.
    """
    if not config.coupled:
        raise ValueError("config is already uncoupled")
    kw: dict = {"coupling": "uncoupled", "init_v": "none", "n": config.n_eff}
    if t_final is not None:
        kw["t_final"] = t_final
    if dt is not None:
        kw["dt"] = dt
    if record_every is not None:
        kw["record_every"] = record_every
    return replace(config, **kw)


@dataclass
class CompareReport:
    thresholds: tuple[float, ...]
    coupled: RunResult
    uncoupled: RunResult
    coupled_crossings: tuple[float | None, ...]
    uncoupled_crossings: tuple[float | None, ...]
    coupled_fit: FitResult | None = None
    uncoupled_fit: FitResult | None = None

    def rows(self) -> list[dict]:
        """Ratio table; a censored entry turns the ratio into a lower bound, and a
        threshold the coupled run meets at t = 0, or neither run meets, has none."""
        out = []
        for thr, tc, tu in zip(self.thresholds, self.coupled_crossings,
                               self.uncoupled_crossings):
            cc = tc is None
            cu = tu is None
            tc_eff = self.coupled.config.t_final if cc else tc
            tu_eff = self.uncoupled.config.t_final if cu else tu
            ratio = None if tc_eff == 0 or (cc and cu) else tu_eff / tc_eff
            out.append({
                "threshold": float(thr),
                "coupled_time": float(tc_eff),
                "coupled_censored": cc,
                "uncoupled_time": float(tu_eff),
                "uncoupled_censored": cu,
                "ratio": None if ratio is None else float(ratio),
                "ratio_is_lower_bound": cu and not cc,
            })
        return out

    def summary(self) -> dict:
        out = {"thresholds": list(self.thresholds), "rows": self.rows()}
        for label, fit in (("coupled_fit", self.coupled_fit),
                           ("uncoupled_fit", self.uncoupled_fit)):
            if fit is not None:
                out[label] = {"c1": float(fit.c1), "c2": float(fit.c2),
                              "objective": float(fit.objective)}
        return out


def _fit_series(series: TimeSeries, params: Params, t_final: float) -> FitResult | None:
    try:
        hs = handshake(series["t"], series["free_energy"], params)
        t0 = hs.t0
    except ValueError:
        t0 = 0.0
    try:
        return fit_pfit(series, params, t_max=t_final, t0=t0)
    except ValueError:
        return None


def compare_coupled(coupled_cfg: SolverConfig,
                    uncoupled_cfg: SolverConfig | None = None,
                    thresholds: tuple[float, ...] = (1.12, 1.495),
                    workers: int = 1) -> CompareReport:
    """Time a coupled run against its uncoupled twin on period thresholds.

    Both runs must share the seed, the box, and the composition draw so
    the comparison starts from the same field.  A threshold that is never
    reached is censored at that run's final time.
    """
    if uncoupled_cfg is None:
        uncoupled_cfg = uncoupled_twin(coupled_cfg)
    if not coupled_cfg.coupled:
        raise ValueError("first configuration must be coupled")
    if uncoupled_cfg.coupled:
        raise ValueError("second configuration must be uncoupled")
    for name in ("seed", "n_eff", "L", "alpha", "beta", "kappa", "init_phi"):
        a, b = getattr(coupled_cfg, name), getattr(uncoupled_cfg, name)
        if a != b:
            raise ValueError(f"configurations disagree on {name}: {a!r} vs {b!r}")

    res_c, res_u = parallel_map(run, [coupled_cfg, uncoupled_cfg], workers)

    def crossings(result: RunResult) -> tuple[float | None, ...]:
        s = result.series
        return tuple(first_crossing(s["t"], s["period"], thr) for thr in thresholds)

    params = coupled_cfg.params
    return CompareReport(
        thresholds=tuple(float(t) for t in thresholds),
        coupled=res_c, uncoupled=res_u,
        coupled_crossings=crossings(res_c),
        uncoupled_crossings=crossings(res_u),
        coupled_fit=_fit_series(res_c.series, params, coupled_cfg.t_final),
        uncoupled_fit=_fit_series(res_u.series, params, uncoupled_cfg.t_final),
    )


_FLAT_TOL = 5e-4
_MIN_LEN = 5
_DROP_MIN = 0.01


def detect_energy_drops(times: np.ndarray, energies: np.ndarray) -> list[tuple[float, float]]:
    """Locate staircase drops in a free-energy record.

    A plateau is a run of at least _MIN_LEN = 5 consecutive records whose
    successive differences stay below _FLAT_TOL = 5e-4.  Each pair of
    adjacent plateaus whose levels differ by more than _DROP_MIN = 0.01
    contributes one ``(time, size)`` entry, timed at the gap midpoint.  The
    early continuous decay produces no plateau and therefore no drop.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape or times.ndim != 1:
        raise ValueError("times and energies must be matching 1-D arrays")
    if len(times) < _MIN_LEN + 1:
        return []
    flat = np.abs(np.diff(energies)) < _FLAT_TOL

    plateaus: list[tuple[int, int]] = []
    start = None
    for i, ok in enumerate(flat):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if i - start + 1 >= _MIN_LEN:
                plateaus.append((start, i))
            start = None
    if start is not None and len(energies) - start >= _MIN_LEN:
        plateaus.append((start, len(energies) - 1))

    drops: list[tuple[float, float]] = []
    for (s0, e0), (s1, e1) in zip(plateaus, plateaus[1:]):
        level0 = float(np.mean(energies[s0:e0 + 1]))
        level1 = float(np.mean(energies[s1:e1 + 1]))
        size = level0 - level1
        if size > _DROP_MIN:
            t_mid = 0.5 * (times[e0] + times[s1])
            drops.append((float(t_mid), size))
    return drops
