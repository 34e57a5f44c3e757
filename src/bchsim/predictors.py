"""Coarsening-rate predictors for the mean interface spacing.

Three ways to predict the spacing growth p(t) once the dynamics has
settled onto the slow wave-to-wave drift:

* a closed-form logarithmic law driven by the tail interaction of kinks,
* numerical integration of dp/dt = factor * lambda_max(p) * p using the
  tabulated leading eigenvalue of the linearization,
* a two-parameter deformation of the closed form fitted to measured data.

Predictions are anchored at (t0, p0).  The default anchoring takes p0 at
the marginally stable period p_s with t0 the time an ensemble's mean free
energy first reaches the corresponding energy (see handshake); starting
from (0, p_min) instead gives the fastest admissible coarsening curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid
from scipy.optimize import minimize

from .energy import energy_of_period, energy_scale
from .evans import EigTable
from .series import TimeSeries
from .waves import Params

__all__ = [
    "VARIANTS",
    "PredictorConfig",
    "langer_period",
    "p_fit",
    "eigenvalue_ode_period",
    "predict_periods",
    "predicted_energy_curve",
    "FitResult",
    "fit_window",
    "fit_pfit",
    "Handshake",
    "handshake",
]

VARIANTS = ("langer", "eig_full", "eig_half")
# a rate-ODE step changes p by the local table spacing, clipped to [1e-4, _DP_MAX]
_DP_MAX = 5e-4
# Nelder--Mead starts of fit_pfit in (c1, c2)
_STARTS = ((1.0, 1.0), (5.0, 5.0))


@dataclass(frozen=True)
class PredictorConfig:
    """Which predictor to run and where it starts.

    p0 = None defers to the marginally stable period of the params in use.
    """

    p0: float | None = None
    t0: float = 0.0
    variant: str = "langer"
    eig_table: EigTable | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.t0 < 0:
            raise ValueError("t0 must be nonnegative")
        if self.variant != "langer" and self.eig_table is None:
            raise ValueError(f"variant {self.variant!r} needs an eig_table")

    @property
    def factor(self) -> float:
        return 0.5 if self.variant == "eig_half" else 1.0

    def start_period(self, params: Params) -> float:
        p0 = params.p_s if self.p0 is None else float(self.p0)
        if p0 < params.p_min:
            raise ValueError(f"p0 = {p0} is below the shortest admissible period {params.p_min}")
        return p0


def _interaction_scale(params: Params) -> float:
    """Length scale sqrt(2 kappa / beta) of the kink tail overlap."""
    return math.sqrt(2.0 * params.kappa / params.beta)


def _check_times(t: np.ndarray, t0: float) -> None:
    if np.any(t < t0):
        raise ValueError(f"times must not precede t0 = {t0}")


def langer_period(t, params: Params, p0: float | None = None, t0: float = 0.0):
    """Logarithmic spacing law p(t) = p0 + ell ln(1 + r (t - t0) e^{-p0/ell})
    with ell = sqrt(2 kappa / beta) and r = 16 beta^2 / kappa."""
    return p_fit(t, 1.0, 1.0, params, p0=p0, t0=t0)


def p_fit(t, c1: float, c2: float, params: Params, p0: float | None = None, t0: float = 0.0):
    """Two-parameter deformation of the logarithmic law.

    c1 scales the logarithmic slope, c2 rescales time; c1 = c2 = 1 recovers
    langer_period exactly.
    """
    if p0 is None:
        p0 = params.p_s
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    t = np.asarray(t, dtype=float)
    _check_times(t, t0)
    ell = _interaction_scale(params)
    rate = 16.0 * params.beta**2 / params.kappa
    out = p0 + c1 * ell * np.log1p(((t - t0) / c2) * rate * math.exp(-p0 / ell))
    return float(out) if out.ndim == 0 else out


def _integrate_rate_ode(times: np.ndarray, table: EigTable, p0: float, t0: float,
                        factor: float) -> np.ndarray:
    """RK4 for dp/dt = factor lambda(p) p, step capped by local table spacing."""
    spacing = np.diff(table.periods)
    warned = False

    def rate(p: float) -> float:
        nonlocal warned
        if not warned and p > table.periods[-1]:
            warnings.warn(
                f"period {p:.4f} left the table span (ends {table.periods[-1]:.4f}), "
                "rate clamped to the last entry",
                RuntimeWarning,
                stacklevel=3,
            )
            warned = True
        return factor * float(table.lambda_of_period(p)) * p

    def dp_cap(p: float) -> float:
        i = int(np.searchsorted(table.periods, p)) - 1
        i = min(max(i, 0), spacing.size - 1)
        return float(np.clip(spacing[i], 1e-4, _DP_MAX))

    out = np.empty(times.size)
    p, t_cur = float(p0), float(t0)
    for i, t_next in enumerate(times):
        while t_next - t_cur > 1e-14 * max(1.0, abs(t_next)):
            k1 = rate(p)
            h = t_next - t_cur if k1 <= 0 else min(t_next - t_cur, dp_cap(p) / k1)
            k2 = rate(p + 0.5 * h * k1)
            k3 = rate(p + 0.5 * h * k2)
            k4 = rate(p + h * k3)
            p += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur += h
        out[i] = p
    return out


def eigenvalue_ode_period(t_grid, cfg: PredictorConfig, params: Params) -> TimeSeries:
    """Spacing growth from dp/dt = factor * lambda_max(p) * p.

    lambda_max(p) interpolates cfg.eig_table; factor is 1 for eig_full and
    1/2 for eig_half.  A period beyond the table span clamps the rate to
    the last tabulated value and warns once.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be nondecreasing")
    _check_times(t, cfg.t0)
    p0 = cfg.start_period(params)
    periods = _integrate_rate_ode(t, cfg.eig_table, p0, cfg.t0, cfg.factor)
    return TimeSeries(t=t, period=periods)


def predict_periods(t_grid, cfg: PredictorConfig, params: Params) -> TimeSeries:
    """Run the predictor cfg selects and return its (t, period) series."""
    if cfg.variant == "langer":
        t = np.asarray(t_grid, dtype=float)
        p0 = cfg.start_period(params)
        return TimeSeries(t=t, period=langer_period(t, params, p0=p0, t0=cfg.t0))
    return eigenvalue_ode_period(t_grid, cfg, params)


def predicted_energy_curve(t_grid, cfg: PredictorConfig, params: Params) -> TimeSeries:
    """Compose the period predictor with the wave energy per unit length."""
    series = predict_periods(t_grid, cfg, params)
    return TimeSeries(t=series["t"], period=series["period"],
                      energy=energy_of_period(series["period"], params))


@dataclass(frozen=True)
class FitResult:
    """Fitted deformation parameters and the objective they reach."""

    c1: float
    c2: float
    objective: float


def fit_window(series, t_max: float = 20.0, t0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The (t, period) samples of series with max(t0, 0) < t <= t_max.

    series is a TimeSeries with t and period columns, or a (times, periods)
    pair.  Raises ValueError when fewer than 3 samples fall in the window or
    any of them is not finite.
    """
    if isinstance(series, TimeSeries):
        times, periods = series["t"], series["period"]
    else:
        times, periods = series
    times = np.asarray(times, dtype=float)
    periods = np.asarray(periods, dtype=float)
    if times.shape != periods.shape or times.ndim != 1:
        raise ValueError("times and periods must be matching 1-D arrays")
    keep = (times > max(t0, 0.0)) & (times <= t_max)
    tt, pp = times[keep], periods[keep]
    if tt.size < 3:
        raise ValueError("need at least 3 samples in (t0, t_max] to fit")
    if not np.all(np.isfinite(pp)):
        bad = tt[~np.isfinite(pp)]
        raise ValueError(f"non-finite period at t = {bad[0]:g} "
                         f"({bad.size} of {tt.size} samples in (t0, t_max])")
    return tt, pp


def fit_pfit(series, params: Params, t_max: float = 20.0, p0: float | None = None,
             t0: float = 0.0) -> FitResult:
    """Fit (c1, c2) to measured spacing data on [0, t_max].

    series is a TimeSeries with t and period columns, or a (times, periods)
    pair; fit_window picks and checks the samples.  The objective is the
    trapezoid rule for the integral of |P_fit(t) - p(t)|^2 / ln(1 + t) dt
    over samples with 0 < t <= t_max; the diverging weight excludes the
    t = 0 sample.  Nelder--Mead runs in log(c1, c2) space from each start
    and the best minimum wins.
    """
    if p0 is None:
        p0 = params.p_s
    tt, pp = fit_window(series, t_max, t0)
    if np.ptp(pp) == 0.0:
        raise ValueError("period data is constant, nothing to fit")
    weight = 1.0 / np.log1p(tt)

    def objective(log_c) -> float:
        c1, c2 = math.exp(log_c[0]), math.exp(log_c[1])
        resid = p_fit(tt, c1, c2, params, p0=p0, t0=t0) - pp
        return float(trapezoid(resid**2 * weight, tt))

    best = None
    for start in _STARTS:
        res = minimize(
            objective,
            x0=np.log(np.asarray(start, dtype=float)),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return FitResult(c1=math.exp(best.x[0]), c2=math.exp(best.x[1]), objective=float(best.fun))


@dataclass(frozen=True)
class Handshake:
    """Anchor point where coarsening prediction takes over from transients."""

    t0: float
    p0: float


def handshake(times, energies, params: Params) -> Handshake:
    """First time the (ensemble mean) free energy reaches the marginally
    stable wave energy; the spacing there is pinned to p_s."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if energies.shape != times.shape:
        raise ValueError("times and energies must align")
    e_s = energy_scale(params).e_spinodal
    below = np.nonzero(energies <= e_s)[0]
    if below.size == 0:
        raise ValueError("free energy never reaches the marginal wave energy")
    return Handshake(t0=float(times[below[0]]), p0=params.p_s)
