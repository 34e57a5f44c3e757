"""Coarsening-rate predictors for the mean interface spacing.

Three ways to predict the spacing growth p(t) once the dynamics has
settled onto the slow wave-to-wave drift:

* a closed-form logarithmic law driven by the tail interaction of kinks,
* numerical integration of dp/dt = factor * lambda_max(p) * p using the
  tabulated leading eigenvalue of the linearization,
* a two-parameter deformation of the closed form fitted to measured data.

predicted_energy_curve starts each curve at a given (t0, p0).  Ensemble
overlays take p0 = p_s, the marginally stable period, at the time t0 the
mean free energy first reaches the corresponding energy (see handshake);
``bchsim predict`` starts from (0, p_s) unless told otherwise, and
(0, p_min) gives the fastest admissible coarsening curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import energy_of_period, energy_scale
from .evans import EigTable
from .series import TimeSeries
from .waves import Params

__all__ = [
    "VARIANTS",
    "p_fit",
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


def _interaction_scale(params: Params) -> float:
    """Length scale sqrt(2 kappa / beta) of the kink tail overlap."""
    return math.sqrt(2.0 * params.kappa / params.beta)


def _check_times(t: np.ndarray, t0: float) -> None:
    if np.any(t < t0):
        raise ValueError(f"times must not precede t0 = {t0}")


def p_fit(t, c1: float, c2: float, params: Params, p0: float | None = None, t0: float = 0.0):
    """Two-parameter deformation of the logarithmic spacing law.

    c1 = c2 = 1 is the law itself, p(t) = p0 + ell ln(1 + r (t - t0) e^{-p0/ell})
    with ell = sqrt(2 kappa / beta) and r = 16 beta^2 / kappa; c1 scales the
    logarithmic slope and c2 rescales time.  p0 = None starts from p_s.
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


def predicted_energy_curve(t_grid, params: Params, variant: str, p0: float,
                           t0: float = 0.0, eig_table: EigTable | None = None) -> TimeSeries:
    """The (t, period, energy) curve of one predictor started at (t0, p0).

    "langer" is the logarithmic law, p_fit with c1 = c2 = 1.  "eig_full"
    and "eig_half" integrate dp/dt = factor * lambda_max(p) * p with factor
    1 and 1/2, lambda_max(p) interpolating eig_table; a period beyond the
    table span clamps the rate to the last tabulated value and warns once.
    The energy is the wave energy per unit length at each period.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant != "langer" and eig_table is None:
        raise ValueError(f"variant {variant!r} needs an eig_table")
    if t0 < 0:
        raise ValueError("t0 must be nonnegative")
    if p0 < params.p_min:
        raise ValueError(f"p0 = {p0} is below the shortest admissible period {params.p_min}")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t) < 0):
        raise ValueError("t_grid must be nondecreasing")
    _check_times(t, t0)
    if variant == "langer":
        periods = p_fit(t, 1.0, 1.0, params, p0=p0, t0=t0)
    else:
        factor = 0.5 if variant == "eig_half" else 1.0
        periods = _integrate_rate_ode(t, eig_table, p0, t0, factor)
    return TimeSeries(t=t, period=periods, energy=energy_of_period(periods, params))


@dataclass(frozen=True)
class FitResult:
    """Fitted deformation parameters and the objective they reach."""

    c1: float
    c2: float
    objective: float


def fit_window(series, t_max: float = 20.0, t0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The (t, period) samples of series with max(t0, 0) < t <= t_max.

    series is a TimeSeries with t and period columns, or a (times, periods)
    pair.  Raises ValueError when a column is missing, fewer than 3 samples
    fall in the window or any of them is not finite.
    """
    if isinstance(series, TimeSeries):
        for name in ("t", "period"):
            if name not in series:
                raise ValueError(f"no column {name!r} in header {list(series.names)}")
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
        y = (p_fit(tt, c1, c2, params, p0=p0, t0=t0) - pp) ** 2 * weight
        return float(np.sum(np.diff(tt) * (y[1:] + y[:-1]) / 2.0))

    from scipy.optimize import minimize  # deferred: importing scipy costs ~0.5 s

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
