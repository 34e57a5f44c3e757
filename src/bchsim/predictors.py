"""Coarsening-rate predictors for the mean interface spacing.

Three ways to predict the spacing growth p(t) once the dynamics has
settled onto the slow wave-to-wave drift:

* a closed-form logarithmic law driven by the tail interaction of kinks,
* the exact solution of dp/dt = factor * lambda_max(p) * p, cell by cell
  of the tabulated leading eigenvalue of the linearization,
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
_SCAN = 41  # nodes of each scan over ln c2 in fit_pfit


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
    """dp/dt = factor lambda(p) p from (t0, p0) in closed form, cell by cell of the table.

    On a cell [p_i, p_i+1] lambda = A + s p, so p / lambda(p) = (p_i / lambda_i)
    e^{A tau} with tau = factor (t - T_i): the cell takes log1p(A x) / A to cross,
    x = (p_i+1 - p_i) / (p_i lambda_i+1), and p = p_i + y p_i lambda_i / (1 - y p_i s)
    with y = expm1(A tau) / A (y = tau where A = 0).  The first cell starts at p0.
    Outside the table span lambda is clamped, s = 0; a curve that leaves it warns once.
    """
    nodes = np.concatenate(([p0], table.periods[table.periods > p0]))
    lam = table.lambda_of_period(nodes)
    slope = np.append(np.diff(lam) / np.diff(nodes), 0.0)
    a = lam - slope * nodes
    a_safe = np.where(a == 0.0, 1.0, a)
    x = np.diff(nodes) / (nodes[:-1] * lam[1:])
    cross = np.where(a[:-1] == 0.0, x, np.log1p(a[:-1] * x) / a_safe[:-1])
    node_tau = np.concatenate(([0.0], np.cumsum(cross)))
    tau = factor * (times - t0)
    i = np.searchsorted(node_tau, tau, side="right") - 1
    tau = tau - node_tau[i]
    y = np.where(a[i] == 0.0, tau, np.expm1(a[i] * tau) / a_safe[i])
    p = nodes[i] + y * nodes[i] * lam[i] / (1.0 - y * nodes[i] * slope[i])
    end = table.periods[-1]
    if np.any(p > end):
        warnings.warn(f"period {p[p > end][0]:.4f} left the table span (ends {end:.4f}), "
                      "rate clamped to the last entry", RuntimeWarning, stacklevel=3)
    return p


def predicted_energy_curve(t_grid, params: Params, variant: str, p0: float,
                           t0: float = 0.0, eig_table: EigTable | None = None) -> TimeSeries:
    """The (t, period, energy) curve of one predictor started at (t0, p0).

    "langer" is the logarithmic law, p_fit with c1 = c2 = 1.  "eig_full"
    and "eig_half" solve dp/dt = factor * lambda_max(p) * p with factor
    1 and 1/2 exactly, lambda_max(p) the piecewise-linear interpolant of
    eig_table; a period beyond the table span clamps the rate to the last
    tabulated value and warns once.
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


def _fit_objective(tt, pp, c1: float, c2: float, params: Params, p0: float, t0: float) -> float:
    """Trapezoid rule of |p_fit - p|^2 / ln(1 + t) over the samples (tt, pp)."""
    y = (p_fit(tt, c1, c2, params, p0=p0, t0=t0) - pp) ** 2 * (1.0 / np.log1p(tt))
    return float(np.sum(np.diff(tt) * (y[1:] + y[:-1]) / 2.0))


def fit_pfit(series, params: Params, t_max: float = 20.0, p0: float | None = None,
             t0: float = 0.0) -> FitResult:
    """Fit (c1, c2) to measured spacing data on [0, t_max].

    series is a TimeSeries with t and period columns, or a (times, periods)
    pair; fit_window picks and checks the samples.  The objective is the
    trapezoid rule for the integral of |P_fit(t) - p(t)|^2 / ln(1 + t) dt
    over samples with 0 < t <= t_max; the diverging weight excludes the
    t = 0 sample.  c1 enters linearly, so each c2 has its best c1 in closed
    form (variable projection).  ln c2 is scanned over the window's scale
    widened by e^20 each way, then around the best node down to rounding;
    ValueError when no c2 gives c1 > 0 or the best is on the scan's edge.
    """
    if p0 is None:
        p0 = params.p_s
    tt, pp = fit_window(series, t_max, t0)
    if np.ptp(pp) == 0.0:
        raise ValueError("period data is constant, nothing to fit")
    ell = _interaction_scale(params)
    x = (tt - t0) * (16.0 * params.beta**2 / params.kappa) * math.exp(-p0 / ell)
    d, w = pp - p0, np.convolve(np.diff(tt), [0.5, 0.5]) / np.log1p(tt)  # trapezoid nodes

    def profile(u: float) -> tuple[float, float]:
        g = ell * np.log1p(x * math.exp(-u))
        c1 = np.dot(w * g, d) / np.dot(w * g, g)
        return c1, np.dot(w, (c1 * g - d) ** 2)

    lo, hi = math.log(x.min()) - 20.0, math.log(x.max()) + 20.0
    first = True
    while first or hi - lo > 1e-15 * max(1.0, abs(lo)):
        us = np.linspace(lo, hi, _SCAN)
        c1, obj = np.array([profile(u) for u in us]).T
        obj[~(c1 > 0.0)] = np.inf
        k = 1 + int(np.argmin(obj[1:-1]))
        if first and not obj[k] < min(obj[0], obj[-1]):
            raise ValueError(f"no c2 in [{math.exp(lo):.3g}, {math.exp(hi):.3g}] with c1 > 0 "
                             "is a minimum inside that range")
        first, lo, hi = False, us[k - 1], us[k + 1]
    c1, c2 = float(c1[k]), math.exp(us[k])
    return FitResult(c1=c1, c2=c2, objective=_fit_objective(tt, pp, c1, c2, params, p0, t0))


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
