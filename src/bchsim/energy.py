"""Free energy, the period-energy table, and coarseness measures.

The coarseness of a state is read off the window energy of the stationary
wave family: E(p) is the free energy on [-L, L) of the wave with period p,
shifted so a zero crossing sits at the origin.  E is in closed form, from
the incomplete elliptic integral of the second kind at the window edge,
and elementwise: one vectorized bisection inverts an array of periods to
amplitudes, and one call takes all their energies.  E decreases from
e_max = 2 L F(0) at the shortest period toward the single-kink energy
e_min in a staircase whose sharp drops line up with zero crossings leaving the window.
Because E is not invertible, periods are assigned to energies through the
infimum pseudoinverse p(e) = inf {p : E(p) <= e}.  period_from_energy
brackets each energy in the table and bisects all of them on the amplitude
at once; a run's period column, measure and criterion 10 share it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, derivative, l2_norm
from .waves import Params, amplitude_of_period, period_of_amplitude, periodic_wave

__all__ = [
    "free_energy",
    "EnergyScale",
    "energy_scale",
    "wave_window_energy",
    "energy_of_period",
    "plateau_slope_bound",
    "EnergyPeriodTable",
    "coarseness_table",
    "period_from_energy",
    "kohn_otto_length",
    "ClampWarning",
]


class ClampWarning(UserWarning):
    """An energy fell outside (e_floor, e_max] of the E(p) table and was clamped."""


def free_energy(phi: Field, params: Params) -> float:
    """E(phi) = int F(phi) + (kappa/2) phi_x^2 over [-L, L)."""
    if not np.all(np.isfinite(phi.values)):
        raise ValueError("field contains non-finite values")
    grad = l2_norm(derivative(phi))
    bulk = phi.grid.dx * float(np.sum(params.f(phi.values)))
    return bulk + 0.5 * params.kappa * grad**2


@dataclass(frozen=True)
class EnergyScale:
    """Landmark energies of the wave family on the window [-L, L)."""

    e_max: float
    e_min: float
    e_spinodal: float


def wave_window_energy(a, params: Params):
    """Free energy on [-L, L) of the amplitude-a wave with phi(0) = 0, in closed form.

    The first integral (kappa/2) phi_x^2 = F(phi) - F(a) turns the energy
    density into 2 F(phi) - F(a), which is even in x, so the energy is
    4 int_0^L F(phi) - 2 L F(a).  F(a sn) = (alpha/4)(a^2 sn^2 - b^2)^2 with
    b^2 = beta/alpha, so with u = h L that integral is (alpha/4h)(a^4 S4 -
    2 a^2 b^2 S2 + b^4 u), S2 and S4 the integrals of sn^2 and sn^4 over
    [0, u]: WaveProfile.potential_integral takes them from the incomplete
    elliptic integral of the second kind at u alone, sampling no profile,
    for all amplitudes of a at once.  a = 0 is the zero state, e_max.
    """
    a = np.asarray(a, dtype=float)
    zero = a == 0.0
    # the zero state is no wave; any amplitude in range stands in for it
    wave = periodic_wave(np.where(zero, 0.5 * params.binodal, a), params)
    e = np.where(zero, params.e_max, _window_energy(wave))
    return float(e) if e.ndim == 0 else e


def _window_energy(wave):
    """wave_window_energy of an already built wave (family)."""
    length = wave.params.half_length
    return 4.0 * wave.potential_integral(length) - 2.0 * length * wave.params.f(wave.amplitude)


def energy_of_period(p, params: Params):
    """E(p), the window energy of the period-p wave, elementwise."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"period must be finite, got {p[~np.isfinite(p)][0]}")
    if np.any(p < params.p_min):
        raise ValueError(f"period must be at least p_min = {params.p_min}, "
                         f"got {p[p < params.p_min][0]}")
    e = np.full(p.shape, params.e_max)
    longer = p > params.p_min
    e[longer] = wave_window_energy(amplitude_of_period(p[longer], params), params)
    return float(e) if e.ndim == 0 else e


def energy_scale(params: Params) -> EnergyScale:
    return EnergyScale(
        e_max=params.e_max,
        e_min=params.e_min,
        e_spinodal=wave_window_energy(amplitude_of_period(params.p_s, params), params),
    )


def plateau_slope_bound(a: float, params: Params) -> float:
    """Upper bound on dE/dp wherever the slope is positive.

    bound = a^3 sqrt(alpha kappa) (1+delta)^{3/2} delta^3 (delta-1) / (2 L),
    delta = sqrt(2 beta/(alpha a^2) - 1).
    """
    delta = math.sqrt(2.0 * params.beta / (params.alpha * a * a) - 1.0)
    return (
        a**3
        * math.sqrt(params.alpha * params.kappa)
        * (1.0 + delta) ** 1.5
        * delta**3
        * (delta - 1.0)
        / (2.0 * params.half_length)
    )


_GAP_FRACTION = 1.0 / 200.0
_CAP_FRACTION = 1e-4
_MAX_NODES = 4000


@dataclass
class EnergyPeriodTable:
    """Tabulated E(p) along the amplitude family, rows in increasing amplitude and period."""

    params: Params
    amplitudes: np.ndarray
    periods: np.ndarray
    energies: np.ndarray
    truncated: bool

    @classmethod
    def build(cls, params: Params) -> "EnergyPeriodTable":
        """Tabulate E over amplitude, graded toward the binodal.

        The table ends once the energy is within _CAP_FRACTION of the full
        range above e_min, or at the last amplitude distinguishable from the
        binodal in double precision (then truncated=True).  Adjacent rows are
        refined until successive energy gaps drop below _GAP_FRACTION of the
        range, up to _MAX_NODES rows; nodes are inserted at midpoints of u = log(1 - a/binodal) so
        refinement behaves in the near-binodal tail as well.
        """
        binodal = params.binodal
        e_max = params.e_max
        e_min = params.e_min
        e_cap = e_min + (e_max - e_min) * _CAP_FRACTION

        def a_of(u):
            # math.expm1, not np.expm1: the two differ in the last bit on some nodes
            return np.array([binodal * (-math.expm1(v)) for v in u])

        seeds = [math.log(1.0 - binodal * s / binodal) for s in np.linspace(0.005, 0.99, 120)]
        us = np.concatenate((seeds, math.log(10.0) * -np.arange(2.25, 15.6, 0.25)))
        es = wave_window_energy(a_of(us), params)
        capped = np.flatnonzero(es[len(seeds):] <= e_cap)
        truncated = not capped.size
        end = us.size if truncated else len(seeds) + capped[0] + 1
        us, es = us[:end], es[:end]

        gap = _GAP_FRACTION * (e_max - e_min)
        # Leading cell against the analytic (p_min, e_max) row.
        while us.size < _MAX_NODES:
            refined = False
            if abs(es[0] - e_max) > gap:
                # Halve the leading amplitude; u = log(1 - a/binodal) ~ -a/binodal there.
                us = np.insert(us, 0, 0.5 * us[0])
                es = np.insert(es, 0, wave_window_energy(a_of(us[:1]), params))
                refined = True
            # a pass's midpoints depend only on the nodes it starts from
            split = np.flatnonzero((abs(np.diff(es)) > gap) & (abs(np.diff(us)) > 1e-6))
            if split.size:
                mids = 0.5 * (us[split] + us[split + 1])
                es = np.insert(es, split + 1, wave_window_energy(a_of(mids), params))
                us = np.insert(us, split + 1, mids)
            elif not refined:
                break

        amps = np.concatenate(([0.0], a_of(us)))
        periods = np.concatenate(([params.p_min], period_of_amplitude(amps[1:], params)))
        energies = np.concatenate(([e_max], es))
        return cls(
            params=params,
            amplitudes=amps,
            periods=periods,
            energies=energies,
            truncated=truncated,
        )

    @property
    def e_floor(self) -> float:
        """The energy of the first row within 1e-12 (e_max - e_min) of the minimum: E(p)
        is flat to rounding near the binodal, where one ulp can move the first minimum."""
        tol = 1e-12 * (self.params.e_max - self.params.e_min)
        return float(self.energies[self.energies <= self.energies.min() + tol][0])

    @property
    def p_cap(self) -> float:
        return float(self.periods[np.argmax(self.energies <= self.e_floor)])


_TABLES: dict = {}
# period_from_energy bisects until the bracket periods agree to this
_PERIOD_RTOL = 1e-10
# kohn_otto_length takes fields whose mean is zero to this
_MEAN_TOL = 1e-10


def coarseness_table(params: Params) -> EnergyPeriodTable:
    """The E(p) table of params, built once per process per (alpha, beta,
    kappa, L), the parameters it depends on."""
    key = (params.alpha, params.beta, params.kappa, params.half_length)
    if key not in _TABLES:
        _TABLES[key] = EnergyPeriodTable.build(params)
    return _TABLES[key]


def period_from_energy(e, table: EnergyPeriodTable):
    """Infimum pseudoinverse p = inf {p >= p_min : E(p) <= e}, elementwise.

    Energies outside (e_floor, e_max) are clamped to p_min or p_cap, with a
    ClampWarning for those above e_max or at or below e_floor.  Each other
    energy's bracket is the first table cell where the running minimum of E
    crosses it; all brackets are refined together by bisection on the
    amplitude, which E and p both follow without inverting p(a).  An element
    stops once its bracket periods agree to _PERIOD_RTOL, or once the
    amplitude resolves no finer, as the near-binodal tail may.
    """
    e = np.asarray(e, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError(f"energy must be finite, got {e[~np.isfinite(e)][0]}")
    params = table.params
    if np.any(e > params.e_max):
        warnings.warn(f"energy {e.max()} above e_max; clamping to p_min", ClampWarning)
    if np.any(e <= table.e_floor):
        warnings.warn(f"energy {e.min()} at or below e_floor; clamping to p_cap", ClampWarning)
    p = np.where(e >= params.e_max, params.p_min, table.p_cap)
    inside = (e < params.e_max) & (e > table.e_floor)
    target = e[inside]
    # the running minimum descends, so its negation ascends for searchsorted
    idx = np.searchsorted(-np.minimum.accumulate(table.energies), -target)
    a_lo, a_hi = table.amplitudes[idx - 1], table.amplitudes[idx]
    p_lo, p_hi = table.periods[idx - 1], table.periods[idx]
    live = np.flatnonzero(p_hi - p_lo > _PERIOD_RTOL * p_hi)
    while live.size:
        a_mid = 0.5 * (a_lo[live] + a_hi[live])
        # near the binodal the amplitude resolves no finer
        finer = (a_lo[live] < a_mid) & (a_mid < a_hi[live])
        live, a_mid = live[finer], a_mid[finer]
        wave = periodic_wave(a_mid, params)  # one wave gives both p and E
        p_mid = wave.period
        down = _window_energy(wave) <= target[live]
        a_hi[live[down]], p_hi[live[down]] = a_mid[down], p_mid[down]
        a_lo[live[~down]], p_lo[live[~down]] = a_mid[~down], p_mid[~down]
        live = live[p_hi[live] - p_lo[live] > _PERIOD_RTOL * p_hi[live]]
    p[inside] = p_hi
    return float(p) if p.ndim == 0 else p


def kohn_otto_length(phi: Field) -> float:
    """Interface-scale length sup {(1/2L) int phi zeta : zeta periodic, |zeta'| <= 1}.

    By duality the supremum equals (1/2L) min_c int |Phi - c| with Phi the
    periodic antiderivative of phi, minimized at the median of Phi.
    """
    if abs(phi.mean()) > _MEAN_TOL:
        raise ValueError(f"field mean {phi.mean():.3e} exceeds tolerance {_MEAN_TOL:.1e}")
    grid = phi.grid
    hat = np.fft.rfft(phi.values)
    anti = np.zeros_like(hat)
    # the mean mode has no antiderivative; the Nyquist mode's would be imaginary
    anti[1:-1] = hat[1:-1] / (1j * grid.k[1:-1])
    big_phi = grid.physical(anti)
    c = np.median(big_phi)
    return float(grid.dx * np.sum(np.abs(big_phi - c)) / (2.0 * grid.half_length))
