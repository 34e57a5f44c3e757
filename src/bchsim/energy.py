"""Free energy, the period-energy table, and coarseness measures.

The coarseness of a state is read off the window energy of the stationary
wave family: E(p) is the free energy on [-L, L) of the wave with period p,
shifted so a zero crossing sits at the origin.  E is in closed form, from
the incomplete elliptic integral of the second kind at the window edge;
an array of periods is inverted to amplitudes in one vectorized
bisection.  E decreases from e_max = 2 L F(0) at the shortest period
toward the single-kink energy e_min in a staircase whose sharp drops line
up with zero crossings leaving the window.
Because E is not invertible, periods are assigned to energies through the
infimum pseudoinverse p(e) = inf {p : E(p) <= e}; for time series we use
the interpolant built on the monotone envelope of the tabulated curve,
which realizes the same map up to table resolution.
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
    """An energy fell outside (e_min, e_max] and was clamped."""


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


def wave_window_energy(a: float, params: Params) -> float:
    """Free energy on [-L, L) of the amplitude-a wave with phi(0) = 0, in closed form.

    The first integral (kappa/2) phi_x^2 = F(phi) - F(a) turns the energy
    density into 2 F(phi) - F(a), which is even in x, so the energy is
    4 int_0^L F(phi) - 2 L F(a).  F(a sn) = (alpha/4)(a^2 sn^2 - b^2)^2 with
    b^2 = beta/alpha, so with u = h L that integral is (alpha/4h)(a^4 S4 -
    2 a^2 b^2 S2 + b^4 u), S2 and S4 the integrals of sn^2 and sn^4 over
    [0, u]: WaveProfile.potential_integral takes them from the incomplete
    elliptic integral of the second kind at u alone, sampling no profile.
    """
    if a == 0.0:
        return params.e_max
    length = params.half_length
    return 4.0 * periodic_wave(a, params).potential_integral(length) - 2.0 * length * params.f(a)


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
    e[longer] = [wave_window_energy(a, params) for a in amplitude_of_period(p[longer], params)]
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
# The envelope keeps a row only where it drops by more than this, relatively:
# far above the few to few hundred ulps between neighbours on the flat steps
# of E(p), so one ulp of rounding cannot add or drop a row there.
_ENVELOPE_RTOL = 1e-12


@dataclass
class EnergyPeriodTable:
    """Tabulated E(p) along the amplitude family, plus its monotone envelope."""

    params: Params
    amplitudes: np.ndarray
    periods: np.ndarray
    energies: np.ndarray
    env_periods: np.ndarray
    env_energies: np.ndarray
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

        def u_of(a: float) -> float:
            return math.log(1.0 - a / binodal)

        def a_of(u: float) -> float:
            return binodal * (-math.expm1(u))

        nodes = [(u, wave_window_energy(a_of(u), params))
                 for u in (u_of(binodal * s) for s in np.linspace(0.005, 0.99, 120))]
        truncated = True
        for m in np.arange(2.25, 15.6, 0.25):
            u = math.log(10.0) * (-m)
            nodes.append((u, wave_window_energy(a_of(u), params)))
            if nodes[-1][1] <= e_cap:
                truncated = False
                break

        gap = _GAP_FRACTION * (e_max - e_min)
        # Leading cell against the analytic (p_min, e_max) row.
        while len(nodes) < _MAX_NODES:
            refined = False
            if abs(nodes[0][1] - e_max) > gap:
                # Halve the leading amplitude; u = log(1 - a/binodal) ~ -a/binodal there.
                u = 0.5 * nodes[0][0]
                nodes.insert(0, (u, wave_window_energy(a_of(u), params)))
                refined = True
            out = [nodes[0]]
            for prev, cur in zip(nodes, nodes[1:]):
                if abs(cur[1] - prev[1]) > gap and abs(cur[0] - prev[0]) > 1e-6:
                    u = 0.5 * (prev[0] + cur[0])
                    out.append((u, wave_window_energy(a_of(u), params)))
                    refined = True
                out.append(cur)
            nodes = out
            if not refined:
                break

        amps = np.array([0.0] + [a_of(u) for u, _ in nodes])
        periods = np.concatenate(([params.p_min], period_of_amplitude(amps[1:], params)))
        energies = np.array([e_max] + [e for _, e in nodes])
        order = np.argsort(periods)
        amps, periods, energies = amps[order], periods[order], energies[order]

        env = np.minimum.accumulate(energies)
        keep = np.empty(env.size, dtype=bool)
        keep[0] = True
        keep[1:] = env[1:] < env[:-1] * (1.0 - _ENVELOPE_RTOL)
        return cls(
            params=params,
            amplitudes=amps,
            periods=periods,
            energies=energies,
            env_periods=periods[keep],
            env_energies=env[keep],
            truncated=truncated,
        )

    @property
    def e_max(self) -> float:
        return float(self.env_energies[0])

    @property
    def e_floor(self) -> float:
        return float(self.env_energies[-1])

    @property
    def p_cap(self) -> float:
        return float(self.env_periods[-1])

    def period_of_energy(self, e) -> np.ndarray:
        """Envelope interpolant e -> p, clipped to the tabulated range."""
        e = np.asarray(e, dtype=float)
        ee = np.clip(e, self.e_floor, self.e_max)
        # np.interp needs ascending abscissae; envelope energies descend.
        out = np.interp(-ee, -self.env_energies, self.env_periods)
        return float(out) if out.ndim == 0 else out


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


def period_from_energy(e: float, table: EnergyPeriodTable) -> float:
    """Infimum pseudoinverse p = inf {p >= p_min : E(p) <= e}.

    Energies outside (e_min, e_max] are clamped to the table range with a
    ClampWarning.  The first table cell crossing e is refined by bisection
    on the amplitude, which E and p both follow without inverting p(a),
    until the periods of the bracket ends agree to _PERIOD_RTOL.
    """
    params = table.params
    if e >= table.e_max:
        if e > table.e_max:
            warnings.warn(f"energy {e} above e_max; clamping to p_min", ClampWarning)
        return params.p_min
    if e <= table.e_floor:
        warnings.warn(f"energy {e} at or below the table floor; clamping to p_cap", ClampWarning)
        return table.p_cap

    idx = int(np.argmax(table.energies <= e))
    a_lo, a_hi = table.amplitudes[idx - 1], table.amplitudes[idx]
    p_lo, p_hi = table.periods[idx - 1], table.periods[idx]
    while p_hi - p_lo > _PERIOD_RTOL * p_hi:
        a_mid = 0.5 * (a_lo + a_hi)
        if not a_lo < a_mid < a_hi:
            break  # near the binodal the amplitude resolves no finer
        p_mid = period_of_amplitude(a_mid, params)
        if wave_window_energy(a_mid, params) <= e:
            a_hi, p_hi = a_mid, p_mid
        else:
            a_lo, p_lo = a_mid, p_mid
    return float(p_hi)


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
