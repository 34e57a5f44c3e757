"""Stationary periodic waves of the one-dimensional Cahn-Hilliard equation.

The double-well potential is the shifted quartic

    F(u) = (alpha/4) u^4 - (beta/2) u^2 + beta^2/(4 alpha)
         = (alpha/4) (u^2 - beta/alpha)^2,

so F >= 0 with minima at the binodal values +-sqrt(beta/alpha).  Every
zero-mean stationary profile with amplitude a in (0, binodal) is a scaled
Jacobi elliptic sine,

    phi(x; a) = a sn(h(a) x, m(a)),
    h(a) = sqrt((2 beta - alpha a^2) / (2 kappa)),
    m(a)^2 = alpha a^2 / (2 beta - alpha a^2),

with period p(a) = 4 K(m)/h(a), K the complete elliptic integral of the
first kind in the modulus convention.  One descending arithmetic-geometric
mean ladder, built elementwise over an array of moduli, gives K from its
last level and sn, cn, dn and the second-kind integral by the descending
Landen transformation back through it.  So every function here takes an
array of amplitudes as readily as one; no lookup tables and no library
special functions are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Params",
    "sn_cn_dn",
    "WaveProfile",
    "periodic_wave",
    "period_of_amplitude",
    "amplitude_of_period",
]


@dataclass(frozen=True)
class Params:
    """Physical parameters shared by the wave, energy and solver layers."""

    alpha: float = 1.0
    beta: float = 1.0
    kappa: float = 1e-3
    nu: float = 6e-3
    K: float = 1.0
    half_length: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("alpha", "beta", "kappa", "half_length"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("nu", "K"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    # potential and derivatives

    def f(self, u):
        """Double-well potential F(u), vectorized."""
        u = np.asarray(u, dtype=float)
        w = u * u - self.beta / self.alpha
        out = 0.25 * self.alpha * w * w
        return float(out) if out.ndim == 0 else out

    def df(self, u):
        u = np.asarray(u, dtype=float)
        out = self.alpha * u**3 - self.beta * u
        return float(out) if out.ndim == 0 else out

    @property
    def binodal(self) -> float:
        return math.sqrt(self.beta / self.alpha)

    @property
    def p_min(self) -> float:
        """Shortest admissible wave period, 2 pi sqrt(kappa/beta)."""
        return 2.0 * math.pi * math.sqrt(self.kappa / self.beta)

    @property
    def xi_s(self) -> float:
        """Fastest-growing wavenumber of the homogeneous state."""
        return math.sqrt(self.beta / (2.0 * self.kappa))

    @property
    def p_s(self) -> float:
        """Spinodal period 2 pi / xi_s."""
        return 2.0 * math.pi * math.sqrt(2.0 * self.kappa / self.beta)

    @property
    def lambda_top(self) -> float:
        """Peak growth rate beta^2/(4 kappa) of the homogeneous state."""
        return self.beta**2 / (4.0 * self.kappa)

    @property
    def e_max(self) -> float:
        """Free energy of the zero state on [-L, L), 2 L F(0)."""
        return self.half_length * self.beta**2 / (2.0 * self.alpha)

    @property
    def e_min(self) -> float:
        """Free energy on [-L, L) of one kink binodal tanh(xi_s x), in closed form."""
        k_l = self.binodal * math.tanh(self.xi_s * self.half_length)
        return math.sqrt(2.0 * self.kappa * self.alpha) * k_l * (self.beta / self.alpha - k_l**2 / 3.0)


_EPS = np.finfo(float).eps
# amplitude_of_period bisects until the bracket agrees to this, relatively
_AMPLITUDE_RTOL = 1e-13


def _ladder(k, complement):
    """Descending AGM ladder on (1, k'), elementwise in k: levels (a_n, c_n), c_0 = k.

    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2
    from a_0 = 1, b_0 = k'.  An element stops at the first level with
    c_n <= 4 eps a_n; at deeper levels it keeps that a_n and has c_n = 0, so
    folding through them only halves phi, exactly.
    """
    # [()] makes one modulus a numpy scalar, whose arithmetic costs far less
    # than a 0-d array's: the Evans search builds many
    b = np.asarray(complement, dtype=float)[()]
    a, live = np.ones_like(b)[()], np.ones_like(b, dtype=bool)[()]
    levels = [(a, np.asarray(k, dtype=float)[()])]
    while (n_live := np.count_nonzero(live)) and len(levels) < 64:
        a_next, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        if n_live < live.size:  # the stopped elements keep their a and have c = 0
            a_next, c = np.where(live, a_next, a), np.where(live, c, 0.0)
        a = a_next
        live = live & (c > 4.0 * _EPS * a)
        levels.append((a, c))
    return levels


def sn_cn_dn(u, k, *, complement=None):
    """Jacobi sn, cn, dn at argument u and modulus k, elementwise; below
    k = 1e-12 the k = 0 limits sin, cos, 1."""
    u = np.asarray(u, dtype=float)
    if complement is None:
        k = np.asarray(k, dtype=float)
        if not np.all((0.0 <= k) & (k <= 1.0)):
            raise ValueError(f"modulus must lie in [0, 1], got {k}")
        complement = np.sqrt((1.0 - k) * (1.0 + k))
    sn, cn, dn, _ = _landen_fold(u, k, complement)
    small = np.asarray(k) < 1e-12
    if np.count_nonzero(small):
        sn, cn, dn = (np.where(small, lim, f) for lim, f in
                      zip((np.sin(u), np.cos(u), np.ones_like(u)), (sn, cn, dn)))
    return sn, cn, dn


def _landen_fold(u, k, complement):
    """sn, cn, dn at u and u - E(am u, k), E the second kind integral, elementwise.

    Descending Landen recursion: take k's AGM ladder, set
    phi_N = 2^N a_N u, then fold back through
    phi_{n-1} = (phi_n + asin(c_n/a_n sin phi_n))/2 to phi_0 = am(u, k).
    sn = sin phi_0, cn = cos phi_0, and dn = sqrt(k'^2 + k^2 cn^2) stays
    accurate where cn is near zero.  Abramowitz & Stegun 17.6 gives u - E in
    a form that does not cancel at small k:
    u - E = (u/2) sum_{n>=0} 2^n c_n^2 - sum_{n>=1} c_n sin phi_n.
    Below k' = 1e-12 these are the k = 1 limits tanh, sech, sech, u - tanh.
    The ladder has the shape of k, not of u, and u and k broadcast.
    """
    levels = _ladder(k, complement)
    n = len(levels) - 1
    phi = (2.0**n) * levels[n][0] * u
    c_sin = 0.0
    for a, c in levels[:0:-1]:
        sin_phi = np.sin(phi)
        c_sin = c_sin + c * sin_phi
        # |c_n| <= a_n in floating point too, so the arcsin argument needs no clip
        phi = 0.5 * (phi + np.arcsin(c / a * sin_phi))
    s = 0.5 * sum((2.0**i) * c * c for i, (_, c) in reversed(list(enumerate(levels))))
    cn = np.cos(phi)
    out = np.sin(phi), cn, np.sqrt(complement * complement + k * k * cn * cn), u * s - c_sin
    flat = np.asarray(complement) < 1e-12
    if np.count_nonzero(flat):
        sn, sech = np.tanh(u), 1.0 / np.cosh(u)
        out = (np.where(flat, lim, f) for lim, f in zip((sn, sech, sech, u - sn), out))
    return tuple(out)


@dataclass(frozen=True)
class WaveProfile:
    """Closed-form stationary wave phi(x) = a sn(h x, m) and its derivatives,
    elementwise over a family of waves when the fields are arrays."""

    amplitude: float | np.ndarray
    modulus: float | np.ndarray
    complement: float | np.ndarray
    scale: float | np.ndarray
    params: Params

    @property
    def period(self):
        """p = 4 K(m)/h, K = pi/(2 a) at the last level of the modulus' ladder."""
        p = 4.0 * (math.pi / (2.0 * _ladder(self.modulus, self.complement)[-1][0])) / self.scale
        return float(p) if np.ndim(p) == 0 else p

    def with_derivatives(self, x):
        """Return (phi, phi_x, phi_xx) sampled at x, all in closed form.

        phi_x = a h cn dn and, via the stationary relation
        kappa phi_xx = F'(phi), phi_xx needs no further elliptic identities.
        """
        x = np.asarray(x, dtype=float)
        sn, cn, dn = sn_cn_dn(x * self.scale, self.modulus, complement=self.complement)
        phi = self.amplitude * sn
        phi_x = self.amplitude * self.scale * cn * dn
        phi_xx = self.params.df(phi) / self.params.kappa
        return phi, phi_x, phi_xx

    def potential_integral(self, x):
        """int_0^x F(phi) in closed form, elementwise.

        With u = h x: int_0^u sn^2 = (u - E(am u, k))/k^2, u - E from
        _landen_fold, and 3 k^2 int_0^u sn^4 = 2 (1 + k^2) int_0^u sn^2 - u
        + sn cn dn(u); below k = 1e-12, the integrals of sin^2 and sin^4.
        """
        u, k = x * self.scale, np.asarray(self.modulus)
        small = k < 1e-12
        k_safe = np.where(small, 1.0, k)[()]  # the small elements take the sin limits below
        sn, cn, dn, deficit = _landen_fold(u, k, self.complement)
        s2 = deficit / (k_safe * k_safe)
        s4 = (2.0 * (1.0 + k_safe * k_safe) * s2 - u + sn * cn * dn) / (3.0 * k_safe * k_safe)
        if np.count_nonzero(small):
            s2 = np.where(small, 0.5 * u - 0.25 * np.sin(2.0 * u), s2)
            s4 = np.where(small, 0.375 * u - 0.25 * np.sin(2.0 * u) + np.sin(4.0 * u) / 32.0, s4)
        a2 = self.amplitude * self.amplitude
        b2 = self.params.beta / self.params.alpha
        return self.params.alpha / (4.0 * self.scale) * (a2 * a2 * s4 - 2.0 * a2 * b2 * s2 + b2 * b2 * u)


def periodic_wave(a, params: Params) -> WaveProfile:
    """Stationary wave of amplitude a in (0, binodal), elementwise in a."""
    a = np.asarray(a, dtype=float)
    bad = ~((0.0 < a) & (a < params.binodal))
    if np.count_nonzero(bad):
        raise ValueError(f"amplitude must lie in (0, {params.binodal}), got {a[bad][0]}")
    al = params.alpha
    denom = 2.0 * params.beta - al * a * a
    m2 = al * a * a / denom
    mc2 = 2.0 * al * (params.binodal - a) * (params.binodal + a) / denom  # cancellation-safe
    scale = np.sqrt(denom / (2.0 * params.kappa))
    # floats for one wave, arrays of a's shape for a family
    fields = [float(f) if a.ndim == 0 else f for f in (a, np.sqrt(m2), np.sqrt(mc2), scale)]
    return WaveProfile(*fields, params=params)


def period_of_amplitude(a, params: Params):
    """Wave period p(a) = 4 K(m(a)) / h(a), elementwise; increasing in a."""
    return periodic_wave(a, params).period


def amplitude_of_period(p, params: Params):
    """Invert p(a) by bisection, all elements of p at once.

    The bisection runs in the variable t with a = binodal (1 - exp(-t)),
    which keeps resolution uniform both at small amplitude and in the
    near-binodal tail where p depends on 1 - a/binodal logarithmically.
    Each element keeps its own bracket and stops at its own tolerance.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(p > params.p_min):
        raise ValueError(f"period must exceed p_min = {params.p_min}, "
                         f"got {p[~(p > params.p_min)][0]}")
    binodal = params.binodal
    target = p.ravel()

    def period_at(t):
        return period_of_amplitude(binodal * (-np.expm1(-t)), params)

    # Beyond t ~ 36 the amplitude rounds to the binodal in double precision.
    t_lo, t_hi = np.full(target.shape, 1e-12), np.ones(target.shape)
    short = period_at(t_hi) < target
    while np.count_nonzero(short):
        if np.any(short & (t_hi == 36.0)):
            raise ValueError(f"period {target[short].max()} is beyond double-precision "
                             "amplitude resolution")
        np.copyto(t_hi, np.minimum(2.0 * t_hi, 36.0), where=short)
        short &= period_at(t_hi) < target
    live = np.ones(target.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        below = period_at(mid) < target
        np.copyto(t_lo, mid, where=live & below)
        np.copyto(t_hi, mid, where=live & ~below)
        live &= t_hi - t_lo > _AMPLITUDE_RTOL * t_hi
        if not np.count_nonzero(live):
            break
    a = (binodal * (-np.expm1(-0.5 * (t_lo + t_hi)))).reshape(p.shape)
    return float(a) if a.ndim == 0 else a
