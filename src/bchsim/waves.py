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
first kind in the modulus convention.  Elliptic quantities are computed by
the arithmetic-geometric mean and the descending Landen transformation; no
lookup tables and no library special functions are involved.
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


def _agm(b):
    """AGM(1, b) elementwise; each element stops at its own convergence."""
    b = np.array(b, dtype=float)
    a = np.ones_like(b)
    for _ in range(200):
        # a >= b > 0 (arithmetic over geometric mean), so a - b is |a - b|.
        live = a - b > 4.0 * _EPS * a
        if not np.count_nonzero(live):
            break
        a_next = 0.5 * (a + b)
        np.copyto(b, np.sqrt(a * b), where=live)
        np.copyto(a, a_next, where=live)
    return 0.5 * (a + b)


def sn_cn_dn(u, k: float, *, complement: float | None = None):
    """Jacobi sn, cn, dn at argument u (scalar or array) and modulus k.

    sn = sin phi_0, cn = cos phi_0 and dn = cos phi_0 / cos(phi_1 - phi_0)
    with phi_0, phi_1 from the descending Landen recursion (_landen_fold).
    """
    u = np.asarray(u, dtype=float)
    if complement is None:
        if not 0.0 <= k <= 1.0:
            raise ValueError(f"modulus must lie in [0, 1], got {k}")
        complement = math.sqrt((1.0 - k) * (1.0 + k))
    if complement < 1e-12:
        sn = np.tanh(u)
        cn = 1.0 / np.cosh(u)
        return sn, cn, cn.copy()
    if k < 1e-12:
        sn = np.sin(u)
        cn = np.cos(u)
        return sn, cn, np.ones_like(u)
    phi, phi_prev = _landen_fold(u, k, complement)
    cn = np.cos(phi)
    return np.sin(phi), cn, cn / np.cos(phi_prev - phi)


def _sn(u: np.ndarray, k: float, complement: float) -> np.ndarray:
    """sn alone, bit-identical to the sn of sn_cn_dn, for valid k and complement."""
    if complement < 1e-12:
        return np.tanh(u)
    if k < 1e-12:
        return np.sin(u)
    return np.sin(_landen_fold(u, k, complement)[0])


def _landen_fold(u: np.ndarray, k: float, complement: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi amplitude phi_0 = am(u, k) and the Landen angle phi_1 above it.

    Descending Landen recursion: run the AGM on (1, k'), set
    phi_N = 2^N a_N u, then fold back through
    phi_{n-1} = (phi_n + asin(c_n/a_n sin phi_n))/2.
    """
    a, b = 1.0, complement
    a_list, c_list = [1.0], [k]
    while len(a_list) < 64:
        an, bn = 0.5 * (a + b), math.sqrt(a * b)
        cn_ = 0.5 * (a - b)
        a_list.append(an)
        c_list.append(cn_)
        a, b = an, bn
        if cn_ <= 4.0 * _EPS * an:
            break
    n = len(a_list) - 1
    phi = (2.0**n) * a_list[n] * u
    phi_prev = phi
    for i in range(n, 0, -1):
        # |c_n| <= a_n in floating point too, so the arcsin argument needs no clip
        s = c_list[i] / a_list[i] * np.sin(phi)
        phi_prev = phi
        phi = 0.5 * (phi + np.arcsin(s))
    return phi, phi_prev


def _modulus(a, params: Params):
    """Squared modulus and complement for amplitude a, in cancellation-safe form."""
    al, be = params.alpha, params.beta
    denom = 2.0 * be - al * a * a
    m2 = al * a * a / denom
    mc2 = 2.0 * al * (params.binodal - a) * (params.binodal + a) / denom
    return m2, mc2


def _wave_scale(a, params: Params):
    return np.sqrt((2.0 * params.beta - params.alpha * a * a) / (2.0 * params.kappa))


@dataclass(frozen=True)
class WaveProfile:
    """Closed-form stationary wave phi(x) = a sn(h x, m) and its derivatives."""

    amplitude: float
    modulus: float
    complement: float
    scale: float
    params: Params

    @property
    def period(self) -> float:
        return period_of_amplitude(self.amplitude, self.params)

    def __call__(self, x):
        return self.amplitude * _sn(np.asarray(x, dtype=float) * self.scale, self.modulus, self.complement)

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


def periodic_wave(a: float, params: Params) -> WaveProfile:
    """Stationary wave of amplitude a in (0, binodal)."""
    if not 0.0 < a < params.binodal:
        raise ValueError(f"amplitude must lie in (0, {params.binodal}), got {a}")
    m2, mc2 = _modulus(a, params)
    return WaveProfile(
        amplitude=a,
        modulus=math.sqrt(m2),
        complement=math.sqrt(mc2),
        scale=float(_wave_scale(a, params)),
        params=params,
    )


def period_of_amplitude(a, params: Params):
    """Wave period p(a) = 4 K(m(a)) / h(a), elementwise; increasing in a."""
    a = np.asarray(a, dtype=float)
    if not np.all((0.0 < a) & (a < params.binodal)):
        raise ValueError(f"amplitude must lie in (0, {params.binodal}), got {a}")
    _, mc2 = _modulus(a, params)
    p = 4.0 * (math.pi / (2.0 * _agm(np.sqrt(mc2)))) / _wave_scale(a, params)
    return float(p) if p.ndim == 0 else p


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
