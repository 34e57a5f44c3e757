"""Reference values computed apart from bchsim, for the output checks.

Stationary waves of the Cahn-Hilliard equation with F(u) = (u^2 - 1)^2 / 4
(alpha = beta = 1) on the window [-L, L), L = 1:

    phi(x) = a sn(h x | m),   h = sqrt((2 - a^2) / (2 kappa)),
    m = a^2 / (2 - a^2),      period p = 4 K(m) / h.

sn, cn, dn and K come from scipy.special; energies are adaptive quadratures
of the density F(phi) + (kappa/2) phi_x^2 with phi_x = a h cn dn taken in
closed form.  bchsim uses its own AGM/Landen elliptic functions, the first
integral and a fixed Simpson rule, so agreement is a check of both.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipj, ellipkm1

HALF_LENGTH = 1.0


def potential(u):
    return 0.25 * (np.asarray(u) ** 2 - 1.0) ** 2


def _wave_constants(t: float, kappa: float) -> tuple[float, float, float, float]:
    """(a, h, m, period) of the wave with amplitude a = 1 - exp(-t).

    Parameterising by t keeps 1 - a exact near the binodal, where the
    complementary parameter 1 - m would otherwise cancel.
    """
    gap = math.exp(-t)
    a = 1.0 - gap
    denom = 2.0 - a * a
    m = a * a / denom
    mc = 2.0 * gap * (2.0 - gap) / denom
    h = math.sqrt(denom / (2.0 * kappa))
    return a, h, m, 4.0 * float(ellipkm1(mc)) / h


def period_of_amplitude(a: float, kappa: float) -> float:
    return _wave_constants(-math.log1p(-a), kappa)[3]


def _t_of_period(p: float, kappa: float) -> float:
    return brentq(lambda t: _wave_constants(t, kappa)[3] - p, 1e-12, 36.0,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)


def amplitude_of_period(p: float, kappa: float) -> float:
    return -math.expm1(-_t_of_period(p, kappa))


def wave_profile(a: float, kappa: float, x: np.ndarray) -> np.ndarray:
    _, h, m, _ = _wave_constants(-math.log1p(-a), kappa)
    return a * ellipj(h * np.asarray(x, dtype=float), m)[0]


def _window_energy_t(t: float, kappa: float) -> float:
    a, h, m, p = _wave_constants(t, kappa)

    def density(x: float) -> float:
        sn, cn, dn, _ = ellipj(h * x, m)
        phi_x = a * h * cn * dn
        return float(potential(a * sn)) + 0.5 * kappa * phi_x * phi_x

    # The density is even in x, peaks at the zero crossings (multiples of
    # p/2) and is flat at the extrema (odd multiples of p/4): split there.
    edges = list(np.arange(0.0, HALF_LENGTH, 0.25 * p)) + [HALF_LENGTH]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo > 0.0:
            total += quad(density, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return 2.0 * total


def window_energy(a: float, kappa: float) -> float:
    """Free energy on [-L, L) of the amplitude-a wave with phi(0) = 0."""
    return _window_energy_t(-math.log1p(-a), kappa)


def energy_of_period(p: float, kappa: float) -> float:
    """E(p): the window energy of the period-p wave."""
    if abs(p - 2.0 * math.pi * math.sqrt(kappa)) <= 1e-14 * p:
        return 0.5 * HALF_LENGTH  # the zero state, 2 L F(0), at p_min
    return _window_energy_t(_t_of_period(p, kappa), kappa)


def spinodal_period(kappa: float) -> float:
    return 2.0 * math.pi * math.sqrt(2.0 * kappa)


def langer_period(t: np.ndarray, kappa: float, p0: float, t0: float) -> np.ndarray:
    """p(t) = p0 + ell ln(1 + r (t - t0) exp(-p0 / ell)), ell = sqrt(2 kappa),
    r = 16 / kappa (beta = 1)."""
    ell = math.sqrt(2.0 * kappa)
    return p0 + ell * np.log1p(16.0 / kappa * (np.asarray(t) - t0) * math.exp(-p0 / ell))


def free_energy(phi: np.ndarray, kappa: float) -> float:
    """E = int F(phi) + (kappa/2) phi_x^2 on the periodic grid: phi_x by a
    real FFT, the integral by the rectangle rule (exact for trigonometric
    polynomials of the resolved band)."""
    n = phi.size
    dx = 2.0 * HALF_LENGTH / n
    k = 2.0 * math.pi * np.fft.rfftfreq(n, d=dx)
    hat = np.fft.rfft(phi) * (1j * k)
    hat[-1] = 0.0  # Nyquist mode: an odd derivative of a real field drops it
    phi_x = np.fft.irfft(hat, n)
    return float(dx * np.sum(potential(phi) + 0.5 * kappa * phi_x * phi_x))
