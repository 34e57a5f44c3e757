"""Floquet spectrum of the linearized interface dynamics about a periodic wave.

Perturbations psi of the wave phi(.; a) obey the fourth-order problem

    (-kappa psi'' + b(x) psi)'' = lambda psi,      b = F''(phi),

written as the first-order system y' = A(x; lambda) y with

    A = [[0, 1, 0, 0],
         [0, 0, 1, 0],
         [0, 0, 0, 1],
         [(b'' - lambda)/kappa, 2 b'/kappa, b/kappa, 0]].

A is traceless, so the monodromy M(lambda) over one period has unit
determinant.  lambda belongs to the spectrum exactly when M carries a
Floquet multiplier on the unit circle, i.e. when the Evans determinant
det(M - z I) vanishes for some |z| = 1; monodromy and evans compute both.

The leading (largest real) spectrum point is found instead by Hill's method
(Deconinck & Kutz, J. Comput. Phys. 219, 2006; convergence: Johnson &
Zumbrun, SIAM J. Numer. Anal. 50, 2012): on the Bloch-Fourier modes of the
wave, each Bloch exponent gives a small real symmetric pencil whose lowest
eigenvalue is -lambda, and leading_eigenvalue maximises lambda over the
exponent.  It is elementwise in the amplitude: a family of waves is
sampled once per grid size, and each wave's search is seeded from the
waves before it, in the order given (continuation; Allgower & Georg,
Introduction to Numerical Continuation Methods, SIAM 2003).  Each wave's
first solve still takes a shift below the pencil's spectrum, so the
seeding speeds the search up but does not choose the spectrum point it
finds.

For the monodromy, b, b' and b'' come from the closed-form wave, so no
numerical differentiation enters the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .series import TimeSeries
from .waves import Params, WaveProfile, period_of_amplitude, periodic_wave

__all__ = [
    "Monodromy",
    "monodromy",
    "evans",
    "leading_eigenvalue",
    "EigTable",
    "default_amplitudes",
    "build_eig_table",
    "rescale_table",
]

# step limit of each leading_eigenvalue loop
_STEPS = 50


@dataclass(frozen=True)
class Monodromy:
    """Period map of the linearized system at spectral parameter lam."""

    matrix: np.ndarray
    period: float

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """prod_{i = n-1..0} mats[i] by pairwise reduction."""
    while mats.shape[0] > 1:
        m = mats.shape[0] // 2
        head = np.matmul(mats[1 : 2 * m : 2], mats[0 : 2 * m : 2])
        if mats.shape[0] % 2:
            mats = np.concatenate([head, mats[-1:]])
        else:
            mats = head
    return mats[0]


def monodromy(lam: float, a: float, params: Params, rk_steps: int = 2048) -> Monodromy:
    """Transfer matrix over one wave period at spectral parameter lam, by classical RK4.

    The step matrices of all rk_steps fixed steps are built in one vectorized
    batch and multiplied by a pairwise ordered product, whose rounding keeps
    det M closer to 1 than a step-by-step product's: at 4096 steps, over
    a <= 0.9 of the binodal and 0 <= lam <= 1.2 lambda_top, the worst
    |det M - 1| is 1.2e-9 against 2.2e-8.
    """
    if rk_steps < 256:
        raise ValueError(f"rk_steps must be at least 256, got {rk_steps}")
    wave = periodic_wave(a, params)
    h = wave.period / rk_steps
    phi, phi_x, phi_xx = wave.with_derivatives(0.5 * h * np.arange(2 * rk_steps + 1))
    b = 3.0 * params.alpha * phi**2 - params.beta
    bp = 6.0 * params.alpha * phi * phi_x
    bpp = 6.0 * params.alpha * (phi_x**2 + phi * phi_xx)
    amat = np.zeros((phi.size, 4, 4))
    amat[:, [0, 1, 2], [1, 2, 3]] = 1.0
    amat[:, 3, :3] = np.stack([bpp - lam, 2.0 * bp, b], axis=-1) / params.kappa
    # A at the start, middle and end of each step
    a1, a2, a4 = amat[0:-1:2], amat[1::2], amat[2::2]
    eye = np.eye(4)
    k2 = a2 @ (eye + 0.5 * h * a1)
    k3 = a2 @ (eye + 0.5 * h * k2)
    k4 = a4 @ (eye + h * k3)
    steps = eye + (h / 6.0) * (a1 + 2.0 * (k2 + k3) + k4)
    return Monodromy(matrix=_ordered_product(steps), period=wave.period)


def evans(mono: Monodromy, xi: float) -> complex:
    """Evans determinant D(lam, xi) = det(M(lam) - e^{i xi p} I) of the monodromy M(lam)."""
    z = np.exp(1j * xi * mono.period)
    return complex(np.linalg.det(mono.matrix - z * np.eye(4)))


def _rows_of(family: WaveProfile, rows: np.ndarray) -> WaveProfile:
    """The family's waves at rows, on the family's own AGM ladder.

    The ladder is elementwise, and the levels past a row's own depth carry
    c = 0, which only halve the Landen angle, exactly; so the rows sample
    bit for bit as on ladders of their own, and none is built.
    """
    part = replace(family, amplitude=family.amplitude[rows], modulus=family.modulus[rows],
                   complement=family.complement[rows], scale=family.scale[rows])
    vars(part)["_levels"] = [(a[rows], c[rows]) for a, c in family._levels]
    return part


def leading_eigenvalue(a, params: Params):
    """Largest real spectrum point of the linearization about each a-wave, by Hill's method.

    Elementwise in a, like periodic_wave: a float gives a float and an
    array an array of its shape.  b = F''(phi) is even and has period p/2,
    so a Bloch mode exp(i mu x) times a p/2-periodic function has Fourier
    components u_j on q_j = 4 pi j/p + mu, |j| <= n = ceil(3 p/l) with
    l = sqrt(2 kappa/beta), the kink width.  On them the problem is the real
    symmetric pencil H u = s W u, lambda = -s, with H = kappa Q + B,
    Q = diag q_j^2, W = Q^{-1} and B the Toeplitz matrix of b's cosine
    coefficients, taken from an rfft of b on a power-of-two grid of at least
    8 n + 8 points over [0, p/2).  The waves that share a grid size are
    sampled in one call, all on the one AGM ladder of the family.

    At each mu, Rayleigh-quotient iteration on the pencil finds the smallest
    s.  Each solve x = (H - s W)^{-1} W u gives the next shift directly,
    s + x.Wu / x.Wx, the Rayleigh quotient of x.  An iteration ends once its
    shift moves by less than 1e-6 relative; the convergence is cubic, so the
    last Rayleigh quotient is exact to rounding, and where rounding hides
    the eigenvalue it never ends.  lambda(mu) = lambda(4 pi/p - mu), so mu
    ranges over (0, 2 pi/p]; a secant on d lambda/d mu, taken by
    Hellmann-Feynman, finds the maximum.  It keeps the bracket of the
    maximum that the signs of the derivative give, takes the bracket's
    midpoint wherever the secant would leave it, and stops once a secant
    step or the bracket is below 1e-7 in mu p/pi.  Either loop raises
    RuntimeError after 50 steps without converging.

    The elements are solved in the order given, each seeded from the ones
    before it:
    - mu p/pi starts at the linear extrapolation of the two previous optima,
      kept within [t/2, 2] for t the last of them; the first element starts
      at sqrt 2, the small-amplitude sideband, and the second at the first's
      optimum;
    - the vector starts as the previous element's, zero-padded or cut to
      this element's 2 n + 1 modes; the first starts as the j = 0 mode;
    - the secant's first step is a Newton step on the previous element's
      last secant slope where that slope is negative, else 0.05 up or down.
      That slope may belong to a far different wave, so the first step never
      meets the stop rule.
    Each element's first solve takes the shift -lambda_top.  Every spectrum
    point lies at or below lambda_top, so that solve is inverse iteration
    below the pencil's spectrum, which favours the leading point, and the
    Rayleigh quotients that follow converge to it.  So the order of the
    elements changes the work, not the result.  Each later mu starts from
    the vector and shift of the one before.
    """
    amps = np.asarray(a, dtype=float)
    # one wave per row, so that a (rows, m) grid of samples broadcasts against it
    family = periodic_wave(amps.reshape(-1, 1), params)
    periods = family.period[:, 0]
    kappa, width = params.kappa, math.sqrt(2.0 * params.kappa / params.beta)
    modes = [math.ceil(3.0 * p / width) for p in periods.tolist()]
    sizes = np.array([1 << (8 * n + 7).bit_length() for n in modes])
    cosines = [None] * len(modes)
    for m in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == m)
        x = (0.5 * periods[rows] / m)[:, None] * np.arange(m)
        phi = _rows_of(family, rows).with_derivatives(x)[0]
        b = 3.0 * params.alpha * phi**2 - params.beta
        for r, c in zip(rows.tolist(), np.fft.rfft(b).real / m):
            cosines[r] = c

    def solve_at(t, u, s):
        """Vector, s and d lambda/dt of the leading Bloch mode at mu = t pi/p, on the
        pencil of the element the loop below is at."""
        q = (4.0 * j + t) * (math.pi / p)
        w, stiff = 1.0 / (q * q), kappa * q * q
        for _ in range(_STEPS):
            shifted = toeplitz.copy()
            shifted.ravel()[::j.size + 1] += stiff - s * w  # the diagonal, in place
            wu = w * u
            x = np.linalg.solve(shifted, wu)
            last, s = s, s + (x @ wu) / (x @ (w * x))
            u = x / math.sqrt(x @ x)
            if abs(s - last) < 1e-6 * abs(s):
                return u, s, -(u * u) @ (2.0 * kappa * q + 2.0 * s * w / q) / (u @ (w * u)) * (math.pi / p)
        raise RuntimeError(f"Rayleigh-quotient iteration did not converge for a={amp} at mu p/pi={t}")

    out = np.empty(len(modes))
    optima, u, slope = [], np.ones(1), 0.0
    for r, (amp, p, n) in enumerate(zip(amps.ravel().tolist(), periods.tolist(), modes)):
        j = np.arange(-n, n + 1)
        toeplitz = cosines[r][np.abs(j[:, None] - j)]
        # the previous vector, zero-padded or cut to this element's modes
        half = u.size // 2
        k, seed = min(n, half), np.zeros(j.size)
        seed[n - k:n + k + 1] = u[half - k:half + k + 1]
        t = optima[-1] if optima else math.sqrt(2.0)
        if len(optima) > 1:
            t = min(max(2.0 * t - optima[-2], 0.5 * t), 2.0)
        u, s, g = solve_at(t, seed, -params.lambda_top)
        lo, hi, t_last, g_last = 0.0, 2.0, None, None
        for _ in range(_STEPS):
            if g > 0.0:
                lo = t
            else:
                hi = t
            if t_last is None:
                step = -g / slope if slope < 0.0 else math.copysign(0.05, g)
            elif (g - g_last) * (t - t_last) < 0.0:
                slope = (g - g_last) / (t - t_last)
                step = -g / slope
            else:
                step = math.inf
            # the first step rests on another element's slope, so it never ends the search
            if t_last is not None and min(abs(step), hi - lo) <= 1e-7:
                break
            t_last, g_last = t, g
            t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
            u, s, g = solve_at(t, u, s)
        else:
            raise RuntimeError(f"no maximum over the Bloch exponent found for a={amp}")
        out[r] = -s
        optima.append(t)
    return float(out[0]) if amps.ndim == 0 else out.reshape(amps.shape)


@dataclass
class EigTable:
    """Leading eigenvalue along the amplitude family at one kappa."""

    amplitudes: np.ndarray
    periods: np.ndarray
    lambda_max: np.ndarray
    params: Params

    def lambda_of_period(self, p) -> np.ndarray:
        """Monotone interpolant p -> lambda_max, held at the end values beyond the table."""
        out = np.interp(p, self.periods, self.lambda_max)
        return float(out) if out.ndim == 0 else out

    def to_csv(self, path) -> None:
        TimeSeries(amplitude=self.amplitudes, period=self.periods, lambda_max=self.lambda_max,
                   kappa=np.full(self.amplitudes.size, self.params.kappa)).to_csv(path)

    @classmethod
    def from_csv(cls, path, params: Params) -> "EigTable":
        data = TimeSeries.from_csv(path)
        if data.names != ("amplitude", "period", "lambda_max", "kappa") or not len(data):
            raise ValueError(f"{path}: expected amplitude,period,lambda_max,kappa rows")
        if not all(np.all(np.isfinite(data[name])) for name in data.names):
            raise ValueError(f"{path}: the table holds non-finite values")
        if np.any(np.diff(data["period"]) <= 0.0):
            raise ValueError(f"{path}: periods must strictly increase")
        if np.any(data["lambda_max"] <= 0.0):
            raise ValueError(f"{path}: lambda_max must be positive")
        off = data["kappa"][np.abs(data["kappa"] - params.kappa) > 1e-15 * data["kappa"]]
        if off.size:
            raise ValueError(f"table kappa {off[0]} does not match params kappa {params.kappa}")
        return cls(amplitudes=data["amplitude"], periods=data["period"],
                   lambda_max=data["lambda_max"], params=params)


def _default_p_max(params: Params) -> float:
    """The default tables' reach, 44 sqrt(kappa/(2 beta)) = 22 l, l = sqrt(2 kappa/beta).

    leading_eigenvalue resolves periods to about 26 l; the reach stays where
    it is so that every table keeps its amplitudes.
    """
    return 44.0 * math.sqrt(params.kappa / (2.0 * params.beta))


def default_amplitudes(params: Params, da: float = 0.01) -> np.ndarray:
    """Uniform amplitude grid plus a log-graded tail reaching period _default_p_max."""
    if not 0.0 < da < 1.0:
        raise ValueError(f"da must lie in (0, 1), got {da}")
    binodal = params.binodal
    amps = np.arange(da, 1.0, da) * binodal
    # Python's float power: numpy's differs from it in the last bit on some m
    tail = np.array([binodal * (1.0 - 10.0 ** (-m)) for m in np.arange(2.25, 15.1, 0.25).tolist()])
    tail = tail[tail > amps[-1]]
    reach = np.flatnonzero(period_of_amplitude(tail, params) >= _default_p_max(params))
    return np.concatenate((amps, tail[: reach[0] + 1] if reach.size else tail))


def build_eig_table(params: Params, amplitudes: np.ndarray | None = None) -> EigTable:
    """Tabulate the leading eigenvalue in one leading_eigenvalue pass over the amplitudes."""
    if amplitudes is None:
        amplitudes = default_amplitudes(params)
    amplitudes = np.asarray(amplitudes, dtype=float)
    return EigTable(amplitudes=amplitudes, periods=period_of_amplitude(amplitudes, params),
                    lambda_max=leading_eigenvalue(amplitudes, params), params=params)


def rescale_table(table: EigTable, kappa_new: float) -> EigTable:
    """Exact kappa-rescaling: lambda scales as 1/kappa, periods as sqrt(kappa).

    Valid because the eigenvalue problem at equal amplitude maps onto itself
    under x -> x / sqrt(kappa) with the potential parameters unchanged.
    """
    if kappa_new <= 0:
        raise ValueError("kappa_new must be positive")
    kappa = table.params.kappa
    return EigTable(
        amplitudes=table.amplitudes.copy(),
        periods=table.periods * math.sqrt(kappa_new / kappa),
        lambda_max=table.lambda_max * (kappa / kappa_new),
        params=replace(table.params, kappa=kappa_new),
    )
