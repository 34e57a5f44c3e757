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
det(M - z I) vanishes for some |z| = 1.  The leading (largest real)
spectrum point is bracketed by that membership test below a hint, which
amplitude continuation supplies when tabulating.  The bracket is closed by
a secant on a discriminant that changes sign where two unit-circle
multipliers collide and leave the circle, with a midpoint step wherever
that secant cannot be trusted (see leading_eigenvalue).

b, b' and b'' come from the closed-form wave, so no numerical
differentiation enters the coefficients.  A(x; lambda) = A0(x) + lambda F
with F = -(1/kappa) e3 e0^T.  F A0^j F vanishes for j <= 2, so each
classical fixed-step RK4 transfer matrix, a product of at most four A, is
exactly linear in lambda.  Its two coefficient matrices are built once per
wave, for all steps in one vectorized batch; each lambda then costs one
multiply-add of that stack and a pairwise ordered product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .parallel import parallel_map
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

_UNIT_CIRCLE_TOL = 1e-5
# _step_polynomial builds this many steps at a time: a stage of a block is
# 64 KiB, below malloc's 128 KiB mmap threshold, so rows reuse the heap's pages
_BLOCK = 256
# relative width at which the leading-eigenvalue bracket is closed
_RTOL = 1e-6
# RK4 steps of the half-period map in the membership test: 2048 per period
_HALF_STEPS = 1024


@dataclass(frozen=True)
class Monodromy:
    """Period map of the linearized system at spectral parameter lam."""

    matrix: np.ndarray
    period: float

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))


def _coefficients(wave: WaveProfile, x: np.ndarray, params: Params):
    phi, phi_x, phi_xx = wave.with_derivatives(x)
    b = 3.0 * params.alpha * phi**2 - params.beta
    bp = 6.0 * params.alpha * phi * phi_x
    bpp = 6.0 * params.alpha * (phi_x**2 + phi * phi_xx)
    return b, bp, bpp


def _step_polynomial(wave: WaveProfile, params: Params, rk_steps: int, x_end: float) -> np.ndarray:
    """RK4 one-step transfer matrices over [0, x_end], which are linear in lambda.

    Returns C of shape (2, rk_steps, 4, 4): step i's propagator at lambda is
    C[0, i] + lambda C[1, i].  A(x; lambda) = A0(x) + lambda F, and every RK4
    stage multiplies by A once more.  A stage is a stack of coefficient
    matrices; A0 M shifts the rows of M up and puts the coefficient row r(x) M
    in row 3, and F M puts -M[0] / kappa there.  A lambda^2 term would need
    F A0^j F with j <= 2, which is zero because the (0, 3) entry of a product
    of at most two A0 is; so row 0 of every stage's linear coefficient is zero,
    and F adds nothing to it.  The stages of a block of steps are held as
    (degree, 4, 4, steps), so every row operation is one pass over long
    vectors; each block is then transposed into the layout _transfer uses.
    """
    h = x_end / rk_steps
    x = 0.5 * h * np.arange(2 * rk_steps + 1)
    b, bp, bpp = _coefficients(wave, x, params)
    inv_kappa = 1.0 / params.kappa
    rows = np.stack([bpp * inv_kappa, 2.0 * bp * inv_kappa, b * inv_kappa])
    eye = np.eye(4)[:, :, None]

    def times_a(r: np.ndarray, m: np.ndarray) -> np.ndarray:
        out = np.zeros((2,) + m.shape[1:])
        out[: len(m), :3] = m[:, 1:]
        out[: len(m), 3] = r[0] * m[:, 0] + r[1] * m[:, 1] + r[2] * m[:, 2]
        out[1, 3] -= inv_kappa * m[0, 0]
        return out

    def eye_plus(m: np.ndarray, c: float) -> np.ndarray:
        """I + c m, in place."""
        m *= c
        m[0] += eye
        return m

    # each stage is summed into poly as soon as it is made and then scaled
    # in place into the next stage's argument, so little is alive at a time
    out = np.empty((2, rk_steps, 4, 4))
    for s in range(0, rk_steps, _BLOCK):
        e = min(s + _BLOCK, rk_steps)
        block = rows[:, 2 * s:2 * e + 1]
        r1, r2, r4 = block[:, 0:-1:2], block[:, 1::2], block[:, 2::2]
        k = times_a(r1, np.broadcast_to(eye, (1, 4, 4, e - s)))
        poly = k.copy()
        k = times_a(r2, eye_plus(k, 0.5 * h))
        poly += 2.0 * k
        k = times_a(r2, eye_plus(k, 0.5 * h))
        poly += 2.0 * k
        k = times_a(r4, eye_plus(k, h))
        poly += k
        out[:, s:e] = eye_plus(poly, h / 6.0).transpose(0, 3, 1, 2)
    return out


def _transfer(poly: np.ndarray, lam: float) -> np.ndarray:
    """Ordered product of the step propagators poly[0] + lam poly[1].

    The stack is formed in place, in one 128 KiB temporary at 1024 steps: with
    a second one, most membership tests faulted in fresh pages.
    """
    mats = poly[1] * lam
    mats += poly[0]
    return _ordered_product(mats)


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
    """Transfer matrix over one wave period at spectral parameter lam."""
    if rk_steps < 256:
        raise ValueError(f"rk_steps must be at least 256, got {rk_steps}")
    wave = periodic_wave(a, params)
    mat = _transfer(_step_polynomial(wave, params, rk_steps, wave.period), lam)
    return Monodromy(matrix=mat.astype(complex), period=wave.period)


def evans(
    lam: float,
    xi: float,
    a: float,
    params: Params,
    mono: Monodromy | None = None,
) -> complex:
    """Evans determinant D(lam, xi) = det(M(lam) - e^{i xi p} I)."""
    if mono is None:
        mono = monodromy(lam, a, params)
    z = np.exp(1j * xi * mono.period)
    return complex(np.linalg.det(mono.matrix - z * np.eye(4)))


def _reciprocal_pair(matrix: np.ndarray) -> tuple[tuple[float, float] | None, float]:
    """Roots of w^2 - c1 w + (c2 - 2) where multipliers pair as {z, 1/z}.

    The system is Hamiltonian, so the characteristic polynomial of any
    transfer matrix is self-reciprocal and w = z + 1/z reduces it to a real
    quadratic with c1 = tr M and c2 the sum of principal 2x2 minors.  A
    multiplier sits on the unit circle exactly when a real root has
    |w| <= 2.  Working with the invariants instead of eigvals keeps the
    near-circle multipliers accurate even when the hyperbolic interface
    multiplier dwarfs them: the error is about eps times that multiplier,
    while a direct eigensolve loses them entirely.

    Returns the roots, or None when both are complex (all multipliers off
    the circle), together with the discriminant disc = c1^2 - 4 (c2 - 2).
    disc falls through zero where two multipliers on the circle collide and
    leave it.
    """
    c1 = float(np.trace(matrix).real)
    c2 = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            c2 += float((matrix[i, i] * matrix[j, j] - matrix[i, j] * matrix[j, i]).real)
    disc = c1 * c1 - 4.0 * (c2 - 2.0)
    if disc < 0.0:
        return None, disc
    root = math.sqrt(disc)
    w_big = 0.5 * (c1 + math.copysign(root, c1))
    if w_big == 0.0:
        w_small = math.sqrt(max(2.0 - c2, 0.0))
        return (-w_small, w_small), disc
    return (w_big, (c2 - 2.0) / w_big), disc


def _in_spectrum(half_poly: np.ndarray, lam: float) -> tuple[bool, float]:
    """Unit-circle membership of lam through the half-period map.

    b = F''(phi) depends on phi only through phi^2, and phi(x + p/2) = -phi(x),
    so b, b', b'' all have period p/2 and the full monodromy is the square of
    the half map.  The half map's multipliers are square roots of the full
    ones, so membership transfers verbatim; its norm is the square root of
    the full one, which roughly doubles the period range over which
    unit-circle multipliers stay resolvable.

    Returns (inside, disc of _reciprocal_pair), inside when a real root has
    |w| <= 2 + _UNIT_CIRCLE_TOL.
    """
    ws, disc = _reciprocal_pair(_transfer(half_poly, lam))
    inside = ws is not None and any(abs(w) <= 2.0 + _UNIT_CIRCLE_TOL for w in ws)
    return inside, disc


def leading_eigenvalue(a: float, params: Params, bracket_hint: float | None = None) -> float:
    """Largest real spectrum point of the linearization about the a-wave.

    Membership of lam in the spectrum is tested through the Floquet
    multipliers of M(lam): lam is inside iff a multiplier sits on the unit
    circle, the same set as the zeros of the Evans determinant in exact
    arithmetic but much better conditioned to evaluate.  The search keeps a
    bracket of an inside point (found by halving downward from the hint)
    and an outside point just above the hint; only membership verdicts move
    it, and it ends when the bracket is narrower than _RTOL, returning its
    midpoint.  The spectrum ends where two multipliers collide on the unit
    circle and leave it, so the discriminant disc of _reciprocal_pair
    changes sign there, nearly linearly in lam.  Each probe is therefore the
    secant root of disc through the last two probes, clamped to the bracket
    and placed past that root toward the farther bracket end: by a quarter
    of the root's last move while it still moves by more than ten target
    widths, then by a quarter of the target width, so the bracket closes
    from both sides.  The midpoint is probed instead when disc does not
    change sign across the bracket (an edge where |w| passes 2, or rounding
    noise) and when the bracket has fallen behind bisection's pace, which
    bounds the search by two probes more than bisection.  The half-period
    transfer polynomial, on _HALF_STEPS = 1024 RK4 steps (2048 per period),
    is built once, and every membership test evaluates it.
    """
    hint = params.lambda_top if bracket_hint is None else float(bracket_hint)
    if hint <= 0:
        raise ValueError("bracket hint must be positive")
    wave = periodic_wave(a, params)
    half = _step_polynomial(wave, params, _HALF_STEPS, 0.5 * wave.period)
    probes = []  # (lam, disc) of every membership test, in order

    def probe(lam: float) -> tuple[bool, float]:
        inside, disc = _in_spectrum(half, lam)
        probes.append((lam, disc))
        return inside, disc

    hi = hint * 1.05
    for _ in range(60):
        inside, d_hi = probe(hi)
        if not inside:
            break
        hi *= 1.3
    else:
        raise RuntimeError(f"no upper spectral edge found above {hint} for a={a}")

    lo = min(hint, hi / 1.05)
    for _ in range(60):
        inside, d_lo = probe(lo)
        if inside:
            break
        lo *= 0.5
    else:
        raise RuntimeError(f"no spectrum found below {hint} for a={a} after 60 halvings")

    # The secant may probe only while the bracket is no wider than bisection's
    # was one probe earlier.  A probe that gains nothing then leaves it at
    # most two probes behind bisection, and a midpoint keeps that standing,
    # so the search never takes more than two probes beyond bisection.
    budget = 2.0 * (hi - lo)
    root = None
    while hi - lo > _RTOL * hi:
        width, target = hi - lo, _RTOL * hi
        (x0, d0), (x1, d1) = probes[-2:]
        if d_lo > 0.0 > d_hi and d0 != d1 and width <= budget:
            last, root = root, min(max(x1 - d1 * (x1 - x0) / (d1 - d0), lo), hi)
            move = 0.0 if last is None else abs(root - last)
            past = 0.25 * (move if move > 10.0 * target else target)
            lam = root + (past if hi - root > root - lo else -past)
            lam = min(max(lam, lo + 0.25 * target), hi - 0.25 * target)
        else:
            lam = 0.5 * (lo + hi)
        inside, disc = probe(lam)
        if inside:
            lo, d_lo = lam, disc
        else:
            hi, d_hi = lam, disc
        budget *= 0.5
    return 0.5 * (lo + hi)


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
    """Longest period the membership test resolves in double precision.

    The interface transfer grows like exp(sqrt(2 beta/kappa) p/2); the
    invariant-based circle test keeps about eps times that as absolute
    noise, which crosses the membership tolerance near p = 49 sqrt(kappa /
    (2 beta)).  Stay a little inside.
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


def build_eig_table(params: Params, amplitudes: np.ndarray | None = None,
                    workers: int = 1) -> EigTable:
    """Tabulate the leading eigenvalue with amplitude continuation.

    A sequential coarse pass (every fourth amplitude, and the last) chains
    bracket hints, each 1.1 times the previous coarse value.  Every other
    amplitude takes 1.1 times the value of the nearest coarse row to its
    left as its hint, so those searches are independent and can run in
    parallel, each on a half-period map of _HALF_STEPS = 1024 RK4 steps.
    """
    if amplitudes is None:
        amplitudes = default_amplitudes(params)
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = amplitudes.size
    values = np.full(n, np.nan)
    periods = period_of_amplitude(amplitudes, params)

    coarse = list(range(0, n, 4))
    if coarse[-1] != n - 1:
        coarse.append(n - 1)
    hint = params.lambda_top
    for i in coarse:
        values[i] = leading_eigenvalue(amplitudes[i], params, bracket_hint=hint)
        hint = values[i] * 1.1

    remaining = [i for i in range(n) if math.isnan(values[i])]

    def hint_for(i: int) -> float:
        j = max(k for k in coarse if k < i)
        return values[j] * 1.1

    jobs = [(i, params, amplitudes[i], hint_for(i)) for i in remaining]
    for i, v in parallel_map(_solve_entry, jobs, workers):
        values[i] = v

    return EigTable(amplitudes=amplitudes, periods=periods, lambda_max=values, params=params)


def _solve_entry(job):
    i, params, a, hint = job
    return i, leading_eigenvalue(a, params, bracket_hint=hint)


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
