"""Initial data protocols.

Phase field: normal noise of standard deviation sigma = 0.1 at the grid
points projected onto the band spectrum (modes j < n/4), then (for run
setup) pre-evolution of the uncoupled equation down to the energy surface
0.99 E_max within tol = 1e-4, discarding and halving the step whenever it
lands below target - tol, each step Stepper.advance fed by Stepper.record.
sigma, the 0.99 target and tol are fixed constants.  Velocity: zero, the
unit-sup-norm compactly supported bump, or random low-mode Fourier data.
All draws come from one generator per run, phase first, so a seed pins the
whole initialization.
"""

from __future__ import annotations

import math

import numpy as np

from . import solver as _solver
from .config import SolverConfig
from .grid import Field, Grid
from .io import read_field
from .waves import Params

__all__ = [
    "DtUnderflowError",
    "random_phase_init",
    "pre_evolve_to_energy",
    "bump_profile",
    "bump_velocity",
    "random_fourier_velocity",
    "read_file_fields",
    "build_initial_fields",
]

_SIGMA = 0.1
_ENERGY_TARGET_FRAC = 0.99
_ENERGY_TOL = 1e-4
# pre-evolution steps: first, smallest before giving up, and most taken
_DT0 = 1e-3
_DT_MIN = 1e-12
_MAX_STEPS = 1_000_000


class DtUnderflowError(RuntimeError):
    """Step halving hit the floor before reaching the target energy."""

    def __init__(self, message: str, best_energy: float):
        super().__init__(message)
        self.best_energy = best_energy

    def __reduce__(self):
        # an exception pickles as its type and args, and best_energy is not in args
        return type(self), (*self.args, self.best_energy)


def random_phase_init(grid: Grid, rng: np.random.Generator) -> Field:
    """Normal samples at the grid points with the modes j >= n/4 zeroed."""
    return _project(Field(grid, rng.normal(0.0, _SIGMA, grid.n)))


def pre_evolve_to_energy(phi: Field, params: Params) -> Field:
    """Evolve the uncoupled equation until E lands on the target surface.

    A step whose record falls below target - tol, or is not finite, is thrown
    away and retried with half the step.  A field already within tol is
    returned as is; one already below the band cannot be raised by a
    gradient flow and is rejected.
    """
    grid = phi.grid
    target = _ENERGY_TARGET_FRAC * params.e_max
    tol = _ENERGY_TOL
    dt = _DT0
    stepper = _solver.Stepper(grid, params, dt, "uncoupled")
    phi_hat = grid.spectral(phi.values)
    record, values, cubic_hat = stepper.record(phi_hat, None)
    best = float(record["free_energy"])
    if abs(best - target) <= tol:
        return phi
    if best < target - tol:
        raise ValueError(
            f"free energy {best:g} is already below the target band "
            f"{target:g} +- {tol:g}"
        )

    for _ in range(_MAX_STEPS):
        cand_hat, _ = stepper.advance(phi_hat, None, values, cubic_hat)
        record, cand, cand_cubic = stepper.record(cand_hat, None)
        cand_energy = float(record["free_energy"])
        if abs(cand_energy - target) <= tol:
            return Field(grid, cand)
        if not cand_energy >= target - tol:
            dt *= 0.5
            if dt < _DT_MIN:
                raise DtUnderflowError(
                    f"step underflow below {_DT_MIN:g} at energy {best:g} "
                    f"(target {target:g} +- {tol:g})",
                    best_energy=best,
                )
            stepper = _solver.Stepper(grid, params, dt, "uncoupled")
            continue
        phi_hat, values, cubic_hat, best = cand_hat, cand, cand_cubic, cand_energy
    raise DtUnderflowError(
        f"no arrival at the target band within {_MAX_STEPS} steps "
        f"(closest energy {best:g})",
        best_energy=best,
    )


_BUMP_PEAK = math.sqrt(2.0 - math.sqrt(3.0))
BUMP_C = 1.0 / (_BUMP_PEAK * math.exp(1.0 / (1.0 - math.sqrt(3.0))))


def bump_profile(x, half_length: float = 1.0) -> np.ndarray:
    """(C/L) x exp(1/((x/L)^2 - 1)) inside (-L, L), zero outside."""
    xi = np.asarray(x, dtype=float) / half_length
    values = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    values[inside] = (BUMP_C * xi[inside]) * np.exp(1.0 / (xi[inside] ** 2 - 1.0))
    return values


def bump_velocity(grid: Grid) -> Field:
    """Odd compactly supported bump with unit sup norm, peaked at
    x = L sqrt(2 - sqrt(3))."""
    return Field(grid, bump_profile(grid.x, grid.half_length))


def random_fourier_velocity(grid: Grid, rng: np.random.Generator, cutoff: int) -> Field:
    """Low-mode field with coefficients N(0,1) + i N(0,1) on modes 1..cutoff.

    The coefficients are used literally in the 1/n-normalized inverse
    transform, so the field amplitude scales like cutoff/n; SolverConfig
    keeps cutoff below n/4.
    """
    re = rng.standard_normal(cutoff)
    im = rng.standard_normal(cutoff)
    hat = np.zeros(grid.band, dtype=complex)
    hat[1 : cutoff + 1] = re + 1j * im
    return Field(grid, grid.physical(hat))


def _project(field: Field) -> Field:
    grid = field.grid
    return Field(grid, grid.physical(grid.spectral(field.values)))


def read_file_fields(cfg: SolverConfig, grid: Grid) -> dict[str, Field]:
    """The ``file:`` initial fields of a config, keyed "phi" and "v"."""
    return {column: read_field(spec[len("file:"):], column, grid)
            for column, spec in (("phi", cfg.init_phi), ("v", cfg.init_v))
            if spec.startswith("file:")}


def build_initial_fields(cfg: SolverConfig, grid: Grid,
                         params: Params) -> tuple[Field, Field | None]:
    """Initial (phi, v) for a configured run, drawn from one generator.

    Random phase data includes the pre-evolution to the target energy
    surface; file-loaded fields are used as stored.  Both fields are
    projected onto the band spectrum on entry.
    """
    rng = np.random.default_rng(cfg.seed)
    files = read_file_fields(cfg, grid)

    if cfg.init_phi == "random":
        phi = pre_evolve_to_energy(random_phase_init(grid, rng), params)
    else:
        phi = _project(files["phi"])

    if not cfg.coupled:
        return phi, None
    if cfg.init_v == "none":
        v = Field(grid, np.zeros(grid.n))
    elif cfg.init_v == "bump":
        v = _project(bump_velocity(grid))
    elif cfg.init_v == "fourier":
        v = random_fourier_velocity(grid, rng, cfg.fourier_cutoff)
    else:
        v = _project(files["v"])
    return phi, v
