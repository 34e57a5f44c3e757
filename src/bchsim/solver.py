"""Semi-implicit pseudo-spectral integration of the coupled system

    phi_t + (advection) = (mu)_xx,   mu = -kappa phi_xx + F'(phi),
    v_t + v v_x = nu v_xx + (coupling source),

on the periodic interval [-L, L).  Coupling modes:

    uncoupled   no velocity; plain conserved gradient flow of phi
    advective   advection v phi_x, source K mu phi_x
    div1        advection (v phi)_x, source K mu phi_x
    div2        advection (v phi)_x, source -K mu_x phi

Each step treats the stiff linear parts implicitly: the phase update
solves (1 + dt kappa k^4 + dt A k^2) phi^{n+1} = rhs with stabilizer A,
the velocity update divides by (1 + dt nu k^2).  The state is held as
band spectra, the real-transform modes 0 <= j < n/4 only.  Products of up
to three band fields are alias-free on the n points (Orszag's rule), so
forming them there and truncating is their exact projection; the Burgers
term is taken as (v^2/2)_x, which projects exactly as v v_x does.

Diagnostics recorded every record_every steps: free energy, kinetic
energy, H1 seminorms, the period assigned to the free energy by the
coarseness interpolant, and the discrete residual of the energy balance
d/dt(.5 |v|^2 + K E) = -nu |v_x|^2 - K |mu_x|^2 (advective form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import COUPLINGS, SolverConfig
from .energy import coarseness_table
from .grid import Field, Grid
from .series import TimeSeries
from .waves import Params

__all__ = [
    "SolverError",
    "Stepper",
    "run",
    "RunResult",
    "Snapshot",
    "resolution_check",
    "energy_balance_residual",
]


class SolverError(RuntimeError):
    """Time integration failed (CFL violation, non-finite fields, ...)."""


class Stepper:
    """Precomputed operators for repeated steps of one setup.

    Spectra are band spectra, taken and inverted by the grid's `spectral`
    and `physical`.  The linear parts of each update are combined into
    per-mode coefficients once, here.
    """

    def __init__(self, grid: Grid, params: Params, dt: float, coupling_mode: str,
                 stabilizer: float | None = None):
        if coupling_mode not in COUPLINGS:
            raise ValueError(f"coupling_mode must be one of {COUPLINGS}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.grid = grid
        self.params = params
        self.dt = dt
        self.coupling_mode = coupling_mode
        self.stabilizer = 2.0 * params.beta if stabilizer is None else float(stabilizer)

        # the grid's band transforms, also for callers that hold only a stepper
        self.spectral, self.physical = grid.spectral, grid.physical
        p = params
        k = grid.k[: grid.band]
        self.ik = 1j * k
        k2 = k * k
        den_phi = 1.0 + dt * (p.kappa * k2 * k2 + self.stabilizer * k2)
        # phi^{n+1} = c_phi phi + c_cubic P[phi^3] + c_adv P[advection]
        self.c_phi = (1.0 + dt * (p.beta + self.stabilizer) * k2) / den_phi
        self.c_cubic = -dt * p.alpha * k2 / den_phi
        self.c_adv = -dt / den_phi * (1.0 if coupling_mode == "advective" else self.ik)
        self.mu_lin = p.kappa * k2 - p.beta
        # v^{n+1} = c_v v + c_src P[source] + c_burgers P[v^2]
        self.c_v = 1.0 / (1.0 + dt * p.nu * k2)
        self.c_src = (-dt if coupling_mode == "div2" else dt) * p.K * self.c_v
        self.c_burgers = -0.5 * dt * self.ik * self.c_v

    def cubic_hat(self, phi: np.ndarray) -> np.ndarray:
        return self.spectral(phi * phi * phi)

    def mu_hat(self, phi_hat: np.ndarray, cubic_hat: np.ndarray) -> np.ndarray:
        return self.mu_lin * phi_hat + self.params.alpha * cubic_hat

    def advance(self, phi_hat: np.ndarray, v_hat: np.ndarray | None):
        """One step; returns updated spectra.  Raises on a CFL violation or non-finite v."""
        phi = self.physical(phi_hat)
        cubic_hat = self.cubic_hat(phi)
        new_phi = self.c_phi * phi_hat + self.c_cubic * cubic_hat
        if self.coupling_mode == "uncoupled":
            return new_phi, None

        v = self.physical(v_hat)
        v_max = float(np.max(np.abs(v)))
        if not (self.dt * max(v_max, 1.0) <= self.grid.dx * (1.0 + 1e-12)):
            if not math.isfinite(v_max):
                raise SolverError(f"non-finite velocity: max |v| = {v_max}")
            raise SolverError(f"CFL violation: dt = {self.dt:g} exceeds dx / max(|v|, 1) = "
                              f"{self.grid.dx / max(v_max, 1.0):g}")

        mu_hat = self.mu_hat(phi_hat, cubic_hat)
        if self.coupling_mode == "div2":
            adv_hat = self.spectral(v * phi)
            source_hat = self.spectral(self.physical(self.ik * mu_hat) * phi)
        else:
            phi_x = self.physical(self.ik * phi_hat)
            adv_hat = self.spectral(v * (phi_x if self.coupling_mode == "advective" else phi))
            source_hat = self.spectral(self.physical(mu_hat) * phi_x)
        # v v_x and (v^2/2)_x have the same projection: v^2 is alias-free on n points
        new_v = self.c_v * v_hat + self.c_src * source_hat + self.c_burgers * self.spectral(v * v)
        return new_phi + self.c_adv * adv_hat, new_v


def resolution_check(state: Snapshot) -> tuple[bool, float]:
    """True when every coefficient j >= n/4 of phi (and v) is below machine
    epsilon relative to the spectral scale.  The transform runs in extended
    precision, so its own roundoff does not count.  A stepped field has no
    such modes beyond roundoff; this does not test the band's decay."""
    worst = 0.0
    for f in (state.phi, state.v):
        if f is None:
            continue
        hat = np.fft.rfft(f.values.astype(np.longdouble))
        scale = float(np.max(np.abs(hat)))
        if scale == 0.0:
            continue
        tail = np.abs(hat[f.grid.n // 4 :]) / scale
        worst = max(worst, float(tail.max()))
    return worst < 2.2204e-16, worst


def energy_balance_residual(t: np.ndarray, lyapunov: np.ndarray,
                            dissipation: np.ndarray) -> np.ndarray:
    """Per-interval residual r_i = dQ/dt + mean dissipation, zero-padded at 0.

    Q is the Lyapunov functional recorded at the same times as the
    instantaneous dissipation rate; r vanishes to the scheme's order for
    the modes with an energy balance (uncoupled, advective, div2).
    """
    t = np.asarray(t, dtype=float)
    q = np.asarray(lyapunov, dtype=float)
    d = np.asarray(dissipation, dtype=float)
    if not (t.shape == q.shape == d.shape):
        raise ValueError("t, lyapunov, dissipation must align")
    r = np.zeros_like(q)
    if t.size > 1:
        dt_rec = np.diff(t)
        r[1:] = np.diff(q) / dt_rec + 0.5 * (d[1:] + d[:-1])
    return r


@dataclass
class Snapshot:
    t: float
    phi: Field
    v: Field | None


@dataclass
class RunResult:
    config: SolverConfig
    series: TimeSeries
    snapshots: list[Snapshot]
    final_state: Snapshot
    resolution_ok: bool
    resolution_tail: float


def run(config: SolverConfig) -> RunResult:
    """Integrate a configured run, collecting diagnostics and snapshots."""
    from . import initial

    cfg = config
    grid = cfg.make_grid()
    params = cfg.params
    dt = cfg.dt_eff
    stepper = Stepper(grid, params, dt, cfg.coupling, cfg.stabilizer_eff)
    n_steps = max(1, round(cfg.t_final / dt))
    late = [t for t in cfg.snapshot_times if t > n_steps * dt + 1e-12]
    if late:
        raise ValueError(f"snapshot time {late[0]:g} is after the last step, "
                         f"t = {n_steps * dt:g}")

    phi0, v0 = initial.build_initial_fields(cfg, grid, params)
    phi_hat = grid.spectral(phi0.values)
    v_hat = None if v0 is None else grid.spectral(v0.values)

    table = coarseness_table(params)
    snaps_due = sorted(cfg.snapshot_times)
    snapshots: list[Snapshot] = []

    rows: dict[str, list[float]] = {
        "t": [], "free_energy": [], "kinetic_energy": [], "h1_phi": [],
        "h1_v": [], "period": [], "balance_residual": [],
    }
    lyapunov: list[float] = []
    dissipation: list[float] = []

    def record(step_index: int) -> None:
        phi = grid.physical(phi_hat)
        phi_x = grid.physical(stepper.ik * phi_hat)
        grad2 = grid.dx * float(np.sum(phi_x**2))
        e = grid.dx * float(np.sum(params.f(phi))) + 0.5 * params.kappa * grad2
        mu_hat = stepper.mu_hat(phi_hat, stepper.cubic_hat(phi))
        mu_x = grid.physical(stepper.ik * mu_hat)
        diss = params.K * grid.dx * float(np.sum(mu_x**2))
        kinetic = h1_v = 0.0
        if v_hat is not None:
            v = grid.physical(v_hat)
            v_x = grid.physical(stepper.ik * v_hat)
            kinetic = 0.5 * grid.dx * float(np.sum(v**2))
            h1_v = math.sqrt(grid.dx * float(np.sum(v_x**2)))
            diss += params.nu * grid.dx * float(np.sum(v_x**2))
        rows["t"].append(step_index * dt)
        rows["free_energy"].append(e)
        rows["kinetic_energy"].append(kinetic)
        rows["h1_phi"].append(math.sqrt(grad2))
        rows["h1_v"].append(h1_v)
        rows["period"].append(float(table.period_of_energy(e)))
        lyapunov.append(kinetic + params.K * e)
        dissipation.append(diss)

    def snap(t: float) -> Snapshot:
        v = None if v_hat is None else Field(grid, grid.physical(v_hat))
        return Snapshot(t=t, phi=Field(grid, grid.physical(phi_hat)), v=v)

    record(0)
    while snaps_due and snaps_due[0] <= 1e-12:
        snapshots.append(snap(0.0))
        snaps_due.pop(0)

    for i in range(1, n_steps + 1):
        phi_hat, v_hat = stepper.advance(phi_hat, v_hat)
        t = i * dt
        for name, hat in (("phase field", phi_hat), ("velocity", v_hat)):
            if hat is not None and not np.all(np.isfinite(hat)):
                raise SolverError(f"non-finite {name} at t = {t:g}")
        if i % cfg.record_every == 0 or i == n_steps:
            record(i)
        while snaps_due and snaps_due[0] <= t + 1e-12:
            snapshots.append(snap(t))
            snaps_due.pop(0)

    residual = energy_balance_residual(
        np.array(rows["t"]), np.array(lyapunov), np.array(dissipation)
    )
    rows["balance_residual"] = list(residual)
    series = TimeSeries(**{k: np.array(v) for k, v in rows.items()})

    final = snap(n_steps * dt)
    ok, tail = resolution_check(final)
    return RunResult(config=cfg, series=series, snapshots=snapshots,
                     final_state=final, resolution_ok=ok, resolution_tail=tail)
