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

A run is a batch of one: run_batch steps runs that differ only in seed as
the rows of (rows, n/4) spectra.

Diagnostics recorded every record_every steps: free energy, kinetic
energy, H1 seminorms, the period of the free energy (period_from_energy,
once after the run), and the discrete residual of the energy balance
d/dt(.5 |v|^2 + K E) = -nu |v_x|^2 - K |mu_x|^2 (advective form).  Squared
norms are Parseval sums over the band; the bulk int F(phi) is summed on the
n points of the phi the next step transforms, which the record hands on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import COUPLINGS, SolverConfig
from .energy import ClampWarning, coarseness_table, period_from_energy
from .grid import Field, Grid
from .series import TimeSeries
from .waves import Params

__all__ = [
    "SolverError",
    "Stepper",
    "run",
    "run_batch",
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
        # Parseval on the band: dx sum_i f_i^2 = sum_j w_j |f^_j|^2, mode 0 once,
        # modes 1..n/4-1 twice for their conjugates; k^2 w weighs f_x
        self.w = np.where(k == 0.0, 1.0, 2.0) * grid.dx / grid.n
        self.k2w = k2 * self.w

    def mu_hat(self, phi_hat: np.ndarray, cubic_hat: np.ndarray) -> np.ndarray:
        return self.mu_lin * phi_hat + self.params.alpha * cubic_hat

    def advance(self, phi_hat: np.ndarray, v_hat: np.ndarray | None,
                phi: np.ndarray | None = None, cubic_hat: np.ndarray | None = None):
        """One step of each row of band spectra; returns the updated spectra.

        phi and cubic_hat, the grid values and P[phi^3] of phi_hat, are
        taken as given when a record has made them.  Raises SolverError
        on a CFL violation or non-finite v in any row.
        """
        if phi is None:
            phi = self.physical(phi_hat)
            cubic_hat = self.spectral(phi * phi * phi)
        new_phi = self.c_phi * phi_hat + self.c_cubic * cubic_hat
        if self.coupling_mode == "uncoupled":
            return new_phi, None

        v = self.physical(v_hat)
        v_max = np.max(np.abs(v), axis=-1, keepdims=True)
        bad = ~(self.dt * np.maximum(v_max, 1.0) <= self.grid.dx * (1.0 + 1e-12))
        if bad.any():
            m = float(v_max[bad][0])  # the first row at fault
            if not math.isfinite(m):
                raise SolverError(f"non-finite velocity: max |v| = {m}")
            raise SolverError(f"CFL violation: dt = {self.dt:g} exceeds dx / max(|v|, 1) = "
                              f"{self.grid.dx / max(m, 1.0):g}")

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

    def record(self, phi_hat: np.ndarray, v_hat: np.ndarray | None):
        """The recorded diagnostics of each row, and phi and P[phi^3] for the next
        advance.  Norms are Parseval sums over the band; only the bulk int F(phi)
        needs phi on the n points.  The dissipation is K |mu_x|^2 + nu |v_x|^2."""
        phi = self.physical(phi_hat)
        cubic_hat = self.spectral(phi * phi * phi)
        p = self.params
        grad2 = _band_sum(self.k2w, phi_hat)
        mu_x2 = _band_sum(self.k2w, self.mu_hat(phi_hat, cubic_hat))
        zero = np.zeros_like(grad2)
        v_x2 = zero if v_hat is None else _band_sum(self.k2w, v_hat)
        return {
            "free_energy": self.grid.dx * np.sum(p.f(phi), axis=-1) + 0.5 * p.kappa * grad2,
            "kinetic_energy": zero if v_hat is None else 0.5 * _band_sum(self.w, v_hat),
            "h1_phi": np.sqrt(grad2),
            "h1_v": np.sqrt(v_x2),
            "dissipation": p.K * mu_x2 + p.nu * v_x2,
        }, phi, cubic_hat


def _band_sum(weights: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """sum_j weights_j |hat_j|^2 of each row.  np.sum over the last axis keeps a
    row's bits apart from the other rows', which a BLAS product does not."""
    return np.sum(weights * (hat.real**2 + hat.imag**2), axis=-1)


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
    """Integrate a configured run: the batch of one, raising what ended it."""
    (result,) = run_batch([config])
    if isinstance(result, Exception):
        raise result
    return result


def run_batch(configs: list[SolverConfig]) -> list[RunResult | Exception]:
    """Integrate runs that differ only in seed as the rows of one batch.

    Each entry is its run's result or the exception that ended it.  A row
    that fails its CFL or non-finite check is dropped with the message its
    run alone raises, and the other rows go on.  An exception while one
    run's initial fields are built ends that run; any other ends every run
    still stepping.  No row's arithmetic reads another row, so each result
    is bit-identical to the batch of one of its config.
    """
    cfg = configs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in configs):
        raise ValueError("the runs of a batch may differ only in seed")
    outcomes: list = [None] * len(configs)
    try:
        _step_batch(configs, outcomes)
    except Exception as exc:  # ends every run still stepping
        outcomes = [exc if out is None else out for out in outcomes]
    return outcomes


def _step_batch(configs: list[SolverConfig], outcomes: list) -> None:
    """Set the outcome of each run, or leave it None for run_batch to fail."""
    from . import initial

    cfg = configs[0]
    grid, params, dt = cfg.make_grid(), cfg.params, cfg.dt_eff
    stepper = Stepper(grid, params, dt, cfg.coupling, cfg.stabilizer_eff)
    n_steps, snap_steps = cfg.n_steps, cfg.snapshot_steps()
    fields = []
    for b, c in enumerate(configs):
        try:
            fields.append(initial.build_initial_fields(c, grid, params))
        except Exception as exc:  # ends this run only
            outcomes[b] = exc
    if not fields:
        return
    runs = np.flatnonzero([out is None for out in outcomes])  # the run of each row
    phi_hat = grid.spectral(np.stack([phi.values for phi, _ in fields]))
    v_hat = grid.spectral(np.stack([v.values for _, v in fields])) if cfg.coupled else None
    phi = cubic_hat = None  # grid values and P[phi^3] of phi_hat, when a record made them
    times: list[float] = []
    n_records = n_steps // cfg.record_every + 1 + (n_steps % cfg.record_every > 0)
    cols: dict[str, np.ndarray] = {}  # name -> values by run and record
    snapshots: list[list[Snapshot]] = [[] for _ in configs]

    def snap(t: float) -> list[Snapshot]:
        phis = grid.physical(phi_hat)
        vs = None if v_hat is None else grid.physical(v_hat)
        return [Snapshot(t=t, phi=Field(grid, phis[r]),
                         v=None if vs is None else Field(grid, vs[r])) for r in range(runs.size)]

    def drop(faults: dict[int, str]) -> None:
        """End the run of each faulted row with that row's message."""
        nonlocal runs, phi_hat, v_hat, phi, cubic_hat
        for r, message in faults.items():
            outcomes[runs[r]] = SolverError(message)
        keep = np.isin(np.arange(runs.size), list(faults), invert=True)
        runs = runs[keep]
        phi_hat, v_hat, phi, cubic_hat = (
            None if a is None else a[keep] for a in (phi_hat, v_hat, phi, cubic_hat))

    for i in range(n_steps + 1):
        if i:
            try:
                phi_hat, v_hat = stepper.advance(phi_hat, v_hat, phi, cubic_hat)
            except SolverError:  # a CFL fault: each row steps alone to show its own
                faults = {}
                for r in range(runs.size):
                    try:
                        stepper.advance(phi_hat[r], v_hat[r])
                    except SolverError as exc:
                        faults[r] = str(exc)
                if not faults:
                    raise
                drop(faults)
                if runs.size:
                    phi_hat, v_hat = stepper.advance(phi_hat, v_hat, phi, cubic_hat)
            phi = cubic_hat = None
            faults = {}
            for name, hat in (("phase field", phi_hat), ("velocity", v_hat)):
                if hat is not None and not np.isfinite(hat).all():
                    for r in np.flatnonzero(~np.isfinite(hat).all(axis=-1)):
                        faults.setdefault(int(r), f"non-finite {name} at t = {i * dt:g}")
            if faults:
                drop(faults)
            if not runs.size:
                return
        if i % cfg.record_every == 0 or i == n_steps:
            values, phi, cubic_hat = stepper.record(phi_hat, v_hat)
            for name, col in values.items():
                cols.setdefault(name, np.zeros((len(configs), n_records)))[runs, len(times)] = col
            times.append(i * dt)
        if i in snap_steps:
            for b, s in zip(runs, snap(i * dt)):
                snapshots[b].append(s)

    t = np.array(times)
    with warnings.catch_warnings():  # a run may leave the table: a coupled one falls below a kink
        warnings.simplefilter("ignore", ClampWarning)
        periods = period_from_energy(cols["free_energy"][runs], coarseness_table(params))
    for b, period, final in zip(runs, periods, snap(n_steps * dt)):
        c = {name: col[b] for name, col in cols.items()}  # in the series' column order
        c["period"] = period
        c["balance_residual"] = energy_balance_residual(
            t, c["kinetic_energy"] + params.K * c["free_energy"], c.pop("dissipation"))
        ok, tail = resolution_check(final)
        outcomes[b] = RunResult(config=configs[b], series=TimeSeries(t=t, **c),
                                snapshots=snapshots[b], final_state=final,
                                resolution_ok=ok, resolution_tail=tail)
