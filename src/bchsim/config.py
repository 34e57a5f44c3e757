"""Run configuration: plain-text `key = value` files and their dataclass.

Unset n, dt, and stabilizer_A resolve by coupling mode: coupled runs
default to n = 8192 with dt = 9.7656e-5, uncoupled ones to n = 2048 with
dt = 1e-3, and the stabilizer defaults to 2 beta.  The echo of a config
writes the resolved values, so a rerun from the echo reproduces the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .grid import Grid
from .waves import Params

__all__ = ["SolverConfig", "parse_config", "parse_config_file", "config_echo", "COUPLINGS"]

COUPLINGS = ("uncoupled", "advective", "div1", "div2")

_INT_KEYS = {"n", "record_every", "seed", "fourier_cutoff"}
_FLOAT_KEYS = {"L", "alpha", "beta", "kappa", "nu", "K", "dt", "t_final", "stabilizer_A"}


def snapshot_filename(t: float) -> str:
    """The file a snapshot at time t is written to: 6 significant digits of t."""
    return f"snap_{float(t):g}.csv"


@dataclass
class SolverConfig:
    coupling: str = "uncoupled"
    n: int | None = None
    L: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    kappa: float = 1e-3
    nu: float = 6e-3
    K: float = 1.0
    dt: float | None = None
    t_final: float = 1.0
    record_every: int = 100
    snapshot_times: tuple[float, ...] = ()
    seed: int = 0
    init_phi: str = "random"
    init_v: str = "none"
    fourier_cutoff: int = 32
    stabilizer_A: float | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.coupling not in COUPLINGS:
            raise ValueError(
                f"coupling must be one of {sorted(COUPLINGS)}, got {self.coupling!r}"
            )
        if self.init_phi != "random" and not self.init_phi.startswith("file:"):
            raise ValueError(f"init_phi must be 'random' or 'file:<path>', got {self.init_phi!r}")
        if self.init_v not in ("none", "fourier", "bump") and not self.init_v.startswith("file:"):
            raise ValueError(
                f"init_v must be 'none', 'fourier', 'bump', or 'file:<path>', got {self.init_v!r}"
            )
        if self.coupling == "uncoupled" and self.init_v != "none":
            raise ValueError("uncoupled runs take init_v = none")
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        self.params  # building Params checks alpha, beta, kappa, nu and K
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        # A = 0 is the unstabilized scheme; A < 0 would turn its damping into growth
        if self.stabilizer_A is not None and self.stabilizer_A < 0:
            raise ValueError(f"stabilizer_A must be nonnegative, got {self.stabilizer_A}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.fourier_cutoff < 1:
            raise ValueError(f"fourier_cutoff must be at least 1, got {self.fourier_cutoff}")
        if self.init_v == "fourier" and self.fourier_cutoff >= self.n_eff // 4:
            raise ValueError(f"fourier_cutoff {self.fourier_cutoff} must stay below "
                             f"n/4 = {self.n_eff // 4}")
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        for t in self.snapshot_times:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"snapshot_times must be finite and nonnegative, got {t}")
        times, steps = sorted(self.snapshot_times), self.snapshot_steps()
        for k in range(1, len(steps)):
            if steps[k] == steps[k - 1]:
                raise ValueError(f"snapshot_times {times[k - 1]:g} and {times[k]:g} fall due "
                                 f"at one step of dt = {self.dt_eff:g}")
            if snapshot_filename(times[k]) == snapshot_filename(times[k - 1]):
                raise ValueError(f"snapshot_times {times[k - 1]!r} and {times[k]!r} both write "
                                 f"{snapshot_filename(times[k])}")
        late = [t for t, i in zip(times, steps) if i > self.n_steps]
        if late:
            raise ValueError(f"snapshot_times {late[0]:g} is after the last step, "
                             f"t = {self.n_steps * self.dt_eff:g}")

    def snapshot_steps(self) -> list[int]:
        """The step at which each snapshot time falls due, in time order: the
        first step i with t <= i dt + 1e-12."""
        return [max(0, math.ceil((t - 1e-12) / self.dt_eff)) for t in sorted(self.snapshot_times)]

    @property
    def n_steps(self) -> int:
        """Steps of dt the run takes to reach t_final, at least one."""
        return max(1, round(self.t_final / self.dt_eff))

    @property
    def coupled(self) -> bool:
        return self.coupling != "uncoupled"

    @property
    def n_eff(self) -> int:
        return self.n if self.n is not None else (8192 if self.coupled else 2048)

    @property
    def dt_eff(self) -> float:
        return self.dt if self.dt is not None else (9.7656e-5 if self.coupled else 1e-3)

    @property
    def stabilizer_eff(self) -> float:
        return self.stabilizer_A if self.stabilizer_A is not None else 2.0 * self.beta

    @property
    def params(self) -> Params:
        return Params(
            alpha=self.alpha,
            beta=self.beta,
            kappa=self.kappa,
            nu=self.nu,
            K=self.K,
            half_length=self.L,
        )

    def make_grid(self) -> Grid:
        return Grid(self.n_eff, self.L)

    def resolved(self) -> "SolverConfig":
        return replace(
            self, n=self.n_eff, dt=self.dt_eff, stabilizer_A=self.stabilizer_eff
        )


_FIELD_NAMES = {f.name for f in fields(SolverConfig)}


def parse_config(text: str) -> SolverConfig:
    """Parse `key = value` lines; blank lines and # comments are skipped."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_NAMES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key == "snapshot_times":
                values[key] = tuple(float(v) for v in val.replace(",", " ").split())
            else:
                values[key] = val
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return SolverConfig(**values)


def parse_config_file(path) -> SolverConfig:
    return parse_config(Path(path).read_text())


def config_echo(config: SolverConfig) -> str:
    """Reparseable text with resolved n, dt, and stabilizer filled in."""
    cfg = config.resolved()
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        if f.name == "snapshot_times":
            if not val:
                continue
            val = ", ".join(repr(t) for t in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"
