"""The benchmark's workloads: inputs made from a seed, CLI commands, checks.

A workload writes its inputs (config files and a snapshot) into a fresh
directory, names the `bchsim` commands to run on them and, for each
command, the checks its outputs must pass.  Every check is a computation
made apart from the program or a property the method must have; a failed
check raises `CheckFailed`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def read_csv(path: Path) -> dict[str, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def first_crossing(t: np.ndarray, values: np.ndarray, level: float) -> float | None:
    """First time a sampled curve reaches level, linearly interpolated."""
    hits = np.nonzero(values >= level)[0]
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(t[0])
    return float(t[i - 1] + (level - values[i - 1]) * (t[i] - t[i - 1])
                 / (values[i] - values[i - 1]))


def write_config(path: Path, **values) -> Path:
    lines = []
    for key, val in values.items():
        if isinstance(val, (tuple, list)):
            val = ", ".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    path.write_text("\n".join(lines) + "\n")
    return path


@dataclass
class Check:
    name: str
    run: Callable[[Path], None]  # raises CheckFailed; the argument is the output root


@dataclass
class Op:
    """One `bchsim` command (without --out and --threads) and the checks on
    its outputs."""

    name: str
    argv: list[str]
    checks: list[Check] = field(default_factory=list)


@dataclass
class Plan:
    """A workload's round: the config files that set-up parses, then the
    commands.  Every path in it points into the round's directories."""

    configs: list[str]
    ops: list[Op]


# ---------------------------------------------------------------- coupled_compare

KAPPA = 1e-3
COUPLED_HORIZON = 2.0  # past every transport time of seeds 0-29 (at most 1.99)
SPINODAL_SNAPSHOT = 0.1
CROSSING_PERIOD = 1.12


def kink_transport_time(t: float, x: np.ndarray, phi: np.ndarray, v: np.ndarray) -> float:
    """Time by which the flow has carried all but two kinks into its shock.

    Kinks are zero crossings of phi.  One at x moving outward reaches the
    shock at x = +-L after (L - |x|) / |v(x)| if it keeps its speed; those
    within L/10 of the shock count as already there.  At most two kinks,
    hence period >= 1.12, are left after the third-longest transit.
    """
    L = ref.HALF_LENGTH
    dx = x[1] - x[0]
    i = np.nonzero(np.sign(phi) != np.sign(np.roll(phi, -1)))[0]
    j = (i + 1) % phi.size
    xk = x[i] + dx * phi[i] / (phi[i] - phi[j])
    vk = np.interp(xk, x, v)
    inner = np.abs(xk) < 0.9 * L
    xk, vk = xk[inner], vk[inner]
    transit = np.full(xk.shape, np.inf)
    out = xk * vk > 0
    transit[out] = (L - np.abs(xk[out])) / np.abs(vk[out])
    return t + float(np.sort(transit)[-3])


def _snapshot_near(run_dir: Path, t: float) -> tuple[float, dict[str, np.ndarray]]:
    names = read_json(run_dir / "report.json")["snapshots"]
    times = [float(n[len("snap_"):-len(".csv")]) for n in names]
    require(bool(times), f"{run_dir}: no snapshots written")
    k = int(np.argmin([abs(s - t) for s in times]))
    require(abs(times[k] - t) < 1e-3, f"{run_dir}: no snapshot at t = {t}, only {times}")
    return times[k], read_csv(run_dir / names[k])


def coupled_compare(seed: int, inputs: Path, out_root: Path) -> Plan:
    common = dict(n=8192, kappa=KAPPA, nu=6e-3, K=1.0, seed=seed,
                  t_final=COUPLED_HORIZON)
    coupled = write_config(inputs / "coupled.cfg", coupling="advective", init_v="bump",
                           record_every=64, snapshot_times=(0.0, SPINODAL_SNAPSHOT),
                           **common)
    twin = write_config(inputs / "twin.cfg", coupling="uncoupled", dt=1e-3,
                        record_every=10, **common)
    cmp_dir = Path("compare", "cmp")

    def series(out: Path, side: str) -> dict[str, np.ndarray]:
        return read_csv(out / cmp_dir / side / "series.csv")

    def lyapunov(out: Path) -> None:
        for side in ("coupled", "uncoupled"):
            s = series(out, side)
            q = s["kinetic_energy"] + common["K"] * s["free_energy"]
            rise = float(np.diff(q).max())
            require(rise <= 1e-12, f"{side}: Q = |v|^2/2 + K E rose by {rise:.3e} between records")

    def crossings(out: Path) -> tuple[float | None, float | None]:
        c, u = series(out, "coupled"), series(out, "uncoupled")
        return (first_crossing(c["t"], c["period"], CROSSING_PERIOD),
                first_crossing(u["t"], u["period"], CROSSING_PERIOD))

    def coupled_first(out: Path) -> None:
        tc, tu = crossings(out)
        require(tu is None or (tc is not None and tc < tu),
                f"twin reaches period {CROSSING_PERIOD} at {tu}, coupled side at {tc}")
        row = read_json(out / cmp_dir / "report.json")["rows"][0]
        require(row["threshold"] == CROSSING_PERIOD, f"first report row is {row['threshold']}")
        require(row["coupled_censored"] == (tc is None), "report censoring disagrees with series")
        if tc is not None:
            require(rel_err(row["coupled_time"], tc) <= 1e-12,
                    f"report crossing {row['coupled_time']} vs series {tc}")

    def transport(out: Path) -> None:
        t, snap = _snapshot_near(out / cmp_dir / "coupled", SPINODAL_SNAPSHOT)
        t_transport = kink_transport_time(t, snap["x"], snap["phi"], snap["v"])
        tc, _ = crossings(out)
        if tc is not None:
            require(tc <= t_transport,
                    f"crossing at {tc:.4f} after the kink transport time {t_transport:.4f}")
        elif t_transport <= COUPLED_HORIZON:
            raise CheckFailed(f"no crossing by t = {COUPLED_HORIZON}, "
                              f"transport time {t_transport:.4f}")

    def resolution(out: Path) -> None:
        for side in ("coupled", "uncoupled"):
            rep = read_json(out / cmp_dir / side / "report.json")
            require(rep["resolution_ok"] is True, f"{side}: resolution_ok is {rep['resolution_ok']}")

    def initial_energy(out: Path) -> None:
        _, snap = _snapshot_near(out / cmp_dir / "coupled", 0.0)
        mine = ref.free_energy(snap["phi"], KAPPA)
        theirs = float(series(out, "coupled")["free_energy"][0])
        require(rel_err(theirs, mine) <= 1e-10,
                f"series E(0) = {theirs!r}, snapshot quadrature gives {mine!r}")

    argv = ["compare", "--config", str(coupled), "--uncoupled-config", str(twin)]
    return Plan(configs=[str(coupled), str(twin)], ops=[
        Op("compare", argv + ["--name", "cmp"], [
            Check("lyapunov_non_increasing", lyapunov),
            Check("coupled_crosses_first", coupled_first),
            Check("crossing_by_transport_time", transport),
            Check("resolution_ok", resolution),
            Check("initial_free_energy", initial_energy),
        ]),
    ])


# -------------------------------------------------------------- ensemble_overlays

ENSEMBLE_TRIALS = 2
ENSEMBLE_HORIZON = 5.0
OVERLAY_SAMPLES = 6  # reference energies per overlay variant


def ensemble_overlays(seed: int, inputs: Path, out_root: Path) -> Plan:
    cfg = write_config(inputs / "ensemble.cfg", coupling="uncoupled", n=2048, dt=1e-3,
                       record_every=5, kappa=KAPPA, seed=seed, t_final=ENSEMBLE_HORIZON)
    ens = Path("ensemble", "ens")

    def trials(out: Path) -> list[dict[str, np.ndarray]]:
        names = read_json(out / ens / "report.json")["trial_series"]
        require(len(names) == ENSEMBLE_TRIALS and None not in names, f"trials written: {names}")
        return [read_csv(out / ens / name) for name in names]

    def monotone(out: Path) -> None:
        for i, s in enumerate(trials(out)):
            rise = float(np.diff(s["free_energy"]).max())
            require(rise <= 1e-12, f"trial {i}: free energy rose by {rise:.3e}")

    def mean(out: Path) -> None:
        m = read_csv(out / ens / "mean.csv")
        runs = trials(out)
        for col in ("free_energy", "period"):
            mine = np.mean([s[col] for s in runs], axis=0)
            require(m[col].shape == mine.shape and rel_err(m[col], mine) <= 1e-14,
                    f"mean.csv {col} differs from the mean of the trial files")

    def overlays(out: Path) -> dict[str, np.ndarray]:
        return read_csv(out / ens / "overlays.csv")

    def langer(out: Path) -> None:
        rep = read_json(out / ens / "report.json")
        p0, t0 = ref.spinodal_period(KAPPA), rep["handshake_t0"]
        require(rel_err(rep["handshake_p0"], p0) <= 1e-14, f"handshake p0 {rep['handshake_p0']}")
        o = overlays(out)
        live = o["t"] >= t0
        require(np.all(np.isnan(o["langer_period"][~live])), "overlay before the handshake time")
        err = rel_err(o["langer_period"][live], ref.langer_period(o["t"][live], KAPPA, p0, t0))
        require(err <= 1e-13, f"Langer overlay off the closed form by {err:.2e}")

    def eig_order(out: Path) -> None:
        o = overlays(out)
        full, half = o["eig_full_period"], o["eig_half_period"]
        live = ~np.isnan(full)
        require(live.sum() > 1 and np.array_equal(live, ~np.isnan(half)), "eig overlays missing")
        full, half = full[live], half[live]
        require(bool(np.all(full >= half)), "eig_full period below eig_half period")
        require(bool(np.all(np.diff(full) >= 0) and np.all(np.diff(half) >= 0)),
                "an eig overlay period decreases")

    def energies(out: Path) -> None:
        o = overlays(out)
        for variant in ("langer", "eig_full", "eig_half"):
            p, e = o[f"{variant}_period"], o[f"{variant}_energy"]
            live = np.nonzero(~np.isnan(p))[0]
            for i in live[np.linspace(0, live.size - 1, OVERLAY_SAMPLES).astype(int)]:
                mine = ref.energy_of_period(float(p[i]), KAPPA)
                require(rel_err(e[i], mine) <= 1e-9,
                        f"{variant} energy {float(e[i])!r} at p = {float(p[i])!r}, reference {mine!r}")

    argv = ["ensemble", "--config", str(cfg), "--trials", str(ENSEMBLE_TRIALS), "--name", "ens"]
    return Plan(configs=[str(cfg)], ops=[
        Op("ensemble", argv, [
            Check("trial_energy_non_increasing", monotone),
            Check("mean_of_trials", mean),
            Check("langer_closed_form", langer),
            Check("eig_full_above_eig_half", eig_order),
            Check("overlay_energies", energies),
        ]),
    ])


# ------------------------------------------------------------------------- tables

TABLE_SAMPLES = 8  # reference energies per table
SNAPSHOT_POINTS = 4096


def tables(seed: int, inputs: Path, out_root: Path) -> Plan:
    rng = np.random.default_rng(seed)
    # second kappa a factor 2^0.5 to 2 away from the first, either side
    kappa2 = KAPPA * 2.0 ** float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    t_max = float(rng.uniform(10.0, 30.0))
    periods_in_box = int(rng.integers(3, 9))
    shift = float(rng.uniform(0.0, 1.0))

    # exact wave with a whole number of periods in the box [-1, 1)
    p_wave = 2.0 * ref.HALF_LENGTH / periods_in_box
    a_wave = ref.amplitude_of_period(p_wave, KAPPA)
    x = -ref.HALF_LENGTH + (2.0 * ref.HALF_LENGTH / SNAPSHOT_POINTS) * np.arange(SNAPSHOT_POINTS)
    phi = ref.wave_profile(a_wave, KAPPA, x - shift * p_wave)
    snapshot = inputs / "wave.csv"
    snapshot.write_text("x,phi\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), phi.tolist())))

    def table(out: Path, name: str) -> dict[str, np.ndarray]:
        return read_csv(out / name / "table.csv")

    def top_rate(name: str, kappa: float) -> Callable[[Path], None]:
        def check(out: Path) -> None:
            lam = float(table(out, name)["lambda_max"][0])
            top = 1.0 / (4.0 * kappa)
            require(abs(lam / top - 1.0) <= 0.01, f"lambda at the smallest amplitude {lam} vs {top}")
        return check

    def rescaling(out: Path) -> None:
        t1, t2 = table(out, "evans/k1"), table(out, "evans/k2")
        require(np.array_equal(t1["amplitude"], t2["amplitude"]), "amplitude grids differ")
        err = rel_err(t2["period"], t1["period"] * math.sqrt(kappa2 / KAPPA))
        require(err <= 1e-12, f"periods break p ~ sqrt(kappa) by {err:.2e}")
        # below lambda ~ 1 (at kappa = 1e-3) the bisection sits on its noise floor
        ok = t1["lambda_max"] >= 1.0
        err = rel_err(t2["lambda_max"][ok], t1["lambda_max"][ok] * (KAPPA / kappa2))
        require(ok.sum() > 50 and err <= 1e-5, f"lambda breaks 1/kappa by {err:.2e}")

    def sample(n: int) -> np.ndarray:
        return np.unique(np.linspace(0, n - 1, TABLE_SAMPLES).astype(int))

    def waves(out: Path) -> None:
        t = table(out, "waves/w")
        mine = [ref.period_of_amplitude(a, kappa2) for a in t["amplitude"]]
        require(rel_err(t["period"], mine) <= 1e-12, "wave periods off the elliptic reference")
        for i in sample(t["amplitude"].size):
            e = ref.window_energy(float(t["amplitude"][i]), kappa2)
            require(rel_err(t["energy"][i], e) <= 1e-9,
                    f"wave energy {float(t['energy'][i])!r} at a = {float(t['amplitude'][i])!r}, "
                    f"reference {e!r}")

    def predict(out: Path) -> None:
        s = read_csv(out / "predict" / "p" / "series.csv")
        require(s["t"].size == 201 and rel_err(s["t"][-1], t_max) <= 1e-15, "predict time grid")
        for i in sample(s["t"].size):
            e = ref.energy_of_period(float(s["period"][i]), KAPPA)
            require(rel_err(s["energy"][i], e) <= 1e-9,
                    f"predicted energy {float(s['energy'][i])!r} at p = {float(s['period'][i])!r}, "
                    f"reference {e!r}")

    def measure(out: Path) -> None:
        m = read_csv(out / "measure" / "m" / "measure.csv")
        e_wave = ref.energy_of_period(p_wave, KAPPA)
        require(rel_err(m["energy"][0], e_wave) <= 1e-9,
                f"measured energy {float(m['energy'][0])!r}, exact wave {e_wave!r}")
        require(m["period"][0] <= p_wave * (1.0 + 1e-9),
                f"measured period {float(m['period'][0])!r} above the wave's {p_wave!r}")

    k1, k2 = repr(KAPPA), repr(kappa2)
    return Plan(configs=[], ops=[
        Op("evans_k1", ["evans", "table", "--kappa", k1, "--name", "k1"],
           [Check("top_rate_k1", top_rate("evans/k1", KAPPA))]),
        Op("evans_k2", ["evans", "table", "--kappa", k2, "--name", "k2"],
           [Check("top_rate_k2", top_rate("evans/k2", kappa2)),
            Check("kappa_rescaling", rescaling)]),
        Op("waves", ["waves", "table", "--kappa", k2, "--name", "w"],
           [Check("wave_table_reference", waves)]),
        Op("predict", ["predict", "--method", "eig", "--kappa", k1, "--t-max", repr(t_max),
                       "--table", str(out_root / "evans" / "k1" / "table.csv"), "--name", "p"],
           [Check("predicted_energies", predict)]),
        Op("measure", ["measure", "--snapshot", str(snapshot), "--kappa", k1, "--name", "m"],
           [Check("exact_wave_measure", measure)]),
    ])


WORKLOADS: dict[str, Callable[[int, Path, Path], Plan]] = {
    "coupled_compare": coupled_compare,
    "ensemble_overlays": ensemble_overlays,
    "tables": tables,
}
