"""Show that every output check passes on real outputs and rejects a
deliberately perturbed copy of them.

    python3 perfbench/selftest.py [--seed 0]

Runs one untraced round of each workload (about a minute and a half on
two cores), then, for each check, perturbs a copy of that round's outputs
in the way the check exists to catch.  Exits non-zero if a check fails on
the real outputs or accepts its perturbed copy.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads as W
from run import OUT_BASE, run_round


def edit_csv(path: Path, change) -> None:
    cols = W.read_csv(path)
    change(cols)
    names = list(cols)
    rows = zip(*(cols[n].tolist() for n in names))
    path.write_text(",".join(names) + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def scale(column: str, factor: float, index=slice(None)):
    def change(cols):
        cols[column][index] *= factor
    return change


CMP = Path("compare", "cmp")
ENS = Path("ensemble", "ens")


def _raise_energy(cols):
    cols["free_energy"][500] = cols["free_energy"][499] + 1e-9


def _raise_lyapunov(cols):
    i = 100
    cols["free_energy"][i] = (cols["kinetic_energy"][i - 1] + cols["free_energy"][i - 1]
                              - cols["kinetic_energy"][i] + 1e-9)


def _twin_crosses_early(cols):
    cols["period"][5] = 1.2


def _delay_crossing(out: Path) -> None:
    run_dir = out / CMP / "coupled"
    t, snap = W._snapshot_near(run_dir, W.SPINODAL_SNAPSHOT)
    t_tr = W.kink_transport_time(t, snap["x"], snap["phi"], snap["v"])

    def change(cols):
        early = cols["t"] <= t_tr + 0.05
        cols["period"][early] = np.minimum(cols["period"][early], 1.11)
    edit_csv(run_dir / "series.csv", change)


def _swap_eig(cols):
    cols["eig_full_period"], cols["eig_half_period"] = cols["eig_half_period"], cols["eig_full_period"]


def _unresolved(data):
    data["resolution_ok"] = False


PERTURB = {
    "lyapunov_non_increasing": lambda o: edit_csv(o / CMP / "coupled/series.csv",
                                                  _raise_lyapunov),
    "coupled_crosses_first": lambda o: edit_csv(o / CMP / "uncoupled/series.csv",
                                                _twin_crosses_early),
    "crossing_by_transport_time": _delay_crossing,
    "resolution_ok": lambda o: edit_json(o / CMP / "coupled/report.json", _unresolved),
    "initial_free_energy": lambda o: edit_csv(o / CMP / "coupled/series.csv",
                                              scale("free_energy", 1 + 1e-8, 0)),
    "trial_energy_non_increasing": lambda o: edit_csv(o / ENS / "trial_01.csv",
                                                      _raise_energy),
    "mean_of_trials": lambda o: edit_csv(o / ENS / "mean.csv", scale("period", 1 + 1e-10, 300)),
    "langer_closed_form": lambda o: edit_csv(o / ENS / "overlays.csv",
                                             scale("langer_period", 1 + 1e-10, -1)),
    "eig_full_above_eig_half": lambda o: edit_csv(o / ENS / "overlays.csv", _swap_eig),
    "overlay_energies": lambda o: edit_csv(o / ENS / "overlays.csv",
                                           scale("eig_half_energy", 1 + 1e-7)),
    "top_rate_k1": lambda o: edit_csv(o / "evans/k1/table.csv", scale("lambda_max", 1.02, 0)),
    "top_rate_k2": lambda o: edit_csv(o / "evans/k2/table.csv", scale("lambda_max", 0.98, 0)),
    "kappa_rescaling": lambda o: edit_csv(o / "evans/k2/table.csv",
                                          scale("lambda_max", 1 + 1e-4, 40)),
    "wave_table_reference": lambda o: edit_csv(o / "waves/w/table.csv", scale("energy", 1 + 1e-7)),
    "predicted_energies": lambda o: edit_csv(o / "predict/p/series.csv", scale("energy", 1 + 1e-7)),
    "exact_wave_measure": lambda o: edit_csv(o / "measure/m/measure.csv", scale("energy", 1 + 1e-7)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    base = OUT_BASE / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    bad, seen = 0, set()
    try:
        for name in W.WORKLOADS:
            workdir = base / name
            rnd = run_round(name, args.seed, workdir, False, 170.0)
            for p in rnd.problems:
                print(f"{name}: {p}")
            bad += rnd.failed
            for op in rnd.plan.ops:
                for check in op.checks:
                    seen.add(check.name)
                    copy = base / "perturbed"
                    shutil.rmtree(copy, ignore_errors=True)
                    shutil.copytree(workdir / "out", copy)
                    PERTURB[check.name](copy)
                    try:
                        check.run(copy)
                        verdict, ok = "ACCEPTED the perturbed output", False
                    except W.CheckFailed as exc:
                        verdict, ok = f"rejects it: {exc}", True
                    bad += not ok
                    print(f"{name}/{check.name}: {verdict}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if OUT_BASE.is_dir() and not any(OUT_BASE.iterdir()):
            OUT_BASE.rmdir()
    missing = set(PERTURB) ^ seen
    if missing:
        print(f"checks without a perturbation, or perturbations without a check: {missing}")
        bad += 1
    print("selftest " + ("passed" if bad == 0 else f"FAILED ({bad})"))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
