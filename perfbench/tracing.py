"""Spans around calls into bchsim's layers, recorded from outside the package.

`Tracer.install` replaces each traced function by a wrapper that appends a
span [name, start, end, parent] to an in-memory list.  Functions imported
by name into other bchsim modules (``from .energy import free_energy``) are
rebound there too, so every call path is seen.  Nothing in bchsim is
edited; the wrappers live only in the traced process.

`layer_metrics` turns the span list into the per-layer metrics.  Calls are
sequential (one thread, one process), so the children of a span never
overlap and its self time is its duration minus the sum of its direct
children's durations.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" attributes are patched on
# the class.
TRACED = (
    ("cli.main", "bchsim.cli", "main"),
    ("ensemble.run_ensemble", "bchsim.ensemble", "run_ensemble"),
    ("ensemble.compare_coupled", "bchsim.ensemble", "compare_coupled"),
    ("solver.run", "bchsim.solver", "run"),
    ("solver.advance", "bchsim.solver", "Stepper.advance"),
    ("initial.build_initial_fields", "bchsim.initial", "build_initial_fields"),
    ("energy.free_energy", "bchsim.energy", "free_energy"),
    ("energy.energy_of_period", "bchsim.energy", "energy_of_period"),
    ("energy.table_build", "bchsim.energy", "EnergyPeriodTable.build"),
    ("grid.derivative", "bchsim.grid", "derivative"),
    ("waves.amplitude_of_period", "bchsim.waves", "amplitude_of_period"),
    ("predictors.predicted_energy_curve", "bchsim.predictors", "predicted_energy_curve"),
    ("predictors.fit_pfit", "bchsim.predictors", "fit_pfit"),
    ("evans.build_eig_table", "bchsim.evans", "build_eig_table"),
    ("evans.leading_eigenvalue", "bchsim.evans", "leading_eigenvalue"),
    ("io.write_run", "bchsim.io", "write_run"),
    ("io.write_report", "bchsim.io", "write_report"),
    ("io.write_snapshot", "bchsim.io", "write_snapshot"),
    ("series.to_csv", "bchsim.series", "TimeSeries.to_csv"),
    ("numpy.fft.fft", "numpy.fft", "fft"),
    ("numpy.fft.ifft", "numpy.fft", "ifft"),
    ("numpy.fft.rfft", "numpy.fft", "rfft"),
    ("numpy.fft.irfft", "numpy.fft", "irfft"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or mod_name.split(".")[0] == "bchsim":
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start!r},{end!r}\n")


def span_cost(samples: int = 100_000) -> float:
    """Seconds one traced call adds: a wrapped no-op against the bare one."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    t1 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / samples


def layer_metrics(spans: list[list]) -> dict[str, float]:
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    records = 0
    fft_in_advance = 0
    io_outer = 0.0
    for name, start, end, parent in spans:
        dur = end - start
        count[name] += 1
        total[name] += dur
        self_time[name] += dur
        pname = spans[parent][0] if parent >= 0 else ""
        if parent >= 0:
            self_time[pname] -= dur
        if name == "energy.free_energy" and pname == "solver.run":
            records += 1  # run's record() is the only caller nested directly in run
        if name.startswith("numpy.fft.") and pname == "solver.advance":
            fft_in_advance += 1
        if name.startswith("io.") and not pname.startswith("io."):
            io_outer += dur

    def mean_ms(name: str) -> float:
        return 1e3 * total[name] / count[name] if count[name] else 0.0

    fft_calls = sum(c for n, c in count.items() if n.startswith("numpy.fft."))
    steps = count["solver.advance"]
    return {
        "solver.advance_ms": mean_ms("solver.advance"),
        "solver.advance_s": total["solver.advance"],
        "solver.advance_calls": steps,
        "numpy.fft.calls_per_step": fft_in_advance / steps if steps else 0.0,
        "numpy.fft.calls": fft_calls,
        "solver.run_self_s": self_time["solver.run"],
        "solver.records": records,
        "energy.free_energy_s": total["energy.free_energy"],
        "energy.free_energy_calls": count["energy.free_energy"],
        "grid.derivative_calls": count["grid.derivative"],
        "energy.energy_of_period_ms": mean_ms("energy.energy_of_period"),
        "energy.energy_of_period_calls": count["energy.energy_of_period"],
        "waves.amplitude_of_period_s": total["waves.amplitude_of_period"],
        "predictors.energy_curve_self_s": self_time["predictors.predicted_energy_curve"],
        "evans.build_eig_table_s": total["evans.build_eig_table"],
        "evans.leading_eigenvalue_ms": mean_ms("evans.leading_eigenvalue"),
        "evans.leading_eigenvalue_calls": count["evans.leading_eigenvalue"],
        "energy.table_build_s": total["energy.table_build"],
        "energy.table_builds": count["energy.table_build"],
        "initial.build_initial_fields_s": total["initial.build_initial_fields"],
        "predictors.fit_s": total["predictors.fit_pfit"],
        "ensemble.self_s": self_time["ensemble.run_ensemble"] + self_time["ensemble.compare_coupled"],
        "io.write_s": io_outer,
        "series.to_csv_s": total["series.to_csv"],
        "cli.self_s": self_time["cli.main"],
        "trace.spans": len(spans),
        "trace.overhead_est_s": len(spans) * span_cost(),
    }
