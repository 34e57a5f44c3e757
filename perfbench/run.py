"""bchsim benchmark: run one workload through the `bchsim` CLI and report.

    python3 perfbench/run.py --workload coupled_compare --seed 0 --seconds 12 --trace 0

Run from the root of a source tree; bchsim is imported from its `src/`.
Every round is a fresh process with an empty output directory.  Rounds
repeat until --seconds have passed (at least one).  Before them, with
--trace 0, a few processes only import bchsim and parse the configs, to
time set-up.  With --trace 1 one untraced round comes first and the rest
are traced; the tracing overhead is the difference of their wall times.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  An operation is one CLI command; it fails if it exits
non-zero or its outputs fail a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3  # set-up-only processes per untraced run
BLAS_THREADS = 1  # single-processor runs, like the commands' --threads 1
RUN_DEADLINE_S = 150.0  # no round starts that would likely end later than this
RUN_TIMEOUT_S = 170.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # bchsim comes from this tree's src/ only
    return env


def spawn(job: dict, workdir: Path, timeout: float) -> dict:
    """Run child.py on a job; return its result dict (raises on failure)."""
    workdir.mkdir(parents=True, exist_ok=True)
    job_path = workdir / "job.json"
    job = dict(job, src=str(SRC), result=str(workdir / "result.json"))
    with open(workdir / "child.log", "w") as log:
        job["t_spawn"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=workdir,
                                env=_child_env())
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"workload process timed out after {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited {code}; see {workdir / 'child.log'}")
    result = json.loads((workdir / "result.json").read_text())
    if Path(result["bchsim"]).resolve().parent != SRC / "bchsim":
        raise RuntimeError(f"imported bchsim from {result['bchsim']}, not {SRC}")
    return result


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Round:
    result: dict  # the workload process's measurements (child.py)
    plan: W.Plan
    failed: int = 0
    checks_ok: bool = True
    problems: list[str] = field(default_factory=list)


def run_round(workload: str, seed: int, workdir: Path, trace: bool, timeout: float) -> Round:
    """Make the inputs, run the commands in a fresh process, check the outputs."""
    inputs, out = workdir / "in", workdir / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    plan = W.WORKLOADS[workload](seed, inputs, out)
    commands = [op.argv + ["--out", str(out), "--threads", "1"] for op in plan.ops]
    rnd = Round(spawn({"configs": plan.configs, "commands": commands, "setup_only": False,
                       "trace": trace}, workdir / "proc", timeout), plan)
    for op, cmd in zip(plan.ops, rnd.result["commands"]):
        if cmd["exit"] != 0:
            rnd.failed += 1
            rnd.problems.append(f"{op.name}: exit {cmd['exit']} {cmd['error'] or ''}".strip())
            continue
        for check in op.checks:
            try:
                check.run(out)
            except (W.CheckFailed, OSError, KeyError, ValueError, IndexError) as exc:
                rnd.failed += 1
                rnd.checks_ok = False
                rnd.problems.append(f"{op.name}: check {check.name} failed: {exc!r}")
                break
    if trace:
        rnd.result["layers"]["io.bytes_written"] = dir_bytes(out)
    return rnd


def measure(workload: str, seed: int, seconds: float, trace: bool, base: Path) -> dict:
    start = time.monotonic()
    setups: list[float] = []
    if not trace:
        setup_dir = base / "setup"
        (setup_dir / "in").mkdir(parents=True)
        (setup_dir / "out").mkdir()
        configs = W.WORKLOADS[workload](seed, setup_dir / "in", setup_dir / "out").configs
        for i in range(SETUP_SAMPLES):
            setups.append(spawn({"configs": configs, "setup_only": True, "trace": False},
                                setup_dir / f"proc{i}", 60.0)["setup_s"])

    rounds: list[Round] = []

    def one_round(traced: bool) -> dict:
        index = len(rounds)
        rnd = run_round(workload, seed, base / f"round{index}", traced,
                        max(RUN_TIMEOUT_S - (time.monotonic() - start), 10.0))
        rounds.append(rnd)
        for p in rnd.problems:
            print(f"FAILED {p}", file=sys.stderr)
        res = rnd.result
        print(f"round {index}: wall_s={res['wall_s']:.3f} setup_s={res['setup_s']:.3f} "
              f"peak_rss_mb={res['peak_rss_mb']:.1f} traced={int(traced)} "
              f"failed={rnd.failed}/{len(rnd.plan.ops)}")
        return res

    untraced = one_round(False) if trace else None
    measured: list[dict] = []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        measured.append(one_round(trace))
        now = time.monotonic()
        if now - t_measure >= seconds or now - start + 1.3 * (now - t0) > RUN_DEADLINE_S:
            break

    if trace:
        metrics = {n: statistics.median(r["layers"][n] for r in measured)
                   for n in measured[0]["layers"]}
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in measured)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in measured)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["wall_s"]
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in measured]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        }
    return {"correct": all(r.checks_ok for r in rounds),
            "attempted": sum(len(r.plan.ops) for r in rounds),
            "failed": sum(r.failed for r in rounds), "metrics": metrics}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep inputs, outputs and spans under .perfbench_out/")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "bchsim" / "__init__.py").is_file():
        print(f"error: no bchsim sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its workload process (spawn's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import numpy
    import scipy

    print(f"settings: workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    base = OUT_BASE / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), base)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.keep:
            shutil.rmtree(base, ignore_errors=True)
            if OUT_BASE.is_dir() and not any(OUT_BASE.iterdir()):
                OUT_BASE.rmdir()
    units = declared_units(bool(args.trace))
    if set(units) != set(summary["metrics"]):
        print(f"error: measured metrics {sorted(summary['metrics'])} are not the declared "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    summary["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in summary["metrics"].items()}
    for name, m in summary["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
