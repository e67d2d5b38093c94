"""Benchmark harness for the ``enttime`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh child process (``perfbench/child.py``) that
imports ``enttime.cli`` from ``src/`` and calls ``enttime.cli.main(argv)``
once, with OpenBLAS and OpenMP pinned to one thread in its own environment.
Load is closed loop with one client: the next child starts when the last
one has ended, until ``--seconds`` have passed (at least ``MIN_RUNS``
children). Every child's output is checked against the workload's
reference (``perfbench/workloads.py``); a crash counts as a failure.

``--trace 0`` reports the end-to-end metrics (medians over the untraced
children). ``--trace 1`` runs the same untraced loop, then one traced child
for the per-layer split and one child at two threads, and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
starting with ``env`` records the source, machine and thread settings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_RUNS = 3
# Least number of set-up samples behind the setup_s median.
SETUP_SAMPLES = 9
# Every run must end within this many seconds of starting.
HARD_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in LAYERS
       for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "linalg.eig.dim_max": "count",
    "linalg.eig.d3_sum": "count",
    "hamiltonian.assemble.peak_mb": "MB",
    "linalg.eig.peak_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
    "blas.speedup_2t": "ratio",
    "error_frac": "ratio",
}


def thread_env(threads: int) -> dict[str, str]:
    return {name: str(threads) for name in THREAD_VARS}


def environment_record() -> dict:
    """Source, machine and library versions a result was measured with."""
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass  # not Linux
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": thread_env(1),
    }


class Runner:
    """Starts children in one work directory and checks their outputs."""

    def __init__(self, workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.spec = work / "model.json"
        self.out = work / workload.output_name
        self.spec.write_text(json.dumps(workload.document), encoding="utf-8")
        self.runs: list[dict] = []

    def child(self, flags: list[str], threads: int = 1) -> dict | None:
        """One child process; its result dict, or None if it crashed."""
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ENTTIME_THREADS")}
        env.update(thread_env(threads), PYTHONPATH=str(SRC))
        argv = self.workload.argv(self.spec, self.out)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(result_path), *flags, "--", *argv],
            env=env, cwd=self.work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0 or not result_path.exists():
            sys.stderr.write(proc.stderr[-2000:])
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"child imported enttime from {result['module']}, not {SRC}")
        return result

    def setup_sample(self) -> float:
        result = self.child(["--import-only"])
        if result is None:
            raise RuntimeError("importing enttime.cli failed")
        return result["setup_s"]

    def timed(self, flags: list[str] = (), threads: int = 1) -> dict:
        """One checked invocation, recorded in ``self.runs``."""
        from workloads import Invocation

        self.out.unlink(missing_ok=True)
        result = self.child(list(flags), threads)
        if result is None:
            run = {"error": "child crashed"}
        else:
            output = self.out.read_text(encoding="utf-8") if self.out.exists() else None
            error = self.workload.check(Invocation(result["exit_code"], output))
            run = {**result, "error": error}
        if run["error"] is not None:
            print(f"FAILED {self.workload.name}: {run['error']}", file=sys.stderr)
        self.runs.append(run)
        return run

    def loop(self, seconds: float, setups: list[float] | None = None) -> list[dict]:
        """Closed loop of untraced one-thread runs filling ``seconds``.

        At least MIN_RUNS runs; no run starts that the median so far says
        would end past the window. With ``setups``, one import-only child
        follows each run, so set-up samples spread over the whole window.
        """
        start = time.monotonic()
        runs: list[dict] = []
        while True:
            if len(runs) >= MIN_RUNS:
                expected = median_of(runs, "wall_s")  # NaN when every run crashed
                fits = time.monotonic() - start + expected <= seconds
                if not (fits and time.monotonic() + 2.0 * expected <= self.deadline):
                    break
            runs.append(self.timed())
            if setups is not None:
                setups.append(self.setup_sample())
        return runs


def median_of(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else float("nan")


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} "
            f"samples, min {min(values):.6g}, max {max(values):.6g}")


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload; the result object the harness prints last."""
    import workloads

    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(workloads.make(name, seed, size), work, started + HARD_LIMIT_S)
        runner.setup_sample()  # compiles the package's bytecode; not counted
        setups: list[float] = []
        base = runner.loop(seconds, None if trace else setups)
        if trace:
            traced = runner.timed(["--trace", str(work / "spans.json")])
            two = runner.timed(threads=2)
            metrics = layer_metrics(traced, two, median_of(base, "wall_s"))
            print(describe("untraced wall_s", [r["wall_s"] for r in base if "wall_s" in r], "s"))
            for k in traced.get("absent", []):
                print(f"absent layer function: {k}")
        else:
            setups += [r["setup_s"] for r in base if "setup_s" in r]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.setup_sample())
            metrics = {key: median_of(base, key) for key in END_TO_END}
            metrics["setup_s"] = statistics.median(setups)
            for key, unit in END_TO_END.items():
                values = setups if key == "setup_s" else [r[key] for r in base if key in r]
                print(describe(key, values, unit))
        attempted = len(runner.runs)
        failed = sum(r["error"] is not None for r in runner.runs)
        metrics["error_frac"] = failed / attempted
        units = PER_LAYER if trace else END_TO_END
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_metrics(traced: dict, two: dict, untraced_wall: float) -> dict:
    layers = traced.get("layers", {})
    metrics = {}
    for layer in LAYERS:
        entry = layers.get(layer, {})
        for field in ("calls", "s", "self_s"):
            metrics[f"{layer}.{field}"] = entry.get(field, 0)
    eig = layers.get("linalg.eig", {})
    metrics["linalg.eig.dim_max"] = eig.get("dim_max", 0)
    metrics["linalg.eig.d3_sum"] = eig.get("d3_sum", 0)
    metrics["hamiltonian.assemble.peak_mb"] = layers.get("hamiltonian.assemble", {}).get("peak_mb", 0.0)
    metrics["linalg.eig.peak_mb"] = eig.get("peak_mb", 0.0)
    wall = traced.get("wall_s", float("nan"))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.absent"] = len(traced.get("absent", []))
    metrics["blas.speedup_2t"] = untraced_wall / two.get("wall_s", float("nan"))
    return metrics


def main(argv=None) -> int:
    # Set before numpy loads: the parent's reference propagation runs at one
    # thread too.
    os.environ.update(thread_env(1))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enttime" / "cli.py").is_file():
        print(f"error: no enttime sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("env " + json.dumps(environment_record()))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
