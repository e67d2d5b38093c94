"""Print every benchmark metric of every workload, by name with its unit.

Usage, from the root of a source checkout::

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE.json]

Runs ``perfbench/run.py`` on each workload twice, untraced (end-to-end
metrics) and traced (per-layer metrics), each in its own process, and
prints one line per metric plus the correctness count of each run. With
``--out`` it also writes the results and the environment record as JSON;
``perfbench/baseline_seed.json`` was made this way. Exits 1 if any run
fails or any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; its environment record and result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    parser.add_argument("--out", default=None, help="also write the results as JSON")
    args = parser.parse_args(argv)
    results: dict = {}
    env: dict = {}
    ok = True
    for name in NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            env, result = measure(name, args.seed, args.seconds, trace)
            results.setdefault(name, {})[kind] = result
            ok &= result["correct"]
            print(f"{name} [{kind}] correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:<32} {m['value']:>16.6g} {m['unit']}")
    if args.out is not None:
        doc = {"env": env, "seed": args.seed, "seconds": args.seconds, "results": results}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
