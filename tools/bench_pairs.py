"""Paired benchmark runs of HEAD against a parent revision.

Usage, from the root of the repository::

    python3 tools/bench_pairs.py --parent REV --label NAME --what TEXT \
        --seed FIRST --trace-seed SEED

Extracts REV and HEAD the same way, each with ``git archive`` into its own
temporary directory (under ``TMPDIR``), so that neither side runs from the
working tree; a working tree with uncommitted changes to tracked files is
refused (exit status 2), since they would not be measured. For each
workload named in ``BENCHMARK.json`` it then runs 10 pairs of
``perfbench/run.py --trace 0`` for the ``run_seconds`` that
``BENCHMARK.json`` sets, each side with its own copy of the harness from
its own root, on seeds ``--seed`` onwards, the side that runs first
alternating from pair to pair; then one ``--trace 1`` run per side at
``--trace-seed``. After the pairs it runs each side's
``perfbench/child.py --import-only`` ``IMPORTS`` times from the same two
copies, alternating, with one BLAS thread, since ``setup_s`` over the pairs
alone does not resolve a difference of 10%. Both seeds have no default, so
that every comparison picks seeds not used before on purpose, and a seed
that any ``BENCH_*.json`` at the root of the repository already records is
refused (exit status 2, naming the file). It writes ``BENCH_<label>.json``
at the root of the repository: how the runs were made, every run's result
line, and per workload and end-to-end metric each side's median and
quartiles, the number of pairs the change won and the ratio of the medians,
with the failed and attempted runs and each side's traced per-layer
metrics, and under ``imports`` each side's ``setup_s`` samples with their
median and quartiles. Under ``lines`` it records each side's line counts of
the ``*.py`` files in ``LINE_DIRS``, read from the two copies, and the
change's delta. So that drift of the host shows beside the runs,
``how`` also records ``PYTHONDONTWRITEBYTECODE`` as found in the
environment (null when unset; every child inherits it, and with it set
each run compiles enttime's sources anew) and ``os.getloadavg()`` before
the first pair and after the last traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
IMPORTS = 20
LINE_DIRS = ("src", "tests", "tools")


def parse_run_output(stdout: str) -> tuple[dict, dict]:
    """(environment record, result object) from the output of ``perfbench/run.py``.

    The result is the last line; the environment is the line starting
    with ``env``.
    """
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return env, json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median and the first and third quartiles, linear interpolation between samples."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-workload summary of ``runs`` (the ``runs`` entries of a BENCH file).

    Pairs are matched by workload and seed among the untraced runs. The
    change wins a pair when its value is strictly better in the direction
    ``end_to_end`` gives for the metric.
    """
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        timed = {side: {run["seed"]: run["result"] for run in mine
                        if run["side"] == side and not run["trace"]} for side in SIDES}
        seeds = [seed for seed in timed["parent"] if seed in timed["change"]]
        entry: dict = {}
        for metric in end_to_end:
            name = metric["name"]
            value = {side: {seed: timed[side][seed]["metrics"][name]["value"] for seed in seeds}
                     for side in SIDES}
            stats = {side: quartiles(list(value[side].values())) for side in SIDES}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * value["change"][s] < sign * value["parent"][s] for s in seeds)
            entry[name] = {
                **stats,
                "change_better_pairs": wins,
                "pairs": len(seeds),
                "median_ratio_change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            }
        for field, key in (("failed", "failed_runs"), ("attempted", "attempted_runs")):
            entry[key] = {side: sum(timed[side][s][field] for s in seeds) for side in SIDES}
        entry["traced"] = {
            run["side"]: {k: v["value"] for k, v in run["result"]["metrics"].items()}
            for run in mine if run["trace"]
        }
        summary[workload] = entry
    return summary


def summarize_imports(samples: dict[str, list[float]]) -> dict:
    """Median and quartiles of each side's import times, the samples and the ratio of medians."""
    entry: dict = {side: {**quartiles(samples[side]), "samples": samples[side]} for side in SIDES}
    entry["median_ratio_change_over_parent"] = (entry["change"]["median"]
                                                / entry["parent"]["median"])
    return entry


def setup_seconds(root: Path) -> float:
    """``setup_s`` of one ``perfbench/child.py --import-only`` run from ``root``, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="import_") as tmp:
        result_path = Path(tmp) / "result.json"
        subprocess.run([sys.executable, "perfbench/child.py", str(result_path), "--import-only",
                        "--"], cwd=root, env=env, capture_output=True, check=True)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(root.resolve()):
        raise RuntimeError(f"imported enttime from {result['module']}, not {root}")
    return result["setup_s"]


def time_imports(roots: dict[str, Path]) -> dict:
    """``IMPORTS`` import times per side, the side that goes first alternating, summarized.

    One untimed import per side first writes the bytecode, as ``perfbench/run.py`` does.
    """
    samples: dict[str, list[float]] = {side: [] for side in SIDES}
    for side in SIDES:
        setup_seconds(roots[side])
    for k in range(IMPORTS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            samples[side].append(setup_seconds(roots[side]))
    return summarize_imports(samples)


def line_counts(root: Path) -> dict[str, int]:
    """Lines of the ``*.py`` files under each of ``LINE_DIRS`` in ``root``."""
    return {name: sum(path.read_bytes().count(b"\n") for path in (root / name).rglob("*.py"))
            for name in LINE_DIRS}


def used_seeds(root: Path, seeds) -> list[tuple[str, int]]:
    """(file name, seed) for each of ``seeds`` that a ``BENCH_*.json`` in ``root`` already ran."""
    wanted = set(seeds)
    clashes = []
    for path in sorted(root.glob("BENCH_*.json")):
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        clashes += [(path.name, seed) for seed in sorted({run["seed"] for run in runs} & wanted)]
    return clashes


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return parse_run_output(proc.stdout)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """Write the tree of ``commit`` into the new directory ``dest`` with ``git archive``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--trace-seed", type=int, required=True, dest="trace_seed",
                        help="seed of the traced runs")
    args = parser.parse_args(argv)
    seeds = range(args.seed, args.seed + PAIRS)
    clashes = used_seeds(ROOT, [*seeds, args.trace_seed])
    if clashes:
        parser.error("seeds already used: "
                     + ", ".join(f"{seed} in {name}" for name, seed in clashes))

    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes, which a git archive copy "
                     "of HEAD would not measure; commit them first")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
               "change": git("rev-parse", "HEAD")}
    runs: list[dict] = []
    env: dict = {}
    load = {"start": os.getloadavg()}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(commits[side], roots[side])
        lines = {side: line_counts(roots[side]) for side in SIDES}
        lines["delta"] = {name: lines["change"][name] - lines["parent"][name]
                          for name in LINE_DIRS}
        for workload in (w["name"] for w in bench["workloads"]):
            schedule = [(seed, order, 0) for k, seed in enumerate(seeds)
                        for order in (SIDES if k % 2 == 0 else SIDES[::-1])]
            schedule += [(args.trace_seed, side, 1) for side in SIDES]
            for seed, side, trace in schedule:
                print(f"{workload} seed {seed} {side} trace {trace}", file=sys.stderr, flush=True)
                env, result = run_side(roots[side], workload, seed, seconds, trace)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "trace": trace, "result": result})
        load["end"] = os.getloadavg()
        print(f"{IMPORTS} imports per side", file=sys.stderr, flush=True)
        imports = time_imports(roots)

    last, first = seeds[-1], seeds[0]
    document = {
        "label": args.label,
        "what": args.what,
        "how": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                       "--trace T, run from the root of each checkout",
            "parent": f"commit {commits['parent']} ({args.parent}), from a git archive copy",
            "change": f"commit {commits['change']} (HEAD), from a git archive copy",
            "pairs": f"{PAIRS} per workload, seeds {first}-{last}, the side that runs first "
                     "alternating from pair to pair; then one --trace 1 run per side at seed "
                     f"{args.trace_seed}",
            "machine": f"{env.get('nproc')} CPUs ({env.get('cpu')}), Python {env.get('python')}, "
                       f"numpy {env.get('numpy')} with {env.get('blas')}, one BLAS/OpenMP thread "
                       "in each child (set by run.py)",
            "imports": f"setup_s of {IMPORTS} runs per side of perfbench/child.py "
                       "--import-only after the pairs, one BLAS thread, the side that runs "
                       "first alternating",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "loadavg": load,
        },
        "summary": summarize(runs, bench["end_to_end"]),
        "imports": imports,
        "lines": lines,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
