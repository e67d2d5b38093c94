"""Self-test of the benchmark harness at tiny sizes (every d <= 64).

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` and the harness agree on every metric name
and unit; that each workload, untraced and traced, emits all of them; that
each workload's reference check rejects a deliberately corrupted output;
and that a wrapped function that no longer exists is reported absent. Runs
in well under a minute and prints ``selftest: PASS`` or raises.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import run

os.environ.update(run.thread_env(1))
sys.path.insert(0, str(run.SRC))

import child  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402


def check_benchmark_file() -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    return bench


def check_metrics_emitted(bench: dict) -> None:
    for name in workloads.NAMES:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(name, 7, 0.1, trace, size="tiny")
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, kind, result)
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, kind, set(got) ^ set(expected))
            for key, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (key, m)
    print("selftest: every metric emitted with its unit on every workload")


def tiny_output(name: str) -> tuple[workloads.Workload, str]:
    """A correct tiny output of ``name``, from one real child run."""
    wl = workloads.make(name, 7, "tiny")
    assert all(d <= 64 for d in _dims(wl.document)), wl.document
    work = run.WORK / f"selftest-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run.Runner(wl, work, time.monotonic() + 60.0)
        assert runner.timed()["error"] is None
        return wl, runner.out.read_text(encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _dims(doc: dict) -> list[int]:
    if doc["model"] == "jcm":
        return [2 * (doc["n_max"] + 1)]
    return [doc["dim_a"] * doc["dim_b"]]


def _edit_row(text: str, label: str, **changes) -> str:
    table = json.loads(text)
    for row in table["rows"]:
        if row["label"] == label:
            row.update(changes)
    return json.dumps(table)


def check_corruption_rejected() -> None:
    wl, text = tiny_output("jcm_verify")
    assert wl.check(Invocation(0, text)) is None
    assert wl.check(Invocation(1, text)) is not None
    assert wl.check(Invocation(0, None)) is not None
    assert wl.check(Invocation(0, _edit_row(text, "curvature(alpha=3)", status="FAIL"))) is not None
    assert wl.check(Invocation(0, _edit_row(text, "curvature(alpha=2)", predicted=16.5))) is not None
    assert wl.check(Invocation(0, _edit_row(text, "vn-divergence", measured=-15.0))) is not None
    assert wl.check(Invocation(0, _edit_row(text, "curvature(alpha=4)", predicted=None))) is not None

    wl, text = tiny_output("coherent_onset")
    assert wl.check(Invocation(0, text)) is None
    assert wl.check(Invocation(0, _edit_row(text, "onset-slope(S_2)", status="FAIL"))) is not None
    assert wl.check(Invocation(0, _edit_row(text, "onset-slope(S_2)", measured=5.5))) is not None

    wl, text = tiny_output("dense_evolve")
    assert wl.check(Invocation(0, text)) is None
    lines = text.split("\n")
    points = wl.reference["times"].size
    k = 1 + points + (points - 1) // 2  # alpha = 2 block, midpoint row
    t, alpha, value = lines[k].split(",")
    lines[k] = f"{t},{alpha},{float(value) * (1.0 + 1e-6)!r}"
    assert wl.check(Invocation(0, "\n".join(lines))) is not None
    assert wl.check(Invocation(0, "\n".join(text.split("\n")[:-2]) + "\n")) is not None
    assert wl.check(Invocation(0, text.replace("t,alpha,entropy", "t,alpha,S"))) is not None
    print("selftest: corrupted outputs are rejected")


def check_absent_reported() -> None:
    import enttime.cli  # noqa: F401  (loads every module the tracer patches)
    import enttime.entropy

    tracer = child.Tracer()
    layers = {
        "kernels": [("enttime.entropy", "renyi_from_probabilities")],
        "gone": [("enttime.entropy", "no_such_function")],
        "gone_module": [("enttime.no_such_module", "anything")],
    }
    tracer.install(layers)
    assert enttime.entropy.renyi_from_probabilities([0.5, 0.5], 2) > 0.0
    summary = tracer.summary(layers)
    assert tracer.absent == ["gone:enttime.entropy.no_such_function",
                             "gone_module:enttime.no_such_module.anything"], tracer.absent
    assert summary["kernels"]["calls"] == 1
    assert summary["gone"] == {"calls": 0, "s": 0.0, "self_s": 0.0}
    print("selftest: missing wrapped functions are reported absent")


def main() -> int:
    if not __debug__:
        raise SystemExit("selftest checks with assert; run it without -O")
    bench = check_benchmark_file()
    check_metrics_emitted(bench)
    check_corruption_rejected()
    check_absent_reported()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
