"""The benchmark's own output checks, run in-process on its tiny workloads.

Each workload named in BENCHMARK.json is generated at the self-test size,
run through ``enttime.cli.main`` and judged by ``perfbench/workloads.py``,
so a change to a CSV header, a row label or a value shows up here and not
only as a failed benchmark operation.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from enttime.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_passes_its_check(tmp_path, monkeypatch, capsys, name):
    # capsys keeps the printed verify table out of the -rP summary
    workloads = load_workloads(monkeypatch)
    workload = workloads.make(name, 7, "tiny")
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps(workload.document), encoding="utf-8")
    out = tmp_path / workload.output_name
    code = main(workload.argv(spec, out))
    output = out.read_text(encoding="utf-8") if out.exists() else None
    assert workload.check(workloads.Invocation(code, output)) is None
