"""The covariance sum shares no code with the dynamics, and a run loads only what it uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import enttime
import oracles

PACKAGE = Path(enttime.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports itself, relatively or by full name."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "enttime")):  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module)
            elif node.module and node.module.startswith("enttime."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("enttime."))
    return {module.split(".")[0] for module in found} & MODULES


def _closure(name: str) -> set[str]:
    """Every package module that importing ``name`` runs, through its own imports."""
    seen, stack = set(), [name]
    while stack:
        for module in _imports(stack.pop()) - seen:
            seen.add(module)
            stack.append(module)
    return seen


def test_the_covariance_sum_and_the_dynamics_import_nothing_of_each_other():
    assert _imports("timescale") == {"errors", "hamiltonian", "tolerances"}
    assert {"propagator", "linalg"}.isdisjoint(_closure("timescale"))
    for name in ("propagator", "linalg"):
        assert "timescale" not in _closure(name)
    assert "linalg" in _closure("propagator")  # the reader sees the imports it should


def test_the_jcm_closed_form_does_not_import_the_covariance_sum_it_checks():
    assert _imports("models") == {"errors", "hamiltonian", "tolerances"}


def _complex(x):
    x = np.asarray(x, dtype=np.complex128)
    return {"re": x.real.tolist(), "im": x.imag.tolist()}


def _evolve_and_verify(tmp_path) -> list[list[str]]:
    """Command lines of a dense evolve that takes the series in steps and of a JCM verify."""
    rng = np.random.default_rng(149)
    ga, gb = oracles.random_matrix(rng, 12), oracles.random_matrix(rng, 10)
    dense = {"model": "custom", "dim_a": 12, "dim_b": 10,
             "terms": [{"a": _complex(ga), "b": _complex(gb)},
                       {"a": _complex(ga.conj().T), "b": _complex(gb.conj().T)}],
             "state": {"psi_a": _complex(oracles.random_unit_vector(rng, 12)),
                       "psi_b": _complex(oracles.random_unit_vector(rng, 10))}}
    jcm = {"model": "jcm", "lambda": 1.0, "n_max": 10, "field": {"type": "fock", "n": 3}}
    paths = []
    for name, doc in (("dense.json", dense), ("jcm.json", jcm)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    return [["evolve", "--spec", str(paths[0]), "--t-max", "2", "--points", "201",
             "--out", str(tmp_path / "out.csv")],
            ["verify", "--spec", str(paths[1])]]


def _probe(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return run.stdout.strip()


def test_stepped_evolve_and_jcm_verify_do_not_load_numpy_ma(tmp_path):
    """numpy 2 imports numpy.ma lazily (np.unique does, for one: about 15 ms). A dense model
    whose evolve takes the series in steps, and a JCM verify, run without it."""
    probe = (
        "import contextlib, io, sys, enttime.cli, enttime.propagator as p\n"
        "plans, plan = [], p._series_plan\n"
        "p._series_plan = lambda *args: plans.append(plan(*args)) or plans[-1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [enttime.cli.main(argv) for argv in {_evolve_and_verify(tmp_path)!r}]\n"
        "print(codes, max(steps for steps, _ in plans) > 1, 'numpy.ma' in sys.modules)"
    )
    assert _probe(probe) == "[0, 0] True False"


def test_no_class_of_the_package_is_generated(tmp_path):
    """Importing the command line, then the same dense evolve and JCM verify, leave
    dataclasses unloaded: every class of the package is written out."""
    probe = (
        "import contextlib, io, sys, enttime.cli\n"
        "imported = 'dataclasses' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [enttime.cli.main(argv) for argv in {_evolve_and_verify(tmp_path)!r}]\n"
        "print(codes, imported, 'dataclasses' in sys.modules)"
    )
    assert _probe(probe) == "[0, 0] False False"
