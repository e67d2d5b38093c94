"""Byte-for-byte command outputs of HEAD against a parent revision.

Usage, from the root of the repository::

    python3 tools/compare_outputs.py --parent REV

Extracts REV and HEAD with ``bench_pairs.extract`` (``git archive`` into
sibling temporary directories under ``TMPDIR``); a working tree with
uncommitted changes to tracked files is refused (exit status 2), since the
copy of HEAD would not hold them. Each model of ``model_documents`` is
written once as a JSON file, and on each side, from that side's ``src/``
with one BLAS thread, the script runs ``timescale --no-timing``,
``verify --alphas 1,2,3`` (not on the d = 1024 model, to keep the run
short) and
``evolve --alphas 1,2,3 --points 201``, plus the same ``evolve`` with
``--t-max 8`` on the d = 1024 model and on the model whose start reaches a
100-state block, each with ``--out``. It prints one
line per run and exits with status 1 if any run differs between the sides
in exit code, stdout, stderr or the ``--out`` file, else 0. For each stream
that differs, the line also gives the largest absolute and relative
difference between the numbers the two sides wrote there
(:func:`number_gap`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def _load(name: str):
    """A module of this checkout, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("tools/bench_pairs.py")

# the model whose verify run is left out
DENSE = "dense_evolve"
# a model whose start reaches a block of more than LANCZOS_STEPS states, not the whole space
PARTIAL = "partial_block_100"


def _custom(dim_a: int, dim_b: int, terms: list, psi_a: list, psi_b: list) -> dict:
    """A custom model document from nested lists of complex numbers."""
    def parts(x):
        x = np.asarray(x, dtype=np.complex128)
        return {"re": x.real.tolist(), "im": x.imag.tolist()}

    return {"model": "custom", "dim_a": dim_a, "dim_b": dim_b,
            "terms": [{"a": parts(a), "b": parts(b)} for a, b in terms],
            "state": {"psi_a": parts(psi_a), "psi_b": parts(psi_b)}}


def _partial_block(seed: int) -> dict:
    """12 x 12 Hermitian terms within sectors of 10 and 2 states on each side, from a
    start inside the first ones: one reached block of 100 of the 144 states."""
    rng = np.random.default_rng(seed)
    second = np.arange(12) >= 10
    mask = second[:, None] == second[None, :]

    def hermitian():
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        return 0.5 * (g + g.conj().T) * mask

    def start():
        v = np.where(second, 0.0, rng.standard_normal(12) + 1j * rng.standard_normal(12))
        return v / np.linalg.norm(v)

    return _custom(12, 12, [(hermitian(), hermitian()) for _ in range(3)], start(), start())


def model_documents() -> dict[str, dict]:
    """The fixed model set, by name."""
    def jcm(**fields):
        return {"model": "jcm", "lambda": 1.0, **fields}

    def coherent(nu):
        return {"type": "coherent", "nu": nu}

    ground = {"c_e": 0.0, "c_g": 1.0}
    sigma_p, sigma_m = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    sigma_x, sigma_z, one = [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[1, 0], [0, 1]]
    b = [[0, 0, 1j], [0, 0, 0], [0, 0, 0]]
    b_adj = [[0, 0, 0], [0, 0, 0], [-1j, 0, 0]]
    diag = [[0.5, 0, 0], [0, 0, 0], [0, 0, -0.25]]
    return {
        # d = 4096, the cap: a 2-state block of the largest space the dynamics takes
        "jcm_fock_2047": jcm(n_max=2047, field={"type": "fock", "n": 3}),
        "jcm_fock_767": jcm(n_max=767, field={"type": "fock", "n": 3}),
        "jcm_fock_7": jcm(n_max=7, field={"type": "fock", "n": 3}),
        "coherent_excited": jcm(field=coherent([1.5, -0.5])),
        "coherent_ground_40": jcm(n_max=40, atom=ground, field=coherent(3.0)),
        "coherent_ground_767": jcm(n_max=767, atom=ground, field=coherent(3.0)),
        "detuned": {"model": "jcm", "lambda": 0.7, "omega": 0.3, "n_max": 40,
                    "atom": {"c_e": 0.6, "c_g": [0.0, 0.8]}, "field": coherent([1.5, 0.5])},
        "bose_hubbard_u0": {"model": "bose_hubbard", "j_rate": 1.0, "u_rate": 0.0,
                            "n_per_site_max": 4},
        "bose_hubbard_u100": {"model": "bose_hubbard", "j_rate": 1.0, "u_rate": 100.0,
                              "n_per_site_max": 4},
        "custom_2x3": _custom(2, 3, [(sigma_p, b), (sigma_m, b_adj), (sigma_z, diag)],
                              [0.6, 0.8j], [0.8, 0, 0.6]),
        "t4_onset": _custom(2, 2, [(sigma_x, one), (sigma_z, sigma_x)], [1, 0], [1, 0]),
        DENSE: _load("perfbench/workloads.py").dense_document(12345, 32),
        "non_hermitian": _custom(2, 2, [(sigma_p, sigma_x)], [1, 0], [1, 0]),
        PARTIAL: _partial_block(1801),
    }


def commands(model: str) -> list[list[str]]:
    """The command lines run on ``model``, without ``--spec`` and ``--out``."""
    runs = [["timescale", "--no-timing"], ["verify", "--alphas", "1,2,3"],
            ["evolve", "--alphas", "1,2,3", "--points", "201"]]
    if model == DENSE:
        del runs[1]
    if model in (DENSE, PARTIAL):
        # the longer span needs more series terms than the block has states, so it
        # takes the eigenbasis route, where the default span takes the series
        runs.append([*runs[-1], "--t-max", "8"])
    return runs


# decimal numbers as Python and the JSON module write finite floats and integers
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _numbers(stream) -> np.ndarray:
    """The numbers in an exit code, or in the bytes of an output (none if it is missing)."""
    if isinstance(stream, int):
        return np.array([float(stream)])
    return np.array([float(x) for x in _NUMBER.findall(stream or b"")])


def number_gap(parent, change) -> str:
    """The largest absolute and relative difference between the numbers of two streams.

    The numbers are paired in order of appearance; the relative difference
    of a pair is taken against the larger magnitude of the two. Two streams
    with different counts of numbers, or with equal numbers in different
    text, say so instead.
    """
    a, b = _numbers(parent), _numbers(change)
    if a.size != b.size:
        return f"{a.size} against {b.size} numbers"
    gap = np.abs(a - b)
    if not gap.any():
        return "same numbers"
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)
    return f"max abs {gap.max():.3e}, max rel {rel.max():.3e}"


def run_side(root: Path, argv: list[str], workdir: Path) -> dict:
    """Run ``enttime`` from ``root/src`` in ``workdir`` with ``--out out``; what it left."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from enttime.cli import main; sys.exit(main())",
         *argv, "--out", "out"],
        cwd=workdir, env=env, capture_output=True,
    )
    out = workdir / "out"
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "--out": out.read_bytes() if out.exists() else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    git = bench_pairs.git
    if git("status", "--porcelain", "--untracked-files=no"):
        parser.error("the working tree has uncommitted changes, which a git archive copy "
                     "of HEAD would not hold; commit them first")

    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
               "change": git("rev-parse", "HEAD")}
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        roots = {side: tmp / side for side in SIDES}
        for side in SIDES:
            bench_pairs.extract(commits[side], roots[side])
        for model, doc in model_documents().items():
            spec = tmp / f"{model}.json"
            spec.write_text(json.dumps(doc), encoding="utf-8")
            for k, cmd in enumerate(commands(model)):
                argv_k = [*cmd, "--spec", str(spec)]
                got = {side: run_side(roots[side], argv_k, tmp / "runs" / side / f"{model}-{k}")
                       for side in SIDES}
                diff = [key for key in got["parent"] if got["parent"][key] != got["change"][key]]
                differing += bool(diff)
                status = "differs in " + ", ".join(
                    f"{key} ({number_gap(got['parent'][key], got['change'][key])})"
                    for key in diff) if diff else "identical"
                print(f"{model:<20} {' '.join(cmd):<40} exit {got['change']['exit code']}  "
                      f"{status}", flush=True)
    print(f"{differing} of the runs differ" if differing else "every run is identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
