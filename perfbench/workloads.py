"""Seeded inputs and reference checks for the enttime benchmark.

A workload is one ``enttime`` CLI invocation on one generated model file.
The program only ever sees the model file; the seed stays here. Every
invocation's output is checked against a reference that does not share the
route under test:

* ``jcm_verify`` and ``coherent_onset`` are judged against closed forms
  (the JCM timescale formula, the sixth-order coherent onset).
* ``dense_evolve`` is judged against ``scipy.linalg.expm`` propagation of
  the same dense Hamiltonian plus a plain SVD, never against ``eigh``.

``BENCHMARK.json`` lists ``jcm_verify`` and ``dense_evolve``. ``coherent_onset``
(the degenerate onset-fit path) runs only by hand with ``--workload``: three
workloads leave each timed run too short to hold its median within the
bound on a shared two-core host.

``SIZES["tiny"]`` keeps every composite dimension at or below 64, for the
harness self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("jcm_verify", "coherent_onset", "dense_evolve")

# Full sizes: JCM d = 2 * (767 + 1) = 1536, dense model d = 32 * 32 = 1024.
SIZES = {
    "full": {"n_max": 767, "nu": 3.0, "dim": 32, "points": 2001},
    "tiny": {"n_max": 31, "nu": 1.5, "dim": 8, "points": 41},
}

DENSE_GROUPS = 4
DENSE_T_MAX = 2.0
DENSE_ALPHAS = (1, 2, 3)

# The exact route (eigh) and the reference (Pade expm) agree to ~1e-14 on
# these models; the tolerance leaves about four orders of margin.
DENSE_TOL_ABS = 1e-10
DENSE_TOL_REL = 1e-10

VN_SLOPE_TOL_REL = 0.02
ONSET_SLOPE = 6.0
ONSET_SLOPE_BAND = 0.1


@dataclass(frozen=True)
class Invocation:
    """The outcome of one CLI run: exit code and the text of its ``--out`` file."""

    exit_code: int | None
    output: str | None


def _random_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _random_matrix(rng, dim)
    return 0.5 * (g + g.conj().T)


def _random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_terms(rng: np.random.Generator, dim: int, n_groups: int):
    """Product terms whose sum is Hermitian, after ``tests/oracles.random_term_list``.

    Each group is a Hermitian pair, or a non-Hermitian pair together with
    its adjoint pair.
    """
    terms = []
    for _ in range(n_groups):
        if rng.random() < 0.5:
            terms.append((_random_hermitian(rng, dim), _random_hermitian(rng, dim)))
        else:
            ga, gb = _random_matrix(rng, dim), _random_matrix(rng, dim)
            terms.append((ga, gb))
            terms.append((ga.conj().T, gb.conj().T))
    return terms


def _matrix_doc(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def dense_document(seed: int, dim: int) -> dict:
    """Custom model with dense random terms and random unit factor states."""
    rng = np.random.default_rng(seed)
    terms = random_terms(rng, dim, DENSE_GROUPS)
    psi_a = _random_unit_vector(rng, dim)
    psi_b = _random_unit_vector(rng, dim)
    return {
        "model": "custom",
        "dim_a": dim,
        "dim_b": dim,
        "terms": [{"a": _matrix_doc(a), "b": _matrix_doc(b)} for a, b in terms],
        "state": {
            "psi_a": {"re": psi_a.real.tolist(), "im": psi_a.imag.tolist()},
            "psi_b": {"re": psi_b.real.tolist(), "im": psi_b.imag.tolist()},
        },
    }


def _complex_from(doc: dict) -> np.ndarray:
    return np.asarray(doc["re"], dtype=np.float64) + 1j * np.asarray(
        doc.get("im", np.zeros_like(doc["re"])), dtype=np.float64
    )


def _entropies(psi: np.ndarray, dim_a: int, dim_b: int) -> dict[int, float]:
    """Entropies of the reduced state, straight from the Schmidt definition."""
    s = np.linalg.svd(psi.reshape(dim_a, dim_b), compute_uv=False)
    p = s * s
    p = p / p.sum()
    out = {1: float(-np.sum(p[p > 0.0] * np.log(p[p > 0.0])))}
    for alpha in DENSE_ALPHAS:
        if alpha >= 2:
            out[alpha] = float(math.log(np.sum(p**alpha)) / (1 - alpha))
    return out


def dense_reference(doc: dict, times: np.ndarray) -> dict[int, dict[int, float]]:
    """Entropies at the first step, the midpoint and the end of ``times``.

    The state comes from scipy's Pade ``expm``; the end state reuses the
    midpoint propagator, so the grid must end at twice its midpoint.
    """
    import scipy.linalg

    first, mid, last = 1, (times.size - 1) // 2, times.size - 1
    if times[last] != 2.0 * times[mid]:
        raise ValueError("time grid must end at twice its midpoint")
    h = sum(np.kron(_complex_from(t["a"]), _complex_from(t["b"])) for t in doc["terms"])
    psi0 = np.kron(_complex_from(doc["state"]["psi_a"]), _complex_from(doc["state"]["psi_b"]))
    psi0 = psi0 / np.linalg.norm(psi0)
    half = scipy.linalg.expm(-1j * h * times[mid])
    states = {
        first: scipy.linalg.expm(-1j * h * times[first]) @ psi0,
        mid: half @ psi0,
    }
    states[last] = half @ states[mid]
    return {k: _entropies(psi, doc["dim_a"], doc["dim_b"]) for k, psi in states.items()}


@dataclass
class Workload:
    """One generated model file, the CLI arguments that run it, and its check."""

    name: str
    document: dict
    args: list[str]
    output_name: str
    reference: dict

    def argv(self, spec_path: Path, out_path: Path) -> list[str]:
        return [self.args[0], "--spec", str(spec_path), *self.args[1:], "--out", str(out_path)]

    def check(self, run: Invocation) -> str | None:
        """Why this invocation's result is wrong, or None when it is right."""
        if run.exit_code != 0:
            return f"exit code {run.exit_code}"
        if run.output is None:
            return "no output file"
        try:
            if self.name == "dense_evolve":
                return _check_series(run.output, self.reference)
            rows = {row["label"]: row for row in json.loads(run.output)["rows"]}
            if self.name == "jcm_verify":
                return _check_curvatures(rows, self.reference)
            return _check_onset(rows)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


def _check_curvatures(rows: dict, ref: dict) -> str | None:
    t_inv_sq = ref["t_ent_inv_sq"]
    for alpha in ref["alphas"]:
        if alpha == 1:
            continue
        row = rows.get(f"curvature(alpha={alpha})")
        if row is None or row["status"] != "PASS":
            return f"curvature(alpha={alpha}) missing or not PASS"
        expected = 2.0 * alpha / (alpha - 1.0) * t_inv_sq
        if not math.isclose(row["predicted"], expected, rel_tol=1e-12):
            return f"alpha={alpha}: predicted {row['predicted']!r}, closed form {expected!r}"
    row = rows.get("vn-divergence")
    expected = -4.0 * t_inv_sq
    if row is None or row["measured"] is None:
        return "vn-divergence row missing"
    if abs(row["measured"] - expected) > VN_SLOPE_TOL_REL * abs(expected):
        return f"vn-divergence slope {row['measured']!r}, expected {expected!r} within 2%"
    return None


def _check_onset(rows: dict) -> str | None:
    row = rows.get("onset-slope(S_2)")
    if row is None or row["status"] != "PASS":
        return "onset-slope(S_2) missing or not PASS"
    if abs(row["measured"] - ONSET_SLOPE) > ONSET_SLOPE_BAND:
        return f"onset slope {row['measured']!r} outside 6 +- 0.1"
    return None


def _check_series(text: str, ref: dict) -> str | None:
    lines = text.strip().split("\n")
    if lines[0] != "t,alpha,entropy":
        return f"header {lines[0]!r}"
    blocks: dict[int, list[tuple[float, float]]] = {}
    for line in lines[1:]:
        t, alpha, value = line.split(",")
        blocks.setdefault(int(alpha), []).append((float(t), float(value)))
    times = ref["times"]
    if len(lines) - 1 != len(DENSE_ALPHAS) * times.size:
        return f"{len(lines) - 1} data rows, expected {len(DENSE_ALPHAS) * times.size}"
    for alpha in DENSE_ALPHAS:
        block = blocks.get(alpha, [])
        if len(block) != times.size:
            return f"alpha={alpha}: {len(block)} rows, expected {times.size}"
        for k, expected in ref["entropies"].items():
            t, value = block[k]
            if t != times[k]:
                return f"alpha={alpha} row {k}: t = {t!r}, expected {times[k]!r}"
            want = expected[alpha]
            if abs(value - want) > DENSE_TOL_ABS + DENSE_TOL_REL * abs(want):
                return f"alpha={alpha} t={t!r}: entropy {value!r}, reference {want!r}"
    return None


def make(name: str, seed: int, size: str = "full") -> Workload:
    """Generate workload ``name`` from ``seed`` and compute its reference."""
    sz = SIZES[size]
    if name == "jcm_verify":
        # Fock n = 3, atom excited: non-degenerate, T_ent^-2 = lambda^2 (n + 1).
        from enttime.models import FockField, JcmSpec, jcm_timescale_closed_form

        doc = {"model": "jcm", "lambda": 1.0, "n_max": sz["n_max"], "field": {"type": "fock", "n": 3}}
        alphas = (1, 2, 3, 4)
        closed = jcm_timescale_closed_form(JcmSpec(lam=1.0, n_max=sz["n_max"], field=FockField(3)))
        return Workload(name, doc, ["verify", "--alphas", ",".join(map(str, alphas))], "table.json",
                        {"t_ent_inv_sq": closed, "alphas": alphas})
    if name == "coherent_onset":
        # Coherent field, atom ground: degenerate, S_2 starts at sixth order.
        doc = {
            "model": "jcm",
            "lambda": 1.0,
            "n_max": sz["n_max"],
            "atom": {"c_e": 0.0, "c_g": 1.0},
            "field": {"type": "coherent", "nu": sz["nu"]},
        }
        return Workload(name, doc, ["verify", "--alphas", "2,3"], "table.json", {})
    if name == "dense_evolve":
        doc = dense_document(seed, sz["dim"])
        times = np.linspace(0.0, DENSE_T_MAX, sz["points"])
        reference = {"times": times, "entropies": dense_reference(doc, times)}
        args = ["evolve", "--alphas", ",".join(map(str, DENSE_ALPHAS)),
                "--points", str(sz["points"]), "--t-max", repr(DENSE_T_MAX)]
        return Workload(name, doc, args, "series.csv", reference)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
