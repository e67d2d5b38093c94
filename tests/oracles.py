"""Independent reference implementations the tests check the package against.

Everything in here is deliberately naive: explicit index loops, repeated
matrix multiplication, scipy's expm. Slow, but obviously correct at the
sizes the tests use, and sharing no code path with the package.
"""

from __future__ import annotations

import argparse
import math

import jsonschema
import numpy as np
import scipy.linalg

from enttime import __version__
from enttime.entropy import VON_NEUMANN_ALPHA
from enttime.errors import ModelError
from enttime.hamiltonian import ProductHamiltonian
from enttime.models import (
    ATOM_EXCITED,
    ATOM_GROUND,
    field_amplitudes,
    jcm_timescale_closed_form,
)
from enttime.timescale import check_alpha


def kron_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def dense_factor(f) -> np.ndarray:
    """The dense matrix of a package ``Factor``, entry by entry from its CSR arrays."""
    out = np.zeros((f.n, f.n), dtype=np.complex128)
    for i in range(f.n):
        for k in range(f.indptr[i], f.indptr[i + 1]):
            out[i, f.indices[k]] = f.values[k]
    return out


def dense_terms(h: ProductHamiltonian) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (A_n, B_n) pairs of ``h`` as dense matrices."""
    return [(dense_factor(a), dense_factor(b)) for a, b in h.terms]


def partial_trace_loops(rho: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    if keep == "A":
        out = np.zeros((dim_a, dim_a), dtype=np.complex128)
        for i in range(dim_a):
            for ip in range(dim_a):
                for j in range(dim_b):
                    out[i, ip] += rho[i * dim_b + j, ip * dim_b + j]
        return out
    out = np.zeros((dim_b, dim_b), dtype=np.complex128)
    for j in range(dim_b):
        for jp in range(dim_b):
            for i in range(dim_a):
                out[j, jp] += rho[i * dim_b + j, i * dim_b + jp]
    return out


def expectation_loops(op: np.ndarray, psi: np.ndarray) -> complex:
    total = 0.0 + 0.0j
    for i in range(len(psi)):
        for j in range(len(psi)):
            total += np.conj(psi[i]) * op[i, j] * psi[j]
    return complex(total)


def covariance_sum_loops(terms, psi_a: np.ndarray, psi_b: np.ndarray) -> complex:
    """The timescale double sum, straight from its definition."""
    total = 0.0 + 0.0j
    for a_n, b_n in terms:
        for a_m, b_m in terms:
            cov_a = expectation_loops(a_n @ a_m, psi_a) - expectation_loops(
                a_n, psi_a
            ) * expectation_loops(a_m, psi_a)
            cov_b = expectation_loops(b_n @ b_m, psi_b) - expectation_loops(
                b_n, psi_b
            ) * expectation_loops(b_m, psi_b)
            total += cov_a * cov_b
    return complex(total)


def schmidt_probabilities_svd(psi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Squared singular values of the (dim_a, dim_b) amplitude matrix, descending."""
    singular = np.linalg.svd(np.reshape(psi, (dim_a, dim_b)), compute_uv=False)
    return singular * singular


def purity_matrix_power(rho: np.ndarray, alpha: int) -> float:
    return float(np.trace(np.linalg.matrix_power(rho, alpha)).real)


def renyi_matrix_power(rho: np.ndarray, alpha: int) -> float:
    return float(np.log(purity_matrix_power(rho, alpha)) / (1 - alpha))


def von_neumann_eigh(rho: np.ndarray) -> float:
    p = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def spectrum_entropy_scalar(probs, alpha: int) -> float:
    """The package's entropy kernel for one spectrum, one Python float at a time.

    The same purity-defect arithmetic with the C library's expm1 and log1p
    (``math``); ``alpha = 1`` is von Neumann. The vectorized kernels must
    match it bit for bit.
    """
    q = np.sort(np.clip(np.asarray(probs, dtype=np.float64), 0.0, None))[::-1]
    tail = q[1:] / q.sum()
    tail = tail[tail > 0.0]
    if tail.size == 0:
        return 0.0
    eps = float(tail.sum())
    if alpha == 1:
        return -(1.0 - eps) * math.log1p(-eps) - float(np.sum(tail * np.log(tail)))
    defect = math.expm1(alpha * math.log1p(-eps)) + float(np.sum(tail**alpha))
    return math.log1p(defect) / (1.0 - alpha)


def expm_propagate(h: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """Propagator through scipy's Pade expm, independent of eigh."""
    return scipy.linalg.expm(-1j * h * t) @ psi


def stencil_second_derivative(f, t0: float, h: float) -> float:
    """5-point central second derivative of a callable."""
    values = [f(t0 + k * h) for k in (-2, -1, 0, 1, 2)]
    return (
        -values[0] + 16 * values[1] - 30 * values[2] + 16 * values[3] - values[4]
    ) / (12 * h * h)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_matrix(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_matrix(rng, dim)
    return 0.5 * (g + g.conj().T)


def random_term_list(rng: np.random.Generator, dim_a: int, dim_b: int, n_groups: int):
    """Random (A, B) pairs whose assembled sum is Hermitian.

    Each group is either a pair of Hermitian factors or a non-Hermitian pair
    together with its adjoint pair, mirroring how ladder operators enter
    physical models.
    """
    terms = []
    for _ in range(n_groups):
        if rng.random() < 0.5:
            terms.append((random_hermitian(rng, dim_a), random_hermitian(rng, dim_b)))
        else:
            ga = random_matrix(rng, dim_a)
            gb = random_matrix(rng, dim_b)
            terms.append((ga, gb))
            terms.append((ga.conj().T, gb.conj().T))
    return terms


# Closed forms of the resonant Jaynes-Cummings model (conventions of
# enttime.models), used only as checks.


def jcm_four_term_hamiltonian(spec: dict) -> ProductHamiltonian:
    """The JCM Hamiltonian with all four terms written out, at any omega.

    Term order: (omega/2) sigma_z (x) 1, 1 (x) omega n, lam sigma_- (x) a^dag,
    lam sigma_+ (x) a; at omega = 0 the first two are kept as exact zeros.
    """
    dim = spec["n_max"] + 1
    lam, omega = spec["lambda"], spec["omega"]
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)
    sigma_plus = np.zeros((2, 2), dtype=np.complex128)
    sigma_plus[ATOM_EXCITED, ATOM_GROUND] = 1.0
    terms = [
        (0.5 * omega * np.diag([1.0, -1.0]).astype(np.complex128),
         np.eye(dim, dtype=np.complex128)),
        (np.eye(2, dtype=np.complex128),
         omega * np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)),
        (lam * sigma_plus.T, a.T),
        (lam * sigma_plus, a),
    ]
    return ProductHamiltonian(dim_a=2, dim_b=dim, terms=terms)


def jcm_analytic_state(spec: dict, t: float) -> np.ndarray:
    """Closed-form amplitudes at time t, bypassing diagonalization.

    Each doublet {|e, n>, |g, n+1>} rotates at Rabi rate lam * sqrt(n+1);
    on top of that the free part contributes the local phases
    exp(-i omega (n + 1/2) t) on the e branch and exp(-i omega (n - 1/2) t)
    on the g branch. Those phases are local unitaries, so entropies and
    timescales cannot see them, but they make this expression agree with
    full-Hamiltonian propagation for any omega, not just omega = 0. The
    amplitude of |atom, n> sits at atom * (n_max + 1) + n.
    """
    t = float(t)
    dim = spec["n_max"] + 1
    lam, omega = spec["lambda"], spec["omega"]
    c_e, c_g = (complex(*spec["atom"][key]) for key in ("c_e", "c_g"))
    c = field_amplitudes(spec)
    c_up = np.append(c[1:], 0.0)  # C_{n+1}, zero past the cutoff
    c_down = np.append(0.0, c[:-1])  # C_{n-1}, zero below the vacuum
    ns = np.arange(dim)
    rabi_e = lam * np.sqrt(ns + 1.0) * t
    rabi_g = lam * np.sqrt(ns.astype(np.float64)) * t
    amp_e = c_e * c * np.cos(rabi_e) - 1j * c_g * c_up * np.sin(rabi_e)
    amp_g = -1j * c_e * c_down * np.sin(rabi_g) + c_g * c * np.cos(rabi_g)
    amp_e = amp_e * np.exp(-1j * omega * (ns + 0.5) * t)
    amp_g = amp_g * np.exp(-1j * omega * (ns - 0.5) * t)
    amps = np.zeros(2 * dim, dtype=np.complex128)
    amps[ATOM_EXCITED * dim : ATOM_EXCITED * dim + dim] = amp_e
    amps[ATOM_GROUND * dim : ATOM_GROUND * dim + dim] = amp_g
    return amps


def jcm_log_divergence_coefficient(spec: dict) -> tuple[float, float]:
    """Coefficients (a, b) of the short-time von Neumann curvature a + b ln t.

    Defined for an atom starting exactly excited with a non-degenerate
    timescale; the logarithmic coefficient is b = -4 * t_ent_inv_sq.
    """
    if abs(complex(*spec["atom"]["c_g"])) != 0.0:
        raise ModelError(
            "log-divergence coefficients are defined for an exactly excited atom"
        )
    t2 = jcm_timescale_closed_form(spec)
    if t2 <= 0.0:
        raise ModelError(
            "degenerate timescale: the von Neumann curvature has no logarithmic term"
        )
    constant = 2.0 * (-2.0 + math.log(2.0) - math.log(t2)) * t2
    return constant, -4.0 * t2


# The model-file schema that the package's reader replaced, kept verbatim as
# a Draft 2020-12 oracle for the differential test of that reader.

_NUMBER = {"type": "number"}
_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
    ]
}
_REAL_VECTOR = {"type": "array", "minItems": 1, "items": {"type": "number"}}
_REAL_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_COMPLEX_MATRIX = {
    "type": "object",
    "properties": {"re": _REAL_MATRIX, "im": _REAL_MATRIX},
    "required": ["re"],
    "additionalProperties": False,
}
_COMPLEX_VECTOR = {
    "type": "object",
    "properties": {"re": _REAL_VECTOR, "im": _REAL_VECTOR},
    "required": ["re"],
    "additionalProperties": False,
}

_SUBSCHEMAS = {
    "jcm": {
        "type": "object",
        "properties": {
            "model": {"const": "jcm"},
            "lambda": _NUMBER,
            "lambda_hz": _NUMBER,
            "omega": _NUMBER,
            "omega_hz": _NUMBER,
            "n_max": {"type": "integer", "minimum": 1},
            "atom": {
                "type": "object",
                "properties": {"c_e": _COMPLEX, "c_g": _COMPLEX},
                "additionalProperties": False,
            },
            "field": {
                "oneOf": [
                    {
                        "type": "object",
                        "properties": {
                            "type": {"const": "fock"},
                            "n": {"type": "integer", "minimum": 0},
                        },
                        "required": ["type", "n"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {"type": {"const": "coherent"}, "nu": _COMPLEX},
                        "required": ["type", "nu"],
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "required": ["model", "field"],
        "additionalProperties": False,
    },
    "bose_hubbard": {
        "type": "object",
        "properties": {
            "model": {"const": "bose_hubbard"},
            "j_rate": _NUMBER,
            "j_rate_hz": _NUMBER,
            "u_rate": _NUMBER,
            "u_rate_hz": _NUMBER,
            "n_per_site_max": {"type": "integer", "minimum": 1},
        },
        "required": ["model"],
        "additionalProperties": False,
    },
    "custom": {
        "type": "object",
        "properties": {
            "model": {"const": "custom"},
            "dim_a": {"type": "integer", "minimum": 1},
            "dim_b": {"type": "integer", "minimum": 1},
            "terms": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "properties": {"a": _COMPLEX_MATRIX, "b": _COMPLEX_MATRIX},
                    "required": ["a", "b"],
                    "additionalProperties": False,
                },
            },
            "state": {
                "type": "object",
                "properties": {"psi_a": _COMPLEX_VECTOR, "psi_b": _COMPLEX_VECTOR},
                "required": ["psi_a", "psi_b"],
                "additionalProperties": False,
            },
        },
        "required": ["model", "dim_a", "dim_b", "terms", "state"],
        "additionalProperties": False,
    },
}


def schema_accepts(doc) -> bool:
    """Whether the Draft 2020-12 schema of ``doc["model"]`` accepts ``doc``."""
    if not isinstance(doc, dict) or not isinstance(doc.get("model"), str):
        return False
    schema = _SUBSCHEMAS.get(doc["model"])
    return schema is not None and jsonschema.Draft202012Validator(schema).is_valid(doc)


# ---------------------------------------------------------------------------
# The argparse command line that the option table of ``enttime.cli``
# replaced, kept verbatim with its alpha-list converter (which still keeps
# repeated orders).


def _alpha_list(text: str) -> list[int]:
    try:
        values = [
            check_alpha(int(part), VON_NEUMANN_ALPHA)
            for part in text.split(",")
            if part.strip() != ""
        ]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("alpha list is empty")
    return values


def argparse_oracle() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enttime",
        description="Entanglement timescales and entropy growth for bipartite systems.",
    )
    parser.add_argument("--version", action="version", version=f"enttime {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ts = commands.add_parser("timescale", help="covariance timescale and predictions")
    ts.add_argument("--spec", required=True, help="model JSON file")
    ts.add_argument("--alphas", type=_alpha_list, default=[2, 3, 4])
    ts.add_argument("--out", default=None, help="output path (default stdout)")
    ts.add_argument(
        "--no-timing", action="store_true", help="omit wall_time_s for hashable output"
    )

    ev = commands.add_parser("evolve", help="exact-evolution entropy series as CSV")
    ev.add_argument("--spec", required=True, help="model JSON file")
    ev.add_argument("--alphas", type=_alpha_list, default=[2])
    ev.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    ev.add_argument("--points", type=int, default=201)
    ev.add_argument("--ln2-units", action="store_true", dest="ln2_units")
    ev.add_argument(
        "--spectrum",
        action="store_true",
        help="append p1,p2 columns (two-level subsystem A only)",
    )
    ev.add_argument("--out", default=None, help="output path (default stdout)")

    vf = commands.add_parser("verify", help="measured vs predicted initial curvature")
    vf.add_argument("--spec", required=True, help="model JSON file")
    vf.add_argument("--alphas", type=_alpha_list, default=[2, 3, 4])
    vf.add_argument("--tolerance-rel", type=float, default=0.01, dest="tolerance_rel")
    vf.add_argument("--out", default=None, help="also write the table as JSON")

    return parser
