"""Command-line front end.

Three commands share one JSON model-file format:

* ``enttime timescale`` evaluates the covariance sum and the predicted
  curvatures, writing a JSON report.
* ``enttime evolve`` runs the exact dynamics and writes plot-ready CSV
  entropy series.
* ``enttime verify`` measures initial curvatures by finite differences and
  checks them against the prediction, printing a PASS/FAIL table.

The model file is read in one pass, before any model object is built.
Every object rejects unknown keys, ``3.0`` counts as an integer, booleans
are not numbers, and errors name the ``$`` path of the bad field.

Exit codes: 0 success, 1 verification ran but some row failed, 2 schema or
usage violation, 3 model/state error, 4 numerical breakdown. Output files
are written atomically (temp file + rename), and reports are deterministic
apart from the optional wall-time field (drop it with ``--no-timing``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .entropy import VON_NEUMANN_ALPHA, entropy_series, verify_growth
from .errors import EnttimeError, ModelError, NumericalError
from .hamiltonian import ProductHamiltonian, ProductState, check_hermitian
from .models import (
    BoseHubbardBoundarySpec,
    CoherentField,
    FockField,
    JcmSpec,
    build_bose_hubbard_boundary,
    build_jcm,
    suggest_coherent_cutoff,
)
from .timescale import check_alpha, entanglement_timescale, predicted_curvature

__all__ = [
    "SchemaViolation",
    "ModelSpecFile",
    "load_model_file",
    "resolve_model_document",
    "cmd_timescale",
    "cmd_evolve",
    "cmd_verify",
    "main",
]


class SchemaViolation(EnttimeError):
    """Model file breaks a reading rule; the message names the ``$`` path."""


# ---------------------------------------------------------------------------
# Model file reading: every field is checked as it is read, and read before
# any model object is built, so a reading fault (exit 2) beats a model one.


@dataclass(frozen=True)
class ModelSpecFile:
    """A parsed, validated and resolved model file."""

    resolved: dict = field(repr=False)
    hamiltonian: ProductHamiltonian = field(repr=False)
    state: ProductState = field(repr=False)


def _got(value) -> str:
    """A JSON value as error messages show it, cut to 40 characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def _object(value, where: str, required=(), optional=()) -> dict:
    """An object with every ``required`` key and no key outside the two lists."""
    if not isinstance(value, dict):
        raise SchemaViolation(f"{where}: expected an object, got {_got(value)}")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaViolation(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in value:
            raise SchemaViolation(f"{where}: missing required key {key!r}")
    return value


def _nonempty_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaViolation(f"{where}: expected a non-empty array, got {_got(value)}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A JSON number; NaN and Infinity count, booleans do not."""
    if not _is_number(value):
        raise SchemaViolation(f"{where}: expected a number, got {_got(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaViolation(f"{where}: integer beyond the range of a double") from exc


def _integer(value, where: str, minimum: int) -> int:
    """An integer, or an integral float such as 3.0, of at least ``minimum``."""
    integral = _is_number(value) and (isinstance(value, int) or value.is_integer())
    if not integral or value < minimum:
        raise SchemaViolation(f"{where}: expected an integer >= {minimum}, got {_got(value)}")
    return int(value)


def _complex(value, where: str) -> complex:
    """A complex scalar: a number or a [re, im] pair of numbers."""
    if not isinstance(value, list):
        return complex(_number(value, where), 0.0)
    if len(value) != 2:
        raise SchemaViolation(f"{where}: expected a number or [re, im], got {_got(value)}")
    return complex(_number(value[0], f"{where}[0]"), _number(value[1], f"{where}[1]"))


def _real_array(value, where: str, ndim: int) -> np.ndarray:
    """A non-empty array of numbers (ndim 1), or of equally long ones (ndim 2)."""
    rows = _nonempty_list(value, where) if ndim == 2 else [value]
    for i, row in enumerate(rows):
        path = f"{where}[{i}]" if ndim == 2 else where
        for j, x in enumerate(_nonempty_list(row, path)):
            if not _is_number(x):
                raise SchemaViolation(f"{path}[{j}]: expected a number, got {_got(x)}")
        if len(row) != len(rows[0]):
            raise SchemaViolation(f"{path}: length {len(row)} differs from row 0's")
    try:
        array = np.array(rows, dtype=np.float64)
    except OverflowError as exc:
        raise SchemaViolation(f"{where}: integer beyond the range of a double") from exc
    return array if ndim == 2 else array[0]


def _complex_array(value, where: str, ndim: int) -> np.ndarray:
    """A complex array written as {"re": ..., "im": ...}; a missing im is zero."""
    parts = _object(value, where, required=("re",), optional=("im",))
    re = _real_array(parts["re"], f"{where}.re", ndim)
    im = np.zeros_like(re)
    if "im" in parts:
        im = _real_array(parts["im"], f"{where}.im", ndim)
        if im.shape != re.shape:
            raise SchemaViolation(f"{where}: re has shape {re.shape}, im {im.shape}")
    return re + 1j * im


def _rate(doc: dict, name: str, *, required: bool = False) -> float:
    """An angular rate, given as ``name`` or as ``name_hz`` (times 2 pi)."""
    hz = name + "_hz"
    if name in doc and hz in doc:
        raise SchemaViolation(f"$.{name}: give either {name} or {hz}, not both")
    if name in doc:
        return _number(doc[name], f"$.{name}")
    if hz in doc:
        return 2.0 * math.pi * _number(doc[hz], f"$.{hz}")
    if required:
        raise SchemaViolation(f"$.{name}: one of {name} or {hz} is required")
    return 0.0


def _resolve_jcm(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    rates = ("lambda", "lambda_hz", "omega", "omega_hz")
    _object(doc, "$", required=("model", "field"), optional=(*rates, "n_max", "atom"))
    lam = _rate(doc, "lambda", required=True)
    omega = _rate(doc, "omega")
    atom = _object(doc.get("atom", {}), "$.atom", optional=("c_e", "c_g"))
    c_e = _complex(atom.get("c_e", 1.0), "$.atom.c_e")
    c_g = _complex(atom.get("c_g", 0.0), "$.atom.c_g")
    n_max = _integer(doc["n_max"], "$.n_max", 1) if "n_max" in doc else None
    # the field is read last, because CoherentField may raise ModelError
    kind = doc["field"].get("type") if isinstance(doc["field"], dict) else None
    if kind not in ("fock", "coherent"):
        raise SchemaViolation('$.field: expected {"type": "fock" or "coherent", ...}')
    key = "n" if kind == "fock" else "nu"
    value = _object(doc["field"], "$.field", required=("type", key))[key]
    if kind == "fock":
        n = _integer(value, "$.field.n", 0)
        field_spec: FockField | CoherentField = FockField(n=n)
        field_echo: dict = {"type": "fock", "n": n}
        n_max = n + 2 if n_max is None else n_max
    else:
        nu = _complex(value, "$.field.nu")
        field_spec = CoherentField(nu=nu)
        field_echo = {"type": "coherent", "nu": [nu.real, nu.imag]}
        n_max = suggest_coherent_cutoff(nu) if n_max is None else n_max
    spec = JcmSpec(lam=lam, n_max=n_max, field=field_spec, c_e=c_e, c_g=c_g, omega=omega)
    h, state = build_jcm(spec)
    echo = {
        "model": "jcm",
        "lambda": lam,
        "omega": omega,
        "n_max": n_max,
        "atom": {"c_e": [c_e.real, c_e.imag], "c_g": [c_g.real, c_g.imag]},
        "field": field_echo,
    }
    return h, state, echo


def _resolve_bose_hubbard(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    rates = ("j_rate", "j_rate_hz", "u_rate", "u_rate_hz")
    _object(doc, "$", required=("model",), optional=(*rates, "n_per_site_max"))
    j_rate = _rate(doc, "j_rate", required=True)
    u_rate = _rate(doc, "u_rate")
    n_per_site_max = _integer(doc.get("n_per_site_max", 2), "$.n_per_site_max", 1)
    spec = BoseHubbardBoundarySpec(
        j_rate=j_rate, u_rate=u_rate, n_per_site_max=n_per_site_max
    )
    h, state = build_bose_hubbard_boundary(spec)
    echo = {
        "model": "bose_hubbard",
        "j_rate": j_rate,
        "u_rate": u_rate,
        "n_per_site_max": n_per_site_max,
    }
    return h, state, echo


def _resolve_custom(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    _object(doc, "$", required=("model", "dim_a", "dim_b", "terms", "state"))
    dim_a = _integer(doc["dim_a"], "$.dim_a", 1)
    dim_b = _integer(doc["dim_b"], "$.dim_b", 1)
    terms = []
    for k, term in enumerate(_nonempty_list(doc["terms"], "$.terms")):
        _object(term, f"$.terms[{k}]", required=("a", "b"))
        terms.append(tuple(_complex_array(term[s], f"$.terms[{k}].{s}", 2) for s in "ab"))
    state = _object(doc["state"], "$.state", required=("psi_a", "psi_b"))
    psi_a, psi_b = (_complex_array(state[s], f"$.state.{s}", 1) for s in ("psi_a", "psi_b"))

    h = ProductHamiltonian(dim_a=dim_a, dim_b=dim_b, terms=tuple(terms))
    return h, ProductState(psi_a=psi_a, psi_b=psi_b), doc


_RESOLVERS = {
    "jcm": _resolve_jcm,
    "bose_hubbard": _resolve_bose_hubbard,
    "custom": _resolve_custom,
}


def resolve_model_document(doc) -> ModelSpecFile:
    """Read a parsed model document in one pass and build the model it names.

    Raises :class:`SchemaViolation` naming the ``$`` path of a bad field,
    and the model's own errors only for a document that reads cleanly.
    """
    if not isinstance(doc, dict):
        raise SchemaViolation(f"$: expected an object at the top level, got {_got(doc)}")
    model = doc.get("model")
    if not isinstance(model, str) or model not in _RESOLVERS:
        raise SchemaViolation(
            f"$.model: expected one of {sorted(_RESOLVERS)}, got {_got(model)}"
        )
    h, state, echo = _RESOLVERS[model](doc)
    return ModelSpecFile(resolved=echo, hamiltonian=h, state=state)


def load_model_file(path: str) -> ModelSpecFile:
    """Parse a JSON model file and build the model it names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise SchemaViolation(f"cannot read model file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise SchemaViolation(f"{path}: malformed JSON: {exc}") from exc
    return resolve_model_document(document)


# ---------------------------------------------------------------------------
# Output plumbing

def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically to ``path`` (temp file + rename)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target), prefix=".enttime-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise SchemaViolation(f"cannot write output file {path!r}: {exc}") from exc


def _matrix_doc(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


# ---------------------------------------------------------------------------
# timescale

def cmd_timescale(
    spec_path: str,
    alphas: list[int],
    output_path: str | None = None,
    *,
    include_timing: bool = True,
) -> dict:
    """Evaluate the covariance timescale of a model file; write and return the JSON document.

    The total H is checked for Hermiticity first, as the dynamics commands
    do; the covariance sum alone would not notice every non-Hermitian H.
    """
    for alpha in alphas:
        check_alpha(alpha, 2)
    started = time.perf_counter()
    model = load_model_file(spec_path)
    check_hermitian(model.hamiltonian)
    report = entanglement_timescale(model.hamiltonian, model.state)
    doc = {
        "command": "timescale",
        "version": __version__,
        "spec": model.resolved,
        "degenerate": report.degenerate,
        "timescale": {
            "t_ent_inv_sq": report.t_ent_inv_sq,
            "t_ent": None if report.degenerate else report.t_ent,
            "imag_residual": report.imag_residual,
            "scale": report.scale,
            "cov_a": _matrix_doc(report.cov_a),
            "cov_b": _matrix_doc(report.cov_b),
        },
        "predictions": [asdict(predicted_curvature(report, a)) for a in alphas],
    }
    if include_timing:
        doc["wall_time_s"] = time.perf_counter() - started
    if report.degenerate:
        print(
            "note: degenerate timescale (t_ent_inv_sq ~ 0); entanglement onset "
            "is slower than quadratic",
            file=sys.stderr,
        )
    _write_text(output_path, json.dumps(doc, indent=2) + "\n")
    return doc


# ---------------------------------------------------------------------------
# evolve

def cmd_evolve(
    spec_path: str,
    alphas: list[int],
    t_max: float,
    n_points: int,
    units_ln2: bool = False,
    output_path: str | None = None,
    *,
    spectrum_columns: bool = False,
) -> str:
    """Exact-evolution entropy series as CSV; returns the CSV text."""
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise SchemaViolation(f"--t-max must be positive, got {t_max!r}")
    if n_points < 2:
        raise SchemaViolation(f"--points must be at least 2, got {n_points}")
    model = load_model_file(spec_path)
    if spectrum_columns and model.hamiltonian.dim_a != 2:
        raise ModelError(
            f"spectrum columns (p1, p2) need a two-level subsystem A, "
            f"got dim_a = {model.hamiltonian.dim_a}"
        )
    wanted = sorted(set(alphas))
    times = np.linspace(0.0, float(t_max), int(n_points))
    series = entropy_series(model.hamiltonian, model.state, wanted, times)
    unit = math.log(2.0) if units_ln2 else 1.0
    lines = ["t,alpha,entropy,p1,p2" if spectrum_columns else "t,alpha,entropy"]
    for one in series:
        for k, t in enumerate(one.times):
            value = one.values[k] / unit
            row = f"{float(t)!r},{one.alpha},{float(value)!r}"
            if spectrum_columns:
                p1, p2 = np.append(one.spectra[k], 0.0)[:2]  # p2 = 0 when dim_b = 1
                row += f",{float(p1)!r},{float(p2)!r}"
            lines.append(row)
    text = "\n".join(lines) + "\n"
    _write_text(output_path, text)
    return text


# ---------------------------------------------------------------------------
# verify

def cmd_verify(
    spec_path: str,
    alphas: list[int],
    tolerance_rel: float = 0.01,
    output_path: str | None = None,
) -> dict:
    """Run :func:`~enttime.entropy.verify_growth` on a model file.

    Returns the PASS/FAIL table as a JSON document and, with ``output_path``,
    writes it; :func:`_table_text` prints it.
    """
    model = load_model_file(spec_path)
    report, rows = verify_growth(model.hamiltonian, model.state, alphas, tolerance_rel)
    doc = {
        "command": "verify",
        "version": __version__,
        "spec": model.resolved,
        "degenerate": report.degenerate,
        "t_ent_inv_sq": report.t_ent_inv_sq,
        "rows": [asdict(row) for row in rows],
    }
    if output_path is not None:
        _write_text(output_path, json.dumps(doc, indent=2) + "\n")
    return doc


def _table_text(doc: dict) -> str:
    """The PASS/FAIL table of a :func:`cmd_verify` document, as ``verify`` prints it."""
    lines = [
        f"model: {doc['spec'].get('model', '?')}   "
        f"t_ent_inv_sq: {doc['t_ent_inv_sq']!r}   "
        f"degenerate: {'yes' if doc['degenerate'] else 'no'}",
        "",
        f"{'check':<22} {'predicted':>24} {'measured':>24} {'rel_error':>12} status",
    ]
    for row in doc["rows"]:
        pred = "-" if row["predicted"] is None else repr(row["predicted"])
        meas = "-" if row["measured"] is None else repr(row["measured"])
        rel = "-" if row["rel_error"] is None else f"{row['rel_error']:.3e}"
        lines.append(f"{row['label']:<22} {pred:>24} {meas:>24} {rel:>12} {row['status']}")
        if row["detail"]:
            lines.append(f"{'':<22} {row['detail']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

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


def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "timescale":
            cmd_timescale(
                args.spec,
                args.alphas,
                args.out,
                include_timing=not args.no_timing,
            )
            return 0
        if args.command == "evolve":
            cmd_evolve(
                args.spec,
                args.alphas,
                args.t_max,
                args.points,
                units_ln2=args.ln2_units,
                output_path=args.out,
                spectrum_columns=args.spectrum,
            )
            return 0
        doc = cmd_verify(args.spec, args.alphas, args.tolerance_rel, args.out)
        sys.stdout.write(_table_text(doc))
        return 1 if any(row["status"] == "FAIL" for row in doc["rows"]) else 0
    except (EnttimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc: Exception) -> int:
    """The documented exit code of a failure: 2 usage, 3 model, 4 numerics."""
    if isinstance(exc, SchemaViolation) or not isinstance(exc, EnttimeError):
        return 2
    return 4 if isinstance(exc, NumericalError) else 3


if __name__ == "__main__":
    sys.exit(main())
