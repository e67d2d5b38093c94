"""Command-line front end.

Three commands share one JSON model-file format:

* ``enttime timescale`` evaluates the covariance sum and the predicted
  curvatures, writing a JSON report.
* ``enttime evolve`` runs the exact dynamics and writes plot-ready CSV
  entropy series.
* ``enttime verify`` measures initial curvatures by finite differences and
  checks them against the prediction, printing a PASS/FAIL table.

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
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import __version__
from .entropy import VON_NEUMANN_ALPHA, VerificationRow, entropy_series, verify_growth
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
    "RunReport",
    "VerificationTable",
    "load_model_file",
    "cmd_timescale",
    "cmd_evolve",
    "cmd_verify",
    "main",
]


class SchemaViolation(EnttimeError):
    """Model file fails schema validation; message carries the field path."""


# ---------------------------------------------------------------------------
# Model file schema and resolution

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


@dataclass(frozen=True)
class ModelSpecFile:
    """A parsed, validated and resolved model file."""

    resolved: dict = field(repr=False)
    hamiltonian: ProductHamiltonian = field(repr=False)
    state: ProductState = field(repr=False)


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    return complex(float(value[0]), float(value[1]))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _rate(doc: dict, name: str, *, required: bool = False, default: float = 0.0) -> float:
    plain = doc.get(name)
    in_hz = doc.get(name + "_hz")
    if plain is not None and in_hz is not None:
        raise SchemaViolation(f"$.{name}: give either {name} or {name}_hz, not both")
    if plain is not None:
        return float(plain)
    if in_hz is not None:
        return 2.0 * math.pi * float(in_hz)
    if required:
        raise SchemaViolation(f"$.{name}: one of {name} or {name}_hz is required")
    return default


def _matrix_from(doc: dict, where: str) -> np.ndarray:
    try:
        re = np.array(doc["re"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"{where}.re: not a rectangular numeric array ({exc})") from exc
    if "im" in doc:
        try:
            im = np.array(doc["im"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaViolation(
                f"{where}.im: not a rectangular numeric array ({exc})"
            ) from exc
        if im.shape != re.shape:
            raise SchemaViolation(
                f"{where}: re has shape {re.shape}, im has shape {im.shape}"
            )
    else:
        im = np.zeros_like(re)
    return re + 1j * im


def validate_model_document(doc) -> None:
    """Schema-check a parsed model document; raises :class:`SchemaViolation`."""
    if not isinstance(doc, dict):
        raise SchemaViolation("$: top-level value must be an object")
    model = doc.get("model")
    if model not in _SUBSCHEMAS:
        raise SchemaViolation(
            f"$.model: expected one of {sorted(_SUBSCHEMAS)}, got {model!r}"
        )
    validator = jsonschema.Draft202012Validator(_SUBSCHEMAS[model])
    errors = sorted(validator.iter_errors(doc), key=lambda e: str(e.json_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise SchemaViolation(f"{best.json_path}: {best.message}")


def _resolve_jcm(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    lam = _rate(doc, "lambda", required=True)
    omega = _rate(doc, "omega")
    atom = doc.get("atom", {})
    c_e = _as_complex(atom.get("c_e", 1.0))
    c_g = _as_complex(atom.get("c_g", 0.0))
    field_doc = doc["field"]
    if field_doc["type"] == "fock":
        field_spec: FockField | CoherentField = FockField(n=int(field_doc["n"]))
        default_n_max = field_spec.n + 2
        field_echo: dict = {"type": "fock", "n": field_spec.n}
    else:
        nu = _as_complex(field_doc["nu"])
        field_spec = CoherentField(nu=nu)
        default_n_max = suggest_coherent_cutoff(nu)
        field_echo = {"type": "coherent", "nu": _complex_pair(nu)}
    n_max = int(doc.get("n_max", default_n_max))
    spec = JcmSpec(lam=lam, n_max=n_max, field=field_spec, c_e=c_e, c_g=c_g, omega=omega)
    h, state = build_jcm(spec)
    echo = {
        "model": "jcm",
        "lambda": lam,
        "omega": omega,
        "n_max": n_max,
        "atom": {"c_e": _complex_pair(c_e), "c_g": _complex_pair(c_g)},
        "field": field_echo,
    }
    return h, state, echo


def _resolve_bose_hubbard(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    j_rate = _rate(doc, "j_rate", required=True)
    u_rate = _rate(doc, "u_rate")
    n_per_site_max = int(doc.get("n_per_site_max", 2))
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


def _vector_from(doc: dict, where: str) -> np.ndarray:
    matrix_doc = {"re": [doc["re"]]}
    if "im" in doc:
        matrix_doc["im"] = [doc["im"]]
    return _matrix_from(matrix_doc, where)[0]


def _resolve_custom(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    dim_a = int(doc["dim_a"])
    dim_b = int(doc["dim_b"])
    terms = tuple(
        (
            _matrix_from(term["a"], f"$.terms[{k}].a"),
            _matrix_from(term["b"], f"$.terms[{k}].b"),
        )
        for k, term in enumerate(doc["terms"])
    )
    h = ProductHamiltonian(dim_a=dim_a, dim_b=dim_b, terms=terms)
    state = ProductState(
        psi_a=_vector_from(doc["state"]["psi_a"], "$.state.psi_a"),
        psi_b=_vector_from(doc["state"]["psi_b"], "$.state.psi_b"),
    )
    return h, state, json.loads(json.dumps(doc))


def load_model_file(path: str) -> ModelSpecFile:
    """Parse, schema-validate and build the model named in a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise SchemaViolation(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: malformed JSON: {exc}") from exc
    validate_model_document(document)
    resolver = {
        "jcm": _resolve_jcm,
        "bose_hubbard": _resolve_bose_hubbard,
        "custom": _resolve_custom,
    }[document["model"]]
    h, state, echo = resolver(document)
    return ModelSpecFile(resolved=echo, hamiltonian=h, state=state)


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

@dataclass
class RunReport:
    """JSON-serializable record of one timescale evaluation."""

    command: str
    spec: dict
    degenerate: bool
    timescale: dict
    predictions: list[dict]
    version: str
    wall_time_s: float | None

    def to_document(self) -> dict:
        doc = {
            "command": self.command,
            "version": self.version,
            "spec": self.spec,
            "degenerate": self.degenerate,
            "timescale": self.timescale,
            "predictions": self.predictions,
        }
        if self.wall_time_s is not None:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"


def cmd_timescale(
    spec_path: str,
    alphas: list[int],
    output_path: str | None = None,
    *,
    include_timing: bool = True,
) -> RunReport:
    """Evaluate the covariance timescale of a model file; write JSON.

    The total H is checked for Hermiticity first, as the dynamics commands
    do; the covariance sum alone would not notice every non-Hermitian H.
    """
    for alpha in alphas:
        check_alpha(alpha, 2)
    started = time.perf_counter()
    model = load_model_file(spec_path)
    check_hermitian(model.hamiltonian)
    report = entanglement_timescale(model.hamiltonian, model.state)
    predictions = [
        {
            "alpha": pred.alpha,
            "coefficient": pred.coefficient,
            "curvature": pred.curvature,
        }
        for pred in (predicted_curvature(report, a) for a in alphas)
    ]
    run = RunReport(
        command="timescale",
        spec=model.resolved,
        degenerate=report.degenerate,
        timescale={
            "t_ent_inv_sq": report.t_ent_inv_sq,
            "t_ent": None if report.degenerate else report.t_ent,
            "imag_residual": report.imag_residual,
            "scale": report.scale,
            "cov_a": _matrix_doc(report.cov_a),
            "cov_b": _matrix_doc(report.cov_b),
        },
        predictions=predictions,
        version=__version__,
        wall_time_s=(time.perf_counter() - started) if include_timing else None,
    )
    if run.degenerate:
        print(
            "note: degenerate timescale (t_ent_inv_sq ~ 0); entanglement onset "
            "is slower than quadratic",
            file=sys.stderr,
        )
    _write_text(output_path, run.to_json())
    return run


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
    series = entropy_series(
        model.hamiltonian,
        model.state,
        wanted,
        times,
        capture_spectra=spectrum_columns,
    )
    unit = math.log(2.0) if units_ln2 else 1.0
    lines = ["t,alpha,entropy,p1,p2" if spectrum_columns else "t,alpha,entropy"]
    for one in series:
        for k, t in enumerate(one.times):
            value = one.values[k] / unit
            row = f"{float(t)!r},{one.alpha},{float(value)!r}"
            if spectrum_columns:
                spect = one.spectra[k]
                p1 = float(spect[0])
                p2 = float(spect[1]) if spect.shape[0] > 1 else 0.0
                row += f",{p1!r},{p2!r}"
            lines.append(row)
    text = "\n".join(lines) + "\n"
    _write_text(output_path, text)
    return text


# ---------------------------------------------------------------------------
# verify

@dataclass
class VerificationTable:
    spec: dict
    degenerate: bool
    t_ent_inv_sq: float
    rows: list[VerificationRow]

    @property
    def failed(self) -> bool:
        return any(row.status == "FAIL" for row in self.rows)

    def to_text(self) -> str:
        head = (
            f"model: {self.spec.get('model', '?')}   "
            f"t_ent_inv_sq: {self.t_ent_inv_sq!r}   "
            f"degenerate: {'yes' if self.degenerate else 'no'}"
        )
        lines = [head, ""]
        lines.append(
            f"{'check':<22} {'predicted':>24} {'measured':>24} {'rel_error':>12} status"
        )
        for row in self.rows:
            pred = "-" if row.predicted is None else repr(row.predicted)
            meas = "-" if row.measured is None else repr(row.measured)
            rel = "-" if row.rel_error is None else f"{row.rel_error:.3e}"
            lines.append(
                f"{row.label:<22} {pred:>24} {meas:>24} {rel:>12} {row.status}"
            )
            if row.detail:
                lines.append(f"{'':<22} {row.detail}")
        return "\n".join(lines) + "\n"

    def to_document(self) -> dict:
        return {
            "command": "verify",
            "version": __version__,
            "spec": self.spec,
            "degenerate": self.degenerate,
            "t_ent_inv_sq": self.t_ent_inv_sq,
            "rows": [
                {
                    "label": row.label,
                    "predicted": row.predicted,
                    "measured": row.measured,
                    "rel_error": row.rel_error,
                    "status": row.status,
                    "detail": row.detail,
                }
                for row in self.rows
            ],
        }


def cmd_verify(
    spec_path: str,
    alphas: list[int],
    tolerance_rel: float = 0.01,
    output_path: str | None = None,
) -> VerificationTable:
    """Run :func:`~enttime.entropy.verify_growth` on a model file.

    Returns the PASS/FAIL table and, with ``output_path``, writes it as JSON.
    """
    model = load_model_file(spec_path)
    report, rows = verify_growth(model.hamiltonian, model.state, alphas, tolerance_rel)
    table = VerificationTable(
        spec=model.resolved,
        degenerate=report.degenerate,
        t_ent_inv_sq=report.t_ent_inv_sq,
        rows=rows,
    )
    if output_path is not None:
        _write_text(output_path, json.dumps(table.to_document(), indent=2) + "\n")
    return table


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
        table = cmd_verify(args.spec, args.alphas, args.tolerance_rel, args.out)
        sys.stdout.write(table.to_text())
        return 1 if table.failed else 0
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
