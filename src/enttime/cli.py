"""Command-line front end.

Three commands share one JSON model-file format:

* ``enttime timescale`` evaluates the covariance sum and the predicted
  curvatures, writing a JSON report.
* ``enttime evolve`` runs the exact dynamics and writes plot-ready CSV
  entropy series.
* ``enttime verify`` measures initial curvatures by finite differences and
  checks them against the prediction, printing a PASS/FAIL table.

The model file is read in one pass, before any model object is built,
into the triple ``(h, state, resolved)`` of :func:`load_model_file`.
For the bundled models the reader checks types and fills in defaults,
and ``resolved`` is the dict the model constructors of
:mod:`enttime.models` return, which their builders read; the reports
echo it as ``spec``.
Every object rejects unknown keys, ``3.0`` counts as an integer, booleans
are not numbers, and errors name the ``$`` path of the bad field.

The command line is read in one pass, in argument order, against one
option table, :data:`_OPTIONS`: ``--name=value``, or ``--name value`` when
the value does not start with ``--``; unique prefixes; the last of a
repeated option. It does not import argparse, whose set-up and first
message lookup (which imports ``locale``) cost more than a small
``verify`` run. ``-h``/``--help`` prints the usage block of the README; a
usage error prints a ``usage:`` line and
``enttime <command>: error: <message>`` and exits 2.

Exit codes: 0 success, 1 verification ran but some row failed, 2 schema or
usage violation, 3 model/state error, 4 numerical breakdown. Output files
are written atomically (temp file + rename), and reports are deterministic
apart from the optional wall-time field (drop it with ``--no-timing``).
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time

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
        # a row of plain ints and floats passes whole; any other finds its first bad entry
        if not set(map(type, _nonempty_list(row, path))) <= {int, float}:
            for j, x in enumerate(row):
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
        field = FockField(n)
        n_max = n + 2 if n_max is None else n_max
    else:
        nu = _complex(value, "$.field.nu")
        field = CoherentField(nu)
        n_max = suggest_coherent_cutoff(nu) if n_max is None else n_max
    resolved = JcmSpec(lam=lam, n_max=n_max, field=field, c_e=c_e, c_g=c_g, omega=omega)
    return (*build_jcm(resolved), resolved)


def _resolve_bose_hubbard(doc: dict) -> tuple[ProductHamiltonian, ProductState, dict]:
    rates = ("j_rate", "j_rate_hz", "u_rate", "u_rate_hz")
    _object(doc, "$", required=("model",), optional=(*rates, "n_per_site_max"))
    j_rate = _rate(doc, "j_rate", required=True)
    u_rate = _rate(doc, "u_rate")
    n_per_site_max = _integer(doc.get("n_per_site_max", 2), "$.n_per_site_max", 1)
    resolved = BoseHubbardBoundarySpec(j_rate, u_rate, n_per_site_max)
    return (*build_bose_hubbard_boundary(resolved), resolved)


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


def resolve_model_document(doc) -> tuple[ProductHamiltonian, ProductState, dict]:
    """Read a parsed model document in one pass and build the model it names.

    Returns ``(h, state, resolved)``: the Hamiltonian, the product start and
    the document with every default filled in, as the reports echo it.
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
    return _RESOLVERS[model](doc)


def load_model_file(path: str) -> tuple[ProductHamiltonian, ProductState, dict]:
    """Parse a JSON model file; :func:`resolve_model_document` of its contents."""
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

    One prediction per distinct order of ``alphas``, in first-seen order.
    The total H is checked for Hermiticity first, as the dynamics commands
    do; the covariance sum alone would not notice every non-Hermitian H.
    """
    alphas = list(dict.fromkeys(check_alpha(alpha, 2) for alpha in alphas))
    started = time.perf_counter()
    h, state, resolved = load_model_file(spec_path)
    check_hermitian(h)
    report = entanglement_timescale(h, state)
    block = {**report, "cov_a": _matrix_doc(report["cov_a"]),
             "cov_b": _matrix_doc(report["cov_b"])}
    doc = {
        "command": "timescale",
        "version": __version__,
        "spec": resolved,
        "degenerate": block.pop("degenerate"),
        "timescale": block,
        "predictions": [predicted_curvature(report, a) for a in alphas],
    }
    if include_timing:
        doc["wall_time_s"] = time.perf_counter() - started
    if report["degenerate"]:
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
    """Exact-evolution entropy series as CSV; returns the CSV text.

    One block per distinct order of ``alphas``, in ascending order (not the
    order given), each with times ascending.
    """
    if not math.isfinite(t_max) or t_max <= 0.0:
        raise SchemaViolation(f"--t-max must be positive, got {t_max!r}")
    if n_points < 2:
        raise SchemaViolation(f"--points must be at least 2, got {n_points}")
    h, state, _ = load_model_file(spec_path)
    if spectrum_columns and h.dim_a != 2:
        raise ModelError(
            f"spectrum columns (p1, p2) need a two-level subsystem A, got dim_a = {h.dim_a}"
        )
    wanted = sorted(set(alphas))
    times = np.linspace(0.0, float(t_max), int(n_points))
    spectra, series = entropy_series(h, state, wanted, times)
    unit = math.log(2.0) if units_ln2 else 1.0
    lines = ["t,alpha,entropy,p1,p2" if spectrum_columns else "t,alpha,entropy"]
    for alpha, values in zip(wanted, series):
        for k, t in enumerate(times):
            value = values[k] / unit
            row = f"{float(t)!r},{alpha},{float(value)!r}"
            if spectrum_columns:
                p1, p2 = np.append(spectra[k], 0.0)[:2]  # p2 = 0 when dim_b = 1
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
    h, state, resolved = load_model_file(spec_path)
    report, rows = verify_growth(h, state, alphas, tolerance_rel)
    doc = {
        "command": "verify",
        "version": __version__,
        "spec": resolved,
        "degenerate": report["degenerate"],
        "t_ent_inv_sq": report["t_ent_inv_sq"],
        "rows": rows,
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
# argument parsing: one option table, read in one pass

_HELP = """\
enttime timescale --spec model.json [--alphas 2,3,4] [--out report.json] [--no-timing]
enttime evolve    --spec model.json [--alphas 2] [--t-max 1.0] [--points 201]
                  [--ln2-units] [--spectrum] [--out series.csv]
enttime verify    --spec model.json [--alphas 2,3,4] [--tolerance-rel 0.01] [--out table.json]
enttime -h | --help
enttime --version
"""


class _UsageError(Exception):
    """A command line the option table rejects; :func:`_parse` exits 2 on it."""


def _alpha_list(text: str) -> list[int]:
    """The orders of a comma-separated list, each once, in first-seen order."""
    try:
        values = [
            check_alpha(int(part), VON_NEUMANN_ALPHA)
            for part in text.split(",")
            if part.strip() != ""
        ]
    except ValueError as exc:
        raise _UsageError(f"bad alpha list {text!r}: {exc}") from exc
    if not values:
        raise _UsageError("alpha list is empty")
    return list(dict.fromkeys(values))


_REQUIRED = object()  # the default of an option that must be given

# command -> option -> (destination, converter or None for a flag, default);
# every command also takes the -h/--help flag
_OPTIONS = {
    "timescale": {
        "--spec": ("spec", str, _REQUIRED),
        "--alphas": ("alphas", _alpha_list, [2, 3, 4]),
        "--out": ("out", str, None),
        "--no-timing": ("no_timing", None, False),
    },
    "evolve": {
        "--spec": ("spec", str, _REQUIRED),
        "--alphas": ("alphas", _alpha_list, [2]),
        "--t-max": ("t_max", float, 1.0),
        "--points": ("points", int, 201),
        "--ln2-units": ("ln2_units", None, False),
        "--spectrum": ("spectrum", None, False),
        "--out": ("out", str, None),
    },
    "verify": {
        "--spec": ("spec", str, _REQUIRED),
        "--alphas": ("alphas", _alpha_list, [2, 3, 4]),
        "--tolerance-rel": ("tolerance_rel", float, 0.01),
        "--out": ("out", str, None),
    },
}


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command in ``argv`` and its option values, by :data:`_OPTIONS`.

    ``argv`` is read once, in order. An argument that starts with ``-`` is
    an option, named in full or, when it starts with ``--``, by a unique
    prefix; one that names no option is unrecognized. Any other argument,
    and every argument from a ``--`` on, is the command if none came yet,
    else unrecognized. An option other than a flag takes the text after
    ``=``, else the next argument unless that starts with ``--``; the last
    repeat wins. ``-h``/``--help`` prints :data:`_HELP` and ``--version``
    the version, each exiting 0. A usage error writes a ``usage:`` line and
    the error to stderr and exits 2. Errors come in argument order, then a
    missing command or required option, then the unrecognized arguments.
    """
    prog, options = "enttime", {"--version": ("version", None, False)}
    command, values, extras, ended = None, {}, [], False
    args = iter(argv)
    try:
        for arg in args:
            ended = ended or arg == "--"
            if ended or arg == "-" or not arg.startswith("-"):
                if command is not None:
                    extras.append(arg)
                    continue
                if arg not in _OPTIONS:
                    choices = ", ".join(map(repr, _OPTIONS))
                    raise _UsageError(
                        f"argument command: invalid choice: {arg!r} (choose from {choices})"
                    )
                command, prog, options = arg, f"enttime {arg}", _OPTIONS[arg]
                values = {dest: default for dest, _, default in options.values()}
                continue
            head, eq, text = arg.partition("=")
            names = ("-h", "--help", *options)
            hits = [head] if head in names else [
                name for name in names if arg.startswith("--") and name.startswith(head)
            ]
            if len(hits) > 1:
                raise _UsageError(f"ambiguous option: {arg} could match {', '.join(hits)}")
            if not hits:
                extras.append(arg)
                continue
            name = hits[0]
            dest, convert, _ = options.get(name, ("help", None, False))
            if convert is None:
                if eq:
                    label = "-h/--help" if dest == "help" else name
                    raise _UsageError(f"argument {label}: ignored explicit argument {text!r}")
                if dest in ("help", "version"):
                    sys.stdout.write(_HELP if dest == "help" else f"enttime {__version__}\n")
                    raise SystemExit(0)
                values[dest] = True
                continue
            if not eq:
                text = next(args, "--")  # no next argument reads as one starting with --
                if text.startswith("--"):
                    raise _UsageError(f"argument {name}: expected one argument")
            try:
                values[dest] = convert(text)
            except _UsageError as exc:
                raise _UsageError(f"argument {name}: {exc}") from None
            except ValueError:
                raise _UsageError(
                    f"argument {name}: invalid {convert.__name__} value: {text!r}"
                ) from None
        if command is None:
            raise _UsageError("the following arguments are required: command")
        missing = [name for name, (dest, _, _) in options.items() if values[dest] is _REQUIRED]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError as exc:
        sys.stderr.write(f"usage: {_usage(prog, options)}\n{prog}: error: {exc}\n")
        raise SystemExit(2) from None
    return command, values


def _usage(prog: str, options: dict) -> str:
    """The one-line usage of ``prog``, spelled as argparse spells it."""
    words = [prog, "[-h]"]
    for name, (dest, convert, default) in options.items():
        word = name if convert is None else f"{name} {dest.upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    if prog == "enttime":
        words.append("{" + ",".join(_OPTIONS) + "} ...")
    return " ".join(words)


def main(argv=None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if command == "timescale":
            cmd_timescale(
                args["spec"],
                args["alphas"],
                args["out"],
                include_timing=not args["no_timing"],
            )
            return 0
        if command == "evolve":
            cmd_evolve(
                args["spec"],
                args["alphas"],
                args["t_max"],
                args["points"],
                units_ln2=args["ln2_units"],
                output_path=args["out"],
                spectrum_columns=args["spectrum"],
            )
            return 0
        doc = cmd_verify(args["spec"], args["alphas"], args["tolerance_rel"], args["out"])
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
