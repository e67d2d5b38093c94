import copy
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import enttime
import enttime.cli as cli
import oracles
from enttime.cli import (
    cmd_timescale,
    load_model_file,
    main,
    resolve_model_document,
    SchemaViolation,
)
from enttime.entropy import VON_NEUMANN_ALPHA, verify_growth
from enttime.errors import EnttimeError
from enttime.hamiltonian import ProductHamiltonian, ProductState
from enttime.timescale import entanglement_timescale, predicted_curvature


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def fock_doc(**overrides):
    doc = {
        "model": "jcm",
        "lambda": 1.0,
        "n_max": 10,
        "field": {"type": "fock", "n": 3},
    }
    doc.update(overrides)
    return doc


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# timescale


@pytest.mark.parametrize("omega, rows", [(0.0, 2), (0.5, 4)])
def test_timescale_report_document(tmp_path, omega, rows):
    # the JCM free terms are built only off zero detuning
    spec = write_model(tmp_path, fock_doc(omega=omega))
    h, _, _ = load_model_file(spec)
    assert h.n_terms == rows
    out = tmp_path / "report.json"
    cmd_timescale(spec, [2, 3], str(out))
    doc = json.loads(out.read_text())
    assert doc["command"] == "timescale"
    assert doc["degenerate"] is False
    assert abs(doc["timescale"]["t_ent_inv_sq"] - 4.0) <= 1e-12
    assert abs(doc["timescale"]["t_ent"] - 0.5) <= 1e-12
    assert doc["spec"]["lambda"] == 1.0
    assert doc["spec"]["n_max"] == 10
    for key in ("cov_a", "cov_b"):  # one row and one column per term
        for part in ("re", "im"):
            assert len(doc["timescale"][key][part]) == rows
            assert all(len(row) == rows for row in doc["timescale"][key][part])
    preds = {p["alpha"]: p for p in doc["predictions"]}
    assert preds[2]["coefficient"] == 4.0
    assert abs(preds[2]["curvature"] - 16.0) <= 1e-11
    assert abs(preds[3]["coefficient"] - 3.0) <= 1e-15
    assert "wall_time_s" in doc


def test_timescale_no_timing_is_deterministic(tmp_path):
    spec = write_model(tmp_path, fock_doc())
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["timescale", "--spec", spec, "--out", str(first), "--no-timing"]) == 0
    assert main(["timescale", "--spec", spec, "--out", str(second), "--no-timing"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "wall_time_s" not in json.loads(first.read_text())


def test_timescale_rejects_von_neumann_alpha(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    assert main(["timescale", "--spec", spec, "--alphas", "1,2"]) == 2
    assert ">= 2" in capsys.readouterr().err


def test_timescale_writes_one_prediction_per_distinct_order(tmp_path):
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "report.json"
    doc = cmd_timescale(spec, [2, 3, 2, np.int64(3)], str(out), include_timing=False)
    assert [p["alpha"] for p in doc["predictions"]] == [2, 3]
    assert json.loads(out.read_text())["predictions"] == doc["predictions"]


def test_timescale_degenerate_note(tmp_path, capsys):
    doc = fock_doc(
        atom={"c_e": 0.0, "c_g": 1.0},
        field={"type": "coherent", "nu": 2.0},
        n_max=50,
    )
    spec = write_model(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["timescale", "--spec", spec, "--out", str(out)]) == 0
    assert "degenerate" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["degenerate"] is True
    assert report["timescale"]["t_ent"] is None


# ---------------------------------------------------------------------------
# evolve


def test_evolve_csv_contract(tmp_path):
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "series.csv"
    code = main(
        [
            "evolve",
            "--spec",
            spec,
            "--alphas",
            "3,2,3",
            "--t-max",
            "2.0",
            "--points",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["t", "alpha", "entropy"]
    assert len(rows) == 10  # duplicate alpha collapsed: 2 orders x 5 points
    alphas = [int(r[1]) for r in rows]
    assert alphas == [2] * 5 + [3] * 5
    for block in (rows[:5], rows[5:]):
        ts = [float(r[0]) for r in block]
        assert ts == sorted(ts)
        assert ts[0] == 0.0 and ts[-1] == 2.0
        values = [float(r[2]) for r in block]
        assert all(math.isfinite(v) and v >= -1e-12 for v in values)
        assert values[0] == 0.0


def test_evolve_spectrum_and_ln2_units(tmp_path):
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "series.csv"
    code = main(
        [
            "evolve",
            "--spec",
            spec,
            "--alphas",
            "2",
            "--t-max",
            "1.0",
            "--points",
            "4",
            "--ln2-units",
            "--spectrum",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["t", "alpha", "entropy", "p1", "p2"]
    for r in rows:
        p1, p2 = float(r[3]), float(r[4])
        assert abs(p1 + p2 - 1.0) <= 1e-12
        assert p1 >= p2 >= 0.0
        # entropy column is in bits here
        expected = -math.log(p1 * p1 + p2 * p2) / math.log(2.0)
        assert abs(float(r[2]) - expected) <= 1e-9


def test_evolve_spectrum_needs_two_level_subsystem(tmp_path, capsys):
    spec = write_model(tmp_path, {"model": "bose_hubbard", "j_rate": 1.0})
    assert main(["evolve", "--spec", spec, "--spectrum"]) == 3
    assert "two-level" in capsys.readouterr().err


def test_evolve_argument_guards(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    assert main(["evolve", "--spec", spec, "--points", "1"]) == 2
    assert main(["evolve", "--spec", spec, "--t-max", "0.0"]) == 2
    assert main(["evolve", "--spec", spec, "--t-max", "-1.0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_reference_model(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    code = main(["verify", "--spec", spec, "--alphas", "1,2,3,8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3
    assert "vn-divergence" in out and "INFO" in out
    assert "FAIL" not in out


def test_verify_fail_exit_code(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    code = main(["verify", "--spec", spec, "--alphas", "2", "--tolerance-rel", "1e-12"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_degenerate_onset_slope(tmp_path, capsys):
    doc = fock_doc(
        atom={"c_e": 0.0, "c_g": 1.0},
        field={"type": "coherent", "nu": 2.0},
        n_max=50,
    )
    spec = write_model(tmp_path, doc)
    out_json = tmp_path / "table.json"
    code = main(
        ["verify", "--spec", spec, "--alphas", "1,2,3", "--out", str(out_json)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "onset-slope(S_2)" in text
    assert "SKIP" in text
    table = json.loads(out_json.read_text())
    slope_row = next(r for r in table["rows"] if r["label"] == "onset-slope(S_2)")
    assert slope_row["status"] == "PASS"
    assert abs(slope_row["measured"] - 6.0) <= 0.1


def test_verify_json_table(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "table.json"
    assert main(["verify", "--spec", spec, "--alphas", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["command"] == "verify"
    assert doc["degenerate"] is False
    row = doc["rows"][0]
    assert row["label"] == "curvature(alpha=2)"
    assert row["status"] == "PASS"
    assert abs(row["predicted"] - 16.0) <= 1e-11


@pytest.mark.parametrize("u_rate", [100.0, 1000.0], ids=["u100", "u1000"])
def test_verify_caps_the_stencil_by_the_reached_spectral_width(tmp_path, capsys, u_rate):
    # t_ent = 0.5, but the reached block spans Omega ~ U; at width t_ent/50
    # alpha = 2 measured 15.838 against 16 at U = 100 and 0.769 at U = 1000
    doc = {"model": "bose_hubbard", "j_rate": 1.0, "u_rate": u_rate, "n_per_site_max": 4}
    spec = write_model(tmp_path, doc)
    out = tmp_path / "table.json"
    assert main(["verify", "--spec", spec, "--alphas", "2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert [row["label"] for row in rows] == ["curvature(alpha=2)", "curvature(alpha=3)"]
    for row in rows:
        assert row["status"] == "PASS" and row["rel_error"] <= 1e-5
        assert row["detail"].startswith("5-point stencil, width t_ent/50 capped at 0.0895/Omega")


def test_verify_names_no_cap_where_it_does_not_bind(tmp_path, capsys):
    # JCM Fock n = 3: Omega = 4 and t_ent = 0.5, so Omega t_ent / 50 = 0.04
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "table.json"
    assert main(["verify", "--spec", spec, "--alphas", "2,3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    assert [row["detail"] for row in rows] == ["5-point stencil, width t_ent/50"] * 2


ROW_KEYS = ["label", "predicted", "measured", "rel_error", "status", "detail"]
TIMESCALE_KEYS = ["t_ent_inv_sq", "t_ent", "imag_residual", "scale", "cov_a", "cov_b",
                  "degenerate"]


def test_report_shapes_are_pinned(tmp_path, capsys):
    """The model triple, the timescale dict, the prediction dict and every kind of verify
    row, in key order; the timescale block that ``timescale`` writes is that dict without
    ``degenerate``, and each row's rel_error is the expression written out for its kind,
    bit for bit."""
    spec = write_model(tmp_path, fock_doc())
    h, state, resolved = load_model_file(spec)
    assert isinstance(h, ProductHamiltonian) and isinstance(state, ProductState)
    assert list(resolved) == ["model", "lambda", "omega", "n_max", "atom", "field"]
    report, rows = verify_growth(h, state, [2, VON_NEUMANN_ALPHA])
    assert list(report) == TIMESCALE_KEYS
    assert not report["cov_a"].flags.writeable and not report["cov_b"].flags.writeable
    doc = cmd_timescale(spec, [2], include_timing=False)
    capsys.readouterr()
    assert list(doc["timescale"]) == TIMESCALE_KEYS[:-1]
    assert doc["degenerate"] is report["degenerate"] is False
    prediction = predicted_curvature(report, 2)
    assert list(prediction) == ["alpha", "coefficient", "curvature"]
    assert [row["label"] for row in rows] == ["curvature(alpha=2)", "vn-divergence"]
    assert [list(row) for row in rows] == [ROW_KEYS] * 2
    curvature, vn = rows
    assert curvature["predicted"] == prediction["curvature"]
    expected = abs(curvature["measured"] - prediction["curvature"]) / abs(prediction["curvature"])
    assert curvature["rel_error"] == expected
    t2 = report["t_ent_inv_sq"]
    assert vn["rel_error"] == abs(vn["measured"] + 4.0 * t2) / (4.0 * t2)

    degenerate = fock_doc(atom={"c_e": 0.0, "c_g": 1.0}, field={"type": "coherent", "nu": 2.0},
                          n_max=50)
    h, state, _ = load_model_file(write_model(tmp_path, degenerate, name="degenerate.json"))
    report, rows = verify_growth(h, state, [2, VON_NEUMANN_ALPHA])
    assert list(report) == TIMESCALE_KEYS
    assert report["degenerate"] and report["t_ent"] is None
    assert [row["label"] for row in rows] == ["onset-slope(S_2)", "curvature(alpha=2)",
                                              "vn-divergence"]
    assert [list(row) for row in rows] == [ROW_KEYS] * 3
    slope, skip_curvature, skip_vn = rows
    assert slope["rel_error"] == abs(slope["measured"] - 6.0) / 6.0
    assert [skip_curvature[k] for k in ROW_KEYS[1:5]] == [0.0, None, None, "SKIP"]
    assert [skip_vn[k] for k in ROW_KEYS[1:5]] == [None, None, None, "SKIP"]


# ---------------------------------------------------------------------------
# exit codes of failures outside the model


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    missing = str(tmp_path / "no-such-dir" / "out")
    assert main(["timescale", "--spec", spec, "--out", missing]) == 2
    assert main(["evolve", "--spec", spec, "--points", "3", "--out", missing]) == 2
    assert main(["verify", "--spec", spec, "--alphas", "2", "--out", missing]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error: cannot write output file") == 3
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_overflowing_rate_is_numerical_error(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc(**{"lambda": 1e160}))
    assert main(["timescale", "--spec", spec, "--no-timing"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: covariance double sum (inf+nanj) or its scale inf")
    assert main(["verify", "--spec", spec, "--alphas", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "error: covariance double sum" in captured.err
    assert "onset" not in captured.err


def test_evolve_where_squares_of_entries_overflow_warns_of_nothing(tmp_path):
    """At lambda 1e160 the blocks' residual check takes its norms with no overflow."""
    spec = write_model(tmp_path, fock_doc(**{"lambda": 1e160, "n_max": 7}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["evolve", "--spec", spec, "--points", "5",
                     "--out", str(tmp_path / "out.csv")]) == 0


def test_solver_breakdown_is_numerical_error(tmp_path, monkeypatch, capsys):
    spec = write_model(tmp_path, fock_doc())

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["evolve", "--spec", spec, "--points", "3"]) == 4
    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["verify", "--spec", spec, "--alphas", "2"]) == 4
    err = capsys.readouterr().err
    assert "error: Schmidt SVD failed to converge" in err
    assert "error: Hermitian eigensolver failed to converge" in err


def above_cap_doc():
    """65 x 64 = 4160 > MAX_DIM: identity plus an embedded sigma_x (x) sigma_x."""
    flip_a, flip_b = np.zeros((65, 65)), np.zeros((64, 64))
    flip_a[[0, 1], [1, 0]] = flip_b[[0, 1], [1, 0]] = 1.0
    return {
        "model": "custom",
        "dim_a": 65,
        "dim_b": 64,
        "terms": [
            {"a": {"re": np.eye(65).tolist()}, "b": {"re": np.eye(64).tolist()}},
            {"a": {"re": flip_a.tolist()}, "b": {"re": flip_b.tolist()}},
        ],
        "state": {"psi_a": {"re": np.eye(65)[0].tolist()}, "psi_b": {"re": np.eye(64)[0].tolist()}},
    }


def test_dimension_cap_exits_with_model_error_code(tmp_path, capsys):
    spec = write_model(tmp_path, above_cap_doc())
    assert main(["evolve", "--spec", spec, "--points", "3"]) == 3
    assert "exceeds the configured maximum 4096" in capsys.readouterr().err
    assert main(["verify", "--spec", spec]) == 3
    assert "exceeds the configured maximum 4096" in capsys.readouterr().err


def test_timescale_needs_no_dimension_cap(tmp_path):
    # the covariance sum and the factor Hermiticity proof never form H;
    # <0|sigma_x|0> = 0 and <0|sigma_x^2|0> = 1 on each side give t_ent = 1
    spec = write_model(tmp_path, above_cap_doc())
    out = tmp_path / "out.json"
    assert main(["timescale", "--spec", spec, "--no-timing", "--out", str(out)]) == 0
    timescale = json.loads(out.read_text(encoding="utf-8"))["timescale"]
    assert timescale["t_ent_inv_sq"] == pytest.approx(1.0, abs=1e-14)
    assert timescale["t_ent"] == pytest.approx(1.0, abs=1e-14)


def custom_doc(terms, psi_a, psi_b, dim_a=2, dim_b=2):
    return {
        "model": "custom",
        "dim_a": dim_a,
        "dim_b": dim_b,
        "terms": [{"a": {"re": a}, "b": {"re": b}} for a, b in terms],
        "state": {"psi_a": {"re": psi_a}, "psi_b": {"re": psi_b}},
    }


SIGMA_PLUS = [[0.0, 1.0], [0.0, 0.0]]
SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
SIGMA_Z = [[1.0, 0.0], [0.0, -1.0]]

COMMANDS = [["timescale"], ["evolve", "--points", "3"], ["verify", "--alphas", "2"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "doc, message",
    [
        # the covariance sum of this one is real and positive (t_ent = 1.052)
        (
            custom_doc([(SIGMA_PLUS, SIGMA_X), (SIGMA_Z, SIGMA_Z)], [0.6, 0.8], [0.6, 0.8]),
            "not Hermitian",
        ),
        # and this start never entangles: covariance scale exactly zero
        (
            custom_doc([(SIGMA_PLUS, np.eye(2).tolist())], [1.0, 0.0], [1.0, 0.0]),
            "not Hermitian",
        ),
        (custom_doc([(SIGMA_Z, SIGMA_X)], [1.0, 1.0], [1.0, 0.0]), "psi_a norm"),
        (fock_doc(n_max=2, field={"type": "fock", "n": 5}), "n_max"),
        # |nu|^2 = 900 far above the cutoff: the first tail terms underflow
        (fock_doc(n_max=10, field={"type": "coherent", "nu": 30}), "use n_max >= "),
        (
            custom_doc([(np.eye(3).tolist(), SIGMA_X)], [1.0, 0.0], [1.0, 0.0]),
            "factor A has shape",
        ),
    ],
    ids=[
        "non-hermitian-entangling",
        "non-hermitian-never-entangling",
        "unnormalized-state",
        "truncation",
        "coherent-cutoff-below-mean",
        "factor-shape",
    ],
)
def test_model_and_state_errors_exit_3(tmp_path, capsys, recwarn, doc, message, argv):
    spec = write_model(tmp_path, doc)
    assert main([argv[0], "--spec", spec, *argv[1:]]) == 3
    assert message in capsys.readouterr().err
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_start_the_reader_accepts_is_evolved(tmp_path, capsys, argv):
    # each factor is within NORM_TOL of unit norm; their product is not
    edge = 1.00000000009
    spec = write_model(tmp_path, custom_doc([(SIGMA_X, SIGMA_X)], [edge, 0.0], [edge, 0.0]))
    assert main([argv[0], "--spec", spec, *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# model files: schema and units


def test_unknown_model_rejected(tmp_path, capsys):
    spec = write_model(tmp_path, {"model": "ising"})
    assert main(["timescale", "--spec", spec]) == 2
    assert "$.model" in capsys.readouterr().err


def test_conflicting_rate_units_rejected(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc(lambda_hz=1.0))
    assert main(["timescale", "--spec", spec]) == 2
    assert "lambda_hz" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc(coupling=2.0))
    assert main(["timescale", "--spec", spec]) == 2
    assert "coupling" in capsys.readouterr().err


def test_malformed_json_leaves_no_output(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "jcm",', encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["timescale", "--spec", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_file_rejected(tmp_path, capsys):
    assert main(["timescale", "--spec", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_alpha_list_is_usage_error(tmp_path, capsys):
    spec = write_model(tmp_path, fock_doc())
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--spec", spec, "--alphas", "two"])
    assert excinfo.value.code == 2
    assert "bad alpha list" in capsys.readouterr().err


def test_hz_rates_are_scaled_by_two_pi(tmp_path):
    spec = write_model(tmp_path, {"model": "bose_hubbard", "j_rate_hz": 66.0})
    out = tmp_path / "report.json"
    assert main(["timescale", "--spec", spec, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    j = 2.0 * math.pi * 66.0
    assert abs(doc["timescale"]["t_ent_inv_sq"] - 4.0 * j * j) <= 1e-9 * j * j
    assert abs(doc["timescale"]["t_ent"] * 1e3 - 1.2057) <= 1e-3


def test_custom_model_round_trip(tmp_path):
    doc = {
        "model": "custom",
        "dim_a": 2,
        "dim_b": 2,
        "terms": [
            {
                "a": {"re": [[0.0, 1.0], [1.0, 0.0]]},
                "b": {"re": [[0.0, 0.0], [0.0, 1.0]]},
            }
        ],
        "state": {
            "psi_a": {"re": [1.0, 0.0]},
            "psi_b": {"re": [0.7071067811865476, 0.7071067811865476]},
        },
    }
    spec = write_model(tmp_path, doc)
    h, state, _ = load_model_file(spec)
    report = entanglement_timescale(h, state)
    # var(sigma_x) in |0> is 1, var(diag(0, 1)) in |+> is 1/4
    assert abs(report["t_ent_inv_sq"] - 0.25) <= 1e-12
    out = tmp_path / "report.json"
    assert main(["timescale", "--spec", spec, "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["timescale"]["t_ent_inv_sq"] - 0.25) <= 1e-12


def test_custom_model_complex_parts_and_ragged_rejection(tmp_path):
    doc = {
        "model": "custom",
        "dim_a": 2,
        "dim_b": 2,
        "terms": [
            {
                "a": {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, -1.0], [1.0, 0.0]]},
                "b": {"re": [[1.0, 0.0], [0.0, -1.0]]},
            }
        ],
        "state": {
            "psi_a": {"re": [0.7071067811865476, 0.0], "im": [0.0, 0.7071067811865476]},
            "psi_b": {"re": [1.0, 0.0]},
        },
    }
    spec = write_model(tmp_path, doc)
    h, state, _ = load_model_file(spec)
    # term a is sigma_y, psi_a is a sigma_y eigenstate: no variance on A
    assert entanglement_timescale(h, state)["degenerate"]

    ragged = dict(doc)
    ragged["terms"] = [
        {
            "a": {"re": [[0.0, 1.0], [1.0]]},
            "b": {"re": [[1.0, 0.0], [0.0, -1.0]]},
        }
    ]
    with pytest.raises(SchemaViolation, match="terms"):
        load_model_file(write_model(tmp_path, ragged, name="ragged.json"))


def _custom_2x3():
    return {"model": "custom", "dim_a": 2, "dim_b": 3,
            "terms": [{"a": {"re": [[1.0, 0.0], [0.0, -1.0]]},
                       "b": {"re": [[0.5, 0, 0], [0, 1, 2], [0, 2, 1]],
                             "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}],
            "state": {"psi_a": {"re": [1.0, 0.0]}, "psi_b": {"re": [1, 0, 0]}}}


def _set(doc, path, value):
    """``doc`` with the entry at ``path`` (keys and indices) replaced by ``value``."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("terms", 0, "b", "im", 2, 2), True, "$.terms[0].b.im[2][2]: expected a number, got true"),
        (("terms", 0, "b", "im", 2, 2), "1.0",
         '$.terms[0].b.im[2][2]: expected a number, got "1.0"'),
        (("terms", 0, "b", "im", 2, 2), [1.0],
         "$.terms[0].b.im[2][2]: expected a number, got [1.0]"),
        (("terms", 0, "b", "re", 1), [0, 1, False, 2],
         "$.terms[0].b.re[1][2]: expected a number, got false"),  # before its length
        (("terms", 0, "b", "re", 1), [0, 1], "$.terms[0].b.re[1]: length 2 differs from row 0's"),
        (("state", "psi_b", "re", 2), None, "$.state.psi_b.re[2]: expected a number, got null"),
    ],
    ids=["bool", "string", "nested-list", "bool-in-long-row", "short-row", "null-in-vector"],
)
def test_a_bad_entry_deep_in_a_row_is_named(path, value, message):
    """Each row's types are checked at once; the first bad entry is still named."""
    with pytest.raises(SchemaViolation) as raised:
        resolve_model_document(_set(_custom_2x3(), path, value))
    assert str(raised.value) == message
    # a row whose later entry is bad still reports an earlier ragged row first
    doc = _set(_set(_custom_2x3(), ("terms", 0, "b", "im", 1), [0]),
               ("terms", 0, "b", "im", 2, 2), value)
    with pytest.raises(SchemaViolation, match=re.escape("im[1]: length 1 differs")):
        resolve_model_document(doc)


def test_resolve_model_document_paths():
    with pytest.raises(SchemaViolation, match=r"\$\.model"):
        resolve_model_document({"model": "nope"})
    with pytest.raises(SchemaViolation, match="n_max"):
        resolve_model_document(
            {"model": "jcm", "lambda": 1.0, "n_max": 0, "field": {"type": "fock", "n": 0}}
        )
    with pytest.raises(SchemaViolation):
        resolve_model_document([1, 2, 3])


def test_default_n_max_resolution(tmp_path):
    # fock default keeps one level above the occupation
    spec = write_model(tmp_path, {"model": "jcm", "lambda": 1.0, "field": {"type": "fock", "n": 3}})
    h, _, resolved = load_model_file(spec)
    assert resolved["n_max"] == 5
    assert h.dim_b == 6
    # coherent default adopts the suggested cutoff
    spec2 = write_model(
        tmp_path,
        {"model": "jcm", "lambda": 1.0, "field": {"type": "coherent", "nu": 2.0}},
        name="coh.json",
    )
    _, _, resolved2 = load_model_file(spec2)
    assert resolved2["n_max"] == 44


def coherent_doc(nu, **overrides):
    """A coherent-field JCM document; an override of None drops that key."""
    doc = fock_doc(field={"type": "coherent", "nu": nu}, **overrides)
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize(
    "text, code, message",
    [
        (json.dumps({"model": {}}), 2, "$.model"),
        (json.dumps({"model": ["jcm"]}), 2, "$.model"),
        ("[" * 200_000 + "]" * 200_000, 2, "malformed JSON"),
        (json.dumps(coherent_doc(1e300)), 3, "nu"),
        (json.dumps(coherent_doc(math.inf, n_max=None)), 3, "nu"),
        (json.dumps(coherent_doc([0.0, math.nan])), 3, "nu"),
        (json.dumps(coherent_doc(math.nan, n_max=None)), 3, "nu"),
    ],
    ids=[
        "model-object",
        "model-array",
        "nested-200000-deep",
        "nu-1e300",
        "nu-infinity",
        "nu-nan-imaginary",
        "nu-nan",
    ],
)
def test_malformed_model_files_exit_cleanly(tmp_path, capsys, text, code, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    assert main(["timescale", "--spec", str(path)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        fock_doc(n_max=2048),
        {"model": "bose_hubbard", "j_rate": 1.0, "n_per_site_max": 64},
        {"model": "bose_hubbard", "j_rate": 1.0, "u_rate": 1.0, "n_per_site_max": 2000},
    ],
    ids=["jcm-4098", "bose-hubbard-4225", "bose-hubbard-4004001"],
)
def test_size_cap_fails_before_allocating(tmp_path, capsys, doc):
    spec = write_model(tmp_path, doc)
    tracemalloc.start()
    try:
        code = main(["timescale", "--spec", spec])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds the configured maximum 4096" in capsys.readouterr().err
    assert peak < 16 * 2**20


def test_cli_import_does_not_load_jsonschema(tmp_path):
    src = Path(enttime.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "out.json"
    commands = [["timescale", "--spec", spec, "--out", str(out)], ["verify", "--spec", spec]]
    probes = [
        # importing the command line loads no schema library and no argparse
        "import sys, enttime.cli; print('jsonschema' in sys.modules, 'argparse' in sys.modules)",
        # nor does running it; numpy.ma (numpy 2 imports it lazily, from
        # np.unique for one) is not loaded either, nor numpy.random (also
        # lazy, about 15 ms): a 2 x 2 block is checked without random probes;
        # nor locale, which argparse's first message lookup imported (1.7 ms)
        "import contextlib, io, sys, enttime.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [enttime.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, 'jsonschema' in sys.modules, 'numpy.ma' in sys.modules,\n"
        "      'numpy.random' in sys.modules, 'locale' in sys.modules)",
    ]
    outputs = []
    for probe in probes:
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout.strip())
    assert outputs == ["False False", "[0, 0] False False False False"]


# ---------------------------------------------------------------------------
# the option table against the argparse parser it replaced
#
# Each key is its case's test id, written out so that adding or dropping a case
# renames no other.

PARSED_ARGVS = {
    # defaults
    "argv0": ["timescale", "--spec", "m.json"],
    "argv1": ["evolve", "--spec", "m.json"],
    "argv2": ["verify", "--spec", "m.json"],
    # every option and every flag, spaced and with "="
    "argv3": ["timescale", "--spec", "m.json", "--alphas", "2,3", "--out", "r.json",
              "--no-timing"],
    "argv4": ["timescale", "--spec=m.json", "--alphas=4", "--out=r.json", "--no-timing"],
    "argv5": ["evolve", "--spec", "m.json", "--alphas", "1,2,3", "--t-max", "2.5", "--points",
              "11", "--ln2-units", "--spectrum", "--out", "s.csv"],
    "argv6": ["evolve", "--out=s.csv", "--points=3", "--t-max=0.5", "--alphas=1", "--spec=m.json"],
    "argv7": ["verify", "--spec", "m.json", "--alphas", "1,2,3,4", "--tolerance-rel", "0.05",
              "--out", "t.json"],
    "argv8": ["verify", "--tolerance-rel=1e-3", "--spec=m.json", "--out=t.json"],
    # unique prefixes
    "argv9": ["verify", "--sp", "m.json", "--tol", "0.1", "--o", "t.json", "--a", "2"],
    "argv10": ["evolve", "--spec", "m.json", "--t", "3", "--po", "5", "--l", "--spectr", "--al=3"],
    "argv11": ["timescale", "--spe=m.json", "--n", "--ou", "r.json"],
    # repeats: the last one wins
    "argv12": ["verify", "--spec", "a.json", "--spec", "b.json", "--alphas", "2", "--alphas",
               "3,4"],
    "argv13": ["evolve", "--spec", "m.json", "--spectrum", "--spectrum", "--points", "3",
               "--points=4"],
    "argv14": ["timescale", "--spec", "m.json", "--no-timing", "--no-timing", "--out", "a",
               "--out", "b"],
    # values that read as negative numbers
    "argv15": ["evolve", "--spec", "m.json", "--t-max", "-1.0"],
    "argv16": ["evolve", "--spec", "m.json", "--points", "-5", "--t-max", "-.5"],
    "argv17": ["verify", "--spec", "m.json", "--tolerance-rel", "-2"],
    "argv18": ["evolve", "--spec", "m.json", "--t-max=-1e3"],
    # empty values, and values that start with "-" another way
    "argv19": ["timescale", "--spec", "", "--out", ""],
    "argv20": ["verify", "--spec=", "--out="],
    "argv21": ["timescale", "--spec", "-", "--out", "-a b"],
    "argv22": ["verify", "--spec=--x", "--out=a=b"],
    # what int(), float() and the alpha list accept around the digits
    "argv23": ["evolve", "--spec", "m.json", "--t-max", "inf", "--points", " 7 "],
    "argv24": ["evolve", "--spec", "m.json", "--t-max", "1E-3", "--points", "+3"],
    "argv25": ["verify", "--spec", "m.json", "--alphas", "1,, 2,"],
}

# (argv, the message argparse gave after "error: ")
REJECTED_ARGVS = {
    "argv0": ([], "the following arguments are required: command"),
    "argv1": (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    "argv2": (["ver", "--spec", "m.json"], "argument command: invalid choice: 'ver'"),
    "argv3": (["verify"], "the following arguments are required: --spec"),
    "argv4": (["evolve", "--alphas", "2", "--points", "3"],
              "the following arguments are required: --spec"),
    "argv5": (["verify", "--spec", "m.json", "--bogus"], "unrecognized arguments: --bogus"),
    "argv6": (["verify", "--spec", "m.json", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    "argv7": (["verify", "--spec", "m.json", "extra", "more"],
              "unrecognized arguments: extra more"),
    "argv8": (["verify", "--spec", "m.json", "--no-timing"],
              "unrecognized arguments: --no-timing"),
    "argv9": (["verify", "--spec", "m.json", "--version"], "unrecognized arguments: --version"),
    "argv10": (["verify", "-x", "--spec", "m.json"], "unrecognized arguments: -x"),
    "argv11": (["--bogus", "verify", "--spec", "m.json"], "unrecognized arguments: --bogus"),
    "argv12": (["verify", "--spec", "m.json", "--", "x"], "unrecognized arguments: -- x"),
    "argv13": (["evolve", "--spec", "m.json", "--s"],
               "ambiguous option: --s could match --spec, --spectrum"),
    "argv14": (["evolve", "--spec", "m.json", "--sp=x"],
               "ambiguous option: --sp=x could match --spec, --spectrum"),
    "argv15": (["evolve", "--s", "m.json", "--alphas", "two"],
               "ambiguous option: --s could match"),
    "argv16": (["timescale", "--spec"], "argument --spec: expected one argument"),
    "argv17": (["timescale", "--spec", "--out", "r.json"],
               "argument --spec: expected one argument"),
    "argv18": (["evolve", "--spec", "m.json", "--t-max", "--points", "3"],
               "argument --t-max: expected one argument"),
    "argv19": (["evolve", "--spec", "m.json", "--out", "--spectrum"],
               "argument --out: expected one argument"),
    "argv20": (["verify", "--spec", "--", "m.json"], "argument --spec: expected one argument"),
    "argv21": (["timescale", "--spec", "m.json", "--no-timing=1"],
               "argument --no-timing: ignored explicit argument '1'"),
    "argv22": (["evolve", "--spec", "m.json", "--spectrum="],
               "argument --spectrum: ignored explicit argument ''"),
    "argv23": (["verify", "--spec", "m.json", "-h=1"],
               "argument -h/--help: ignored explicit argument '1'"),
    "argv24": (["--version=1"], "argument --version: ignored explicit argument '1'"),
    "argv25": (["verify", "--spec", "m.json", "--alphas", "two"],
               "argument --alphas: bad alpha list 'two'"),
    "argv26": (["verify", "--spec", "m.json", "--alphas", "0,2"],
               "argument --alphas: bad alpha list '0,2'"),
    "argv27": (["verify", "--spec", "m.json", "--alphas", "2.5"],
               "argument --alphas: bad alpha list '2.5'"),
    "argv28": (["verify", "--alphas", "two"], "bad alpha list"),
    "argv29": (["verify", "--spec", "m.json", "--alphas", ", ,"],
               "argument --alphas: alpha list is empty"),
    "argv30": (["timescale", "--spec", "m.json", "--alphas="],
               "argument --alphas: alpha list is empty"),
    "argv31": (["evolve", "--spec", "m.json", "--points", "2.5"],
               "argument --points: invalid int value: '2.5'"),
    "argv32": (["evolve", "--spec", "m.json", "--points="],
               "argument --points: invalid int value: ''"),
    "argv33": (["evolve", "--spec", "m.json", "--t-max", "fast"],
               "argument --t-max: invalid float value: 'fast'"),
    "argv34": (["verify", "--spec", "m.json", "--tolerance-rel="],
               "argument --tolerance-rel: invalid float value: ''"),
}

EXITING_ARGVS = {
    "argv0": ["-h"],
    "argv1": ["--help"],
    "argv2": ["--he"],
    "argv3": ["verify", "-h"],
    "argv4": ["evolve", "--spec", "m.json", "--help", "--bogus"],
    "argv5": ["timescale", "--h"],
    "argv6": ["--version"],
    "argv7": ["--vers", "verify"],
}


def argparse_exit(argv, capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exit_info:
        oracles.argparse_oracle().parse_args(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def table_exit(argv, capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exit_info:
        cli._parse(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(PARSED_ARGVS.values()), ids=list(PARSED_ARGVS))
def test_option_table_reads_what_argparse_read(argv):
    expected = vars(oracles.argparse_oracle().parse_args(argv))
    command = expected.pop("command")
    assert cli._parse(argv) == (command, expected)


@pytest.mark.parametrize("argv, message", list(REJECTED_ARGVS.values()),
                         ids=[f"{key}-{message}" for key, (_, message) in REJECTED_ARGVS.items()])
def test_option_table_rejects_what_argparse_rejected(argv, message, capsys):
    code, _, err = argparse_exit(argv, capsys)
    assert code == 2 and message in err
    phrase = err.split("error: ", 1)[1].strip()
    code, out, err = table_exit(argv, capsys)
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: enttime")
    prog, message = error.split(": error: ", 1)
    assert prog in ("enttime", *(f"enttime {command}" for command in cli._OPTIONS))
    assert phrase in message


@pytest.mark.parametrize("argv", list(EXITING_ARGVS.values()), ids=list(EXITING_ARGVS))
def test_help_and_version_exit_zero_where_argparse_did(argv, capsys):
    code, version, _ = argparse_exit(argv, capsys)
    assert code == 0
    assert table_exit(argv, capsys) == (0, version if "--v" in argv[0] else cli._HELP, "")


def test_reading_in_order_where_argparse_read_otherwise(capsys):
    # a spaced value may start with one "-"
    argv = ["evolve", "--spec", "m.json", "--t-max", "-1e3", "--out", "-x"]
    assert cli._parse(argv)[1] == {
        "spec": "m.json", "alphas": [2], "t_max": -1000.0, "points": 201,
        "ln2_units": False, "spectrum": False, "out": "-x",
    }
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --t-max must be positive, got -1000.0\n"
    for argv, message in [
        # errors come in argument order
        (["evolve", "--alphas", "two", "--s"], "argument --alphas: bad alpha list 'two'"),
        # -hh is no bundle of -h, just an unrecognized argument
        (["timescale", "-hh"], "the following arguments are required: --spec"),
        (["timescale", "--spec", "m.json", "-hh"], "unrecognized arguments: -hh"),
    ]:
        code, out, err = table_exit(argv, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[1].startswith(f"enttime {argv[0]}: error: {message}")


def test_help_is_the_readme_block():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"```\n{cli._HELP}```\n" in readme


@pytest.mark.parametrize(
    "command, alphas, orders",
    [("timescale", "2,3,2", [2, 3]), ("verify", "2,2", [2]), ("evolve", "3,2,3", [2, 3])],
)
def test_repeated_orders_give_one_row_each(tmp_path, capsys, command, alphas, orders):
    spec = write_model(tmp_path, fock_doc())
    out = tmp_path / "out"
    argv = [command, "--spec", spec, "--alphas", alphas, "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    if command == "evolve":
        got = [int(row[1]) for row in parse_csv(out.read_text())[1]]
        assert got == [a for a in orders for _ in range(201)]
        return
    doc = json.loads(out.read_text())
    if command == "timescale":
        assert [p["alpha"] for p in doc["predictions"]] == orders
    else:
        labels = [f"curvature(alpha={a})" for a in orders]
        assert [row["label"] for row in doc["rows"]] == labels
        assert [printed.count(label) for label in labels] == [1] * len(orders)


# ---------------------------------------------------------------------------
# the reader against the Draft 2020-12 schema it replaced


BASE_DOCUMENTS = [
    fock_doc(omega=0.5, atom={"c_e": 1.0, "c_g": 0.0}),
    {
        "model": "jcm",
        "lambda_hz": 0.5,
        "omega": 0.3,
        "n_max": 30,
        "atom": {"c_e": [0.6, 0.0], "c_g": [0.0, 0.8]},
        "field": {"type": "coherent", "nu": [1.5, 0.5]},
    },
    {"model": "bose_hubbard", "j_rate": 1.0, "u_rate_hz": 2.0, "n_per_site_max": 3},
    {
        "model": "custom",
        "dim_a": 2,
        "dim_b": 2,
        "terms": [
            {"a": {"re": SIGMA_X, "im": [[0.0, 0.0], [0.0, 0.0]]}, "b": {"re": SIGMA_Z}}
        ],
        "state": {
            "psi_a": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
            "psi_b": {"re": [0.6, 0.8]},
        },
    },
]

# bool, null, string, int, integral float, fractional float, negative number,
# 1e300, NaN, Infinity, [], [x], [x, y], [x, y, z], a nested list and {}
REPLACEMENTS = [
    True, False, None, "x", "fock", "coherent", "custom", 3, 2.0, 0.5, -2, 1e300,
    math.nan, math.inf, [], [1.0], [0.6, 0.8], [1.0, 0.0, 0.5],
    [[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0, 1.0]], {},
]  # fmt: skip

ADDED_KEYS = [
    "extra", "lambda", "lambda_hz", "omega_hz", "n_max", "atom", "j_rate_hz",
    "u_rate", "n_per_site_max", "re", "im", "n", "nu", "type", "c_g", "dim_a",
]  # fmt: skip


def _slots(node):
    """(container, key) for every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def mutate(doc, rng):
    """Replace a value, delete a key or add a key, once or twice."""
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(doc))
        action = rng.choice(["replace", "delete", "add"])
        if action == "replace":
            node, key = rng.choice(slots)
            node[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        elif action == "delete":
            objects = [(node, key) for node, key in slots if isinstance(node, dict)]
            node, key = rng.choice(objects)
            del node[key]
        else:
            objects = [doc] + [n[k] for n, k in slots if isinstance(n[k], dict)]
            rng.choice(objects)[rng.choice(ADDED_KEYS)] = copy.deepcopy(
                rng.choice(REPLACEMENTS)
            )
    return doc


def reader_only_fault(doc):
    """One of the four rules a schema cannot state, on a schema-valid doc.

    A rate given twice, a required rate missing, a ragged array, or re/im
    parts of different shapes.
    """
    if doc["model"] == "custom":
        parts = [term[side] for term in doc["terms"] for side in "ab"]
        for part in parts + list(doc["state"].values()):
            layouts = [
                [len(row) for row in v] if isinstance(v[0], list) else len(v)
                for v in part.values()
            ]
            if any(isinstance(lay, list) and len(set(lay)) > 1 for lay in layouts):
                return True
            if layouts[0] != layouts[-1]:
                return True
        return False
    required, optional = {"jcm": ("lambda", "omega"), "bose_hubbard": ("j_rate", "u_rate")}[
        doc["model"]
    ]
    if required not in doc and required + "_hz" not in doc:
        return True
    return any(rate in doc and rate + "_hz" in doc for rate in (required, optional))


def test_reader_matches_schema_oracle():
    rng = random.Random(4)
    counts = {"rejected": 0, "accepted": 0, "reader-only": 0}
    for k in range(2400):
        doc = mutate(copy.deepcopy(BASE_DOCUMENTS[k % len(BASE_DOCUMENTS)]), rng)
        try:
            resolve_model_document(doc)
            raised = None
        except (EnttimeError, ValueError) as exc:  # anything else fails the test
            raised = exc
        if not oracles.schema_accepts(doc):
            expected, outcome = True, "rejected"
        else:
            expected = reader_only_fault(doc)
            outcome = "reader-only" if expected else "accepted"
        counts[outcome] += 1
        assert isinstance(raised, SchemaViolation) == expected, (doc, raised)
    assert min(counts.values()) >= 40, counts
