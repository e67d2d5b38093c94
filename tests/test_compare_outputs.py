import importlib.util
import json
from pathlib import Path

import pytest

from enttime.cli import resolve_model_document
from enttime.errors import ModelError
from enttime.hamiltonian import check_hermitian

from test_bench_pairs import git_repo

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_every_model_of_the_fixed_set_reads():
    docs = compare_outputs.model_documents()
    assert len(docs) == 14
    for name, doc in docs.items():
        model = resolve_model_document(json.loads(json.dumps(doc)))
        if name == "non_hermitian":
            with pytest.raises(ModelError):
                check_hermitian(model.hamiltonian)
    dense = compare_outputs.commands(compare_outputs.DENSE)
    assert [cmd[0] for cmd in dense] == ["timescale", "evolve", "evolve"]
    assert dense[2][-2:] == ["--t-max", "8"] and "--t-max" not in dense[1]
    partial = compare_outputs.commands(compare_outputs.PARTIAL)
    assert [cmd[0] for cmd in partial] == ["timescale", "verify", "evolve", "evolve"]
    assert partial[3] == [*partial[2], "--t-max", "8"]


def canned(monkeypatch, repo, differ):
    """Replace the model set and the runs; each run reports which copy it ran from."""
    monkeypatch.setattr(compare_outputs.bench_pairs, "ROOT", repo)
    monkeypatch.setattr(compare_outputs, "model_documents",
                        lambda: {"small": {"model": "x"}, compare_outputs.DENSE: {"model": "y"}})
    seen = []

    def fake_run(root, argv, workdir):
        side = (root / "side.txt").read_text()
        seen.append((root, side, argv[0], json.loads(Path(argv[-1]).read_text())["model"]))
        stderr = side.encode() if differ and argv[0] == "evolve" else b""
        return {"exit code": 0, "stdout": b"table", "stderr": stderr, "--out": b"{}"}

    monkeypatch.setattr(compare_outputs, "run_side", fake_run)
    return seen


@pytest.mark.parametrize("differ", [False, True], ids=["identical", "stderr-differs"])
def test_canned_runs_compare_both_archive_copies(tmp_path, monkeypatch, capsys, differ):
    repo = tmp_path / "repo"
    repo.mkdir()
    git_repo(repo, {"side.txt": "parent"}, {"side.txt": "change"})
    seen = canned(monkeypatch, repo, differ)
    assert compare_outputs.main(["--parent", "HEAD~1"]) == (1 if differ else 0)
    roots = {side: root for root, side, _, _ in seen}
    assert set(roots) == {"parent", "change"}
    assert roots["parent"].parent == roots["change"].parent != repo
    # three commands on each model, each on both sides
    assert [(cmd, model) for _, side, cmd, model in seen if side == "change"] == [
        ("timescale", "x"), ("verify", "x"), ("evolve", "x"),
        ("timescale", "y"), ("evolve", "y"), ("evolve", "y"),
    ]
    out = capsys.readouterr().out
    if differ:
        assert out.count("differs in stderr") == 3 and "3 of the runs differ" in out
    else:
        assert out.count("  identical") == 6 and "every run is identical" in out


def test_uncommitted_changes_are_refused(tmp_path, monkeypatch, capsys):
    git_repo(tmp_path, {"side.txt": "parent"}, {"side.txt": "change"})
    (tmp_path / "side.txt").write_text("edited")
    seen = canned(monkeypatch, tmp_path, False)
    with pytest.raises(SystemExit) as exit_info:
        compare_outputs.main(["--parent", "HEAD~1"])
    assert exit_info.value.code == 2
    assert "uncommitted changes" in capsys.readouterr().err
    assert seen == []
