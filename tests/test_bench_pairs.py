import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "speedup", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def run_output(wall, speedup, attempted=5, failed=0):
    """What perfbench/run.py prints: a summary line, the env line, the result line."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "speedup": {"value": speedup, "unit": "ratio"},
        },
    }
    env = {"nproc": 2, "cpu": "test cpu", "python": "3.11.7"}
    return "wall_s: median ...\nenv " + json.dumps(env) + "\n" + json.dumps(result) + "\n"


def entry(side, seed, text, trace=0):
    return {"side": side, "workload": "w", "seed": seed, "trace": trace,
            "result": bench_pairs.parse_run_output(text)[1]}


def test_parse_run_output_reads_env_and_last_line():
    env, result = bench_pairs.parse_run_output(run_output(0.5, 1.0, attempted=7, failed=1))
    assert env["cpu"] == "test cpu"
    assert result["attempted"] == 7 and result["failed"] == 1
    assert result["metrics"]["wall_s"]["value"] == 0.5


def test_quartiles_interpolate_between_samples():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5
    }
    # positions 0.75, 1.5 and 2.25 of the sorted samples 1, 2, 10, 20
    assert bench_pairs.quartiles([20.0, 1.0, 10.0, 2.0]) == {
        "median": 6.0, "q1": 1.75, "q3": 12.5, "n": 4
    }
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_summary_counts_pairs_the_change_wins():
    parent = {1: (1.0, 2.0), 2: (1.2, 2.0), 3: (0.9, 2.0), 4: (1.1, 2.0)}
    change = {1: (0.5, 2.5), 2: (1.3, 2.0), 3: (0.4, 1.5), 4: (0.6, 3.0)}
    runs = []
    for seed in parent:
        runs.append(entry("parent", seed, run_output(*parent[seed], attempted=10)))
        runs.append(entry("change", seed, run_output(*change[seed], attempted=12,
                                                     failed=seed == 2)))
    runs.append(entry("change", 9, run_output(0.1, 9.0)))  # no partner: ignored
    runs.append(entry("parent", 30, run_output(2.0, 1.0), trace=1))
    runs.append(entry("change", 30, run_output(1.0, 1.0), trace=1))

    summary = bench_pairs.summarize(runs, END_TO_END)["w"]
    wall = summary["wall_s"]
    # lower is better: the change wins seeds 1, 3 and 4, loses seed 2
    assert wall["change_better_pairs"] == 3 and wall["pairs"] == 4
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert wall["change"]["median"] == pytest.approx(0.55)
    assert wall["parent"]["q1"] == pytest.approx(0.975)
    assert wall["parent"]["q3"] == pytest.approx(1.125)
    assert wall["median_ratio_change_over_parent"] == pytest.approx(0.55 / 1.05)
    # higher is better: only seeds 1 and 4 are wins, the tie on seed 2 is not
    assert summary["speedup"]["change_better_pairs"] == 2
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["attempted_runs"] == {"parent": 40, "change": 48}
    assert summary["traced"]["parent"]["wall_s"] == 2.0
    assert summary["traced"]["change"]["speedup"] == 1.0


def test_import_summary_gives_each_side_its_median_and_quartiles():
    samples = {"parent": [0.12, 0.10, 0.14, 0.11, 0.13], "change": [0.20, 0.10, 0.15, 0.05]}
    summary = bench_pairs.summarize_imports(samples)
    assert summary["parent"] == {"median": pytest.approx(0.12), "q1": pytest.approx(0.11),
                                 "q3": pytest.approx(0.13), "n": 5,
                                 "samples": [0.12, 0.10, 0.14, 0.11, 0.13]}
    # positions 0.75, 1.5 and 2.25 of the sorted samples 0.05, 0.10, 0.15, 0.20
    assert summary["change"]["median"] == pytest.approx(0.125)
    assert summary["change"]["q1"] == pytest.approx(0.0875)
    assert summary["change"]["q3"] == pytest.approx(0.1625)
    assert summary["median_ratio_change_over_parent"] == pytest.approx(0.125 / 0.12)


@pytest.mark.parametrize("missing", ["--seed", "--trace-seed"])
def test_seeds_have_no_default(missing, capsys):
    argv = ["--parent", "HEAD", "--label", "x", "--what", "y", "--seed", "1", "--trace-seed", "2"]
    k = argv.index(missing)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv[:k] + argv[k + 2:])
    assert exit_info.value.code == 2
    assert missing in capsys.readouterr().err


def bench_file(root, label, seeds):
    runs = [{"side": side, "workload": "w", "seed": seed, "trace": 0, "result": {}}
            for seed in seeds for side in bench_pairs.SIDES]
    (root / f"BENCH_{label}.json").write_text(json.dumps({"label": label, "runs": runs}))


@pytest.mark.parametrize(
    "seed, trace_seed, clash",
    [(105, 300, "105 in BENCH_old.json"), (91, 300, "100 in BENCH_old.json"),
     (500, 201, "201 in BENCH_other.json")],
    ids=["pair-seed", "last-pair-seed", "trace-seed"],
)
def test_seeds_a_bench_file_records_are_refused(tmp_path, monkeypatch, capsys,
                                                 seed, trace_seed, clash):
    bench_file(tmp_path, "old", range(100, 111))
    bench_file(tmp_path, "other", [201])
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    argv = ["--parent", "HEAD", "--label", "new", "--what", "y",
            "--seed", str(seed), "--trace-seed", str(trace_seed)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code != 0
    assert clash in capsys.readouterr().err
    assert not (tmp_path / "BENCH_new.json").exists()


def test_unused_seeds_pass_the_check(tmp_path):
    bench_file(tmp_path, "old", range(100, 111))
    assert bench_pairs.used_seeds(tmp_path, [*range(111, 121), 99]) == []
    assert bench_pairs.used_seeds(tmp_path, [*range(90, 100), 110]) == [("BENCH_old.json", 110)]


def git_repo(root, *commits):
    """A repository at ``root`` with one commit per dict of file texts; their hashes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    hashes = []
    for files in commits:
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", "c")
        hashes.append(git("rev-parse", "HEAD"))
    return hashes


def test_both_sides_run_from_archive_copies_made_the_same_way(tmp_path, monkeypatch):
    bench = {"run_seconds": 1, "end_to_end": END_TO_END, "workloads": [{"name": "w"}]}
    repo = tmp_path / "repo"
    repo.mkdir()
    parent, head = git_repo(
        repo,
        {"BENCHMARK.json": json.dumps(bench), "side.txt": "parent"},
        {"side.txt": "change"},
    )
    (repo / "untracked.txt").write_text("not part of any commit")
    seen = []

    def fake_run(root, workload, seed, seconds, trace):
        seen.append((root, (root / "side.txt").read_text(), seed, trace,
                     (root / "untracked.txt").exists()))
        return bench_pairs.parse_run_output(run_output(1.0 if root.name == "parent" else 0.5,
                                                       1.0))

    def fake_setup(root):
        imported.append((root.name, (root / "side.txt").read_text()))
        return 0.1 if root.name == "parent" else 0.09

    imported = []
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.setattr(bench_pairs, "setup_seconds", fake_setup)
    argv = ["--parent", "HEAD~1", "--label", "t", "--what", "y",
            "--seed", "1", "--trace-seed", "50"]
    assert bench_pairs.main(argv) == 0
    roots = {root.name: root for root, *_ in seen}
    # two sibling copies in one temporary directory, neither the working tree
    assert set(roots) == {"parent", "change"}
    assert roots["parent"].parent == roots["change"].parent != repo
    assert all(text == root.name and not untracked for root, text, _, _, untracked in seen)
    assert len(seen) == 2 * (bench_pairs.PAIRS + 1)
    document = json.loads((repo / "BENCH_t.json").read_text())
    assert document["how"]["parent"] == f"commit {parent} (HEAD~1), from a git archive copy"
    assert document["how"]["change"] == f"commit {head} (HEAD), from a git archive copy"
    assert document["summary"]["w"]["wall_s"]["change_better_pairs"] == bench_pairs.PAIRS
    # one untimed import per side, then the timed ones alternating which side goes first
    assert all(side == text for side, text in imported)
    order = [side for side, _ in imported]
    assert order[:6] == ["parent", "change", "parent", "change", "change", "parent"]
    assert len(order) == 2 * (bench_pairs.IMPORTS + 1)
    assert document["imports"]["parent"]["samples"] == [0.1] * bench_pairs.IMPORTS
    assert document["imports"]["change"]["median"] == 0.09


def test_uncommitted_changes_are_refused(tmp_path, monkeypatch, capsys):
    git_repo(tmp_path, {"BENCHMARK.json": "{}", "side.txt": "parent"}, {"side.txt": "change"})
    (tmp_path / "side.txt").write_text("edited")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    argv = ["--parent", "HEAD~1", "--label", "t", "--what", "y",
            "--seed", "1", "--trace-seed", "50"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "uncommitted changes" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_line_counts_of_both_copies_and_their_delta(tmp_path, monkeypatch):
    """Lines of the committed ``*.py`` files under src/, tests/ and tools/ on each side."""
    bench = {"run_seconds": 1, "end_to_end": END_TO_END, "workloads": [{"name": "w"}]}
    git_repo(
        tmp_path,
        {"BENCHMARK.json": json.dumps(bench), "src/pkg/a.py": "1\n2\n3\n",
         "src/pkg/notes.txt": "not python\n", "tests/t.py": "1\n", "tools/x.py": "1\n2\n"},
        {"src/pkg/a.py": "1\n", "tests/t.py": "1\n2\n3\n4\n"},
    )
    (tmp_path / "tools" / "untracked.py").write_text("1\n" * 50)  # in neither commit
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda *args: bench_pairs.parse_run_output(run_output(1.0, 1.0)))
    monkeypatch.setattr(bench_pairs, "setup_seconds", lambda root: 0.1)
    argv = ["--parent", "HEAD~1", "--label", "t", "--what", "y",
            "--seed", "1", "--trace-seed", "50"]
    assert bench_pairs.main(argv) == 0
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["lines"] == {
        "parent": {"src": 3, "tests": 1, "tools": 2},
        "change": {"src": 1, "tests": 4, "tools": 2},
        "delta": {"src": -2, "tests": 3, "tools": 0},
    }


@pytest.mark.parametrize("bytecode", [None, "1"])
def test_host_state_is_recorded_as_found(tmp_path, monkeypatch, bytecode):
    """The bytecode setting as the environment has it, left as it was, and the load average
    before the first pair and after the last."""
    bench = {"run_seconds": 1, "end_to_end": END_TO_END, "workloads": [{"name": "w"}]}
    git_repo(tmp_path, {"BENCHMARK.json": json.dumps(bench)}, {"side.txt": "change"})
    if bytecode is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", bytecode)
    loads = iter([(0.5, 0.25, 0.125), (2.0, 1.0, 0.5)])
    runs = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: next(loads))
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: runs.append(args)
                        or bench_pairs.parse_run_output(run_output(1.0, 1.0)))
    monkeypatch.setattr(bench_pairs, "setup_seconds", lambda root: 0.1)
    argv = ["--parent", "HEAD~1", "--label", "t", "--what", "y",
            "--seed", "1", "--trace-seed", "50"]
    assert bench_pairs.main(argv) == 0
    how = json.loads((tmp_path / "BENCH_t.json").read_text())["how"]
    assert how["PYTHONDONTWRITEBYTECODE"] == bytecode
    assert bench_pairs.os.environ.get("PYTHONDONTWRITEBYTECODE") == bytecode
    assert how["loadavg"] == {"start": [0.5, 0.25, 0.125], "end": [2.0, 1.0, 0.5]}
    assert len(runs) == 2 * (bench_pairs.PAIRS + 1)
