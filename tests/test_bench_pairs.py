"""The paired summary and the tree export of `scripts/bench_pairs.py`."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

REF = [1.0, 2.0, 3.0, 4.0, 5.0]
NEW = [0.5, 2.5, 2.0, 3.0, 5.0]


def test_summary_counts_strict_wins_in_the_metric_direction():
    lower = bench_pairs.summarize(REF, NEW, "lower")
    assert lower["ref"] == (2.0, 3.0, 4.0)
    assert lower["new"] == (2.0, 2.5, 3.0)
    assert lower["ref_iqr"] == 2.0
    # pairs 1, 3 and 4 are won, pair 2 is lost and the tie of pair 5
    # counts for neither side
    assert (lower["wins"], lower["pairs"]) == (3, 5)
    assert bench_pairs.summarize(REF, NEW, "higher")["wins"] == 1


def _record(correct: bool, **values) -> dict:
    return {"problems": [] if correct else ["W1 off"], "metrics": values}


@pytest.mark.parametrize("new_correct", (True, False))
def test_report_prints_each_metric_and_fails_on_an_incorrect_run(
    new_correct, capsys
):
    declared = [{"name": "scaled_wall_s", "better": "lower"},
                {"name": "success_rate", "better": "higher"}]
    runs = {
        "ref": [_record(True, scaled_wall_s=t, success_rate=1.0) for t in REF],
        "new": [_record(new_correct, scaled_wall_s=t, success_rate=1.0)
                for t in NEW],
    }
    rc = bench_pairs.report(runs, declared)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "scaled_wall_s  ref 3 [2, 4]  new 2.5 [2, 3]  ref IQR 2  won 3/5"
    )
    assert out[1] == (
        "success_rate   ref 1 [1, 1]  new 1 [1, 1]  ref IQR 0  won 0/5"
    )
    if new_correct:
        assert (rc, out[2:]) == (0, [])
    else:
        assert rc == 1
        assert out[2:] == [f"INCORRECT: new run {i}" for i in range(1, 6)]


def test_the_export_holds_the_working_tree_without_ignored_files(tmp_path):
    # a committed file modified in the tree, an untracked file and an
    # ignored one: the export holds the first two as they are on disk
    repo, dest = tmp_path / "repo", tmp_path / "export"
    repo.mkdir()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "src").mkdir()
    (repo / "src" / "kept.py").write_text("committed\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "kept.py").write_text("modified\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    bench_pairs.export_tree(repo, dest)
    files = {
        str(f.relative_to(dest)): f.read_text()
        for f in dest.rglob("*") if f.is_file()
    }
    assert files == {
        ".gitignore": "*.log\n",
        "src/kept.py": "modified\n",
        "src/new.py": "untracked\n",
    }
