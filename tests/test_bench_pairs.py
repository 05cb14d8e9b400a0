"""The paired summary of `scripts/bench_pairs.py`."""

import importlib.util
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
    return {
        "correct": correct,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
    }


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
