"""The run list of `scripts/run_records.py --out`, and the grid summary of
its `--diff`."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_records.py"
spec = importlib.util.spec_from_file_location("run_records", SCRIPT)
run_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_records)


def _ok(w1: float, rank: int) -> dict:
    return {
        "outcome": "ok", "rung": [1e-4, 8], "rank": rank, "nodes_used": 512,
        "radius": 0.5, "limiter": "slit", "moment_rule": "m_circle",
        "settle_gap": 1e-12, "imag_residue": 1e-15, "w1": w1,
        "atoms": [1.0] * rank, "weights": [1.0 / rank] * rank,
    }


FAILED = {"outcome": "failed", "error": "InvalidMomentsError",
          "stage": "recover_measure"}


def _grid(cells: dict) -> dict:
    return {
        f"grid/{sc_id}/n{n}/seed{seed}": rec
        for (sc_id, n), runs in cells.items()
        for seed, rec in enumerate(runs, start=1)
    }


def _diff(tmp_path, a: dict, b: dict, capsys) -> tuple[int, dict]:
    paths = []
    for name, recs in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(recs))
    rc = run_records.main(["--diff", *paths])
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        words = line.split()
        if len(words) > 2 and words[1].startswith("n="):
            rows[" ".join(words[:2])] = words[2:]
    return rc, rows


def test_diff_prints_the_grid_cell_medians_and_rank_moves(tmp_path, capsys):
    # six S1 runs at n = 500: seed 2 fails in B, which scores inf, and
    # seed 6 takes another rank; two S3 runs at n = 2000 move their W1 only
    s1 = [_ok(w, 2) for w in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
    s1_b = s1[:1] + [FAILED] + s1[2:5] + [_ok(0.9, 3)]
    s3, s3_b = [_ok(0.2, 4), _ok(0.4, 4)], [_ok(0.25, 4), _ok(0.45, 4)]
    a = _grid({("S1", 500): s1, ("S3", 2000): s3})
    b = _grid({("S1", 500): s1_b, ("S3", 2000): s3_b})
    rc, rows = _diff(tmp_path, a, b, capsys)
    assert rc == 1  # a run changed its outcome and one its rank
    # per cell: seeds 1-5 for A, B and the change, seeds 1-20 likewise,
    # and the count of runs whose rank moved
    assert rows == {
        "S1 n=500": ["0.3000", "0.4000", "+0.1000",
                     "0.3500", "0.4500", "+0.1000", "2"],
        "S3 n=2000": ["0.3000", "0.3500", "+0.0500",
                      "0.3000", "0.3500", "+0.0500", "0"],
    }
    # W1 moves alone change no path
    rc, rows = _diff(tmp_path, _grid({("S3", 2000): s3}),
                     _grid({("S3", 2000): s3_b}), capsys)
    assert rc == 0
    assert rows["S3 n=2000"][-1] == "0"
    # records of no grid input print no grid table
    rc, rows = _diff(tmp_path, {"noise_free/S1": s3[0]},
                     {"noise_free/S1": s3[0]}, capsys)
    assert (rc, rows) == (0, {})


def test_the_recorded_runs_are_the_run_lists_of_the_declared_run_length(
    tmp_path, monkeypatch
):
    # a run length other than the repository's, so that a hard-coded one
    # would show; the sampled runs are stubbed out
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 5}))
    monkeypatch.setattr(run_records, "ROOT", tmp_path)
    monkeypatch.setattr(run_records, "_sampled_record", lambda *a: FAILED)
    recs = run_records.records()
    expected = [
        f"{name}/{run.scenario}/n{run.n}/seed{run.seed}"
        for name, seeds in run_records.SEEDS.items()
        for seed in seeds
        for run in workloads.run_list(workloads.WORKLOADS[name], seed, 5)
    ]
    # the 30 s lists hold 209 runs
    assert 0 < len(expected) < 209
    sampled = sorted(k for k in recs if not k.startswith("noise_free/"))
    assert sampled == sorted(expected)
