"""The machine-speed scaling of `scripts/bench_all.py`."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_all.py"
spec = importlib.util.spec_from_file_location("bench_all", SCRIPT)
bench_all = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_all)


def _traced(kernel_s, wall, sample, lift):
    return {
        "kernel_s": kernel_s,
        "metrics": {
            "trace.wall_s": wall, "sample_spectrum.s": sample,
            "lift_many.s": lift, "lift_many.calls": 7.0,
            "deconvolve.self_s": 0.1,
        },
    }


def test_scaled_times_use_the_records_own_kernel(monkeypatch):
    monkeypatch.setattr(bench_all, "REFERENCE_S", 0.02)
    # a mean kernel time of 0.05 s, as `scaled_wall_s` takes it, not the
    # median: the run ran at 0.4 of reference speed
    scaled = bench_all.scaled_times(
        _traced([0.03, 0.04, 0.08], 1.0, 0.4, 0.2)
    )
    assert scaled.keys() == {
        "sample_spectrum.s", "lift_many.s", "estimator_scaled_s"
    }
    assert scaled["sample_spectrum.s"] == pytest.approx(0.16)
    assert scaled["lift_many.s"] == pytest.approx(0.08)
    assert scaled["estimator_scaled_s"] == pytest.approx(0.24)


def test_merged_record_holds_each_runs_scaled_times_and_their_median(
    monkeypatch, tmp_path
):
    # the same work on a machine that runs at full, half and quarter speed
    # scales to the same times, while the raw times spread fourfold
    monkeypatch.setattr(bench_all, "REFERENCE_S", 0.02)
    monkeypatch.setattr(bench_all, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 30,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "scaled_wall_s"}],
    }))
    slow = iter((1, 2, 4))

    def run_bench(cwd, workload, seed, trace):
        if trace:
            k = next(slow)
            return _traced([0.02 * k], 1.0 * k, 0.4 * k, 0.2 * k)
        return {"metrics": {"scaled_wall_s": 1.0}}

    monkeypatch.setattr(bench_all, "run_bench", run_bench)
    assert bench_all.main(["--tag", "t"]) == 0
    merged = json.loads((tmp_path / "BENCH_t.json").read_text())
    record = merged["workloads"]["w"]
    assert record["estimator_s_runs"] == pytest.approx([0.6, 1.2, 2.4])
    for scaled in record["metrics_scaled_runs"] + [record["metrics_scaled"]]:
        assert scaled["estimator_scaled_s"] == pytest.approx(0.6)
        assert scaled["lift_many.s"] == pytest.approx(0.2)
    assert record["estimator_scaled_s"] == pytest.approx(0.6)
