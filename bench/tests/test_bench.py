"""Tests of the benchmark itself: tracer, metric arithmetic, inputs, limits.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

import freedeconv
import layers
import run
import workloads
from tracer import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _package_attrs():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "freedeconv" or name.startswith("freedeconv.")
        for attr, value in vars(mod).items()
    }


def test_tracer_wraps_every_alias_and_restores_the_originals():
    from freedeconv import inversion, pipeline

    before = _package_attrs()
    orig = inversion.critical_points
    assert pipeline.critical_points is orig
    with Tracer(layers.STAGES) as tracer:
        assert inversion.critical_points is not orig
        assert pipeline.critical_points is inversion.critical_points
        assert freedeconv.critical_points is inversion.critical_points
    after = _package_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_reports_a_missing_stage_without_failing():
    with Tracer({"run_scenario": None, "renamed_away": None}) as tracer:
        tracer.run_id = 0
        freedeconv.run_scenario(
            freedeconv.SCENARIOS["S2_1"], [200], "contour", seeds=[1], workers=1
        )
    assert tracer.missing == ["renamed_away"]
    assert [s.name for s in tracer.spans] == ["run_scenario"]
    metrics = layers.layer_metrics(
        tracer.spans, [True], tracer.missing, 1.0, 1.0, 0.0
    )
    assert metrics["deconvolve.calls"] == 0
    assert metrics["lift_many.useful_node_ratio"] == 0.0
    assert metrics["trace.missing_stages"] == 1


def test_tracer_records_the_stage_of_a_failure():
    from freedeconv import InvalidMomentsError, MomentSequence
    from freedeconv import recover_measure_detailed

    bad = MomentSequence([1.0, 1.0, 0.5, 0.3])  # negative variance
    with Tracer({"recover_measure_detailed": None}) as tracer:
        with pytest.raises(InvalidMomentsError):
            freedeconv.recover_measure_detailed(bad, 2)
    assert freedeconv.recover_measure_detailed is recover_measure_detailed
    (span,) = tracer.spans
    assert span.error == "InvalidMomentsError"
    assert span.stage == "recover_measure"


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, None, 0, end=10.0),
        Span("a", 1.0, 0, 0, end=4.0),
        Span("a.child", 2.0, 1, 0, end=3.0),
        Span("b", 5.0, 0, 0, end=7.0),
        Span("c", 6.0, 0, 0, end=8.0),  # overlaps b: union is 5..8
        Span("d", 9.5, 0, 0, end=11.0),  # clipped at the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_arithmetic_on_a_synthetic_trace():
    def span(name, start, end, parent=None, error="", **counts):
        return Span(name, start, parent, 0, end=end, error=error, counts=counts)

    spans = [
        span("sample_spectrum", 0.0, 1.0),
        span("deconvolve", 1.0, 5.0, error="InvalidMomentsError"),
        span("critical_points", 1.0, 2.0, parent=1),
        span("lift_many", 2.0, 3.0, parent=1, nodes=256, steps=300),
        span("lift_many", 3.0, 4.0, parent=1, nodes=512, steps=600),
        span("recover_measure_detailed", 4.0, 4.5, parent=1, error="X"),
        span("deconvolve", 5.0, 9.0, nodes_used=1024),
        span("critical_points", 5.0, 6.0, parent=6),
        span("lift_many", 6.0, 7.0, parent=6, nodes=256, steps=280),
        span("lift_many", 7.0, 8.5, parent=6, nodes=512, steps=590),
        span("recover_measure_detailed", 8.5, 8.6, parent=6),
    ]
    m = layers.layer_metrics(spans, [True], [], 10.0, 9.5, 0.25)
    assert m["deconvolve.calls"] == 2 and m["deconvolve.failed"] == 1
    assert m["deconvolve.s"] == pytest.approx(8.0)
    assert m["deconvolve.self_s"] == pytest.approx(0.5 + 0.4)
    assert m["critical_points.calls"] == 2
    assert m["lift_many.calls"] == 4
    assert m["lift_many.s"] == pytest.approx(4.5)
    assert (m["lift_many.nodes"], m["lift_many.steps"]) == (1536, 1770)
    assert m["lift_many.useful_node_ratio"] == pytest.approx(512 / 1536)
    assert m["retry.useful_ratio"] == pytest.approx(0.5)
    assert m["recover_measure_detailed.failed"] == 1
    assert m["contour.nodes_used"] == 1024
    assert m["sample_spectrum.s"] == pytest.approx(1.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["noise_free.w1_raw"] == 0.25


def test_layer_metrics_on_a_traced_run():
    runs = [workloads.Run("S2_3", 200, 0), workloads.Run("S2_1", 200, 3)]
    ((reports, times, tracer),), kernel = run.timed_passes(runs, [layers.STAGES])
    wall = sum(times)
    assert len(kernel) >= run.KERNEL_MIN + len(runs) and min(kernel) > 0.0
    ok = [not r.error for r in reports]
    m = layers.layer_metrics(tracer.spans, ok, tracer.missing, wall, wall, 0.0)
    assert set(m) == set(layers.PER_LAYER)
    assert all(math.isfinite(v) for v in m.values())
    assert m["deconvolve.calls"] >= len(runs)
    assert m["lift_many.nodes"] > 0 and m["lift_many.steps"] > 0
    assert 0.0 < m["lift_many.useful_node_ratio"] <= 1.0
    assert 0.0 < m["retry.useful_ratio"] <= 1.0
    assert 0.0 <= m["deconvolve.self_s"] < m["deconvolve.s"] <= wall
    problems, failures = run.check_pass(
        runs, reports, tracer,
        lambda sc, p: freedeconv.SCENARIOS[sc].ground_truth(p),
    )
    assert problems == [] and failures == []


def test_scaling_divides_by_the_mean_kernel_time():
    from calibrate import REFERENCE_S

    kernel = [REFERENCE_S, 2.0 * REFERENCE_S, 3.0 * REFERENCE_S]
    assert run.scaled_seconds(10.0, kernel) == pytest.approx(5.0)


def test_a_failed_run_cannot_improve_the_mean_w1():
    from types import SimpleNamespace

    runs = [workloads.Run("S2_3", 500, 1), workloads.Run("S2_1", 500, 1)]

    def report(run, w1, error=""):
        return SimpleNamespace(
            scenario=run.scenario, n=run.n, p=100, seed=run.seed,
            w1_error=w1, error=error,
        )

    def truth(sc, p):
        return freedeconv.SCENARIOS[sc].ground_truth(p)

    good = run.scored_w1(runs, [report(runs[0], 1.1), report(runs[1], 0.07)], truth)
    assert good == [1.1, 0.07]
    failed = run.scored_w1(
        runs, [report(runs[0], float("nan"), "failed"), report(runs[1], 0.07)],
        truth,
    )
    pop = truth("S2_3", 100)
    assert failed[0] == pytest.approx(float(pop.atoms @ pop.weights))
    assert failed[0] > good[0]


def _captured_fingerprints(seed):
    # the first two sample seeds of small_p, on a cheap scenario and size
    wl = workloads.WORKLOADS["small_p"]
    runs = [
        workloads.Run("S2_3", 200, r.seed)
        for r in workloads.run_list(wl, seed, 1.0)[:2]
    ]
    ((_, _, tracer),), _ = run.timed_passes(runs, [layers.CAPTURE])
    return [c["fingerprint"] for c in run.sampled_inputs(len(runs), tracer)]


def test_same_seed_gives_the_same_input_fingerprints():
    wl = workloads.WORKLOADS["small_p"]
    assert workloads.run_list(wl, 3, 10.0) == workloads.run_list(wl, 3, 10.0)
    assert [r.seed for r in workloads.run_list(wl, 0, 10.0)[:5]] == [1, 2, 3, 4, 5]
    first = _captured_fingerprints(3)
    assert len(set(first)) == 2
    assert _captured_fingerprints(3) == first
    assert not set(_captured_fingerprints(4)) & set(first)


def test_block_count_follows_seconds_only():
    wl = workloads.WORKLOADS["near_square"]
    assert len(workloads.run_list(wl, 0, 1.0)) == wl.seeds_per_block
    assert len(workloads.run_list(wl, 0, 3 * wl.block_s)) == 3 * wl.seeds_per_block


def test_benchmark_json_matches_the_code_and_the_limits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    names = [
        m["name"]
        for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
