"""Stages the benchmark traces, and the per-layer metrics read from spans.

Each stage is named by the function that implements it.  The comment on
each entry says which end-to-end metric the stage should move, and on
which workload; README.md gives the measured shares.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, self_times
from workloads import fingerprint


def _deconvolve_counts(bound):
    def finish(result):
        diags = getattr(result, "diagnostics", None)
        return {
            "nodes_used": getattr(diags, "nodes_used", None),
            "estimate": getattr(result, "estimate", None),
        }

    return finish


def _lift_counts(bound):
    targets = bound.arguments.get("targets")
    steps = bound.arguments.get("step_counts")
    before = len(steps) if steps is not None else 0

    def finish(result):
        out = {}
        if targets is not None:
            out["nodes"] = len(targets)
        if steps is not None:
            out["steps"] = int(sum(steps[before:]))
        return out

    return finish


def _sample_counts(bound):
    def finish(result):
        return {
            "fingerprint": fingerprint(result),
            "max_atom": float(result.atoms.max()),
        }

    return finish


STAGES = {
    # experiments: wall_s on large_p (Toeplitz square root at p = 1600)
    "sample_spectrum": _sample_counts,
    # pipeline, retried by experiments: wall_s on near_square and small_p
    "deconvolve": _deconvolve_counts,
    # inversion, ramification: wall_s on large_p and near_square
    "critical_points": None,
    # inversion, lifting: wall_s on small_p, less on near_square
    "lift_many": _lift_counts,
    # contours: wall_s on near_square; w1_mean and noise_free_w1 everywhere
    "choose_m_contour": None,
    "contour_rep_from_s": None,
    "moments_from_contour": None,
    # recovery: w1_mean, success_rate and noise_free_w1 on all workloads
    "recover_measure_detailed": None,
}

# The untraced pass keeps only what the correctness gate checks: the input
# each run sampled and the estimate each deconvolve call returned.
CAPTURE = {
    "sample_spectrum": _sample_counts,
    "deconvolve": _deconvolve_counts,
}

PER_LAYER = {
    "critical_points.calls": "count",
    "critical_points.s": "s",
    "lift_many.calls": "count",
    "lift_many.s": "s",
    "lift_many.nodes": "count",
    "lift_many.steps": "count",
    "lift_many.useful_node_ratio": "ratio",
    "deconvolve.calls": "count",
    "deconvolve.failed": "count",
    "deconvolve.s": "s",
    "deconvolve.self_s": "s",
    "retry.useful_ratio": "ratio",
    "choose_m_contour.calls": "count",
    "choose_m_contour.s": "s",
    "contour_rep_from_s.s": "s",
    "moments_from_contour.calls": "count",
    "moments_from_contour.s": "s",
    "contour.nodes_used": "count",
    "recover_measure_detailed.calls": "count",
    "recover_measure_detailed.s": "s",
    "recover_measure_detailed.failed": "count",
    "sample_spectrum.calls": "count",
    "sample_spectrum.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.missing_stages": "count",
    "noise_free.w1_raw": "W1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    succeeded: list[bool],
    missing: list[str],
    traced_wall: float,
    untraced_wall: float,
    noise_free_raw: float,
) -> dict[str, float]:
    """Per-layer metric values, keyed as in PER_LAYER."""
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in STAGES:
        idx = by_name[name]
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.s"] = sum(spans[i].duration for i in idx)
        out[f"{name}.failed"] = sum(bool(spans[i].error) for i in idx)
        out[f"{name}.self_s"] = sum(selfs[i] for i in idx)

    lifts = [spans[i] for i in by_name["lift_many"]]
    out["lift_many.nodes"] = sum(s.counts.get("nodes", 0) for s in lifts)
    out["lift_many.steps"] = sum(s.counts.get("steps", 0) for s in lifts)
    # the last lift of a successful run is the final pass of the estimate
    # it reports; every other lifted node fed a comparison or a retry
    last_lift = {s.run_id: s for s in lifts}
    useful = sum(
        last_lift[r].counts.get("nodes", 0)
        for r, ok in enumerate(succeeded)
        if ok and r in last_lift
    )
    out["lift_many.useful_node_ratio"] = _ratio(useful, out["lift_many.nodes"])
    out["retry.useful_ratio"] = _ratio(sum(succeeded), out["deconvolve.calls"])

    used = [
        spans[i].counts["nodes_used"]
        for i in by_name["deconvolve"]
        if spans[i].counts.get("nodes_used") is not None
    ]
    out["contour.nodes_used"] = _ratio(sum(used), len(used))
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.missing_stages"] = len(missing)
    out["noise_free.w1_raw"] = noise_free_raw
    return {name: float(out[name]) for name in PER_LAYER}
