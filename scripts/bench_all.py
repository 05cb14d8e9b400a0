"""Run the benchmark on every declared workload and merge the records.

Run from the repository root:

    python3 scripts/bench_all.py --tag pr12

For each workload named in BENCHMARK.json it runs

    python3 bench/run.py --workload W --seed 0 --seconds S --trace 1

with S the ``run_seconds`` of BENCHMARK.json, TRACED_RUNS times and the
same command with ``--trace 0`` UNTRACED_RUNS times, each in a fresh
interpreter, and writes the records to ``BENCH_<tag>.json`` at the
repository root.  The record of the first
traced run, read from ``.bench_out/W-seed0-trace1.json``, keeps its
per-run results, input fingerprints and environment; the span list is
dropped, since the per-layer metrics summarise it and it runs to
megabytes.  Its ``metrics`` block holds the per-metric median of the
per-layer metrics of the traced runs, and ``metrics_runs`` each run's
own; its ``end_to_end`` block holds the per-metric median of the six
end-to-end ``metrics`` of the untraced runs, ``end_to_end_runs`` each
run's own, and ``end_to_end_spread`` the max - min of each metric over
those runs.  So one noisy pass neither sets a figure nor hides its spread,
and a change between two files smaller than the spread reads as
unresolved.
``estimator_s`` is the estimator's time apart from sampling: the median
over the traced runs of ``trace.wall_s - sample_spectrum.s``, with each
run's value in ``estimator_s_runs``.  Since a shared machine's speed
drifts between runs and files, ``metrics_scaled_runs`` holds each traced
run's per-layer ``.s`` metrics and its estimator time
(``estimator_scaled_s``) times ``REFERENCE_S`` over the mean of that
run's own ``kernel_s``, as ``bench/run.py`` scales ``scaled_wall_s``:
seconds on the reference machine at its mean speed.  ``metrics_scaled``
holds their per-metric medians, and ``estimator_scaled_s`` the median
scaled estimator time.

Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from calibrate import REFERENCE_S  # noqa: E402

SEED = 0
# traced runs per workload whose median makes the per-layer block, and
# untraced runs whose median makes the end-to-end block
TRACED_RUNS = 3
UNTRACED_RUNS = 3


def median_block(records: list[dict], names) -> dict:
    """Per-metric median over the records, for each of `names`."""
    return {name: statistics.median(r[name] for r in records) for name in names}


def estimator_seconds(metrics: dict) -> float:
    """The estimator's time apart from sampling, in one traced run."""
    return metrics["trace.wall_s"] - metrics["sample_spectrum.s"]


def scaled_times(record: dict) -> dict:
    """The per-layer ``.s`` metrics and the estimator time of one traced
    record, times REFERENCE_S over the mean of the record's kernel times."""
    metrics = record["metrics"]
    times = {k: v for k, v in metrics.items() if k.endswith(".s")}
    times["estimator_scaled_s"] = estimator_seconds(metrics)
    scale = REFERENCE_S / statistics.fmean(record["kernel_s"])
    return {k: v * scale for k, v in times.items()}


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py invocation in `cwd`, in a fresh interpreter, for
    the run length BENCHMARK.json declares; the record it writes there."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    print("running", " ".join(cmd[1:]), flush=True)
    subprocess.run(cmd, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    name = f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads((Path(cwd) / ".bench_out" / name).read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # environment.git_commit names HEAD; uncommitted changes are flagged
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True,
    )
    merged = {
        "tag": args.tag, "seed": SEED, "seconds": declared["run_seconds"],
        "uncommitted_changes": bool(status.stdout.strip()),
        "workloads": {},
    }
    names = [m["name"] for m in declared["end_to_end"]]
    for workload in (w["name"] for w in declared["workloads"]):
        traced = [
            run_bench(ROOT, workload, SEED, 1) for _ in range(TRACED_RUNS)
        ]
        record = traced[0]
        record["n_spans"] = len(record.pop("spans", []))
        metrics = [r["metrics"] for r in traced]
        scaled = [scaled_times(r) for r in traced]
        record["metrics"] = median_block(metrics, metrics[0])
        record["metrics_runs"] = metrics
        record["estimator_s_runs"] = [estimator_seconds(m) for m in metrics]
        record["estimator_s"] = statistics.median(record["estimator_s_runs"])
        record["metrics_scaled"] = median_block(scaled, scaled[0])
        record["metrics_scaled_runs"] = scaled
        record["estimator_scaled_s"] = record["metrics_scaled"][
            "estimator_scaled_s"
        ]
        untraced = [
            run_bench(ROOT, workload, SEED, 0)["metrics"]
            for _ in range(UNTRACED_RUNS)
        ]
        record["end_to_end"] = median_block(untraced, names)
        record["end_to_end_spread"] = {
            name: max(r[name] for r in untraced) - min(r[name] for r in untraced)
            for name in names
        }
        record["end_to_end_runs"] = untraced
        merged["workloads"][workload] = record
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print("wrote", out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
