"""Benchmark of freedeconv scenario runs: one command, every metric.

Run from the repository root:

    python3 bench/run.py --workload small_p --seed 0 --seconds 30 --trace 0

The benchmark drives only the public ``run_scenario`` with one worker, in
this process, with BLAS limited to one thread.  It times set-up and the
workload's run list, fingerprints every input the runs sample, checks
every estimate, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
scenario twice, untraced and with every stage wrapped, and reports the
per-layer metrics.  The full record (environment, input fingerprints,
per-run results, failures by stage and, when traced, every span) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5
# Machine speed drifts over seconds to minutes, so each timed run is
# followed by timings of the reference kernel that add up to about this
# share of the run's time (at least one), and KERNEL_MIN of them come first.
KERNEL_SHARE = 0.02
KERNEL_MIN = 5
# noise-free W1 below this is exact recovery; the floor keeps roundoff-level
# changes from reading as regressions of a relative bound
NOISE_FREE_FLOOR = 1e-7
OUT_DIR = ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent

END_TO_END = {
    "scaled_wall_s": "s",
    "w1_mean": "W1",
    "success_rate": "ratio",
    "noise_free_w1": "W1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter imports the package and makes one warm-up run; the
# setup time of a round is measured inside it, interpreter start excluded,
# and then the reference kernel is timed in the same interpreter.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import freedeconv, workloads
workloads.warm_up()
setup = time.perf_counter() - t0
import calibrate
print(setup, *(calibrate.reference_time() for _ in range(5)))
"""


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path) -> str:
    # the ceiling keeps git from reporting a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }


def setup_round(root: Path) -> tuple[float, float]:
    """(seconds, seconds scaled to the reference speed) of one set-up."""
    path = os.pathsep.join(
        [str(root / "src"), str(BENCH_DIR), os.environ.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup, *kernel = map(float, proc.stdout.split())
    return setup, scaled_seconds(setup, kernel)


def timed_passes(runs, stage_sets):
    """Run the list once per stage set.

    Returns ``([(reports, run seconds, tracer)] per stage set, kernel
    seconds)``.  The passes are interleaved run by run, alternating which
    goes first, so a drift in machine speed falls on all of them alike.
    The reference kernel is timed before the first run and after each run,
    for about KERNEL_SHARE of the time the run took.
    """
    from calibrate import reference_time
    from freedeconv.experiments import SCENARIOS, run_scenario
    from tracer import Tracer

    tracers = [Tracer(stages) for stages in stage_sets]
    reports = [[] for _ in stage_sets]
    times = [[] for _ in stage_sets]
    kernel = [reference_time() for _ in range(KERNEL_MIN)]
    for run_id, run in enumerate(runs):
        order = list(range(len(stage_sets)))
        if run_id % 2:
            order.reverse()
        for k in order:
            with tracers[k] as tracer:
                tracer.run_id = run_id
                t0 = time.perf_counter()
                reports[k] += run_scenario(
                    SCENARIOS[run.scenario], [run.n], "contour",
                    seeds=[run.seed], workers=1,
                )
                times[k].append(time.perf_counter() - t0)
        budget = KERNEL_SHARE * sum(t[-1] for t in times)
        while True:
            kernel.append(reference_time())
            budget -= kernel[-1]
            if budget <= 0.0:
                break
    return list(zip(reports, times, tracers)), kernel


def scaled_seconds(seconds: float, kernel) -> float:
    """`seconds` scaled by REFERENCE_S over the mean kernel time.

    A wall time sums the machine's slowness over the runs, so the mean
    kernel time, not the median, is the matching measure of speed.
    """
    from calibrate import REFERENCE_S

    return seconds * REFERENCE_S / statistics.fmean(kernel)


def _last_span(spans, name, run_id, failed=False):
    for span in reversed(spans):
        if span.name == name and span.run_id == run_id:
            if bool(span.error) == failed:
                return span
    return None


def sampled_inputs(n_runs, tracer) -> list[dict]:
    """Fingerprint and largest eigenvalue of the spectrum each run sampled."""
    out = []
    for run_id in range(n_runs):
        span = _last_span(tracer.spans, "sample_spectrum", run_id)
        out.append(span.counts if span else {})
    return out


def check_pass(runs, reports, tracer, truth) -> tuple[list, list]:
    """Correctness gate for one pass; (problems, failures)."""
    import numpy as np
    from freedeconv.experiments import SCENARIOS
    from freedeconv.measures import MarchenkoPastur, wasserstein_1

    problems, failures = [], []
    if len(reports) != len(runs):
        return [f"{len(reports)} reports for {len(runs)} runs"], failures
    inputs = sampled_inputs(len(runs), tracer)
    for run_id, (run, rep) in enumerate(zip(runs, reports)):
        label = f"{run.scenario} n={run.n} seed={run.seed}"
        if (rep.scenario, rep.n, rep.seed) != (run.scenario, run.n, run.seed):
            problems.append(f"{label}: report is for another run")
            continue
        if rep.error:
            span = _last_span(tracer.spans, "deconvolve", run_id, failed=True)
            failures.append({
                "run": label,
                "error": span.error if span else "unknown",
                "stage": (span.stage or span.name) if span else "unknown",
                "message": rep.error,
            })
            continue
        if not math.isfinite(rep.w1_error) or rep.w1_error < 0.0:
            problems.append(f"{label}: W1 = {rep.w1_error!r}")
            continue
        span = _last_span(tracer.spans, "deconvolve", run_id)
        est = span.counts.get("estimate") if span else None
        if est is None:
            continue  # deconvolve no longer called: W1 is all we can check
        atoms = np.asarray(est.atoms, dtype=float)
        weights = np.asarray(est.weights, dtype=float)
        if np.any(weights <= 0.0) or abs(float(weights.sum()) - 1.0) > 1e-9:
            problems.append(f"{label}: weights are not a probability vector")
        if not np.all(np.isfinite(atoms)) or np.any(atoms < -1e-9):
            problems.append(f"{label}: atoms are not finite and nonnegative")
        if "max_atom" in inputs[run_id]:
            lower = MarchenkoPastur(SCENARIOS[run.scenario].c).lower_edge
            window = inputs[run_id]["max_atom"] / lower * 1.1
            if np.any(atoms > window):
                problems.append(f"{label}: atoms leave [0, {window:.4g}]")
        w1 = wasserstein_1(est, truth(run.scenario, rep.p))
        if not math.isclose(w1, rep.w1_error, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{label}: reported W1 {rep.w1_error!r} != {w1!r}")
    return problems, failures


def compare_passes(runs, untraced, traced) -> list[str]:
    """The traced pass must see the same inputs and give the same results."""
    problems = []
    first = sampled_inputs(len(runs), untraced[2])
    second = sampled_inputs(len(runs), traced[2])
    for run, a, b, fa, fb in zip(runs, untraced[0], traced[0], first, second):
        if fa.get("fingerprint") != fb.get("fingerprint"):
            problems.append(f"{run}: traced pass sampled another input")
        same = a.error == b.error and (
            bool(a.error) or math.isclose(a.w1_error, b.w1_error, rel_tol=1e-9)
        )
        if not same:
            problems.append(f"{run}: traced pass gave another result")
    return problems


def noise_free_w1(workload) -> float:
    """Summed W1 of default deconvolve on exact forward spectra.

    Only scenarios whose population has finitely many atoms take part.  The
    sum, unlike the largest value, moves when any one scenario changes.
    """
    from freedeconv import deconvolve, forward_measure, wasserstein_1
    from freedeconv.experiments import SCENARIOS
    from freedeconv.measures import DiscreteMeasure

    total = 0.0
    for sc_id in workload.scenarios:
        sc = SCENARIOS[sc_id]
        if isinstance(sc.population, DiscreteMeasure):
            mu = forward_measure(sc.population, sc.c, tol=1e-8)
            est = deconvolve(mu, sc.c).estimate
            total += wasserstein_1(est, sc.population)
    return total


def scored_w1(runs, reports, truth) -> list[float]:
    """W1 of every attempted run.

    A failed run scores the W1 of the zero estimate, which is the mean
    population eigenvalue, so a run that starts to fail cannot make the
    mean W1 look better.
    """
    out = []
    for run, rep in zip(runs, reports):
        if rep.error:
            pop = truth(run.scenario, rep.p)
            out.append(float(pop.atoms @ pop.weights))
        else:
            out.append(rep.w1_error)
    return out


def _json_counts(counts: dict) -> dict:
    return {
        k: v for k, v in counts.items() if isinstance(v, (int, float, str))
    }


def print_summary(record: dict, units: dict) -> None:
    env = record["environment"]
    metrics = record["metrics"]
    print(
        f"workload {record['workload']}: {len(record['runs'])} scenario "
        f"runs, seed {record['seed']}"
    )
    print(
        f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, python "
        f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"commit {env['git_commit']}"
    )
    print(f"inputs fingerprint {record['input_fingerprint']}")
    print(
        f"wall {record['wall_s']:.4g} s unscaled, reference kernel mean "
        f"{statistics.fmean(record['kernel_s']):.4g} s"
    )
    print(f"W1 median {record['w1_median']}, max {record['w1_max']}")
    for f in record["failures"]:
        print(f"failed run {f['run']}: {f['error']} at stage {f['stage']}")
    by_stage = record["deconvolve_failures_by_stage"]
    if by_stage:
        print("failed deconvolve calls by stage: " + ", ".join(
            f"{stage} {count}" for stage, count in sorted(by_stage.items())
        ))
    for p in record["problems"]:
        print(f"INCORRECT: {p}")
    if record["missing_stages"]:
        print("missing stages: " + ", ".join(record["missing_stages"]))
    traced_wall = metrics.get("trace.wall_s", 0.0)
    for name, value in metrics.items():
        share = ""
        if name.endswith(".s") and traced_wall > 0:
            share = f"  ({100.0 * value / traced_wall:.1f} % of wall)"
        print(f"{name:34s} {value:.6g} {units[name]}{share}")


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "freedeconv" / "__init__.py").is_file():
        print(
            "bench: no src/freedeconv here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    args = parse_args(argv)

    import freedeconv
    from freedeconv.experiments import SCENARIOS
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    runs = workloads.run_list(workload, args.seed, args.seconds)
    rounds = [setup_round(root) for _ in range(SETUP_ROUNDS)]
    workloads.warm_up()

    stage_sets = [layers.CAPTURE]
    if args.trace:
        stage_sets.append(layers.STAGES)
    passes, kernel = timed_passes(runs, stage_sets)
    reports, times, untraced = passes[0]
    wall = sum(times)

    truths = {}

    def truth(sc_id, p):
        if (sc_id, p) not in truths:
            truths[sc_id, p] = SCENARIOS[sc_id].ground_truth(p)
        return truths[sc_id, p]

    problems, failures = [], []
    for pass_reports, _, tracer in passes:
        probs, failures = check_pass(runs, pass_reports, tracer, truth)
        problems += probs
    if args.trace:
        problems += compare_passes(runs, passes[0], passes[1])
    fingerprints = [
        inp.get("fingerprint", "unknown")
        for inp in sampled_inputs(len(runs), untraced)
    ]
    # failed deconvolve calls, most of them absorbed by the retry ladder
    call_failures = Counter(
        s.stage or s.error
        for s in untraced.spans
        if s.name == "deconvolve" and s.error
    )

    try:
        nf_raw = noise_free_w1(workload)
    except freedeconv.NumericalError as exc:
        problems.append(f"noise-free deconvolution failed: {exc}")
        nf_raw = float("nan")

    ok = [not rep.error for rep in reports]
    w1 = [rep.w1_error for rep, good in zip(reports, ok) if good]
    if not w1:
        problems.append("no run succeeded")
    w1_scored = scored_w1(runs, reports, truth)
    if args.trace:
        _, traced_times, traced = passes[1]
        metrics = layers.layer_metrics(
            traced.spans, ok, traced.missing, sum(traced_times), wall,
            nf_raw if math.isfinite(nf_raw) else -1.0,
        )
        units = layers.PER_LAYER
    else:
        metrics = {
            "scaled_wall_s": scaled_seconds(wall, kernel),
            "w1_mean": statistics.fmean(w1_scored),
            "success_rate": sum(ok) / len(ok),
            "noise_free_w1": max(NOISE_FREE_FLOOR, nf_raw)
            if math.isfinite(nf_raw) else 0.0,
            "setup_s": statistics.median(scaled for _, scaled in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "input_fingerprint": workloads.combined_fingerprint(fingerprints),
        "setup_rounds_s": [setup for setup, _ in rounds],
        "setup_rounds_scaled_s": [scaled for _, scaled in rounds],
        "wall_s": wall,
        "kernel_s": kernel,
        "runs": [
            {
                "scenario": run.scenario, "n": run.n, "seed": run.seed,
                "fingerprint": fp, "w1": None if rep.error else rep.w1_error,
                "t_total_s": rep.t_total_s, "error": rep.error,
            }
            for run, fp, rep in zip(runs, fingerprints, reports)
        ],
        "failures": failures,
        "deconvolve_failures_by_stage": dict(call_failures),
        "problems": problems,
        "missing_stages": passes[-1][2].missing,
        "w1_median": statistics.median(w1) if w1 else None,
        "w1_max": max(w1) if w1 else None,
        "noise_free_w1_raw": nf_raw,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "run_id": s.run_id, "error": s.error,
                "stage": s.stage, "counts": _json_counts(s.counts),
            }
            for s in passes[1][2].spans
        ]
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print_summary(record, units)
    print(f"record written to {path.relative_to(root)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(runs) - sum(ok),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
