"""Alternating benchmark runs of a git revision and of the working tree.

Run from the repository root:

    python3 scripts/bench_pairs.py HEAD --workload near_square --pairs 10

REF is exported with ``git archive`` into a temporary directory.  Each pair
then runs

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

once there and once in the working tree, each in a fresh interpreter, and
swaps which side goes first from one pair to the next.  For every
end-to-end metric of BENCHMARK.json it prints the median and quartiles of
both sides, the interquartile range of REF's runs, and the number of pairs
the working tree won.  A pair counts as won when the working tree is
strictly better in the metric's direction; ties count for neither side.  A
gain holds when at least nine pairs in ten are won and the medians differ
by more than REF's interquartile range.  Exits 1 if any run reports
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30


def run_bench(cwd: Path, workload: str, seed: int) -> dict:
    """The closing JSON line of one untraced bench/run.py in `cwd`."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    out = subprocess.run(
        cmd, cwd=cwd, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(ref: list[float], new: list[float], better: str) -> dict:
    """Medians, quartiles and won pairs of paired runs of one metric."""
    q_ref, q_new = (np.percentile(x, [25, 50, 75]) for x in (ref, new))
    sign = 1.0 if better == "higher" else -1.0
    return {
        "ref": tuple(float(q) for q in q_ref),
        "new": tuple(float(q) for q in q_new),
        "ref_iqr": float(q_ref[2] - q_ref[0]),
        "wins": sum(sign * (b - a) > 0 for a, b in zip(ref, new)),
        "pairs": len(ref),
    }


def format_row(name: str, s: dict) -> str:
    def quartiles(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return (
        f"{name:14s} ref {quartiles(s['ref'])}  new {quartiles(s['new'])}  "
        f"ref IQR {s['ref_iqr']:.3g}  won {s['wins']}/{s['pairs']}"
    )


def report(runs: dict[str, list[dict]], declared: list[dict]) -> int:
    """Print one row per end-to-end metric of the paired records `runs`
    (keys "ref" and "new"); 1 if any run was incorrect, else 0."""
    for metric in declared:
        name = metric["name"]
        ref, new = (
            [r["metrics"][name]["value"] for r in runs[side]]
            for side in ("ref", "new")
        )
        print(format_row(name, summarize(ref, new, metric["better"])))
    incorrect = [
        f"{side} run {i + 1}"
        for side, recs in runs.items()
        for i, r in enumerate(recs)
        if not r["correct"]
    ]
    for run in incorrect:
        print(f"INCORRECT: {run}")
    return 1 if incorrect else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare the tree with")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"ref": [], "new": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = Path(tmp) / "ref.tar"
        subprocess.run(
            ["git", "archive", "--output", str(archive), args.ref],
            cwd=ROOT, check=True,
        )
        ref_dir = Path(tmp) / "ref"
        with tarfile.open(archive) as tar:
            tar.extractall(ref_dir)
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            for side in order:
                cwd = ref_dir if side == "ref" else ROOT
                runs[side].append(run_bench(cwd, args.workload, args.seed))
            print(f"pair {i + 1}/{args.pairs} done", flush=True)

    print(f"{args.workload}, seed {args.seed}: {args.ref} (ref) against "
          f"the working tree (new), {args.pairs} pairs")
    return report(runs, declared)


if __name__ == "__main__":
    sys.exit(main())
