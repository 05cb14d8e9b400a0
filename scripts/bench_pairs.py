"""Alternating benchmark runs of a git revision and of the working tree.

Run from the repository root:

    python3 scripts/bench_pairs.py HEAD --workload near_square --pairs 10

REF is exported with ``git archive``, and the working tree by copying the
files ``git ls-files --cached --others --exclude-standard`` lists, as they
are on disk, both into one temporary directory, so that the two sides run
from like directories.  Each pair then runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each export, each in a fresh interpreter, with T the
``run_seconds`` of BENCHMARK.json, and swaps which side goes first from
one pair to the next.  For every end-to-end metric of BENCHMARK.json it
prints the median and quartiles of both sides, the interquartile range of
REF's runs, and the number of pairs the working tree won.  A pair counts
as won when the working tree is strictly better in the metric's
direction; ties count for neither side.  A gain holds when at least nine
pairs in ten are won and the medians differ by more than REF's
interquartile range.  Exits 1 if any run reports a problem.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_all import run_bench  # noqa: E402


def export_tree(root: Path, dest: Path) -> None:
    """Copy the files of the working tree at `root` that git tracks or
    would track, as they are on disk, into `dest`: ignored files stay
    out, and a tracked file deleted from the tree is skipped."""
    cmd = ["git", "ls-files", "-z", "--cached", "--others",
           "--exclude-standard"]
    listed = subprocess.run(
        cmd, cwd=root, check=True, capture_output=True
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = root / name
        if not os.path.lexists(src):
            continue
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dest / name, follow_symlinks=False)


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
    (keys "ref" and "new"); 1 if any run reported a problem, else 0."""
    for metric in declared:
        name = metric["name"]
        ref, new = (
            [r["metrics"][name] for r in runs[side]] for side in ("ref", "new")
        )
        print(format_row(name, summarize(ref, new, metric["better"])))
    incorrect = [
        f"{side} run {i + 1}"
        for side, recs in runs.items()
        for i, r in enumerate(recs)
        if r["problems"]
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
        dirs = {"ref": Path(tmp) / "ref", "new": Path(tmp) / "new"}
        with tarfile.open(archive) as tar:
            tar.extractall(dirs["ref"])
        export_tree(ROOT, dirs["new"])
        for i in range(args.pairs):
            order = ("ref", "new") if i % 2 == 0 else ("new", "ref")
            for side in order:
                runs[side].append(
                    run_bench(dirs[side], args.workload, args.seed, 0)
                )
            print(f"pair {i + 1}/{args.pairs} done", flush=True)

    print(f"{args.workload}, seed {args.seed}: {args.ref} (ref) against "
          f"the working tree (new), {args.pairs} pairs")
    return report(runs, declared)


if __name__ == "__main__":
    sys.exit(main())
