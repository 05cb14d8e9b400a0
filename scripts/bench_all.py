"""Run the benchmark on every declared workload and merge the records.

Run from the repository root:

    python3 scripts/bench_all.py --tag pr12

For each workload named in BENCHMARK.json it runs

    python3 bench/run.py --workload W --seed 0 --seconds 30 --trace 1

in a fresh interpreter, reads the record that run leaves in
``.bench_out/W-seed0-trace1.json`` and writes all of them to
``BENCH_<tag>.json`` at the repository root.  Each record keeps its
per-layer metrics, per-run results, input fingerprints and environment;
the span list is dropped, since the per-layer metrics summarise it and it
runs to megabytes.  An ``end_to_end`` block adds what the untraced pass of
the same run gives:

- ``scaled_wall_s``: its wall time scaled by the reference kernel, as
  ``bench/run.py --trace 0`` reports it;
- ``setup_s``: the median scaled set-up time;
- ``success_rate``: the share of runs without error;
- ``w1_mean_ok``: the mean W1 of the runs that succeeded (``w1_mean`` of
  ``--trace 0`` equals it when every run succeeds);
- ``noise_free_w1``: the noise-free W1, floored as the benchmark floors it.

Takes a few minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 30
# noise-free W1 below this is exact recovery (NOISE_FREE_FLOOR in bench/run.py)
NOISE_FREE_FLOOR = 1e-7


def end_to_end(record: dict, reference_s: float) -> dict:
    runs = record["runs"]
    ok = [run["w1"] for run in runs if not run["error"]]
    raw = record["noise_free_w1_raw"]
    return {
        "scaled_wall_s": record["wall_s"] * reference_s
        / statistics.fmean(record["kernel_s"]),
        "setup_s": statistics.median(record["setup_rounds_scaled_s"]),
        "success_rate": len(ok) / len(runs),
        "w1_mean_ok": statistics.fmean(ok) if ok else None,
        "noise_free_w1": max(NOISE_FREE_FLOOR, raw) if raw == raw else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names BENCH_<tag>.json")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    from calibrate import REFERENCE_S

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    # environment.git_commit names HEAD; uncommitted changes are flagged
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True,
    )
    merged = {
        "tag": args.tag, "seed": SEED, "seconds": SECONDS,
        "uncommitted_changes": bool(status.stdout.strip()),
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        cmd = [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1",
        ]
        print("running", " ".join(cmd[1:]), flush=True)
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace1.json"
        record = json.loads(path.read_text())
        record["n_spans"] = len(record.pop("spans", []))
        record["end_to_end"] = end_to_end(record, REFERENCE_S)
        merged["workloads"][workload] = record
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print("wrote", out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
