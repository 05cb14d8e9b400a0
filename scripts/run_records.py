"""Record the estimate of every benchmark run, and compare two records.

Run from the repository root:

    python3 scripts/run_records.py --out before.json
    python3 scripts/run_records.py --sweep wide --out wide.json
    python3 scripts/run_records.py --grid --out grid.json
    python3 scripts/run_records.py --diff before.json after.json

``--out`` runs, in this process with one BLAS thread, the seed 0-2 run
lists of the small_p and near_square workloads and the seed 0 list of
large_p, each as ``bench/workloads.run_list`` builds it for the
``run_seconds`` of BENCHMARK.json, then the noise-free run of every
finite-atom scenario those workloads use.  A sampled run does what
``freedeconv scenario`` does for one (n, seed); a noise-free run
deconvolves the exact forward spectrum with the default configuration,
as the benchmark's ``noise_free_w1`` does.  It writes one
JSON record per run: the outcome, the error class and stage of a failed
run, and of a returned estimate the accepted rung, rank, ``nodes_used``,
contour radius and its limiter, the moment rule, the settle gap and
imaginary residue of the contour that carried it, W1, atoms and weights.
Floats are written by repr, so they read back bit for bit.  The 213
records take about 4 s on a 2-core x86 machine, most of it sampling
large_p's two p = 1600 spectra.

``--sweep {uniform,wide}`` with ``--out`` records the 400 draws of that
sweep instead, each run as a sampled run is, with W1 to the draw's own
population.  ``tests/helpers.sweep_draws`` generates them; the recipes
are at the top of ROADMAP.md "Open items".  A sweep takes about 2 s.

``--grid`` with ``--out`` records the 260 inputs of the accuracy grid:
S1, S2_1, S2_3 and S3 at n = 500, 2000 and 8000, plus S2_2 at n = 500,
for seeds 1-20, keyed ``grid/<scenario>/n<n>/seed<seed>``, each run as a
sampled run is, with W1 to the scenario's ``ground_truth(p)``.  It then
prints each (scenario, n) cell's median W1 over seeds 1-5 and over seeds
1-20, a failed run scoring inf, as ``tests/test_accuracy.py`` scores it.
The grid takes about 50 s, most of it sampling the 80 p = 1600 spectra.

``--diff A B`` lists the records that differ, with the fields that moved
(a certificate move, of the settle gap or the residue, is listed too),
and the largest moves of W1, atoms and radius.  It exits 1 if any run's
outcome, accepted rung, rank or moment rule differs, or a run is missing
from one file.  Records of both A and B must be written by a script that
records the moment rule and both certificates, or every returned estimate
reads as moved.  Where the files hold grid records, it then prints the
grid's cell medians for A and for B, their change, and the count of runs
in each cell whose rank moved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = {"small_p": (0, 1, 2), "near_square": (0, 1, 2), "large_p": (0,)}
# fields whose change means a run took another path, not a rounding move
PATH_FIELDS = ("outcome", "error", "stage", "rung", "rank", "moment_rule")
# the accuracy grid: sample sizes per scenario, seeds, and the seeds of the
# short half of its table
GRID = {
    "S1": (500, 2000, 8000),
    "S2_1": (500, 2000, 8000),
    "S2_2": (500,),
    "S2_3": (500, 2000, 8000),
    "S3": (500, 2000, 8000),
}
GRID_SEEDS = range(1, 21)
SHORT_SEEDS = range(1, 6)


def _estimate_record(result, w1: float) -> dict:
    d = result.diagnostics
    return {
        "outcome": "ok",
        "rung": [result.config.rank_tol, result.config.max_support],
        "rank": d.rank,
        "nodes_used": d.nodes_used,
        "radius": d.contour_radius,
        "limiter": d.radius_limiter,
        "moment_rule": d.moment_rule,
        "settle_gap": d.settle_gap,
        "imag_residue": d.imag_residue,
        "w1": w1,
        "atoms": result.estimate.atoms.tolist(),
        "weights": result.estimate.weights.tolist(),
    }


def _failure_record(exc: Exception) -> dict:
    return {
        "outcome": "failed",
        "error": type(exc).__name__,
        "stage": getattr(exc, "stage", None),
    }


def _sampled_record(pop, truth, c: float, p: int, n: int, seed: int) -> dict:
    """What ``freedeconv scenario`` does for one sampled spectrum."""
    from freedeconv import (
        NumericalError,
        deconvolve_with_retries,
        sample_spectrum,
        wasserstein_1,
    )

    try:
        mu_n = sample_spectrum(pop, p, n, seed)
        result = deconvolve_with_retries(mu_n, c)
        w1 = wasserstein_1(result.estimate, truth)
    except (NumericalError, ValueError) as exc:
        return _failure_record(exc)
    return _estimate_record(result, w1)


def sweep_records(kind: str) -> dict[str, dict]:
    """Every draw's record of the uniform or the wide sweep, keyed by draw."""
    from helpers import SWEEP_P, sweep_draws

    return {
        f"sweep_{kind}/draw{i}": _sampled_record(nu, nu, c, SWEEP_P, n, seed)
        for i, (nu, c, n, seed) in enumerate(sweep_draws(kind))
    }


def grid_records() -> dict[str, dict]:
    """Every grid input's record, keyed by scenario, n and seed."""
    from freedeconv.experiments import SCENARIOS

    out = {}
    for sc_id, sizes in GRID.items():
        sc = SCENARIOS[sc_id]
        for n in sizes:
            p = round(sc.c * n)
            truth = sc.ground_truth(p)
            for seed in GRID_SEEDS:
                out[f"grid/{sc_id}/n{n}/seed{seed}"] = _sampled_record(
                    sc.population, truth, sc.c, p, n, seed
                )
    return out


def _grid_cells(recs: dict) -> dict[tuple, dict]:
    """The grid records of recs, as {(scenario, n): {seed: record}}."""
    cells: dict[tuple, dict] = {}
    for key, rec in recs.items():
        if key.startswith("grid/"):
            _, sc_id, n, seed = key.split("/")
            cells.setdefault((sc_id, int(n[1:])), {})[int(seed[4:])] = rec
    return dict(sorted(cells.items()))


def _median_w1(cell: dict, seeds) -> float:
    w1 = [
        cell[s]["w1"] if cell[s]["outcome"] == "ok" else math.inf
        for s in seeds if s in cell
    ]
    return statistics.median(w1) if w1 else math.nan


def grid_table(*sides: dict) -> None:
    """Print the median W1 of every grid cell over seeds 1-5 and 1-20, for
    one record file or, with the change and the count of runs whose rank
    moved, for two."""
    cells = [_grid_cells(recs) for recs in sides]
    keys = sorted(set().union(*cells))
    if not keys:
        return
    two = len(sides) == 2
    head = ["grid cell"]
    for seeds in SHORT_SEEDS, GRID_SEEDS:
        label = f"seeds {seeds[0]}-{seeds[-1]}"
        head += [f"{label} A", f"{label} B", "change"] if two else [label]
    rows = [head + ["rank moved"] * two]
    for key in keys:
        per = [c.get(key, {}) for c in cells]
        row = [f"{key[0]} n={key[1]}"]
        for seeds in SHORT_SEEDS, GRID_SEEDS:
            med = [_median_w1(cell, seeds) for cell in per]
            row += [f"{m:.4f}" for m in med]
            if two:
                row.append(f"{med[1] - med[0]:+.4f}")
        if two:
            a, b = per
            moved = [a[s].get("rank") != b[s].get("rank")
                     for s in a.keys() & b.keys()]
            row.append(str(sum(moved)))
        rows.append(row)
    for row in rows:
        print(row[0].ljust(12) + "".join(cell.rjust(14) for cell in row[1:]))


def records() -> dict[str, dict]:
    """Every run's record, keyed by workload, scenario, n and sample seed."""
    import workloads
    from freedeconv import (
        DiscreteMeasure,
        NumericalError,
        deconvolve,
        forward_measure,
        wasserstein_1,
    )
    from freedeconv.experiments import SCENARIOS

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {}
    scenarios = set()
    for name, seeds in SEEDS.items():
        workload = workloads.WORKLOADS[name]
        scenarios.update(workload.scenarios)
        for seed in seeds:
            for run in workloads.run_list(workload, seed, seconds):
                sc = SCENARIOS[run.scenario]
                p = round(sc.c * run.n)
                key = f"{name}/{run.scenario}/n{run.n}/seed{run.seed}"
                out[key] = _sampled_record(
                    sc.population, sc.ground_truth(p), sc.c, p, run.n, run.seed
                )
    for sc_id in sorted(scenarios):
        sc = SCENARIOS[sc_id]
        if not isinstance(sc.population, DiscreteMeasure):
            continue
        key = f"noise_free/{sc_id}"
        try:
            mu = forward_measure(sc.population, sc.c, tol=1e-8)
            result = deconvolve(mu, sc.c)
        except NumericalError as exc:
            out[key] = _failure_record(exc)
            continue
        w1 = wasserstein_1(result.estimate, sc.population)
        out[key] = _estimate_record(result, w1)
    return out


def _relative_move(a: list, b: list) -> float:
    return max(
        (abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(a, b)),
        default=0.0,
    )


def diff(a: dict, b: dict) -> int:
    """Print the records that differ between a and b; 1 if a path changed."""
    changed_path = False
    w1_move = atom_move = radius_move = 0.0
    differing = 0
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra is None or rb is None:
            print(f"{key}: only in {'B' if ra is None else 'A'}")
            changed_path = True
            differing += 1
            continue
        fields = sorted(ra.keys() | rb.keys())
        moved = [f for f in fields if ra.get(f) != rb.get(f)]
        if not moved:
            continue
        differing += 1
        changed_path |= any(f in PATH_FIELDS for f in moved)
        print(f"{key}: {', '.join(moved)}")
        if ra["outcome"] == rb["outcome"] == "ok":
            w1_move = max(w1_move, abs(ra["w1"] - rb["w1"]))
            gap = abs(ra["radius"] - rb["radius"])
            radius_move = max(radius_move, gap / math.ulp(ra["radius"]))
            if len(ra["atoms"]) == len(rb["atoms"]):
                move = _relative_move(ra["atoms"], rb["atoms"])
                atom_move = max(atom_move, move)
    print(
        f"{differing} of {len(a.keys() | b.keys())} records differ; largest "
        f"moves: W1 {w1_move:.3g}, atom {atom_move:.3g} relative, radius "
        f"{radius_move:.3g} ulp"
    )
    if changed_path:
        print("some run changed its outcome, accepted rung, rank or rule")
    grid_table(a, b)
    return int(changed_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write the run records")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"),
                       help="compare two record files")
    inputs = parser.add_mutually_exclusive_group()
    inputs.add_argument("--sweep", choices=("uniform", "wide"),
                        help="with --out, record that sweep's 400 draws")
    inputs.add_argument("--grid", action="store_true",
                        help="with --out, record the 260 grid inputs")
    args = parser.parse_args(argv)
    if (args.sweep or args.grid) and not args.out:
        parser.error("--sweep and --grid need --out")
    if args.diff:
        a, b = (json.loads(Path(f).read_text()) for f in args.diff)
        return diff(a, b)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / d) for d in ("src", "bench", "tests")]
    if args.grid:
        recs = grid_records()
    else:
        recs = sweep_records(args.sweep) if args.sweep else records()
    text = json.dumps(recs, indent=1, sort_keys=True)
    Path(args.out).write_text(text + "\n")
    failed = sum(r["outcome"] != "ok" for r in recs.values())
    print(f"{len(recs)} records, {failed} failed, written to {args.out}")
    grid_table(recs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
