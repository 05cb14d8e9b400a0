"""Command-line interface.

Subcommands wrap the library end to end: `deconvolve` runs the contour
estimator on a measure file, behind the retry ladder that scenario runs
share, `forward` evaluates the population-to-sample map as a Stieltjes
contour, `moments` reconstructs a measure from a raw moment sequence,
`scenario` executes benchmark sweeps into a CSV report, and `spectrum`
samples one empirical spectrum.

Exit codes: 0 on success, 2 on an input contract violation, 3 on a
numerical failure (the failing stage goes to standard error).  Log
records of the package at `--log-level` and above (default warning) go
to standard error too.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import NumericalError
from .experiments import (
    SCENARIOS,
    median_w1_by_n,
    run_scenario,
    sample_spectrum,
    write_report_csv,
)
from .measures import DiscreteMeasure, MomentSequence
from .pipeline import DeconvConfig, deconvolve_with_retries, forward_contour
from .recovery import recover_measure_detailed

__all__ = ["main"]


def _read_measure(path: str) -> DiscreteMeasure:
    return DiscreteMeasure.from_json(Path(path).read_text())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        Path(path).write_text(text + "\n")


def _cmd_deconvolve(args) -> int:
    mu_n = _read_measure(args.input)
    cfg = DeconvConfig(max_support=args.max_support)
    result = deconvolve_with_retries(mu_n, args.c, cfg)
    if args.dump_contours is not None:
        out_dir = Path(args.dump_contours)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.contour.to_csv(out_dir / "m_contour.csv")
    _write_text(args.out, result.to_json())
    return 0


def _cmd_forward(args) -> int:
    nu = _read_measure(args.population)
    rep = forward_contour(nu, args.c)
    rep.to_csv(args.out)
    return 0


def _cmd_moments(args) -> int:
    moments = MomentSequence.from_json(Path(args.input).read_text())
    mu = recover_measure_detailed(moments, args.max_support).measure
    _write_text(args.out, mu.to_json())
    return 0


def _cmd_scenario(args) -> int:
    sc = SCENARIOS[args.id]
    n_list = [int(tok) for tok in args.n.split(",") if tok]
    seeds = list(range(1, args.seeds + 1))
    workers = args.workers if args.workers > 0 else None
    methods = [args.method]
    if args.method == "subordination":
        # the baseline is only meaningful next to the contour runs, so
        # the report always carries both methods on the same seeds
        methods = ["contour", "subordination"]
    reports = []
    for method in methods:
        reports += run_scenario(
            sc, n_list, method, seeds, workers=workers, sigma=args.sigma
        )
    write_report_csv(reports, args.out)
    if sc.modified:
        sys.stdout.write(f"{sc.id}: {sc.modified}\n")
    for method in methods:
        medians = median_w1_by_n([r for r in reports if r.method == method])
        for n, w1 in medians.items():
            sys.stdout.write(f"{sc.id} {method} n={n} median_w1={w1:.6g}\n")
    failed = [r for r in reports if r.error]
    if failed:
        sys.stdout.write(f"{len(failed)}/{len(reports)} runs failed\n")
    sys.stdout.write(f"report written to {args.out}\n")
    return 0


def _cmd_spectrum(args) -> int:
    sc = SCENARIOS[args.scenario]
    mu_n = sample_spectrum(sc.population, args.p, args.n, args.seed)
    _write_text(args.out, mu_n.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedeconv",
        description="Free multiplicative deconvolution of covariance spectra.",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="show the package's log records at this level and above on "
        "standard error (default warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "deconvolve", help="estimate the population spectrum from a measure file"
    )
    p.add_argument("--input", required=True, help="empirical measure JSON")
    p.add_argument("--c", type=float, required=True, help="aspect ratio p/n")
    p.add_argument(
        "--max-support", type=int, default=8,
        help="support size cap of the first retry rung (1 to 8)",
    )
    p.add_argument("--out", default=None, help="result JSON (default stdout)")
    p.add_argument(
        "--dump-contours", default=None, metavar="DIR",
        help="also write the estimate's z-plane Stieltjes contour (nodes "
        "and G values) as m_contour.csv into DIR",
    )
    p.set_defaults(func=_cmd_deconvolve)

    p = sub.add_parser(
        "forward", help="sample-spectrum Stieltjes contour of a population"
    )
    p.add_argument("--population", required=True, help="population measure JSON")
    p.add_argument("--c", type=float, required=True, help="aspect ratio p/n")
    p.add_argument("--out", required=True, help="contour CSV path")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("moments", help="reconstruct a measure from raw moments")
    p.add_argument("--input", required=True, help="JSON array (m_0, m_1, ...)")
    p.add_argument("--max-support", type=int, default=8, help="support size cap")
    p.add_argument("--out", default=None, help="measure JSON (default stdout)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("scenario", help="run a benchmark sweep into a CSV report")
    p.add_argument("--id", required=True, choices=sorted(SCENARIOS))
    p.add_argument(
        "--n", default="250,500,1000,2000",
        help="comma-separated sample sizes (default 250,500,1000,2000)",
    )
    p.add_argument(
        "--method", default="contour", choices=["contour", "subordination"],
        help="subordination also runs contour for comparison",
    )
    p.add_argument(
        "--seeds", type=int, default=3, help="use seeds 1..N (default 3)"
    )
    p.add_argument("--out", default="report.csv", help="report CSV path")
    p.add_argument(
        "--sigma", type=float, default=0.5, help="baseline smoothing scale"
    )
    p.add_argument(
        "--workers", type=int, default=0,
        help="process pool size (0 = automatic)",
    )
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("spectrum", help="sample one empirical spectrum")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--p", type=int, required=True, help="dimension")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="measure JSON (default stdout)")
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a no-op when the root logger already has a handler, e.g. in an
    # embedding application
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger(__package__).setLevel(args.log_level.upper())
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        stage = exc.stage or "unknown"
        sys.stderr.write(f"numerical failure at stage {stage}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
