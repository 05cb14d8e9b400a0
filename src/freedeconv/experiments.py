"""Benchmark scenarios: Wishart sampling, baselines, and batch execution.

The scenario registry pairs named population spectra with aspect ratios.
`sample_spectrum` draws the empirical eigenvalue measure of a sample
covariance matrix at a population's p eigenvalues, in closed form for a
Toeplitz one, from the Bartlett factor of a Wishart matrix (Bartlett 1933;
Muirhead 1982, Thm 3.2.14), so it draws p(p+1)/2 numbers instead of
generating p x n samples, and forms the lower triangle of their product
in place over the triangular factor;
`run_scenario` sweeps (n, seed) grids through either the contour estimator
or the subordination baseline and returns flat report rows ready for CSV.
"""

from __future__ import annotations

import csv
import logging
import math
import mmap
import time
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import BaselineFailureError, NumericalError
from .measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    _require_int,
    wasserstein_1,
)
from .pipeline import DeconvConfig, DeconvDiagnostics, deconvolve_with_retries

__all__ = [
    "ToeplitzPopulation",
    "Scenario",
    "SCENARIOS",
    "RunReport",
    "REPORT_COLUMNS",
    "sample_spectrum",
    "toeplitz_spectrum",
    "baseline_subordination",
    "run_scenario",
    "write_report_csv",
    "median_w1_by_n",
]

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ToeplitzPopulation:
    """Population covariance with entries rho^|i-j|; spectrum depends on p."""

    rho: float

    def __post_init__(self):
        if isinstance(self.rho, (bool, np.bool_)) or not abs(self.rho) < 1.0:
            raise ValueError(f"toeplitz parameter must satisfy |rho| < 1, "
                             f"got {self.rho!r}")
        object.__setattr__(self, "rho", float(self.rho))


@dataclass(frozen=True)
class Scenario:
    """A named population and aspect ratio, plus a modification note."""

    id: str
    population: DiscreteMeasure | ToeplitzPopulation
    c: float
    modified: str = ""

    def ground_truth(self, p: int) -> DiscreteMeasure:
        if isinstance(self.population, ToeplitzPopulation):
            return toeplitz_spectrum(p, self.population.rho)
        return self.population


# S2_2 asks for p/n = 1, which the c < 1 estimator cannot represent; the
# registry caps it, and `freedeconv scenario` prints the label first
SCENARIOS = {
    "S1": Scenario("S1", DiscreteMeasure([1.0], [1.0]), 0.2),
    "S2_1": Scenario("S2_1", DiscreteMeasure([1.0, 2.0], [0.5, 0.5]), 0.2),
    "S2_2": Scenario(
        "S2_2",
        DiscreteMeasure([1.0, 1.2], [0.5, 0.5]),
        0.95,
        modified="c capped to 0.95 from 1",
    ),
    "S2_3": Scenario(
        "S2_3",
        DiscreteMeasure([1.0, 2.0, 5.0, 6.0, 8.0], [0.2] * 5),
        0.2,
    ),
    "S3": Scenario("S3", ToeplitzPopulation(0.3), 0.2),
}


@dataclass(frozen=True)
class RunReport:
    """One (scenario, n, seed, method) outcome, with the diagnostics and
    config of its result when a contour run returns one."""

    scenario: str
    n: int
    p: int
    seed: int
    method: str
    w1_error: float
    t_total_s: float
    error: str = ""
    error_stage: str = ""  # the NumericalError.stage of a failed run
    diagnostics: DeconvDiagnostics | None = None
    config: DeconvConfig | None = None

    def row(self) -> list:
        cells = [getattr(self, col) for col in _RUN_COLUMNS]
        for record, cls in ((self.diagnostics, DeconvDiagnostics),
                            (self.config, DeconvConfig)):
            cells += astuple(record) if record else [""] * len(fields(cls))
        return cells


_RUN_COLUMNS = tuple(f.name for f in fields(RunReport))[:-2]  # not the records
REPORT_COLUMNS = _RUN_COLUMNS + tuple(
    prefix + f.name
    for prefix, cls in (("diag_", DeconvDiagnostics), ("cfg_", DeconvConfig))
    for f in fields(cls)
)


def _toeplitz_angles(p: int, r: float) -> np.ndarray:
    """The p roots theta_1 < ... < theta_p in (0, pi) of
    f(theta) = sin((p+1) theta) - 2 r sin(p theta) + r^2 sin((p-1) theta),
    for 0 <= r < 1.

    Bracket: theta_k lies in ((k-1) pi/p, k pi/p), one root per interval,
    for every |r| < 1.  Proof: f(k pi/p) = (-1)^k (1 - r^2) sin(k pi/p)
    for 0 < k < p; f/sin(theta), a polynomial of degree p in cos(theta), is
    p (1 - r)^2 + 1 - r^2 > 0 as theta -> 0+ and has the sign (-1)^p as
    theta -> pi-.  That is p sign changes across the p intervals, so each
    holds exactly one of the p roots.

    f(theta) = |e^{i theta} - r|^2 sin g(theta) with the phase
    g(theta) = (p-1) theta + 2 arg(e^{i theta} - r), which increases from
    0 to (p+1) pi, so theta_k solves g(theta) = k pi.  For r >= 0, g is
    also concave: the slope (1 - r cos(theta)) / |e^{i theta} - r|^2 of
    the arg falls as theta grows.  So Newton's method on g = k pi, started
    at the bracket's left end where g < k pi, rises monotonically to the
    root and stays inside the bracket.  All p brackets iterate at once until
    every residual is rounding: 2 to 4 steps at r = 0.3, and at most 29 for
    r up to 1 - 1e-15 and p from 2 to 5000.
    """
    k = np.arange(1, p + 1)
    target = k * np.pi
    theta = (k - 1) * (np.pi / p)
    for _ in range(64):
        # cos(theta) - r and |e^{i theta} - r|^2 through sin^2(theta/2),
        # free of cancellation near theta = 0
        sin2 = np.sin(0.5 * theta) ** 2
        arg = np.arctan2(np.sin(theta), 1.0 - r - 2.0 * sin2)
        resid = (p - 1) * theta + 2.0 * arg - target
        if np.all(np.abs(resid) <= 8.0 * np.finfo(float).eps * target):
            break
        gap = (1.0 - r) ** 2 + 4.0 * r * sin2
        theta = theta - resid / (p - 1 + 2.0 * (1.0 - r + 2.0 * r * sin2) / gap)
    return theta


def _toeplitz_eigenvalues(p: int, rho: float) -> np.ndarray:
    """The p eigenvalues of the p x p matrix with entries rho^|i-j|,
    ascending and unmerged.

    The matrix is the AR(1) covariance, and its eigenvalues have a closed
    form up to one root per bracket (Kac, Murdock & Szego, 1953): they are
    (1 - rho^2) / |e^{i theta_k} - rho|^2 with theta_k the roots of
    `_toeplitz_angles`.  The matrices for rho and -rho are similar through
    diag((-1)^i), so r = |rho| is used, and |e^{i theta} - r|^2 is formed
    as the sum (1 - r)^2 + 4 r sin^2(theta/2), without cancellation; it
    grows with theta, hence the reversal.  No p x p matrix is formed.  All
    eigenvalues lie strictly between the symbol extremes (1-|rho|)/(1+|rho|)
    and (1+|rho|)/(1-|rho|).
    """
    if p == 1:
        return np.ones(1)
    r = abs(rho)
    sin2 = np.sin(0.5 * _toeplitz_angles(p, r)) ** 2
    gap = (1.0 - r) ** 2 + 4.0 * r * sin2
    return ((1.0 - r * r) / gap)[::-1]


def toeplitz_spectrum(p: int, rho: float) -> DiscreteMeasure:
    """Eigenvalue measure of the p x p matrix with entries rho^|i-j|, whose
    construction merges the values of `_toeplitz_eigenvalues` that nearly
    coincide, as they do for rho near 0."""
    _require_int("p", p)
    if p < 1:
        raise ValueError("p must be at least 1")
    rho = ToeplitzPopulation(rho).rho
    return DiscreteMeasure(_toeplitz_eigenvalues(p, rho), np.full(p, 1.0 / p))


# Bartlett factors of at least this many bytes live in an anonymous map:
# glibc's initial mmap threshold, below which malloc serves a block from
# the heap and reuses it once freed, so a map would only add its system
# calls and page faults (about 75 us at p = 100 on a 2-core x86-64 VM)
MAP_BYTES = 128 * 1024


# block size of `_lower_gram`; every p up to it is a single block, whose
# product is the full `a @ a.T`
GRAM_BLOCK = 256


def _lower_gram(a: np.ndarray) -> None:
    """Overwrite the lower-triangular square `a` with the lower triangle
    of a a^T, block by block in the order of LAPACK's xLAUUM.

    Block (I, J), I >= J, of a a^T is the sum over K <= J of A_IK A_JK^T,
    so it reads A's block rows I and J up to block column J.  Block rows
    run from the bottom and block columns from right to left, so every
    block of A is read before it is overwritten.  That takes p^3 / 3 flops
    against the p^3 of `a @ a.T`, and b x b temporaries only.  Diagonal
    blocks are written whole and symmetric; above them `a` keeps its zeros,
    which the products of later blocks read as the upper triangle of A_JJ.
    """
    b = GRAM_BLOCK
    for i in reversed(range(0, len(a), b)):
        for j in reversed(range(0, i + 1, b)):
            # at i == j both operands are one view, so matmul runs syrk
            rows, cols = slice(i, i + b), slice(j, j + b)
            a[rows, cols] = a[rows, : j + b] @ a[cols, : j + b].T


def _multiplicities(weights: np.ndarray, p: int) -> np.ndarray:
    counts = np.floor(weights * p).astype(int)
    counts[np.argmax(weights)] += p - int(np.sum(counts))
    return counts


def sample_spectrum(
    pop: DiscreteMeasure | ToeplitzPopulation, p: int, n: int, seed: int
) -> DiscreteMeasure:
    """Empirical spectral measure of (1/n) V^1/2 W V^1/2, W ~ Wishart_p(n, I).

    V is diagonal: the atoms with multiplicities floor(w_k p), remainder
    assigned to the largest weight, or the closed-form eigenvalues of a
    Toeplitz population T = U V U^T.  The spectrum of T^1/2 W T^1/2 =
    U V^1/2 (U^T W U) V^1/2 U^T has the same law, since U^T W U has the
    law of W (Muirhead 1982, Sec. 3.2).  W is drawn through its Bartlett
    factor (Bartlett 1933; Muirhead 1982, Thm 3.2.14): A is lower
    triangular with N(0, 1) entries below the diagonal and
    A_ii^2 ~ chi^2_(n-i) for i = 0..p-1, and A A^T has the law of Y Y^T
    for a p x n standard normal Y.  Only p(p+1)/2 numbers are drawn, from
    a seeded generator, so equal seeds give identical measures.  The rows
    of A are scaled by the square roots of V's diagonal.

    W overwrites A: `_lower_gram` writes the lower triangle of A A^T over
    the triangular factor, which is all that `np.linalg.eigvalsh` reads.
    So at most two p x p arrays are alive at once: one buffer that holds A
    and then W, and the copy of W that `eigvalsh` always makes.  A buffer
    of MAP_BYTES or more is an anonymous memory map, closed once the
    eigenvalues are taken, which hands its pages back to the OS at once; a
    freed heap block of that size would stay resident from the second
    large sample on, once glibc has raised its mmap threshold to the size
    of the first.
    """
    _require_int("p", p)
    _require_int("n", n)
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    if isinstance(pop, ToeplitzPopulation):
        diag = _toeplitz_eigenvalues(p, pop.rho)
    else:
        diag = np.repeat(pop.atoms, _multiplicities(pop.weights, p))
    rng = np.random.default_rng(seed)
    buf = mmap.mmap(-1, 8 * p * p) if 8 * p * p >= MAP_BYTES else None
    a = np.zeros((p, p)) if buf is None else np.frombuffer(buf).reshape(p, p)
    a[np.tri(p, k=-1, dtype=bool)] = rng.standard_normal(p * (p - 1) // 2)
    a[np.diag_indices(p)] = np.sqrt(rng.chisquare(n - np.arange(p)))
    a *= np.sqrt(diag)[:, None]
    _lower_gram(a)
    a /= n
    eigs = np.linalg.eigvalsh(a)
    del a
    if buf is not None:
        buf.close()
    return DiscreteMeasure(np.maximum(eigs, 0.0), np.full(p, 1.0 / p))


# ---------------------------------------------------------------------------
# subordination baseline
# ---------------------------------------------------------------------------

# points of the baseline's grid on [0, 1.2 max atom], and the Tychonov
# weight of its ridge deconvolution
GRID_POINTS = 400
RIDGE_ALPHA = 1e-3
# iteration cap and step tolerance of the subordination fixed point
STEFFENSEN_CAP = 200
STEFFENSEN_TOL = 1e-10


def _steffensen(T, w0):
    """Fixed point of T by Aitken-accelerated iteration; (value, converged)."""
    w = w0
    for _ in range(STEFFENSEN_CAP):
        t1 = T(w)
        if not np.isfinite(t1):
            return w, False
        if abs(t1 - w) < STEFFENSEN_TOL:
            return t1, True
        t2 = T(t1)
        if not np.isfinite(t2):
            w = t1
            continue
        den = t2 - 2.0 * t1 + w
        if den != 0.0:
            acc = w - (t1 - w) ** 2 / den
            w = acc if np.isfinite(acc) else t2
        else:
            w = t2
    return w, False


def baseline_subordination(
    mu3: DiscreteMeasure,
    c: float,
    sigma: float = 0.5,
) -> DiscreteMeasure:
    """Subordination fixed point plus Cauchy-kernel ridge deconvolution.

    At each of GRID_POINTS grid points x on [0, 1.2 max atom], solve
    w = T_z(w) with T_z(w) = z h1(1/(h3(w) z)) at z = x + i sigma, read
    off the smoothed target density from the subordinated F-transform,
    then undo the Cauchy(sigma) smoothing on the grid by least squares
    with Tychonov weight RIDGE_ALPHA and a nonnegativity clamp.

    The subordination value can sit close to the real axis on empirical
    inputs, where plain iteration orbits instead of converging, so the
    solver accelerates the iteration and seeds each grid point from the
    previous point's value and from z, x + 2i sigma and x + 4i sigma; when
    none converges it falls back to descending in sigma from far above
    the axis.  The smoothing scale trades bias against stability and
    wants manual tuning.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    xs = np.linspace(0.0, 1.2 * float(np.max(mu3.atoms)), GRID_POINTS)
    mp = MarchenkoPastur(c)

    def h1(w):
        return w - 1.0 / mp.stieltjes(w)

    def h3(w):
        return (w - 1.0 / mu3.stieltjes(w)) / (w * w)

    def subordination(z):
        # the map T_z whose fixed point is the subordination value at z
        return lambda w: z * h1(1.0 / (h3(w) * z))

    def solve_line(s):
        # subordination values along Im z = s; a point is trusted when the
        # fixed point sits clearly off the real axis, where the empirical
        # resolvent stops fluctuating at the inter-atom scale
        vals = np.zeros(xs.size)
        trusted = np.zeros(xs.size, dtype=bool)
        fails = 0
        w_prev = None
        for i, x in enumerate(xs):
            z = complex(x, s)
            T = subordination(z)
            cands = []
            seeds = [w_prev] if w_prev is not None else []
            seeds += [z, complex(x, 2 * s), complex(x, 4 * s)]
            for w0 in seeds:
                w, ok = _steffensen(T, w0)
                if ok and np.isfinite(w) and all(
                    abs(w - u) > 1e-8 for u in cands
                ):
                    cands.append(w)
            if not cands:
                # descend from far above, where plain iteration contracts
                w = complex(x, 8.0 * max(s, 1.0))
                okd = True
                for lvl in np.geomspace(8.0 * max(s, 1.0), s, 12):
                    w, okd = _steffensen(subordination(complex(x, lvl)), w)
                    if not okd:
                        break
                if okd:
                    cands.append(w)
            if not cands:
                fails += 1
                continue
            # the highest candidate approximates the limiting branch best
            w_best = max(cands, key=lambda u: u.imag)
            w_prev = w_best
            f2 = 1.0 / mu3.stieltjes(w_best) * z / w_best
            vals[i] = max(-float(np.imag(1.0 / f2)) / np.pi, 0.0)
            trusted[i] = w_best.imag >= 0.05 * s
        return vals, trusted, fails

    v1, t1, fails = solve_line(sigma)
    if fails > 0.1 * xs.size:
        raise BaselineFailureError(
            f"subordination fixed point failed at {fails}/{xs.size} grid "
            "points; a larger sigma usually helps",
            stage="baseline_subordination",
        )
    # a second line at 2 sigma converges everywhere and fills the band
    # the first line cannot be trusted on
    v2, t2, _ = solve_line(2.0 * sigma)

    dx = xs[1] - xs[0]

    def cauchy_rows(s):
        return (s / np.pi) / ((xs[:, None] - xs[None, :]) ** 2 + s**2) * dx

    k1, k2 = cauchy_rows(sigma), cauchy_rows(2.0 * sigma)
    design = np.vstack([k1[t1, :], k2[t2, :]])
    rhs = np.concatenate([v1[t1], v2[t2]])
    if design.shape[0] < xs.size // 4:
        raise BaselineFailureError(
            "too few trusted subordination values to pose the ridge system",
            stage="baseline_subordination",
        )
    u = np.linalg.solve(
        design.T @ design + RIDGE_ALPHA**2 * np.eye(xs.size), design.T @ rhs
    )
    u = np.maximum(u, 0.0)
    mass = float(np.sum(u) * dx)
    if mass <= 0.0:
        raise BaselineFailureError(
            "ridge deconvolution returned zero mass",
            stage="baseline_subordination",
        )
    weights = u * dx / mass
    keep = weights > 0.0
    return DiscreteMeasure(xs[keep], weights[keep])


# ---------------------------------------------------------------------------
# batch runner
# ---------------------------------------------------------------------------

def _run_one(args):
    sc_id, n, seed, method, sigma = args
    sc = SCENARIOS[sc_id]
    p = round(sc.c * n)
    t0 = time.perf_counter()
    result = None
    try:
        mu_n = sample_spectrum(sc.population, p, n, seed)
        if method == "contour":
            result = deconvolve_with_retries(mu_n, sc.c)
            est = result.estimate
        else:
            est = baseline_subordination(mu_n, sc.c, sigma=sigma)
        w1 = wasserstein_1(est, sc.ground_truth(p))
    except (NumericalError, ValueError) as exc:
        log.warning("run (%s, n=%d, seed=%d, %s) failed: %s",
                    sc_id, n, seed, method, exc)
        return RunReport(
            sc_id, n, p, seed, method, float("nan"), time.perf_counter() - t0,
            error=str(exc), error_stage=getattr(exc, "stage", None) or "",
        )
    return RunReport(
        sc_id, n, p, seed, method, w1, time.perf_counter() - t0,
        diagnostics=None if result is None else result.diagnostics,
        config=None if result is None else result.config,
    )


def run_scenario(
    sc: Scenario,
    n_list: Sequence[int],
    method: str = "contour",
    seeds: Sequence[int] = (1,),
    workers: int | None = None,
    sigma: float = 0.5,
) -> list[RunReport]:
    """Sweep (n, seed) pairs and collect one report per run.

    Runs are independent and execute on a process pool; reports come back
    in (n, seed) order regardless of completion order.  A failed run
    yields a report row with w1_error = nan and the error message, never
    an exception.  An unknown `method`, a `sigma` that is not positive and
    finite, an n or seed that is not an integer, or a descending `n_list`
    raises ValueError before any run.
    """
    if method not in ("contour", "subordination"):
        raise ValueError("method must be 'contour' or 'subordination'")
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    for name, values in (("n", n_list), ("seed", seeds)):
        for value in values:
            _require_int(name, value)
    if list(n_list) != sorted(n_list):
        raise ValueError("n_list must be ascending")
    jobs = [
        (sc.id, int(n), int(s), method, sigma)
        for n in n_list
        for s in seeds
    ]
    if not jobs:
        return []
    if workers is None:
        workers = min(8, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(j) for j in jobs]


def write_report_csv(reports: Sequence[RunReport], path) -> None:
    """Write reports as CSV with the fixed report column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            writer.writerow(rep.row())


def median_w1_by_n(reports: Sequence[RunReport]) -> dict[int, float]:
    """Median w1_error per n, ignoring failed (nan) runs."""
    byn: dict[int, list[float]] = {}
    for rep in reports:
        if math.isfinite(rep.w1_error):
            byn.setdefault(rep.n, []).append(rep.w1_error)
    return {n: float(np.median(v)) for n, v in sorted(byn.items())}
