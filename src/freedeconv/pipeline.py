"""End-to-end free multiplicative deconvolution.

Given an empirical spectral measure mu_n of a sample covariance matrix with
aspect ratio c, estimate the population spectrum nu.  S_nu = S_mu_n / S_MP
reads Minv_nu(m) = Minv_mu_n(m) / (1 + c m) for the inverse moment maps:
evaluate it on a circle in the m plane, take the estimate's moments by
Lagrange inversion, and recover a discrete measure.  The circle stays
10 % inside the nearest branch point and at most half way to the S_MP
pole, so the trapezoid rule on it converges at a geometric rate of at
most 0.9.  Only the moments m_0 .. m_MAX_MOMENTS of the estimate are
kept, and each is a polynomial in the moments of mu_n of the same order
or lower.  So the spectral stage runs on a GAUSS_NODES-point Gauss
quadrature of mu_n, which has the same moments through that order, and
its cost does not grow with the dimension p.  The forward direction (nu
to the spectrum of the product) is solved from the fixed-point form of
the Marchenko-Pastur equation and serves as the noise-free oracle.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ForwardSolverError, InvalidMomentsError, NumericalError
from .measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    MomentSequence,
    _require_int,
)
from .inversion import (
    critical_points,
    lift_many,
    slit_free_radius,
)
from .contours import (
    ContourRepresentation,
    choose_m_contour,
    circle_nodes,
    contour_rep_from_s,
    moments_from_circle,
    moments_from_contour,
)
from .recovery import (
    JacobiCoefficients,
    measure_from_jacobi,
    recover_measure_detailed,
)

__all__ = [
    "DeconvConfig",
    "DeconvDiagnostics",
    "DeconvResult",
    "deconvolve",
    "deconvolve_with_retries",
    "forward_contour",
    "forward_measure",
    "ree_assemble",
]

log = logging.getLogger(__name__)

# contour nodes of the first and the last node-doubling pass, and the
# highest moment order the contour stage extracts
START_NODES = 512
MAX_NODES = 8192
MAX_MOMENTS = 16
# atoms of the Gauss proxy of mu_n: K nodes reproduce m_0 .. m_(2K-1),
# at least the m_0 .. m_MAX_MOMENTS the extracted moments depend on
GAUSS_NODES = (MAX_MOMENTS + 2) // 2
# nodes of the forward contour, and the atom cap of the forward measure
FORWARD_NODES = 2048
FORWARD_SUPPORT = 16


@dataclass(frozen=True)
class DeconvConfig:
    """Recovery knobs: the Hankel rank cut and the support size cap.

    Everything before recovery is fixed by the input and `c`; the retry
    ladder of `deconvolve_with_retries` varies these two.  Rank detection
    up to `max_support` atoms needs 2 * max_support of the MAX_MOMENTS
    extracted moments.
    """

    rank_tol: float = 1e-4
    max_support: int = 8

    def __post_init__(self):
        if not 0.0 < self.rank_tol < np.inf:
            raise ValueError(
                f"rank_tol must be positive and finite, got {self.rank_tol}"
            )
        _require_int("max_support", self.max_support)
        if not 1 <= self.max_support <= MAX_MOMENTS // 2:
            raise ValueError(
                f"max_support must lie in [1, {MAX_MOMENTS // 2}], "
                f"got {self.max_support}"
            )


@dataclass(frozen=True)
class DeconvDiagnostics:
    """Run diagnostics: contour quality, recovery rank, lift effort, timings.

    `proxy_atoms` is the atom count of the Gauss proxy the spectral stage
    ran on, and `t_ramification_s` includes building it.  `n_slits` counts
    the proxy's conjugate slit pairs.  `contour_radius` is the radius
    `choose_m_contour` picks and `radius_limiter` the bound that sets it:
    `slit`, `unit_cap` or `mp_pole`.  `settle_gap` is the
    largest distance, relative to max(1, |m_k|), between the complex
    Lagrange sums of orders k >= 1 on the last pass's circle and on its
    even nodes; `settled` is False when that gap is still 1e-9 or more at
    the node cap.  Each pass marches the upper half of its nodes in one
    `lift_many` call, and each node counts the steps of that march.
    `lift_steps_total` sums the count over the nodes of every pass, and
    `lift_steps_max` is the longest march.  `moment_error` is the worst
    relative error with which the estimate reproduces the moments it was
    recovered from, over orders 0 to 2 rank - 1.  `t_total_s` is the
    spectral stage's wall time plus the call's own, so a retry rung that
    reuses the stage reports what a direct call would.
    """

    imag_residue: float
    rank: int
    moment_error: float
    proxy_atoms: int
    n_slits: int
    contour_radius: float
    radius_limiter: str
    nodes_used: int
    settled: bool
    settle_gap: float
    lift_steps_total: int
    lift_steps_max: int
    t_ramification_s: float
    t_lift_s: float
    t_moments_s: float
    t_recovery_s: float
    t_total_s: float


@dataclass(frozen=True)
class DeconvResult:
    """Estimate nu_hat with the moments and diagnostics that produced it."""

    estimate: DiscreteMeasure
    moments_used: MomentSequence
    diagnostics: DeconvDiagnostics
    config: DeconvConfig
    contour: ContourRepresentation

    def to_json(self) -> str:
        payload = {
            "estimate": {
                "atoms": self.estimate.atoms.tolist(),
                "weights": self.estimate.weights.tolist(),
            },
            "moments_used": np.asarray(
                self.moments_used.values, dtype=float
            ).tolist(),
            "diagnostics": asdict(self.diagnostics),
            "config": asdict(self.config),
        }
        return json.dumps(payload, indent=2)


def _gauss_proxy(mu_n: DiscreteMeasure) -> DiscreteMeasure:
    """GAUSS_NODES-point Gauss quadrature of mu_n, or mu_n if it is smaller.

    Lanczos on diag(atoms) from the start vector sqrt(weights) yields the
    Jacobi matrix of mu_n's orthonormal polynomials (Golub & Welsch); each
    step is reorthogonalized twice against all earlier vectors.
    """
    if mu_n.n_atoms <= GAUSS_NODES:
        return mu_n
    x = mu_n.atoms
    Q = np.empty((GAUSS_NODES, x.size))
    a = np.empty(GAUSS_NODES)
    b = np.empty(GAUSS_NODES - 1)
    q = np.sqrt(mu_n.weights)
    for k in range(GAUSS_NODES):
        Q[k] = q
        v = x * q
        a[k] = q @ v
        if k == GAUSS_NODES - 1:
            break
        for _ in range(2):
            v -= Q[: k + 1].T @ (Q[: k + 1] @ v)
        b[k] = np.linalg.norm(v)
        if not 0.0 < b[k] < np.inf:
            raise NumericalError(
                f"Lanczos broke down at step {k}: off-diagonal {b[k]:.3e}",
                stage="gauss_proxy",
                diagnostics={"step": k, "off_diagonal": float(b[k])},
            )
        q = v / b[k]
    return measure_from_jacobi(JacobiCoefficients(a, b**2))


class _Spectral(NamedTuple):
    """What the spectral stage hands to recovery, and what it was built from.

    `diagnostics` holds the stage's own `DeconvDiagnostics` fields, by
    name; `wall_s` is the stage's wall time.
    """

    mu_n: DiscreteMeasure
    c: float
    contour: ContourRepresentation
    moments: MomentSequence
    diagnostics: dict
    wall_s: float


def _spectral_stage(mu_n: DiscreteMeasure, c: float) -> _Spectral:
    """Ramification, radius, node-doubling lifts and circle moments.

    All four run on the Gauss proxy of `mu_n`.  An aspect ratio outside
    (0, 1) raises ValueError before any of them.
    """
    t0 = time.perf_counter()
    mp = MarchenkoPastur(c)
    proxy = _gauss_proxy(mu_n)
    branch = critical_points(proxy).branch_points_upper
    free = slit_free_radius(branch)
    radius, limiter = choose_m_contour(branch, c)
    t_ram = time.perf_counter() - t0

    step_counts: list = []
    t_lift = 0.0
    t_moments = 0.0
    n_nodes = START_NODES
    while True:
        m = circle_nodes(radius, n_nodes)
        upper = m[: n_nodes // 2]
        t1 = time.perf_counter()
        # Minv_nu = Minv_proxy S_MP; the lower half of the nodes is the
        # mirror, as transforms of real measures commute with conjugation
        w = lift_many(proxy, upper, free, step_counts=step_counts)
        z_upper = w / (1.0 + mp.c * upper)
        z = np.concatenate([z_upper, np.conj(z_upper[::-1])])
        t2 = time.perf_counter()
        extracted = moments_from_circle(m, z, MAX_MOMENTS)
        t_lift += t2 - t1
        t_moments += time.perf_counter() - t2
        # the pass settles when its own even nodes agree with all of it
        settled = extracted.half_gap < 1e-9
        if settled:
            break
        if n_nodes >= MAX_NODES:
            log.warning(
                "contour moments did not settle below 1e-9 at %d nodes", n_nodes
            )
            break
        n_nodes *= 2
    rep = contour_rep_from_s((1.0 + m) / (m * z), m)

    diagnostics = dict(
        imag_residue=extracted.imag_residue,
        proxy_atoms=proxy.n_atoms,
        n_slits=branch.size,
        contour_radius=radius,
        radius_limiter=limiter,
        nodes_used=n_nodes,
        settled=settled,
        settle_gap=extracted.half_gap,
        lift_steps_total=int(np.sum(step_counts)) if step_counts else 0,
        lift_steps_max=int(np.max(step_counts)) if step_counts else 0,
        t_ramification_s=t_ram,
        t_lift_s=t_lift,
        t_moments_s=t_moments,
    )
    return _Spectral(
        mu_n,
        c,
        rep,
        extracted.moments,
        diagnostics,
        time.perf_counter() - t0,
    )


def deconvolve(
    mu_n: DiscreteMeasure,
    c: float,
    cfg: DeconvConfig = DeconvConfig(),
    *,
    spectral: _Spectral | None = None,
) -> DeconvResult:
    """Estimate the population spectrum behind the empirical spectrum mu_n.

    Stages: mu_n is compressed to its GAUSS_NODES-point Gauss quadrature
    (mu_n itself when it has no more atoms), the proxy; ramification
    analysis of the proxy fixes the slits and the slit-free disk they
    leave about 0; a circle in the m plane clear of the slits (and of the
    S_MP pole at -1/c) carries lifts of the inverse moment map of the
    proxy; dividing them by 1 + c m gives the estimate's inverse moment
    map, Minv_nu = Minv_proxy S_MP; Lagrange inversion on the circle
    gives the estimate's moments, which feed the Hankel recovery.  The
    compression is exact for what is kept: m_k of the estimate is a
    polynomial in m_1 .. m_k of the input, and the proxy reproduces
    m_0 .. m_(2 GAUSS_NODES - 1) of mu_n, so the moments through
    m_MAX_MOMENTS come out the same up to roundoff.  The contour radius is
    the proxy's, which has fewer slits near 0 than mu_n.  The sanity
    window on the estimate's atoms is set by mu_n itself.  A pass of N
    nodes is settled when its complex Lagrange sums agree within 1e-9,
    relative to max(1, |m_k|), with those of its N/2 even nodes, the
    trapezoid rule one level down; otherwise the node count doubles, up
    to the cap, and the new pass is marched again.  The circle keeps 10 %
    radial clearance from every branch point, so the rule converges at
    least like 0.9^N and a pass rarely needs to double.  The returned
    `contour` is the estimate's Stieltjes contour, the image of the
    accepted pass's circle.  Every failure mode raises a typed error
    carrying its stage; there is no silent fallback.

    Everything before recovery depends on `mu_n` and `c` only; `cfg`
    holds the recovery knobs.  `spectral`, when given, is that part
    already computed by `_spectral_stage(mu_n, c)`, and the call runs
    recovery alone; a stage built from another input raises ValueError.
    """
    if spectral is None:
        spectral = _spectral_stage(mu_n, c)
    elif spectral.mu_n != mu_n or spectral.c != c:
        raise ValueError("the spectral stage was built from another input")

    t0 = time.perf_counter()
    report = recover_measure_detailed(
        spectral.moments, cfg.max_support, cfg.rank_tol
    )
    t_recovery = time.perf_counter() - t0
    estimate = report.measure

    window = float(np.max(mu_n.atoms)) / MarchenkoPastur(c).lower_edge * 1.1
    if np.any(estimate.atoms < -1e-9) or np.any(estimate.atoms > window):
        raise InvalidMomentsError(
            f"estimated atoms leave the sanity window [0, {window:.3g}]",
            stage="deconvolve",
            diagnostics={"atoms": estimate.atoms.tolist(), "window": window},
        )

    diags = DeconvDiagnostics(
        rank=report.rank,
        moment_error=float(np.max(report.moment_errors)),
        t_recovery_s=t_recovery,
        t_total_s=spectral.wall_s + time.perf_counter() - t0,
        **spectral.diagnostics,
    )
    return DeconvResult(
        estimate, spectral.moments, diags, cfg, spectral.contour
    )


def deconvolve_with_retries(
    mu_n: DiscreteMeasure, c: float, cfg: DeconvConfig = DeconvConfig()
) -> DeconvResult:
    """`deconvolve` behind the retry ladder that every caller shares.

    Empirical moments put the Hankel noise floor well above exact
    arithmetic.  When recovery rejects the moments, the ladder raises the
    rank tolerance 10x and 100x, then lowers the support cap two at a time
    down to 1, so only statistically reliable low moments are used.  `cfg`
    is the first rung.  The ladder computes the spectral stage once and
    hands it to each rung, one `deconvolve` call that runs recovery
    alone.  The result records the accepted rung as its `config`; when
    every rung fails, the last rung's error propagates.
    """
    ladder = [
        (cfg.rank_tol, cfg.max_support),
        (10.0 * cfg.rank_tol, cfg.max_support),
        (100.0 * cfg.rank_tol, cfg.max_support),
    ]
    sup = cfg.max_support
    while sup > 1:
        sup = max(1, sup - 2)
        ladder.append((100.0 * cfg.rank_tol, sup))
    spectral = _spectral_stage(mu_n, c)
    for i, (rank_tol, max_support) in enumerate(ladder):
        try:
            return deconvolve(
                mu_n, c, DeconvConfig(rank_tol, max_support), spectral=spectral
            )
        except InvalidMomentsError:
            if i == len(ladder) - 1:
                raise


def _mp_fixed_point_vec(
    lam: np.ndarray, w: np.ndarray, c: float, z: np.ndarray
) -> np.ndarray:
    """Physical root of B (z - c sum w lam/(1 + lam B)) + 1 = 0, Im z > 0.

    A damped fixed point of B = -1/(z - c h(B)) carries every node to the
    physical branch, then vectorized Newton sharpens to machine precision.
    """
    B = 1.0 / z
    prev = np.full(z.shape, np.inf)
    damp = np.zeros(z.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(10000):
            h = np.sum(
                w[None, :] * lam[None, :] / (1.0 + lam[None, :] * B[:, None]),
                axis=1,
            )
            nxt = -1.0 / (z - c * h)
            step = np.abs(nxt - B)
            damp |= step > prev
            cand = np.where(damp, 0.5 * (B + nxt), nxt)
            done = np.abs(cand - B) <= 1e-8 * np.maximum(1.0, np.abs(cand))
            prev = step
            B = cand
            if np.all(done & np.isfinite(B)):
                break
        else:
            bad = z[~(done & np.isfinite(B))]
            raise ForwardSolverError(
                f"fixed point did not converge at z = {bad[:4].tolist()}",
                stage="forward_contour",
            )
        for _ in range(6):
            q = 1.0 + lam[None, :] * B[:, None]
            h = np.sum(w[None, :] * lam[None, :] / q, axis=1)
            dh = -np.sum(w[None, :] * lam[None, :] ** 2 / q**2, axis=1)
            F = B * (z - c * h) + 1.0
            dF = z - c * h - c * B * dh
            newton = F / dF
            B = B - np.where(np.isfinite(newton), newton, 0.0)
        q = 1.0 + lam[None, :] * B[:, None]
        h = np.sum(w[None, :] * lam[None, :] / q, axis=1)
        resid = np.abs(B * (z - c * h) + 1.0)
    scale = 1.0 + np.abs(z) * np.abs(B)
    if np.any(~np.isfinite(B)) or np.any(resid > 1e-11 * scale):
        raise ForwardSolverError(
            "forward solve stalled above residual tolerance",
            stage="forward_contour",
            diagnostics={"worst_residual": float(np.max(resid))},
        )
    return B


def forward_contour(nu: DiscreteMeasure, c: float) -> ContourRepresentation:
    """Sampled exact Stieltjes contour of the spectrum produced by nu.

    The contour is an ellipse around the support hull
    [lower_edge(c) min(nu), upper_edge(c) max(nu)].  Its half-height is
    half the hull span, keeping the solver in its contraction regime above
    the support, while the horizontal pad stays small: moment sums at
    order k amplify roundoff by (max |sigma| / support edge)^k, so the
    contour must not overshoot the hull horizontally.  Only the upper half
    is solved; the lower half is its mirror.  It has FORWARD_NODES nodes.
    """
    mp = MarchenkoPastur(c)
    lo = mp.lower_edge * float(np.min(nu.atoms))
    hi = mp.upper_edge * float(np.max(nu.atoms))
    span = max(hi - lo, 1e-6 * max(abs(hi), 1.0))
    eta = 0.5 * span
    center = 0.5 * (lo + hi)
    half_width = 0.5 * span + 0.02 * span
    theta = 2.0 * np.pi * (np.arange(FORWARD_NODES) + 0.5) / FORWARD_NODES
    sigma = center + half_width * np.cos(theta) + 1j * eta * np.sin(theta)
    upper = sigma[: FORWARD_NODES // 2]
    B = _mp_fixed_point_vec(nu.atoms, nu.weights, c, upper)
    g_upper = (-B - (1.0 - c) / upper) / c
    values = np.concatenate([g_upper, np.conj(g_upper[::-1])])
    return ContourRepresentation(sigma, values)


def forward_measure(
    nu: DiscreteMeasure, c: float, tol: float = 1e-10
) -> DiscreteMeasure:
    """Discretization of the exact spectrum of the product, as a measure.

    Extracts 2 FORWARD_SUPPORT moments from the forward contour and runs
    the rank-truncated recovery: the result is the Gauss quadrature proxy
    of the (absolutely continuous) product spectrum, the noise-free
    stand-in for an empirical eigenvalue measure.
    """
    rep = forward_contour(nu, c)
    moments = moments_from_contour(rep, 2 * FORWARD_SUPPORT).moments
    return recover_measure_detailed(moments, FORWARD_SUPPORT, tol).measure


def ree_assemble(
    observed_eigvecs: np.ndarray,
    observed_eigvals: Sequence[float],
    nu_hat: DiscreteMeasure,
) -> np.ndarray:
    """Rotation-equivariant covariance estimate from estimated spectrum.

    Keeps the observed eigenvectors and replaces the i-th ascending
    eigenvalue with the (i - 1/2)/p quantile of nu_hat.  Replacing O by QO
    conjugates the output by Q, which is the defining equivariance.
    """
    O = np.asarray(observed_eigvecs, dtype=float)
    vals = np.asarray(observed_eigvals, dtype=float)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise ValueError("eigenvector matrix must be square")
    p = O.shape[0]
    if vals.shape != (p,):
        raise ValueError("eigenvalue count must match the matrix size")
    if np.any(np.diff(vals) < 0.0):
        raise ValueError("eigenvalues must be ascending")
    if np.max(np.abs(O.T @ O - np.eye(p))) > 1e-8:
        raise ValueError("eigenvector matrix is not orthogonal")
    q = nu_hat.quantile((np.arange(p) + 0.5) / p)
    sigma = (O * q[None, :]) @ O.T
    return 0.5 * (sigma + sigma.T)
