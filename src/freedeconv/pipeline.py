"""End-to-end free multiplicative deconvolution.

Given an empirical spectral measure mu_n of a sample covariance matrix with
aspect ratio c, estimate the population spectrum nu.  S_nu = S_mu_n / S_MP
reads Minv_nu(m) = Minv_mu_n(m) / (1 + c m) for the inverse moment maps:
evaluate it on a circle in the m plane, take the estimate's moments by
Lagrange inversion, and recover a discrete measure.  The circle stays
10 % inside the nearest branch point and at most half way to the S_MP
pole, so the trapezoid rule on it converges at a geometric rate of at
most 0.9, and it is sampled once, at CIRCLE_NODES nodes.  Only the
moments m_0 .. m_MAX_MOMENTS of the estimate are kept, and each is a
polynomial in the moments of mu_n of the same order or lower.  So the
spectral stage runs on a GAUSS_NODES-point Gauss quadrature of mu_n,
which has the same moments through that order, and its cost does not
grow with the dimension p.  Every contour's nodes are computed on its
upper half and closed by the conjugate mirror, and its moments are taken
by the one Lagrange rule of `moments_from_z_contour`, on the image
sigma = Minv(m) of a curve m about 0.  That curve is the circle; or,
where the circle's sums cancel too far to settle, the image m = M(z) of
an ellipse in the z plane of mu_n about the segment from 0 to its largest
atom, where the inverse branch is explicit and nothing is solved;
or, for the forward direction (nu to the spectrum of the product, the
noise-free oracle), the image of a circle in the plane of the companion
Stieltjes transform B under the inverse z(B) of the Marchenko-Pastur
equation.  The rule's mass check reads a contour's orientation, and the
spectral stage uses its moments only where its even-node gap settles.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidMomentsError, NoisyContourError, NumericalError
from .measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    MomentSequence,
    _require_int,
)
from .inversion import (
    critical_points,
    lift_many,
    moment_map,
    slit_free_radius,
)
from .contours import (
    SLIT_MARGIN,
    ContourMoments,
    ContourRepresentation,
    choose_m_contour,
    circle_nodes,
    moments_from_z_contour,
    z_contour_nodes,
)
from .recovery import (
    HankelFactor,
    JacobiCoefficients,
    _require_tol,
    hankel_factor,
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

# nodes of the m circle, and the highest moment order the contour stage
# extracts.  Recovery's Cholesky reads m_0 .. m_(2 max_support - 1), at
# most m_15, but m_16 is kept: recovery scales the moments by the largest
# m_k^(1/k) it is handed, so m_16 moves that scale and with it the rank cut
CIRCLE_NODES = 512
MAX_MOMENTS = 16
# a pass is settled when the complex Lagrange sums on all of its nodes and
# on its even nodes lie within this, relative to max(1, |m_k|)
SETTLE_GAP = 1e-9
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
        _require_tol("rank_tol", self.rank_tol)
        _require_int("max_support", self.max_support)
        if not 1 <= self.max_support <= MAX_MOMENTS // 2:
            raise ValueError(
                f"max_support must lie in [1, {MAX_MOMENTS // 2}], "
                f"got {self.max_support}"
            )
        # builtin scalars, so that `DeconvResult.to_json` can write them
        object.__setattr__(self, "rank_tol", float(self.rank_tol))
        object.__setattr__(self, "max_support", int(self.max_support))


@dataclass(frozen=True)
class DeconvDiagnostics:
    """Run diagnostics: contour quality, recovery rank, lift effort, timings.

    `proxy_atoms` is the atom count of the Gauss proxy the spectral stage
    ran on, and `t_ramification_s` includes building it.  `n_slits` counts
    the proxy's conjugate slit pairs.  `contour_radius` is the radius
    `choose_m_contour` picks and `radius_limiter` the bound that sets it:
    `slit`, `unit_cap` or `mp_pole`.  The circle is sampled once, at
    `nodes_used` nodes.  `moment_rule` names the contour whose image
    carried the Lagrange rule: `m_circle`, or `z_ellipse` when the
    circle's moments raised NoisyContourError or did not settle, and the
    ellipse of `z_contour_nodes` carried it at as many nodes.
    `imag_residue` and `settle_gap` are that contour's.  Every contour is
    its upper half and the conjugate mirror of it, so the imaginary parts
    of its Lagrange sums cancel pair by pair, and the residue reads only
    the rounding of the sums, amplified where they cancel.  The gap is the
    largest distance, relative to max(1, |m_k|), between its complex
    Lagrange sums of orders k >= 1 on all nodes and on their even nodes,
    below SETTLE_GAP on every returned run.  The upper half of the nodes
    is marched in one `lift_many` call, and each node counts the steps of
    that march: one when the power series of the inverse branch,
    corrected once, reaches every node, more when the march has to
    shorten its first step.  `lift_steps_total` sums the
    count over the nodes, and `lift_steps_max` is the longest march.
    `pivots` are the scaled Hankel Cholesky pivots of the moments, to order
    MAX_MOMENTS // 2, through the first one that is not positive: the
    rank is the index of the first one below `rank_tol`, capped at
    `max_support`.  `moment_error` is the worst relative error in the
    estimate's moments of orders 0 to 2 rank - 1: recovery's rounding,
    not a fit, as any Gauss rule reproduces those.  `t_moments_s` includes
    the Hankel factorization, made once per input, and `t_recovery_s` is
    the call's own rank cut, eigensolve and moment check.
    `t_total_s` is the spectral stage's wall time plus the call's own, so
    a retry rung that reuses the stage reports what a direct call would.
    """

    imag_residue: float
    rank: int
    pivots: tuple
    moment_error: float
    proxy_atoms: int
    n_slits: int
    contour_radius: float
    radius_limiter: str
    nodes_used: int
    settle_gap: float
    moment_rule: str
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

    `factor` is the Hankel factorization of `moments`, to order
    MAX_MOMENTS // 2, that every recovery reads.  `diagnostics`
    holds the stage's own `DeconvDiagnostics` fields, by name; `wall_s` is
    the stage's wall time.
    """

    mu_n: DiscreteMeasure
    c: float
    contour: ContourRepresentation
    moments: MomentSequence
    factor: HankelFactor
    diagnostics: dict
    wall_s: float


def _spectral_stage(mu_n: DiscreteMeasure, c: float) -> _Spectral:
    """Ramification, radius, one lift of the circle, and its settled
    moments, or the z ellipse's where the circle's raise or do not
    settle, factored once.

    All of them run on the Gauss proxy of `mu_n`.  An aspect ratio outside
    (0, 1) raises ValueError before any of them.
    """
    t0 = time.perf_counter()
    mp = MarchenkoPastur(c)
    proxy = _gauss_proxy(mu_n)
    ramification = critical_points(proxy)
    branch = ramification.branch_points_upper
    free = slit_free_radius(branch)
    radius, limiter = choose_m_contour(free, c)
    t_ram = time.perf_counter() - t0

    m = circle_nodes(radius, CIRCLE_NODES)
    half = CIRCLE_NODES // 2
    step_counts: list = []
    t1 = time.perf_counter()
    # Minv_nu = Minv_proxy S_MP on the upper half of the nodes
    w = lift_many(proxy, m[:half], free, step_counts=step_counts)
    z_upper = w / (1.0 + mp.c * m[:half])
    t2 = time.perf_counter()
    # the image of the circle winds clockwise (z ~ m_1 / m), so its contour
    # runs over the nodes reversed, with dm/dt = -i m: first the lower
    # half, where m and z mirror the upper, as transforms of real measures
    # commute with conjugation
    lower = np.conj(m[:half])
    rep, dm = _closed(np.conj(z_upper), lower, -1j * lower)
    try:
        extracted = _settled_moments(rep, dm, "spectral_stage")
        rule = "m_circle"
    except NoisyContourError as exc:
        log.warning("circle %s; taking the z ellipse's", exc)
        rule = "z_ellipse"
        rep, extracted = _z_plane_pass(proxy, ramification.critical_points, c)
    factor = hankel_factor(extracted.moments, MAX_MOMENTS // 2)
    t3 = time.perf_counter()

    diagnostics = dict(
        imag_residue=extracted.imag_residue,
        proxy_atoms=proxy.n_atoms,
        n_slits=branch.size,
        contour_radius=radius,
        radius_limiter=limiter,
        nodes_used=CIRCLE_NODES,
        settle_gap=extracted.half_gap,
        moment_rule=rule,
        pivots=tuple(map(float, factor.pivots)),
        lift_steps_total=sum(step_counts),
        lift_steps_max=max(step_counts),
        t_ramification_s=t_ram,
        t_lift_s=t2 - t1,
        t_moments_s=t3 - t2,
    )
    return _Spectral(
        mu_n, c, rep, extracted.moments, factor, diagnostics,
        time.perf_counter() - t0,
    )


def _closed(
    sigma: np.ndarray, m: np.ndarray, dm: np.ndarray
) -> tuple[ContourRepresentation, np.ndarray]:
    """The contour and dm/dt of `moments_from_z_contour`, closed from the
    first half of the nodes by the conjugate mirror.

    `sigma` = Minv(m), `m` and `dm` hold the first half.  The mirror
    conjugates sigma and m in reverse order and turns dm/dt to -conj, as
    the node angle runs the other way.  The values are G = (1 + m) / sigma.
    """
    sigma = np.concatenate([sigma, np.conj(sigma[::-1])])
    m = np.concatenate([m, np.conj(m[::-1])])
    dm = np.concatenate([dm, -np.conj(dm[::-1])])
    return ContourRepresentation(sigma, (1.0 + m) / sigma), dm


def _settled_moments(
    rep: ContourRepresentation, dm: np.ndarray, stage: str
) -> ContourMoments:
    """`moments_from_z_contour` on `rep`, or NoisyContourError at `stage`,
    carrying the `settle_gap`, where that gap reaches SETTLE_GAP."""
    extracted = moments_from_z_contour(rep, dm, MAX_MOMENTS)
    gap = extracted.half_gap
    if gap >= SETTLE_GAP:
        raise NoisyContourError(
            f"moments did not settle below {SETTLE_GAP:g}: gap {gap:.3e}",
            stage=stage,
            diagnostics={"settle_gap": gap},
        )
    return extracted


def _z_plane_pass(
    proxy: DiscreteMeasure, critical: np.ndarray, c: float
) -> tuple[ContourRepresentation, ContourMoments]:
    """The estimate's Stieltjes contour and moments on the z ellipse.

    On the ellipse of `z_contour_nodes` about the segment from 0 to the
    proxy's largest atom and about its critical points, the inverse
    branch is explicit: m = M(z) and Minv_nu(m) = z / (1 + c M(z)).  M is
    univalent outside the ellipse, which holds every critical point, so
    the branch is single valued on its image; that image winds once about
    0 and not about the S_MP pole -1/c, as the ellipse holds every pole
    and zero of M and of 1 + c M.  The zeros of 1 + c M, the poles of
    sigma = z / (1 + c M), are real and lie in (0, max atom], so the
    segment holds them whatever c is, and it also holds sigma's zeros, 0
    and the atoms: one more zero than poles, so the image sigma winds
    once about 0.  It takes CIRCLE_NODES nodes, none of them real, the
    lower half the mirror of the upper.  A pass that does not settle
    raises NoisyContourError at stage `z_plane_pass`.
    """
    z, dz = z_contour_nodes(proxy.atoms, critical, CIRCLE_NODES)
    half = CIRCLE_NODES // 2
    f, d = moment_map(proxy, z[:half])
    rep, dm = _closed(z[:half] / (1.0 + c * f), f, d * dz[:half])
    return rep, _settled_moments(rep, dm, "z_plane_pass")


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
    map, Minv_nu = Minv_proxy S_MP; Lagrange inversion along the circle,
    by `moments_from_z_contour` on its image, gives the estimate's
    moments, which feed the Hankel recovery.  The compression is exact
    for what is kept: m_k of the estimate is a polynomial in m_1 .. m_k
    of the input, and the proxy reproduces m_0 .. m_(2 GAUSS_NODES - 1)
    of mu_n, so the moments through m_MAX_MOMENTS come out the same up to
    roundoff.  The contour radius is the proxy's, which has fewer slits
    near 0 than mu_n.  The sanity window on the estimate's atoms is set
    by mu_n itself.  The circle is lifted once, at N = CIRCLE_NODES
    nodes, and keeps 10 % radial clearance from every branch point, so
    the trapezoid rule converges at least like 0.9^N; but its Lagrange
    sums cancel by about (m_1 / (r max x))^k on a circle of radius r,
    which leaves a small circle a rounding floor above SETTLE_GAP.  The
    pass is settled when its complex Lagrange sums agree within
    SETTLE_GAP, relative to max(1, |m_k|), with those of its N/2 even
    nodes, the rule one level down.  Where it does not settle, or its
    moments raise NoisyContourError, the run logs a warning and takes
    the same rule on the image of the z ellipse, at N nodes, as
    `moment_rule` records, or raises NoisyContourError at `z_plane_pass`
    where that does not settle either: every `settle_gap` returned is
    below SETTLE_GAP.  The returned `contour` is the image on which the
    moments were taken: the estimate's Stieltjes contour.
    Every other failure raises a typed error carrying its stage.

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
        spectral.factor, cfg.max_support, cfg.rank_tol
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
        rank=report.coefficients.rank,
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
    is the first rung.  The ladder computes the spectral stage once, the
    Hankel factorization of its moments included, and hands it to each
    rung: one `deconvolve` call, whose recovery reads the rung's rank off
    the factorization's pivots, then runs the eigensolve and the sanity
    window.  The result records the accepted rung as its `config`.  The
    last rung, (100 rank_tol, 1), recovers rank 1: the point mass at m_1,
    which S_MP preserves, so it lies inside the sanity window.  The ladder
    therefore raises InvalidMomentsError, the last rung's, only when
    100 rank_tol > 1 leaves no rung a rank of 1 or more.
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


def forward_contour(nu: DiscreteMeasure, c: float) -> ContourRepresentation:
    """Sampled exact Stieltjes contour of the spectrum produced by nu.

    The Marchenko-Pastur equation has an explicit inverse in the companion
    Stieltjes transform B (Silverstein & Bai, J. Multivariate Anal. 1995):
    z(B) = -1/B + c h(B), with h(B) = sum_j w_j x_j / (1 + x_j B), and
    G = (1 - B h(B)) / z.  The contour is the image of the circle
    |B| = r = (1 - SLIT_MARGIN) / (max x (1 + sqrt c)), so no equation is
    solved.  Writing a = max x r:

    - z(B1) - z(B2) = (B1 - B2) [1/(B1 B2)
      - c sum w x^2 / ((1 + x B1)(1 + x B2))], and on |B| <= r the bracket
      cannot vanish, since c (a / (1 - a))^2 < 1.  So z is univalent
      there, and the image curve encloses the support.
    - By the same bound, Im z = sin(theta)
      (1/r - c r sum w x^2 / |1 + x B|^2) > 0 for B = r e^(i theta), so
      the upper B nodes map to the upper z nodes.
    - The nearest pole of the moment integrand in B is -1/max x, so the
      trapezoid rule converges at least like (1 - SLIT_MARGIN)^N.
    - G is taken as (1 - B h) / z, not as the equivalent
      (-B - (1 - c)/z) / c, which cancels by c as c -> 0.

    Only the upper half of the FORWARD_NODES nodes is mapped; the result
    runs counterclockwise and its lower half is the mirror.  An aspect
    ratio outside (0, 1), a negative atom, or no positive atom raises
    ValueError.
    """
    return _forward_pass(nu, c)[0]


def _forward_pass(
    nu: DiscreteMeasure, c: float
) -> tuple[ContourRepresentation, np.ndarray]:
    """The contour of `forward_contour`, and dm/dt along it: the moment
    map M = z G - 1 = -B h(B) and dM/dtheta = -(h + B h') i B are
    explicit on B = r e^(i theta)."""
    c = MarchenkoPastur(c).c
    x, w = nu.atoms, nu.weights
    if x[0] < 0.0 or x[-1] <= 0.0:
        raise ValueError("population atoms must be nonnegative, one positive")
    r = (1.0 - SLIT_MARGIN) / (x[-1] * (1.0 + np.sqrt(c)))
    # B runs counterclockwise over its upper half, z clockwise over its own,
    # so the contour's first half is the upper B nodes reversed, along
    # which dm/dt = -dM/dtheta
    B = circle_nodes(r, FORWARD_NODES)[FORWARD_NODES // 2 - 1 :: -1]
    d = 1.0 + x * B[:, None]
    h = np.sum(w * x / d, axis=1)
    dh = -np.sum(w * (x / d) ** 2, axis=1)
    return _closed(-1.0 / B + c * h, -B * h, (h + B * dh) * 1j * B)


def forward_measure(
    nu: DiscreteMeasure, c: float, tol: float = 1e-10
) -> DiscreteMeasure:
    """Discretization of the exact spectrum of the product, as a measure.

    Takes 2 FORWARD_SUPPORT moments on the forward contour by the
    Lagrange rule of `moments_from_z_contour`, as m = M(z) and dm/dt are
    explicit on it, and runs the rank-truncated recovery: the result is
    the Gauss quadrature proxy of the (absolutely continuous) product
    spectrum, the noise-free stand-in for an empirical eigenvalue measure.
    The rank cut `tol` sets its size: at tol = 1e-8 it has 7, 7, 8 and 8
    atoms on the populations of the scenarios S1, S2_1, S2_2 and S2_3.
    """
    rep, dm = _forward_pass(nu, c)
    moments = moments_from_z_contour(rep, dm, 2 * FORWARD_SUPPORT).moments
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
