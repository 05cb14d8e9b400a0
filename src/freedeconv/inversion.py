"""Ramification geometry of the moment map and inverse-branch evaluation.

The moment map M(z) = sum_j w_j x_j / (z - x_j) of an L-atom measure is a
degree-L rational cover of the sphere.  Its inverse branch fixed by
Minv(0) = infinity is single valued on the plane minus vertical slits
through the branch points.  This module finds the ramification data
(critical points and branch points), the radius min |b| of the slit-free
disk about 0, the largest disk the slits leave clear, and evaluates Minv
on that disk.  All targets are lifted together: each along its own ray
s*m from s = 0, by one predictor-corrector march with a shared step.
The march follows u(s) = s Minv(s m), which is analytic at s = 0 where
Minv has a pole.  Its first step, tried at s = 1, is predicted by the
Taylor series of phi(m) = m Minv(m), a series reversion of the moment
series: phi is analytic on the whole slit-free disk, since each slit's
nearest point to 0 is its foot, so the series converges on every
target.  Later steps are predicted by cubic Hermite extrapolation.  A
corrected value is accepted only within half the injectivity radius of M
about it of its prediction.  That guard's ratio of distance to allowance
is also the error estimate that sizes the next step.

The critical points are the zeros of a linear system whose transfer
function is -M', the eigenvalues of its zero dynamics.  `moment_map`
evaluates M and M' themselves in closed form, for the z-plane rule,
whose inverse branch is explicit; nothing there is solved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRamificationError,
    IncompleteRootsError,
    LiftFailureError,
)

__all__ = [
    "RamificationData",
    "critical_points",
    "slit_free_radius",
    "moment_map",
    "lift_many",
]

log = logging.getLogger(__name__)

# residual certificate slack for the critical-point solve, relative to the
# absolute-value sum of the rational terms (backward-error sense)
CERT_TOL = 1e-8
# branch points closer to the real axis than this cannot carry a slit
DEGENERATE_IM = 1e-10


# ---------------------------------------------------------------------------
# ramification data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamificationData:
    """Critical points of M (conjugate-closed, 2(L-1) of them counting
    multiplicity over the atoms that carry mass at nonzero positions) and
    the upper branch point conj(M(q)) of each upper critical point q."""

    critical_points: np.ndarray
    branch_points_upper: np.ndarray

    def __post_init__(self):
        cp = np.asarray(self.critical_points, dtype=complex)
        bp = np.asarray(self.branch_points_upper, dtype=complex)
        cp.setflags(write=False)
        bp.setflags(write=False)
        object.__setattr__(self, "critical_points", cp)
        object.__setattr__(self, "branch_points_upper", bp)


def _effective_poles(mu):
    """Atoms and residues of M: only atoms with w_j * x_j != 0 are poles."""
    c = mu.weights * mu.atoms
    keep = c != 0.0
    return mu.atoms[keep], c[keep]


def _mmap(z, x, c):
    # M(z), M'(z) and the pole-major array 1/(z - x_j) from one pass over
    # the poles, which run along axis 0
    inv = 1.0 / (z - x[:, None])
    return c @ inv, -(c @ (inv * inv)), inv


def _newton_polish(z, x, c):
    """Up to eight Newton steps on M'(z) = 0, stopping once every step is
    below a unit of rounding of its root."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            _, d, inv = _mmap(z, x, c)
            step = d / (2.0 * (c @ (inv * inv * inv)))
            step = np.where(np.isfinite(step), step, 0.0)
            z = z - step
            if np.all(np.abs(step) <= np.finfo(float).eps * np.abs(z)):
                break
    return z


def _certify(roots, x, c):
    # backward-error certificate: |M'(q)| must be tiny relative to the
    # absolute-value sum of its terms, plus what rounding q itself to
    # double can add to first order, |M''(q)| eps |q| with
    # |M''(q)| <= 2 sum |c_j| / |q - x_j|^3
    with np.errstate(divide="ignore", invalid="ignore"):
        _, d, inv = _mmap(roots, x, c)
        a = np.abs(inv)
        level = np.abs(c) @ (a * a)
        rounding = (
            2.0 * np.finfo(float).eps * np.abs(roots)
            * (np.abs(c) @ (a * a * a))
        )
    return np.isfinite(d) & (np.abs(d) <= CERT_TOL * level + rounding)


def critical_points(mu):
    """Solve M'(z) = 0 and report ramification data.

    Returns conjugate-paired critical points (roots of
    sum_j w_j x_j / (z - x_j)^2, a polynomial of degree 2(L-1) after
    clearing denominators) and the upper branch points: conj(M(q)) for each
    upper critical point q.  Atoms at 0 carry no pole of M and are ignored.

    The roots are the zeros of the real system (A, b, u^T) with Jordan
    blocks A_j = [[x_j, 1], [0, x_j]], b_j = (0, 1) and u_j = (w_j x_j, 0),
    whose transfer function u^T (z I - A)^-1 b is -M' (Emami-Naeini & Van
    Dooren, Automatica 1982).  Its relative degree is 2, since u^T b = 0
    and u^T A b = sum_j w_j x_j != 0, so its 2L - 2 zeros are the
    eigenvalues of N = A - b (u^T A^2) / (u^T A b) on ker [u^T; u^T A],
    a subspace N maps into itself.  With V an orthonormal basis of that
    kernel, one O(L^3) eigensolve of V^T N V and up to eight Newton steps
    find them; the pipeline calls this on its Gauss proxy only, at most 9
    atoms.  The atoms are centred at their mean first, so the eigenvalues'
    rounding scales with the spread of the atoms, not their size;
    uncentred, tight clusters fail the certificate where the exact roots,
    rounded, pass it.

    Raises IncompleteRootsError when any of the 2(L-1) roots, a non-finite
    one included, fails the residual certificate: finding *all* solutions
    is what the downstream slit-free radius needs.
    """
    if np.any(mu.atoms < 0.0):
        raise ValueError("ramification analysis expects nonnegative atoms")
    x, c = _effective_poles(mu)
    if x.size <= 1:
        return RamificationData(np.empty(0, complex), np.empty(0, complex))
    degree = 2 * (x.size - 1)
    n = 2 * x.size
    centre = np.mean(x)
    A = np.diag(np.repeat(x - centre, 2))
    A[np.arange(0, n, 2), np.arange(1, n, 2)] = 1.0
    b = np.zeros(n)
    b[1::2] = 1.0
    u = np.zeros(n)
    u[0::2] = c
    uA = u @ A
    N = A - np.outer(b, uA @ A) / (uA @ b)
    V = np.linalg.svd(np.vstack([u, uA]))[2][2:].T
    roots = _newton_polish(np.linalg.eigvals(V.T @ N @ V) + centre, x, c)
    ok = _certify(roots, x, c)
    if not np.all(ok):
        raise IncompleteRootsError(
            f"{int(np.sum(~ok))} of {degree} critical points failed the "
            "residual certificate",
            stage="critical_points",
            diagnostics={"bad": roots[~ok][:8].tolist()},
        )
    upper = roots[roots.imag > 0.0]
    if 2 * upper.size != degree:
        raise IncompleteRootsError(
            f"critical points do not split into conjugate pairs "
            f"({upper.size} strictly upper of {degree})",
            stage="critical_points",
        )
    upper = upper[np.lexsort((upper.imag, upper.real))]
    paired = np.empty(degree, dtype=complex)
    paired[0::2] = upper
    paired[1::2] = np.conj(upper)
    # c_j > 0, so Im M(q) = -Im q sum_j c_j / |q - x_j|^2 < 0 at every
    # upper critical point q: the upper branch points are conj(M(q))
    branch_upper = np.conj(_mmap(upper, x, c)[0])
    branch_upper = branch_upper[np.lexsort((branch_upper.imag, branch_upper.real))]
    return RamificationData(paired, branch_upper)


# ---------------------------------------------------------------------------
# slit-free disk
# ---------------------------------------------------------------------------

def slit_free_radius(branch_points_upper):
    """Radius min |b| of the slit-free disk about 0, from the upper branch
    points b; inf when there are none.

    The slit of b is the vertical ray from b away from the real axis, and
    that of conj(b) its mirror image, so the point of a slit nearest 0 is
    its foot.  Raises DegenerateRamificationError when some b lies closer
    than DEGENERATE_IM to the real axis.
    """
    bp = np.asarray(branch_points_upper, dtype=complex)
    if bp.size == 0:
        return float("inf")
    if np.any(bp.imag < DEGENERATE_IM):
        worst = bp[np.argmin(bp.imag)]
        raise DegenerateRamificationError(
            f"branch point {worst} is too close to the real axis to slit",
            stage="slit_free_radius",
        )
    return float(np.min(np.hypot(bp.real, bp.imag)))


# ---------------------------------------------------------------------------
# the moment map on the z plane
# ---------------------------------------------------------------------------

def moment_map(mu, z):
    """M(z) and M'(z) at the points z, off mu's atoms."""
    x, c = _effective_poles(mu)
    z = np.asarray(z, dtype=complex)
    f, d, _ = _mmap(z.ravel(), x, c)
    return f.reshape(z.shape), d.reshape(z.shape)


# ---------------------------------------------------------------------------
# path lifting
# ---------------------------------------------------------------------------

# Newton iterations per corrector call, and the order of the power series
# of u(s) = s Minv(s m) that predicts the first step: the pipeline's Gauss
# proxy reproduces m_0 .. m_17 of its input, all the series reads
MAX_NEWTON = 20
SERIES_ORDER = 16
# residual |M(w) - m| that accepts a lift, and the step length below which
# step halving gives up
NEWTON_TOL = 1e-12
MIN_STEP = 1e-9


def _correct(x, c, w, m, polish=True):
    """Newton-correct all w together toward roots of M(.) = m, elementwise.

    Returns the corrected w, the residuals |M(w) - m|, M'(w) at the
    returned w, the injectivity radius rho of M about it, and the number
    of residual evaluations until every entry met NEWTON_TOL (MAX_NEWTON + 1
    when some did not).  On |u - w| <= rho <= min_j |w - x_j| / 2,
    |M''(u)| <= 16 sum |c_j| / |w - x_j|^3, so taking rho no larger than
    |M'(w)| over that bound keeps |M'(u) - M'(w)| below |M'(w)|: w is the
    only root of M(.) = M(w) there.  With `polish`, a final Newton step is
    kept where it does not raise the residual: quadratic convergence takes
    a just-passing residual to machine precision, which downstream
    quadrature of high moments needs.
    """
    with np.errstate(all="ignore"):
        for it in range(1, MAX_NEWTON + 2):
            f, d, inv = _mmap(w, x, c)
            f -= m
            res = np.abs(f)
            if it > MAX_NEWTON or np.all(res <= NEWTON_TOL):
                break
            w = w - f / d
        if polish:
            w2 = w - f / d
            f2, d2, inv2 = _mmap(w2, x, c)
            res2 = np.abs(f2 - m)
            better = res2 <= res
            w = np.where(better, w2, w)
            res = np.where(better, res2, res)
            d = np.where(better, d2, d)
            inv = np.where(better, inv2, inv)
        a = np.abs(inv)
        bound = 16.0 * (np.abs(c) @ (a * a * a))
        rho = np.minimum(0.5 / np.max(a, axis=0), np.abs(d) / bound)
    return w, res, d, rho, it


def _inverse_series(x, c):
    """Taylor coefficients phi_0 .. phi_SERIES_ORDER of the principal
    branch phi(m) = m Minv(m) about m = 0, from the poles x and residues c.

    In t = 1/z, M is the moment series M(t) = sum_{k >= 1} m_k t^k, and
    phi(M(t)) = M(t) / t.  Comparing coefficients of t^k for k = 0 .. K
    gives sum_j phi_j B[j, k] = m_(k+1), with B[j, k] = [t^k] M(t)^j upper
    triangular: one series reversion by a triangular solve.  The atoms are
    divided by the largest, so that no moment overflows; phi scales with
    them.  phi_0 = m_1 and phi_1 = m_2 / m_1.  The high coefficients carry
    the conditioning of the moments: rounding exact moments to double
    moves phi_14 by up to 1e-5 of itself on some measures, an error of
    the prediction that the corrector removes.
    """
    n = SERIES_ORDER + 1
    scale = np.max(np.abs(x))
    # m_1 .. m_(n), with m_k = sum_j c_j x_j^(k-1)
    moments = (c / scale) @ np.vander(x / scale, n, increasing=True)
    coeffs = np.concatenate([[0.0], moments[:-1]])
    powers = np.zeros((n, n))
    powers[0, 0] = 1.0
    powers[1] = coeffs
    for j in range(2, n):
        powers[j] = np.convolve(powers[j - 1], coeffs)[:n]
    return scale * np.linalg.solve(powers.T, moments)


def lift_many(mu, targets, free, step_counts=None):
    """Evaluate the inverse branch Minv, fixed by Minv(0) = inf, at targets.

    Every target must lie in the slit-free disk 0 < |m| < free, with `free`
    the `slit_free_radius` of mu's branch points, where the branch is
    single valued; others raise ValueError.  Target m is reached along its
    ray s*m, from s = 0 to s = 1.  The march follows u(s) = s w(s), which
    is analytic at s = 0 with u(0) = m_1/m, where w itself has a pole.
    Its Taylor series u(s) = sum_k phi_k m^(k-1) s^k is that of the
    principal branch phi(m) = m Minv(m), which is analytic on the whole
    slit-free disk: the slits are the only singularities of the branch,
    and each slit's nearest point to 0 is its foot b.  So the series,
    truncated after SERIES_ORDER, converges on every target at least at
    rate |m| / free, and it predicts the first step, first tried at
    s = 1.  All rays advance in s together.  After the first accepted
    step the predictor is the cubic Hermite extrapolation of u through
    the last two points, s = 0 before the first, with
    du/ds = w + s m / M'(w) from the M' the corrector returns, and
    w = u / s.  Every node is Newton-corrected.  A step is accepted when
    every residual passes and ratio = max |w - w_pred| / (rho / 2) <= 1,
    with rho the injectivity radius of M about the corrected w, so that
    Newton cannot have settled on another sheet's root far from the path.
    The step is sized from that ratio, read as the predictor's error
    against the allowance: it is multiplied by 0.9 (0.25 / ratio)^(1/4),
    clipped to [0.5, 4] after an accepted step (to at most 1 when the
    corrector needed more than 3 residual evaluations) and to [0.1, 0.5]
    after a rejected one; a failed residual halves it.  LiftFailureError
    is raised when the step of the longest ray falls below MIN_STEP.
    Every result satisfies |M(w) - m| <= NEWTON_TOL and gets a final
    polish step.  When `step_counts` is a list, each target appends the
    number of steps the march took.
    """
    m = np.asarray(targets, dtype=complex)
    shape = m.shape
    m = m.ravel()
    r = np.abs(m)
    if not np.all((r > 0.0) & (r < free)):
        raise ValueError(
            f"targets must lie in the slit-free disk 0 < |m| < {free:.6g}"
        )
    if mu.moment(1) <= 0.0:
        raise ValueError("path lifting requires a measure with positive mean")
    if m.size == 0:
        return m.reshape(shape).copy()
    x, c = _effective_poles(mu)
    r_max = float(np.max(r))
    phi = _inverse_series(x, c)
    # (s, u, du/ds) at the last two points, du/ds = w + s m / M'(w): the
    # exact start at s = 0, then the accepted ones
    prev = last = (0.0, phi[0] / m, phi[1])
    h = 1.0
    steps = 0
    while last[0] < 1.0:
        s = last[0]
        s_next = 1.0 if h >= 1.0 - s else s + h
        target = s_next * m
        with np.errstate(all="ignore"):
            if steps == 0:
                # w = u(s) / s = sum_k phi_k (s m)^(k-1)
                w_pred = phi[0] / target + np.polyval(phi[:0:-1], target)
            else:
                w_pred = _hermite(prev, last, s_next) / s_next
            # an intermediate polish would be redone by the next corrector
            w, res, d, rho, evals = _correct(
                x, c, w_pred, target, polish=s_next == 1.0
            )
            converged = np.all(res <= NEWTON_TOL)
            ratio = np.max(np.abs(w - w_pred) / (0.5 * rho))
            gain = 0.9 * (0.25 / ratio) ** 0.25
        if converged and ratio <= 1.0:
            prev, last = last, (s_next, s_next * w, w + target / d)
            steps += 1
            h *= min(max(gain, 0.5), 4.0 if evals <= 3 else 1.0)
        else:
            h *= min(0.5, max(0.1, gain)) if converged else 0.5
            if h * r_max < MIN_STEP:
                raise LiftFailureError(
                    "lift step size underflow",
                    stage="lift_many",
                    diagnostics={
                        "s": s, "steps": steps, "residual": float(np.max(res)),
                    },
                )
    log.debug("lifted %d targets in %d steps", m.size, steps)
    if step_counts is not None:
        step_counts.extend([steps] * m.size)
    return w.reshape(shape)


def _hermite(prev, last, s):
    # u at s: the cubic Hermite interpolant of the two points
    # (s_k, u_k, du_k) extended past the last
    s0, u0, du0 = prev
    s1, u1, du1 = last
    h = s1 - s0
    t = (s - s0) / h
    t2, t3 = t * t, t * t * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * u0
        + (t3 - 2.0 * t2 + t) * h * du0
        + (3.0 * t2 - 2.0 * t3) * u1
        + (t3 - t2) * h * du1
    )
