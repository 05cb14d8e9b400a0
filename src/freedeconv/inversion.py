"""Ramification geometry of the moment map and inverse-branch evaluation.

The moment map M(z) = sum_j w_j x_j / (z - x_j) of an L-atom measure is a
degree-L rational cover of the sphere.  Its inverse branch fixed by
Minv(0) = infinity is single valued on the plane minus vertical slits
through the branch points.  This module finds the ramification data
(critical points, branch points, slits) and evaluates Minv and the
S-transform by predictor-corrector path lifting with Newton correction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRamificationError,
    IncompleteRootsError,
    LiftFailureError,
    NumericalError,
    PoleError,
)
from .measures import DiscreteMeasure

__all__ = [
    "RamificationData",
    "SlitDomain",
    "PathLiftState",
    "critical_points",
    "slit_domain",
    "lift_path",
    "lift_many",
    "s_transform",
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
    one branch point per conjugate pair, canonicalized to Im > 0."""

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


def _mprime(z, x, c):
    return -np.sum(c / (z[..., None] - x) ** 2, axis=-1)


def _msecond(z, x, c):
    return 2.0 * np.sum(c / (z[..., None] - x) ** 3, axis=-1)


def _gap_seeds(x, c):
    # one conjugate pair of starting points per gap, from the two-pole
    # local model c_j/(z-x_j)^2 + c_{j+1}/(z-x_{j+1})^2 = 0
    gamma = 1j * np.sqrt(c[1:] / c[:-1])
    upper = (x[1:] - gamma * x[:-1]) / (1.0 - gamma)
    return np.concatenate([upper, np.conj(upper)])


def _aberth(z, x, c, sweeps=80, active=None):
    # simultaneous Newton with pairwise repulsion, evaluated on the rational
    # form: N'/N = M''/M' + sum_k 2/(z - x_k) for N = -M' * prod (z-x_k)^2;
    # `active` restricts updates to a subset while keeping full repulsion
    scale = max(abs(x[0]), abs(x[-1]), 1.0)
    z = np.array(z, dtype=complex)
    idx = np.arange(z.size) if active is None else np.asarray(active, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(sweeps):
            za = z[idx]
            mp = _mprime(za, x, c)
            ms = _msecond(za, x, c)
            ratio = ms / mp + 2.0 * np.sum(1.0 / (za[:, None] - x), axis=1)
            diff = za[:, None] - z[None, :]
            diff[np.arange(idx.size), idx] = np.inf
            repel = np.sum(1.0 / diff, axis=1)
            denom = ratio - repel
            step = 1.0 / denom
            step = np.where(np.isfinite(step), step, 0.0)
            z[idx] = za - step
            if np.max(np.abs(step)) < 1e-14 * scale:
                break
    return z


def _newton_polish(z, x, c, iters=3):
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            mp = _mprime(z, x, c)
            ms = _msecond(z, x, c)
            step = mp / ms
            z = z - np.where(np.isfinite(step), step, 0.0)
    return z


def _certify(roots, x, c):
    # backward-error certificate: |M'(q)| must be tiny relative to the
    # absolute-value sum of its terms
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.sum(np.abs(c) / np.abs(roots[:, None] - x) ** 2, axis=1)
        resid = np.abs(_mprime(roots, x, c))
    return np.isfinite(resid) & (resid <= CERT_TOL * level)


def critical_points(mu):
    """Solve M'(z) = 0 and report ramification data.

    Returns conjugate-paired critical points (roots of
    sum_j w_j x_j / (z - x_j)^2, a polynomial of degree 2(L-1) after
    clearing denominators) and the branch points M(q) canonicalized to the
    upper half plane.  Atoms at 0 carry no pole of M and are ignored.

    Raises IncompleteRootsError when the residual certificate fails for any
    root: finding *all* solutions is what the downstream slit domain needs.
    """
    if np.any(mu.atoms < 0.0):
        raise ValueError("ramification analysis expects nonnegative atoms")
    x, c = _effective_poles(mu)
    if x.size <= 1:
        return RamificationData(np.empty(0, complex), np.empty(0, complex))
    degree = 2 * (x.size - 1)
    # simultaneous iteration on the rational form from one conjugate pair
    # of starts per gap; the cleared polynomial is avoided because its
    # coefficients are badly conditioned for clustered near-real roots
    roots = _newton_polish(_aberth(_gap_seeds(x, c), x, c), x, c)
    for jig in (0.0, 3e-2, 1e-1):
        bad = np.where(~_certify(roots, x, c))[0]
        if bad.size == 0:
            break
        # restart only the uncertified roots from their own gap seeds
        # (seed order is preserved by the sweeps) while the certified ones
        # stay frozen as repulsors, then iterate the subset harder
        roots[bad] = _gap_seeds(x, c)[bad] * (1.0 + jig * 1j)
        roots = _aberth(roots, x, c, sweeps=300, active=bad)
        roots[bad] = _newton_polish(roots[bad], x, c)
    ok = _certify(roots, x, c)
    scale = max(abs(x[0]), abs(x[-1]))
    if np.all(ok):
        up = np.sort_complex(roots[roots.imag > 0.0])
        if up.size > 1 and np.min(np.abs(np.diff(up))) < 1e-12 * scale:
            ok = np.zeros(roots.size, dtype=bool)  # collapsed onto duplicates
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
    values = np.sum(c / (upper[:, None] - x), axis=1)
    branch_upper = np.where(values.imag >= 0.0, values, np.conj(values))
    branch_upper = branch_upper[np.lexsort((branch_upper.imag, branch_upper.real))]
    return RamificationData(paired, branch_upper)


# ---------------------------------------------------------------------------
# slit domain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitDomain:
    """Plane minus vertical rays {re + i t : |t| >= im_min}, one conjugate
    pair of rays per branch point."""

    slit_re: np.ndarray
    slit_im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.slit_re, dtype=float).ravel()
        im = np.asarray(self.slit_im, dtype=float).ravel()
        if re.size != im.size:
            raise ValueError("slit arrays must have equal length")
        if np.any(im <= 0.0):
            raise ValueError("slit im_min values must be positive")
        re.setflags(write=False)
        im.setflags(write=False)
        object.__setattr__(self, "slit_re", re)
        object.__setattr__(self, "slit_im", im)

    @property
    def n_slits(self):
        return int(self.slit_re.size)

    def distance(self, m):
        """Euclidean distance from m (scalar or array) to the slit set."""
        m = np.asarray(m, dtype=complex)
        if self.n_slits == 0:
            shape = m.shape
            return float("inf") if shape == () else np.full(shape, np.inf)
        dx = np.abs(m[..., None].real - self.slit_re)
        dy = np.maximum(self.slit_im - np.abs(m[..., None].imag), 0.0)
        d = np.min(np.hypot(dx, dy), axis=-1)
        return float(d) if d.ndim == 0 else d

    def contains(self, m):
        return self.distance(m) > 0.0

    def segment_clear(self, a, b):
        """True iff the closed segment [a, b] misses every slit."""
        a, b = complex(a), complex(b)
        if self.n_slits == 0:
            return True
        da = a.real - self.slit_re
        db = b.real - self.slit_re
        for k in range(self.n_slits):
            if da[k] == 0.0 and db[k] == 0.0:
                if max(abs(a.imag), abs(b.imag)) >= self.slit_im[k]:
                    return False
                continue
            if da[k] * db[k] > 0.0:
                continue
            t = da[k] / (da[k] - db[k])
            y = a.imag + t * (b.imag - a.imag)
            if abs(y) >= self.slit_im[k]:
                return False
        return True


def slit_domain(ram):
    """Slit domain of the inverse branch from ramification data."""
    bp = ram.branch_points_upper
    if bp.size == 0:
        return SlitDomain(np.empty(0), np.empty(0))
    if np.any(bp.imag < DEGENERATE_IM):
        worst = bp[np.argmin(bp.imag)]
        raise DegenerateRamificationError(
            f"branch point {worst} is too close to the real axis to slit",
            stage="slit_domain",
        )
    return SlitDomain(bp.real.copy(), bp.imag.copy())


# ---------------------------------------------------------------------------
# path lifting
# ---------------------------------------------------------------------------

# Newton iterations per corrector call, and |m| of the asymptotic seed
MAX_NEWTON = 20
START_ABS = 1e-3
# residual |M(w) - m| that accepts a lift, and the step length below which
# step halving gives up
NEWTON_TOL = 1e-12
MIN_STEP = 1e-9


@dataclass(frozen=True)
class PathLiftState:
    m_current: complex
    w_current: complex
    residual: float
    steps_taken: int


def _plan_path(dom, start, target):
    """Segment chain from start to target avoiding all slits."""
    if dom.segment_clear(start, target):
        return [start, target]
    if dom.n_slits:
        level = 0.5 * float(np.min(dom.slit_im))
        sign = 1.0 if target.imag >= 0.0 else -1.0
        way = complex(target.real, sign * min(level, abs(target.imag) or level))
        if dom.segment_clear(start, way) and dom.segment_clear(way, target):
            return [start, way, target]
    raise LiftFailureError(
        "no slit-free path from the asymptotic seed to the target",
        stage="lift",
    )


def _newton(mu, w, m):
    """Correct w to a root of M(.) = m; returns (w, residual, iterations)."""
    for it in range(1, MAX_NEWTON + 1):
        f = mu.moment_map(w) - m
        res = abs(f)
        if res <= NEWTON_TOL:
            # one polish step: quadratic convergence takes a just-passing
            # residual to machine precision, which downstream quadrature
            # of high moments needs
            d = mu.moment_map_derivative(w)
            if d != 0.0 and np.isfinite(d):
                w2 = w - f / d
                if np.isfinite(w2):
                    f2 = mu.moment_map(w2) - m
                    if abs(f2) <= res:
                        return w2, abs(f2), it
            return w, res, it
        d = mu.moment_map_derivative(w)
        if d == 0.0 or not np.isfinite(d):
            break
        w = w - f / d
        if not np.isfinite(w):
            break
    f = mu.moment_map(w) - m
    return w, abs(f), MAX_NEWTON + 1


def _walk(mu, dom, m0, w0, waypoints, coarse=False):
    """March m from m0 through the waypoints, carrying the lift w along.

    `coarse` starts at the full path length instead of the conservative
    1/64 pacing: right for short continuation hops from an already
    converged lift, where the predictor is nearly exact.  Step halving
    still guards both modes.
    """
    total = sum(
        abs(b - a) for a, b in zip([m0] + waypoints[:-1], waypoints)
    )
    h = total if coarse else total / 64.0
    h_cap = total if coarse else total / 16.0
    m_cur, w = m0, w0
    steps = 0
    easy_streak = 0
    for target in waypoints:
        while m_cur != target:
            remaining = target - m_cur
            # relative cap keeps geometric pacing near m = 0 where the
            # branch behaves like m1/m and linear steps overshoot
            dm = min(h, abs(remaining), 0.15 * abs(m_cur))
            m_next = target if dm >= abs(remaining) else (
                m_cur + remaining / abs(remaining) * dm
            )
            try:
                d = mu.moment_map_derivative(w)
                w_pred = w + (m_next - m_cur) / d if d != 0.0 else w
                w_new, res, iters = _newton(mu, w_pred, m_next)
            except (PoleError, FloatingPointError):
                res, iters = np.inf, MAX_NEWTON + 1
                w_new = w
            if res <= NEWTON_TOL and np.isfinite(w_new):
                m_cur, w = m_next, w_new
                steps += 1
                easy_streak = easy_streak + 1 if iters <= 1 else 0
                if easy_streak >= 4:
                    h = min(2.0 * h, h_cap)
                    easy_streak = 0
            else:
                h *= 0.5
                easy_streak = 0
                if h < MIN_STEP:
                    raise LiftFailureError(
                        "lift step size underflow",
                        stage="lift",
                        state=PathLiftState(m_cur, w, float(res), steps),
                    )
    return w, steps


def lift_path(mu, target_m, dom):
    """Evaluate the inverse branch Minv(target_m) fixed by Minv(0) = inf.

    The lift starts from the second-order asymptotic seed
    w = m_1/m + m_2/m_1 at a small |m| on the ray toward the target, then
    tracks M(w(t)) = m(t) by an explicit predictor and Newton corrector
    with step halving/doubling.  The final residual satisfies
    |M(w) - target_m| <= NEWTON_TOL.
    """
    w, steps = _lift_full(mu, target_m, dom)
    log.debug(
        "lift target=%s steps=%d residual=%.3e",
        target_m, steps, abs(mu.moment_map(w) - target_m),
    )
    return w


def _lift_full(mu, target_m, dom):
    # lift_path plus the step count, for callers tracking effort
    target_m = complex(target_m)
    if target_m == 0.0:
        raise ValueError("target m must be nonzero (the branch pole)")
    if not dom.contains(target_m):
        raise ValueError("target m lies on a slit, outside the domain")
    m1 = mu.moment(1)
    if m1 <= 0.0:
        raise ValueError("path lifting requires a measure with positive mean")
    start = target_m * (min(START_ABS, abs(target_m) / 10.0) / abs(target_m))
    path = _plan_path(dom, start, target_m)
    w0 = m1 / start + mu.moment(2) / m1
    w0, res, _ = _newton(mu, w0, start)
    if res > NEWTON_TOL:
        raise LiftFailureError(
            "asymptotic seed did not converge",
            stage="lift",
            state=PathLiftState(start, w0, res, 0),
        )
    return _walk(mu, dom, path[0], w0, path[1:])


def lift_many(mu, targets, dom, step_counts=None):
    """Lift a sequence of targets, warm-starting each from its predecessor.

    Inside the largest slit-free disk about 0 every chord stays in the
    domain, so consecutive targets in that disk continue the previous
    lift; others fall back to a fresh lift from the seed.  Intended for
    contour nodes on a circle inside that disk.  When `step_counts` is a
    list, per-target walk step counts are appended to it.
    """
    targets = np.asarray(targets, dtype=complex)
    out = np.empty_like(targets)
    free = dom.distance(0.0)
    w = None
    prev = None
    for i, m in enumerate(targets):
        m = complex(m)
        steps = 0
        if w is not None and max(abs(prev), abs(m)) < free:
            try:
                w, steps = _walk(mu, dom, prev, w, [m], coarse=True)
            except LiftFailureError:
                w, steps = _lift_full(mu, m, dom)
        else:
            w, steps = _lift_full(mu, m, dom)
        out[i] = w
        prev = m
        if step_counts is not None:
            step_counts.append(steps)
    return out


def s_transform(mu, m, dom):
    """S(m) = (1+m) / (m * Minv(m)) via path lifting."""
    m = complex(m)
    if m == 0.0:
        raise ValueError("S-transform argument must be nonzero")
    return (1.0 + m) / (m * lift_path(mu, m, dom))
