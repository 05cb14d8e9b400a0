"""Reconstruction of a discrete measure from its moments.

The chain is classical: Hankel positivity decides whether the numbers are
moments at all, a Cholesky factorization of the Hankel matrix orthogonalizes
the monomials, the three-term recurrence coefficients form a symmetric
tridiagonal matrix, and its eigendecomposition delivers atoms (eigenvalues)
and weights (squared first components of unit eigenvectors).  All linear
algebra here is specialized and runs in extended precision: Hankel matrices
of measures with spread-out support are violently ill conditioned, and the
generic double-precision route loses the last digits the tests demand.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMomentsError, NumericalError
from .measures import DiscreteMeasure, MomentSequence

__all__ = [
    "MomentVerdict",
    "JacobiCoefficients",
    "RecoveryReport",
    "hankel",
    "is_moment_sequence",
    "jacobi_from_moments",
    "measure_from_jacobi",
    "recover_measure",
    "recover_measure_detailed",
]

log = logging.getLogger(__name__)

DEFAULT_RANK_TOL = 1e-8


def hankel(moments: MomentSequence, n: int) -> np.ndarray:
    """Leading n x n moment matrix H[i, j] = m_(i+j), read-only.

    Requires moments m_0 .. m_(2n-2).
    """
    if n < 1:
        raise ValueError("hankel order must be at least 1")
    if moments.order < 2 * n - 2:
        raise ValueError(
            f"order-{n} Hankel matrix needs moments up to m_{2 * n - 2}, "
            f"got {moments.order}"
        )
    m = np.asarray(moments.values, dtype=float)
    idx = np.arange(n)
    H = m[idx[:, None] + idx[None, :]]
    H.setflags(write=False)
    return H


class MomentVerdict(NamedTuple):
    """Outcome of the Hankel positivity test.

    status is "valid", "rank_deficient" or "invalid"; rank is the detected
    support cardinality (n for valid, None for invalid).
    """

    status: str
    rank: int | None
    eigenvalues: np.ndarray


def is_moment_sequence(
    moments: MomentSequence, n: int, tol: float = DEFAULT_RANK_TOL
) -> MomentVerdict:
    """Classify the order-n Hankel matrix of the sequence.

    Eigenvalues below -tol * ||H|| mean the numbers are not moments of any
    positive measure; eigenvalues inside the +-tol band signal finite
    support of cardinality equal to the count above the band.
    """
    eig = np.linalg.eigvalsh(hankel(moments, n))
    norm = float(np.max(np.abs(eig)))
    band = tol * max(norm, 1e-300)
    if eig[0] < -band:
        return MomentVerdict("invalid", None, eig)
    above = int(np.sum(eig > band))
    if above == n:
        return MomentVerdict("valid", n, eig)
    return MomentVerdict("rank_deficient", above, eig)


@dataclass(frozen=True)
class JacobiCoefficients:
    """Three-term recurrence coefficients in the orthonormal basis.

    a is the tridiagonal diagonal, b the squared off-diagonal, one entry
    shorter.  A truncated sequence means the source moments have finite
    support detected at len(a); the terminating zero coefficient is dropped
    rather than stored, so every retained b is strictly positive.
    """

    a: np.ndarray
    b: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size != a.size - 1:
            raise ValueError("need len(a) >= 1 and len(b) == len(a) - 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        if np.any(b <= 0.0):
            raise ValueError("retained off-diagonal coefficients must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def rank(self) -> int:
        return self.a.size


def _scaled_moments(values: np.ndarray) -> tuple[np.ndarray, float]:
    # rescale x -> x/s so the Hankel pivots carry comparable magnitudes;
    # without this an absolute pivot tolerance is meaningless for supports
    # spanning [0.1, 10]
    k = np.arange(1, values.size)
    mags = np.abs(values[1:])
    nz = mags > 0.0
    if not np.any(nz):
        return values.copy(), 1.0
    s = float(np.max(mags[nz] ** (1.0 / k[nz])))
    if not np.isfinite(s) or s <= 0.0:
        return values.copy(), 1.0
    # scale factors must carry the full input precision: float64 powers
    # would re-inject double-rounding noise into extended-precision moments
    factors = values.dtype.type(s) ** np.arange(values.size, dtype=values.dtype)
    return values / factors, s


def jacobi_from_moments(
    moments: MomentSequence, n: int, tol: float = DEFAULT_RANK_TOL
) -> JacobiCoefficients:
    """Recurrence coefficients from moments m_0 .. m_(2n-1).

    Runs a rectangular Cholesky factorization of the extended Hankel matrix
    in extended precision: L[i, j] is the j-th orthonormal-basis coefficient
    of x^i, so a_j = L[j+1, j]/L[j, j] - L[j, j-1]/L[j-1, j-1] and
    b_j = (L[j, j]/L[j-1, j-1])^2.  A pivot below tol (relative to m_0 = 1
    after rescaling) truncates: the moments carry fewer than n support
    points.  A pivot below -tol is a certificate that the input is not a
    moment sequence.
    """
    if n < 1:
        raise ValueError("need at least one recurrence coefficient")
    if moments.order < 2 * n - 1:
        raise ValueError(
            f"{n} recurrence coefficients need moments up to m_{2 * n - 1}, "
            f"got {moments.order}"
        )
    scaled, s = _scaled_moments(np.asarray(moments.values))
    m = scaled.astype(np.longdouble)
    rows = n + 1
    L = np.zeros((rows, n), dtype=np.longdouble)
    rank = n
    truncated = False
    for j in range(n):
        pivot = m[2 * j] - np.sum(L[j, :j] ** 2)
        if pivot < -tol:
            raise InvalidMomentsError(
                f"Hankel pivot {float(pivot):.3e} at column {j} is negative "
                "beyond tolerance; the input is not a moment sequence",
                stage="jacobi_from_moments",
                diagnostics={"pivot": float(pivot), "column": j},
            )
        if pivot < tol:
            rank = j
            truncated = True
            break
        L[j, j] = np.sqrt(pivot)
        for i in range(j + 1, rows):
            acc = m[i + j] - np.sum(L[i, :j] * L[j, :j])
            L[i, j] = acc / L[j, j]
    if rank == 0:
        raise InvalidMomentsError(
            "leading Hankel pivot vanished; no mass to recover",
            stage="jacobi_from_moments",
        )
    a = np.empty(rank, dtype=np.longdouble)
    b = np.empty(max(rank - 1, 0), dtype=np.longdouble)
    for j in range(rank):
        a[j] = L[j + 1, j] / L[j, j]
        if j > 0:
            a[j] -= L[j, j - 1] / L[j - 1, j - 1]
            b[j - 1] = (L[j, j] / L[j - 1, j - 1]) ** 2
    return JacobiCoefficients(
        np.asarray(a * s, dtype=float),
        np.asarray(b * s * s, dtype=float),
        truncated=truncated,
    )


def _tridiag_eigen_ql(
    diag: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Implicit-shift QL for a symmetric tridiagonal matrix.

    Returns (eigenvalues, first components of the unit eigenvectors).  Only
    the first row of the eigenvector matrix is accumulated, which is all a
    quadrature rule needs.  Extended precision throughout.
    """
    n = diag.size
    d = diag.astype(np.longdouble).copy()
    e = np.zeros(n, dtype=np.longdouble)
    e[: n - 1] = off.astype(np.longdouble)
    z = np.zeros(n, dtype=np.longdouble)
    z[0] = 1.0
    eps = np.finfo(np.longdouble).eps
    for l in range(n):
        for iteration in range(60):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == 59:
                raise NumericalError(
                    "tridiagonal QL failed to converge",
                    stage="measure_from_jacobi",
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, np.longdouble(1.0))
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = np.longdouble(1.0)
            p = np.longdouble(0.0)
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                zi = z[i + 1]
                z[i + 1] = s * z[i] + c * zi
                z[i] = c * z[i] - s * zi
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = np.argsort(d)
    return d[order], z[order]


def measure_from_jacobi(jc: JacobiCoefficients) -> DiscreteMeasure:
    """Spectral measure of the Jacobi matrix at the first basis vector.

    The symmetrized tridiagonal matrix with diagonal a and off-diagonal
    sqrt(b) has the recovered atoms as eigenvalues; the weight of each atom
    is the squared first component of its unit eigenvector, so the weights
    sum to 1 by orthonormality of the eigenbasis.
    """
    if jc.rank == 1:
        return DiscreteMeasure(np.array([jc.a[0]]), np.array([1.0]))
    atoms_ld, first = _tridiag_eigen_ql(jc.a, np.sqrt(jc.b))
    weights_ld = first**2
    atoms = np.asarray(atoms_ld, dtype=float)
    weights = np.asarray(weights_ld / np.sum(weights_ld), dtype=float)
    keep = weights > 0.0
    return DiscreteMeasure(atoms[keep], weights[keep])


def _newton_refine(
    atoms: np.ndarray, weights: np.ndarray, m: np.ndarray, iters: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Polish (atoms, weights) against the moments they came from.

    The Cholesky route loses a few digits through the ill conditioned
    Hankel factorization; a Newton iteration on the square system
    sum_j w_j x_j^k = m_k, with residuals evaluated at the precision of the
    input moments, pushes the error down to the conditioning floor of the
    moment map itself.  Rows are rescaled by s^k so the solve sees balanced
    magnitudes.  Any sign of trouble returns the unrefined input.
    """
    L = atoms.size
    if L < 2 or m.size < 2 * L:
        return atoms, weights
    x = atoms.astype(np.longdouble)
    w = weights.astype(np.longdouble)
    mm = m[: 2 * L].astype(np.longdouble)
    s = np.longdouble(max(float(np.max(np.abs(atoms))), 1.0))
    k = np.arange(2 * L)
    row_scale = s ** k.astype(np.longdouble)

    def scaled_residual(xv, wv):
        powers = xv[None, :] ** k[:, None].astype(np.longdouble)
        return (powers @ wv - mm) / row_scale

    best_x, best_w = x, w
    best = float(np.max(np.abs(scaled_residual(x, w))))
    for _ in range(iters):
        powers = x[None, :] ** k[:, None].astype(np.longdouble)
        jac = np.empty((2 * L, 2 * L), dtype=float)
        jac[:, :L] = np.asarray(
            (k[:, None] * w[None, :]) * x[None, :] ** (k[:, None] - 1)
            / row_scale[:, None],
            dtype=float,
        )
        jac[0, :L] = 0.0  # k x^(k-1) at k = 0
        jac[:, L:] = np.asarray(powers / row_scale[:, None], dtype=float)
        rhs = np.asarray(scaled_residual(x, w), dtype=float)
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            break
        x = x - step[:L].astype(np.longdouble)
        w = w - step[L:].astype(np.longdouble)
        if np.any(w <= 0.0) or np.any(np.diff(x) <= 0.0):
            break
        resid = float(np.max(np.abs(scaled_residual(x, w))))
        if resid >= best:
            break
        best, best_x, best_w = resid, x, w
    return np.asarray(best_x, dtype=float), np.asarray(best_w, dtype=float)


@dataclass(frozen=True)
class RecoveryReport:
    """Structured diagnostics for one moment-recovery run."""

    measure: DiscreteMeasure
    verdict: MomentVerdict
    coefficients: JacobiCoefficients
    rank: int
    moment_errors: np.ndarray

    def __post_init__(self):
        err = np.asarray(self.moment_errors, dtype=float)
        err.setflags(write=False)
        object.__setattr__(self, "moment_errors", err)


def recover_measure_detailed(
    moments: MomentSequence, max_support: int, tol: float = DEFAULT_RANK_TOL
) -> RecoveryReport:
    """Full recovery pipeline with diagnostics.

    Chooses the largest tractable Hankel order given the available moments
    and the requested support bound, gates on positivity, extracts the
    recurrence, and diagonalizes.  The report records how well the output
    measure reproduces the input moments over the Gauss-exactness range
    k <= 2 rank - 1; on exact inputs these errors sit at 10 tol or below.
    """
    if max_support < 1:
        raise ValueError("max_support must be at least 1")
    if abs(float(moments[0]) - 1.0) > 1e-12:
        raise ValueError("moment recovery expects a probability sequence")
    n = min(max_support, (moments.order + 1) // 2)
    if n < 1:
        raise ValueError("need moments at least up to m_1")
    verdict = is_moment_sequence(moments, n, tol)
    if verdict.status == "invalid":
        raise InvalidMomentsError(
            f"Hankel matrix has eigenvalue {verdict.eigenvalues[0]:.3e} below "
            "the negativity band; the input is not a moment sequence",
            stage="recover_measure",
            diagnostics={"eigenvalue": float(verdict.eigenvalues[0])},
        )
    jc = jacobi_from_moments(moments, n, tol)
    mu = measure_from_jacobi(jc)
    if mu.n_atoms == jc.rank:
        ref_atoms, ref_weights = _newton_refine(
            mu.atoms, mu.weights, np.asarray(moments.values)
        )
        mu = DiscreteMeasure(ref_atoms, ref_weights)
    upto = min(2 * jc.rank - 1, moments.order)
    errs = np.array(
        [
            abs(mu.moment(k) - float(moments[k]))
            / max(1.0, abs(float(moments[k])))
            for k in range(upto + 1)
        ]
    )
    worst = float(np.max(errs)) if errs.size else 0.0
    if worst > 10.0 * tol:
        log.warning(
            "recovered measure reproduces moments to %.3e only (rank %d)",
            worst, jc.rank,
        )
    return RecoveryReport(mu, verdict, jc, jc.rank, errs)


def recover_measure(
    moments: MomentSequence, max_support: int, tol: float = DEFAULT_RANK_TOL
) -> DiscreteMeasure:
    """Discrete measure reproducing the given moments, rank-truncated at tol."""
    return recover_measure_detailed(moments, max_support, tol).measure
