"""Reconstruction of a discrete measure from its moments.

The chain is classical: a Cholesky factorization of the Hankel matrix of
the rescaled moments orthogonalizes the monomials, the three-term
recurrence coefficients form a symmetric tridiagonal matrix, and its
eigendecomposition delivers atoms (eigenvalues) and weights (squared first
components of unit eigenvectors).  The Cholesky pivots are the one
positivity test: a pivot below -tol certifies that the numbers are not
moments of a positive measure, and a pivot below tol fixes the rank.
The rescaling and the factorization run in the precision of the moments
they are handed: the pipeline's moments are float64, so every estimate is
computed in IEEE double on every platform, whatever width long double has
there.  A caller who builds long-double moments gets a long-double
factorization.  The Jacobi coefficients are stored in double precision,
and the final eigenproblem is solved as a dense symmetric one: the
pipeline's Jacobi matrices have at most 9 rows, those of its Gauss proxy.
The factorization, `hankel_factor`, runs once per moment sequence and
keeps its pivots: a rank cut at any tolerance and any order up to its
own is a read of them, so the retry ladder factors once per input.  The
rank is recorded once, as the length of the Jacobi coefficients, and
`recover_measure_detailed` is the one entry point of the whole chain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidMomentsError, NumericalError
from .measures import DiscreteMeasure, MomentSequence, _require_int

__all__ = [
    "HankelFactor",
    "JacobiCoefficients",
    "RecoveryReport",
    "hankel_factor",
    "jacobi_from_moments",
    "measure_from_jacobi",
    "recover_measure_detailed",
]

log = logging.getLogger(__name__)

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class JacobiCoefficients:
    """Three-term recurrence coefficients in the orthonormal basis.

    a is the tridiagonal diagonal, b the squared off-diagonal, one entry
    shorter.  `rank`, the length of a, is the number of atoms recovered:
    when it falls short of the order asked for, the moments were cut at a
    vanishing Hankel pivot, and the terminating zero coefficient is dropped
    rather than stored, so every retained b is strictly positive.
    """

    a: np.ndarray
    b: np.ndarray

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
    # spanning [0.1, 10].  The scale reads every moment handed in, also
    # those above m_(2n-1) that the Cholesky never reads: the pipeline's
    # m_16 still moves s, and with it the rank cut
    k = np.arange(1, values.size)
    mags = np.abs(values[1:])
    nz = mags > 0.0
    if not np.any(nz):
        return values.copy(), 1.0
    s = float(np.max(mags[nz] ** (1.0 / k[nz])))
    # scale factors must carry the full input precision: float64 powers
    # would re-inject double-rounding noise into extended-precision moments
    factors = values.dtype.type(s) ** np.arange(values.size, dtype=values.dtype)
    return values / factors, s


def _require_tol(name: str, tol) -> None:
    if isinstance(tol, (bool, np.bool_)) or not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


class HankelFactor(NamedTuple):
    """What `hankel_factor` computed: the Cholesky factor of the moments
    rescaled by x -> x / scale, and every pivot it took."""

    moments: MomentSequence
    scale: float
    pivots: np.ndarray
    factor: np.ndarray


def hankel_factor(moments: MomentSequence, n: int) -> HankelFactor:
    """Scaled Hankel Cholesky of the moments m_0 .. m_(2n-1), to order n.

    A rectangular Cholesky factorization of the extended Hankel matrix, in
    the dtype of the moments: L[i, j] is the j-th orthonormal-basis
    coefficient of x^i.  It stops after the first pivot that is not
    positive (a NaN pivot does not stop it), so the rank cut at every
    tolerance and every order up to n reads the one factorization.
    """
    _require_int("n", n)
    if n < 1:
        raise ValueError("need at least one recurrence coefficient")
    if moments.order < 2 * n - 1:
        raise ValueError(
            f"{n} recurrence coefficients need moments up to m_{2 * n - 1}, "
            f"got {moments.order}"
        )
    m, s = _scaled_moments(np.asarray(moments.values))
    rows = n + 1
    L = np.zeros((rows, n), dtype=m.dtype)
    pivots = []
    for j in range(n):
        pivot = m[2 * j] - np.sum(L[j, :j] ** 2)
        pivots.append(pivot)
        if pivot <= 0.0:
            break
        L[j, j] = np.sqrt(pivot)
        acc = m[2 * j + 1 : rows + j] - L[j + 1 :, :j] @ L[j, :j]
        L[j + 1 :, j] = acc / L[j, j]
    return HankelFactor(moments, s, np.array(pivots, dtype=m.dtype), L)


def _rank_cut(hf: HankelFactor, n: int, tol: float) -> JacobiCoefficients:
    """Jacobi coefficients of order at most n, read off `hf`: the rank is
    the index of the first of its first n pivots below tol, or n, and that
    pivot below -tol raises.  With d_j = L[j, j] and q_j = L[j+1, j] / d_j,
    a_j = q_j - q_(j-1) (q_(-1) = 0) and b_j = (d_j / d_(j-1))^2.
    """
    _require_tol("tol", tol)
    rank = n
    for j, pivot in enumerate(hf.pivots[:n]):
        if pivot < -tol:
            raise InvalidMomentsError(
                f"Hankel pivot {float(pivot):.3e} at column {j} is negative "
                "beyond tolerance; the input is not a moment sequence",
                stage="recover_measure",
                diagnostics={"pivot": float(pivot), "column": j},
            )
        if pivot < tol:
            rank = j
            break
    if rank == 0:
        raise InvalidMomentsError(
            "leading Hankel pivot vanished; no mass to recover",
            stage="recover_measure",
        )
    L, s = hf.factor, hf.scale
    d = np.diag(L)[:rank]
    q = np.diag(L, -1)[:rank] / d
    a = q.copy()
    a[1:] -= q[:-1]
    b = (d[1:] / d[:-1]) ** 2
    return JacobiCoefficients(
        np.asarray(a * s, dtype=float), np.asarray(b * s * s, dtype=float)
    )


def jacobi_from_moments(
    moments: MomentSequence, n: int, tol: float = DEFAULT_RANK_TOL
) -> JacobiCoefficients:
    """Recurrence coefficients from moments m_0 .. m_(2n-1), off the two
    diagonals of `hankel_factor(moments, n)`.  A pivot below tol (relative
    to m_0 = 1 after rescaling) cuts the rank; a pivot below -tol raises
    InvalidMomentsError, a certificate of no moment sequence."""
    return _rank_cut(hankel_factor(moments, n), n, tol)


def measure_from_jacobi(jc: JacobiCoefficients) -> DiscreteMeasure:
    """Spectral measure of the Jacobi matrix at the first basis vector.

    The symmetrized tridiagonal matrix with diagonal a and off-diagonal
    sqrt(b) has the recovered atoms as eigenvalues; the weight of each atom
    is the squared first component of its unit eigenvector, so the weights
    sum to 1 by orthonormality of the eigenbasis.
    """
    off = np.sqrt(jc.b)
    jacobi = np.diag(jc.a) + np.diag(off, 1) + np.diag(off, -1)
    try:
        atoms, vecs = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"tridiagonal eigensolver failed: {exc}", stage="measure_from_jacobi"
        ) from exc
    first = vecs[0] ** 2
    weights = first / np.sum(first)
    keep = weights > 0.0
    return DiscreteMeasure(atoms[keep], weights[keep])


@dataclass(frozen=True)
class RecoveryReport:
    """Structured diagnostics for one moment-recovery run; the recovered
    rank is that of its `coefficients`."""

    measure: DiscreteMeasure
    coefficients: JacobiCoefficients
    moment_errors: np.ndarray

    def __post_init__(self):
        err = np.asarray(self.moment_errors, dtype=float)
        err.setflags(write=False)
        object.__setattr__(self, "moment_errors", err)


def recover_measure_detailed(
    moments: MomentSequence | HankelFactor,
    max_support: int,
    tol: float = DEFAULT_RANK_TOL,
) -> RecoveryReport:
    """Discrete measure reproducing the given moments, rank-truncated at
    tol, with diagnostics: the one entry point of recovery.

    Chooses the largest tractable Hankel order given the available moments
    and the requested support bound, extracts the recurrence, and
    diagonalizes.  `moments` is a moment sequence, or its `hankel_factor`,
    which is then read and not computed again: the order is capped by the
    factor's.  The scaled Cholesky pivots both reject non-moments and
    truncate the rank, as `jacobi_from_moments` says.  The report's moment
    errors cover the Gauss-exactness range k <= 2 rank - 1, which the
    recovered Gauss rule reproduces by construction: they read recovery's
    rounding, not how well the measure fits the moments.
    """
    _require_int("max_support", max_support)
    if max_support < 1:
        raise ValueError("max_support must be at least 1")
    hf = moments
    if not isinstance(hf, HankelFactor):
        hf = hankel_factor(moments, min(max_support, (moments.order + 1) // 2))
    jc = _rank_cut(hf, min(max_support, hf.factor.shape[1]), tol)
    mu = measure_from_jacobi(jc)
    upto = min(2 * jc.rank - 1, hf.moments.order)
    want = np.asarray(hf.moments.values[: upto + 1], dtype=float)
    got = mu.atoms ** np.arange(upto + 1)[:, None] @ mu.weights
    errs = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = float(np.max(errs))
    if worst > 10.0 * tol:
        log.warning(
            "recovered measure reproduces moments to %.3e only (rank %d)",
            worst, jc.rank,
        )
    return RecoveryReport(mu, jc, errs)
