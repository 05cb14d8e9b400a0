"""Discrete spectral measures, the Marchenko-Pastur family, and exact metrics.

Everything downstream (ramification analysis, contour calculus, moment
recovery) consumes the two measure types defined here.  Conventions:

* the Cauchy-Stieltjes transform is G(z) = sum_j w_j / (z - x_j), so
  G(z) ~ 1/z at infinity and Im G < 0 on the upper half plane;
* the moment map is M(z) = z G(z) - 1 = sum_{k>=1} m_k z^{-k};
* the S-transform is S(m) = (1+m) / (m Minv(m)) with Minv the functional
  inverse of M near infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

__all__ = [
    "DiscreteMeasure",
    "MarchenkoPastur",
    "MomentSequence",
    "wasserstein_1",
]

# Atoms closer than this (relative to the atom span) are merged on input.
MERGE_REL_TOL = 1e-10
# Weights must sum to 1 within this tolerance; they are renormalized after.
WEIGHT_SUM_TOL = 1e-12
# Transform evaluation this close to an atom counts as hitting the pole.
POLE_TOL = 1e-14


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _json_numbers(data, name: str) -> np.ndarray:
    """Float array of a flat JSON array of numbers; ValueError otherwise.

    Booleans, strings and nested arrays are rejected, not converted.
    """
    if not isinstance(data, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
    ):
        raise ValueError(f"{name} must be a flat JSON array of numbers")
    try:
        return np.asarray(data, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{name}: {exc}") from exc


def _merge_close_atoms(atoms, weights):
    """Sort atoms and merge near-duplicates, adding their weights."""
    order = np.argsort(atoms)
    atoms = atoms[order]
    weights = weights[order]
    span = float(atoms[-1] - atoms[0]) if atoms.size > 1 else 0.0
    tol = MERGE_REL_TOL * span
    if not np.any(np.diff(atoms) <= tol):
        return atoms, weights
    out_a = [atoms[0]]
    out_w = [weights[0]]
    for a, w in zip(atoms[1:], weights[1:]):
        if a - out_a[-1] <= tol:
            # weighted midpoint keeps the merged atom inside the cluster
            out_w_new = out_w[-1] + w
            out_a[-1] = (out_a[-1] * out_w[-1] + a * w) / out_w_new
            out_w[-1] = out_w_new
        else:
            out_a.append(a)
            out_w.append(w)
    return np.asarray(out_a, dtype=float), np.asarray(out_w, dtype=float)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum_j w_j delta_{x_j} with strictly increasing atoms.

    Construction sorts the atoms, merges duplicates closer than
    ``MERGE_REL_TOL`` times the span (adding weights), checks that the
    weights are positive and sum to 1 within ``WEIGHT_SUM_TOL``, and then
    renormalizes the sum to exactly 1.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).ravel()
        weights = np.asarray(self.weights, dtype=float).ravel()
        if atoms.size == 0:
            raise ValueError("measure needs at least one atom")
        if atoms.size != weights.size:
            raise ValueError("atoms and weights must have equal length")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("atoms and weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > max(WEIGHT_SUM_TOL, WEIGHT_SUM_TOL * atoms.size):
            raise ValueError(f"weights sum to {total!r}, expected 1")
        atoms, weights = _merge_close_atoms(atoms, weights / total)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    # -- basic queries ----------------------------------------------------

    @property
    def n_atoms(self):
        return int(self.atoms.size)

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return np.array_equal(self.atoms, other.atoms) and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = None

    # -- transforms -------------------------------------------------------

    def stieltjes(self, z):
        """Cauchy-Stieltjes transform G(z) = sum_j w_j / (z - x_j).

        ``z`` may be a complex scalar or array.  Raises PoleError when any
        evaluation point is within ``POLE_TOL`` of an atom.
        """
        z = np.asarray(z, dtype=complex)
        d = z[..., None] - self.atoms
        if np.min(np.abs(d)) <= POLE_TOL:
            raise PoleError("stieltjes transform evaluated at an atom", stage="measure")
        out = np.sum(self.weights / d, axis=-1)
        return complex(out) if out.ndim == 0 else out

    def moment(self, k):
        """Exact k-th moment sum_j w_j x_j^k (k = 0 gives 1)."""
        if k < 0 or k != int(k):
            raise ValueError("moment order must be a nonnegative integer")
        return float(np.sum(self.weights * self.atoms ** int(k)))

    # -- distribution function --------------------------------------------

    def cdf(self, x):
        """Right-continuous distribution function at ``x`` (scalar or array)."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right")
        padded = np.concatenate([[0.0], cum])
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        """Smallest atom x with cdf(x) >= q, for q in (0, 1]."""
        q_arr = np.asarray(q, dtype=float)
        if np.any(q_arr <= 0.0) or np.any(q_arr > 1.0):
            raise ValueError("quantile levels must lie in (0, 1]")
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, q_arr, side="left")
        out = self.atoms[idx]
        return float(out) if out.ndim == 0 else out

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return json.dumps(
            {"atoms": self.atoms.tolist(), "weights": self.weights.tolist()}
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != {"atoms", "weights"}:
            raise ValueError("expected an object with 'atoms' and 'weights'")
        return cls(
            _json_numbers(data["atoms"], "atoms"),
            _json_numbers(data["weights"], "weights"),
        )


@dataclass(frozen=True)
class MomentSequence:
    """Finite sequence (m_0, m_1, ..., m_K) of raw moments with m_0 = 1.

    Long-double input is kept as given and everything else is stored as
    float64.  Recovery runs in the precision the moments arrive in, so the
    pipeline's float64 moments give the same estimate on every platform,
    while long-double moments of well separated atoms keep the high orders
    that double precision exhausts, wherever long double is wider than
    double.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values).ravel()
        if values.dtype != np.longdouble:
            values = values.astype(float)
        if values.size == 0:
            raise ValueError("moment sequence must be non-empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("moments must be finite")
        if abs(float(values[0]) - 1.0) > 1e-6:
            raise ValueError(f"m_0 = {values[0]!r}, expected 1")
        values = values.copy()
        values[0] = 1.0
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def order(self):
        """Highest moment index K."""
        return int(self.values.size - 1)

    def __getitem__(self, k):
        return float(self.values[k])

    def __len__(self):
        return int(self.values.size)

    def to_json(self):
        return json.dumps(self.values.tolist())

    @classmethod
    def from_json(cls, text):
        return cls(_json_numbers(json.loads(text), "moments"))


@dataclass(frozen=True)
class MarchenkoPastur:
    """Marchenko-Pastur law MP_c with aspect ratio c in (0, 1).

    Normalized so the mean is 1: support [(1-sqrt(c))^2, (1+sqrt(c))^2] and
    density sqrt((x-l)(r-x)) / (2 pi c x).  This is the weak limit of the
    eigenvalue distribution of (1/n) Y Y^T for a p x n standard Gaussian Y
    with p/n -> c.
    """

    c: float

    def __post_init__(self):
        c = float(self.c)
        if not (0.0 < c < 1.0):
            raise ValueError("aspect ratio c must lie in (0, 1)")
        object.__setattr__(self, "c", c)

    @property
    def lower_edge(self):
        return (1.0 - math.sqrt(self.c)) ** 2

    @property
    def upper_edge(self):
        return (1.0 + math.sqrt(self.c)) ** 2

    def stieltjes(self, z):
        """Closed-form G(z) = (z + c - 1 - sqrt(z-l) sqrt(z-r)) / (2 c z).

        The branch sqrt(z-l)*sqrt(z-r) (principal square roots) behaves like
        z at infinity, which selects the decaying solution G ~ 1/z.
        """
        z = np.asarray(z, dtype=complex)
        if np.min(np.abs(z)) <= POLE_TOL:
            raise PoleError("MP stieltjes evaluated at 0", stage="measure")
        l, r = self.lower_edge, self.upper_edge
        s = np.sqrt(z - l) * np.sqrt(z - r)
        out = (z + self.c - 1.0 - s) / (2.0 * self.c * z)
        return complex(out) if out.ndim == 0 else out


def wasserstein_1(mu, nu):
    """Exact 1-Wasserstein distance between two discrete measures.

    Computed as the integral of |F_mu - F_nu| over the merged breakpoint
    grid; both CDFs are piecewise constant so the integral is a finite sum.
    The grid is merged by a sort rather than `np.union1d`, whose
    `np.unique` imports `numpy.ma` into every process that scores a run.
    """
    pts = np.sort(np.concatenate((mu.atoms, nu.atoms)))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    if pts.size == 1:
        return 0.0
    f_mu = mu.cdf(pts[:-1])
    f_nu = nu.cdf(pts[:-1])
    return float(np.sum(np.abs(f_mu - f_nu) * np.diff(pts)))
