"""Contour representations of Stieltjes transforms, and moments from them.

A closed contour in the z plane together with samples of G on it determines
every moment of the underlying measure by residue calculus; so does the
inverse moment map on a circle about 0 in the m plane, by Lagrange
inversion.  This module discretizes both by the trapezoid rule, chooses
that circle, and maps it to a sampled G contour of the measure.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoContourError, NoisyContourError
from .measures import MomentSequence

__all__ = [
    "ContourRepresentation",
    "ContourMoments",
    "moments_from_contour",
    "moments_from_circle",
    "contour_rep_from_s",
    "choose_m_contour",
    "circle_nodes",
]

log = logging.getLogger(__name__)

# relative radial clearance the m contour keeps from every branch point
SLIT_MARGIN = 0.1


def _as_complex_nodes(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _signed_area(z: np.ndarray) -> float:
    # shoelace formula: positive for a counterclockwise polygon
    area = np.sum(np.imag(np.conj(z[:-1]) * z[1:]))
    return 0.5 * float(area + np.imag(np.conj(z[-1]) * z[0]))


@dataclass(frozen=True)
class ContourRepresentation:
    """Sampled closed counterclockwise contour sigma(t_j) with transform
    values on the nodes.

    One period is stored without repeating the first node; the wrap-around
    is implied.  A clockwise node sequence (negative signed area) is
    rejected.
    """

    sigma: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sigma = _as_complex_nodes(self.sigma, "sigma")
        values = _as_complex_nodes(self.values, "values")
        if sigma.size != values.size:
            raise ValueError("sigma and values must have matching length")
        if sigma.size < 16:
            raise ValueError("a contour needs at least 16 nodes")
        gaps = np.abs(np.diff(np.concatenate([sigma, sigma[:1]])))
        if np.any(gaps == 0.0):
            raise ValueError("contour has coincident consecutive nodes")
        if _signed_area(sigma) < 0.0:
            raise ValueError("contour runs clockwise")
        sigma.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "values", values)

    @property
    def n_nodes(self) -> int:
        return self.sigma.size

    def to_csv(self, path) -> None:
        """Write nodes as rows `t_index, re_sigma, im_sigma, re_value, im_value`.

        17 significant digits, which round-trips IEEE doubles exactly.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t_index", "re_sigma", "im_sigma", "re_value", "im_value"]
            )
            for j in range(self.sigma.size):
                writer.writerow(
                    [
                        j,
                        f"{self.sigma[j].real:.17g}",
                        f"{self.sigma[j].imag:.17g}",
                        f"{self.values[j].real:.17g}",
                        f"{self.values[j].imag:.17g}",
                    ]
                )

    @classmethod
    def from_csv(cls, path) -> "ContourRepresentation":
        """Read nodes written by `to_csv`."""
        sigmas = []
        vals = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            expected = ["t_index", "re_sigma", "im_sigma", "re_value", "im_value"]
            if [h.strip() for h in header] != expected:
                raise ValueError(f"unexpected contour CSV header: {header}")
            for row in reader:
                if not row:
                    continue
                sigmas.append(complex(float(row[1]), float(row[2])))
                vals.append(complex(float(row[3]), float(row[4])))
        return cls(np.asarray(sigmas), np.asarray(vals))


def _parametric_derivative(sigma: np.ndarray) -> np.ndarray:
    # spectral differentiation of the 2pi-periodic node parametrization;
    # nodes must be equispaced samples in t for this to hold
    n = sigma.size
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        wavenumbers[n // 2] = 0.0  # odd derivative kills the Nyquist mode
    return np.fft.ifft(1j * wavenumbers * np.fft.fft(sigma))


class ContourMoments(NamedTuple):
    moments: MomentSequence
    imag_residue: float
    half_gap: float


def _checked(sums: np.ndarray, half_gap: float, stage: str) -> ContourMoments:
    scale = np.maximum(1.0, np.abs(sums.real))
    residue = float(np.max(np.abs(sums.imag) / scale))
    if residue >= 1e-6:
        raise NoisyContourError(
            f"imaginary moment residue {residue:.3e} exceeds 1e-6",
            stage=stage,
            diagnostics={"imag_residue": residue},
        )
    if abs(sums[0].real - 1.0) > 1e-6:
        raise NoisyContourError(
            f"contour mass {sums[0].real:.9f} is not 1; the contour misses "
            "support or the transform values are unreliable",
            stage=stage,
            diagnostics={"mass": float(sums[0].real)},
        )
    return ContourMoments(MomentSequence(sums.real), residue, half_gap)


def moments_from_contour(rep: ContourRepresentation, K: int) -> ContourMoments:
    """Extract moments m_0..m_K by the trapezoid rule on a sampled G contour.

    Real measures have real moments; the worst imaginary residue across
    orders, scaled by max(1, |m_k|), is the quality diagnostic.  A residue
    at or above 1e-6, or a mass off 1 by more than 1e-6, means the contour
    does not faithfully enclose a probability measure.  `half_gap` is inf.
    """
    if K < 1:
        raise ValueError("need at least orders 0 and 1")
    sigma = rep.sigma
    # sigma^k values dsigma for k = 0..K by one running product
    g = rep.values * _parametric_derivative(sigma)
    sums = np.empty(K + 1, dtype=complex)
    for k in range(K + 1):
        sums[k] = np.add.reduce(g)
        np.multiply(g, sigma, out=g)
    sums /= 1j * sigma.size
    return _checked(sums, float("inf"), "moments_from_contour")


def moments_from_circle(m: np.ndarray, z: np.ndarray, K: int) -> ContourMoments:
    """Moments m_0..m_K from z = Minv(m) on a counterclockwise circle.

    `m` holds an even number n of equispaced nodes on a circle about 0
    where the inverse branch is single valued.  By Lagrange inversion
    m_k = (1/2 pi i k) of Minv(m)^k dm, whose trapezoid rule is
    mean(m z^k) / k for k >= 1; m_0 is the rule of `moments_from_contour`
    on the clockwise image contour z.  `half_gap` is the largest distance,
    scaled by max(1, |m_k|), to the same sums over the n/2 even nodes:
    the error estimate of the coarser rule, which bounds the full one's.
    Residue and mass are checked as in `moments_from_contour`.
    """
    if K < 1:
        raise ValueError("need at least orders 0 and 1")
    if m.shape != z.shape or m.ndim != 1 or m.size % 2:
        raise ValueError("m and z must be matching arrays of even length")
    n = m.size
    sums = np.empty((2, K + 1), dtype=complex)
    sums[:, 0] = -np.sum((1.0 + m) / z * _parametric_derivative(z)) / (1j * n)
    # m z^k for k = 1..K by one running product, over all and even nodes
    g = m.astype(complex)
    for k in range(1, K + 1):
        g *= z
        sums[:, k] = np.add.reduce(g), np.add.reduce(g[::2])
    sums[:, 1:] /= np.outer([n, n // 2], np.arange(1, K + 1))
    full, half = sums
    gap = np.max(np.abs(full - half) / np.maximum(1.0, np.abs(full.real)))
    return _checked(full, float(gap), "moments_from_circle")


def contour_rep_from_s(
    s_values: Sequence[complex], m_contour: Sequence[complex]
) -> ContourRepresentation:
    """Build a sampled G contour of a measure from its S-transform values.

    `s_values[j]` is the S-transform at the node `m_contour[j]`.  Each node
    m on a closed m-plane contour around 0 maps to z = (1+m)/(m s(m)),
    where M(z) = m, hence G(z) = (1+m)/z on the image contour.  The image
    of a counterclockwise m circle winds clockwise around the support
    (z ~ m_1/m near 0), so nodes are reversed when needed to hand back a
    counterclockwise representation.
    """
    m = _as_complex_nodes(m_contour, "m_contour")
    if np.any(m == 0.0):
        raise ValueError("m = 0 is the pole of the inverse moment map")
    s = np.asarray(s_values, dtype=complex)
    if s.shape != m.shape:
        raise ValueError(
            f"S values of shape {s.shape} do not match the {m.size} nodes"
        )
    z = (1.0 + m) / (m * s)
    g = (1.0 + m) / z
    if _signed_area(z) < 0.0:
        z = z[::-1]
        g = g[::-1]
    return ContourRepresentation(z, g)


def choose_m_contour(
    branch_points_upper: np.ndarray, c: float
) -> tuple[float, str]:
    """Radius of a circle about 0 in the m plane, and the bound that sets it.

    The slits are vertical rays away from the real axis, starting at the
    upper branch points b and their conjugates, so every point of the slit
    of b lies at |m| >= |b|.  The radius is (1 - SLIT_MARGIN) min |b|
    (`slit`), capped at 1 (`unit_cap`) and then at 0.5 / c (`mp_pole`, only
    when strictly below): the circle keeps a relative SLIT_MARGIN of radial
    clearance from every branch point, which bounds the convergence ratio
    r / min |b| of the trapezoid rule on it by 1 - SLIT_MARGIN, and half
    the distance to the S_MP pole at m = -1/c for aspect ratio c.
    """
    bp = np.asarray(branch_points_upper, dtype=complex)
    bounds = (1.0 - SLIT_MARGIN) * np.abs(bp)
    # cap of 1 for conditioning: larger radii inflate high-order powers
    radius = float(np.min(bounds, initial=1.0))
    if radius < 1e-8:
        raise NoContourError(
            "no circle around 0 clears the branch slits; a branch point "
            "sits too close to the origin",
            stage="choose_m_contour",
            diagnostics={"radius": radius},
        )
    limiter = "slit" if radius < 1.0 else "unit_cap"
    if 0.5 / c < radius:
        radius, limiter = 0.5 / c, "mp_pole"
    log.debug("m contour radius %.6g, set by %s", radius, limiter)
    return radius, limiter


def circle_nodes(radius: float, n: int) -> np.ndarray:
    """n counterclockwise nodes on the circle |m| = radius.

    Nodes sit at half-integer angles 2 pi (j + 1/2) / n, which keeps the
    set conjugate-symmetric; for even n no node is real and the first n/2
    nodes are the upper half.
    """
    if n < 16:
        raise ValueError("need at least 16 contour nodes")
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return radius * np.exp(1j * theta)

