"""Contour representations of Stieltjes transforms, and moments from them.

A closed contour in the z plane together with samples of G on it determines
every moment of the underlying measure by residue calculus; so does the
inverse moment map along a curve that winds once about m = 0, by Lagrange
inversion.  The contour is then the image sigma = Minv(m) of that curve,
and the curve is a circle about 0 in the m plane or the image m = M(z) of
a z contour of another measure.  This module discretizes the Lagrange
rule by the trapezoid rule, with the residue rule for the mass m_0 alone,
and chooses that circle and that z contour.  The pipeline builds the
sampled contour, G = (1 + m) / sigma on the nodes sigma.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoContourError, NoisyContourError
from .measures import MarchenkoPastur, MomentSequence, _require_int

__all__ = [
    "ContourRepresentation",
    "ContourMoments",
    "moments_from_z_contour",
    "choose_m_contour",
    "circle_nodes",
    "z_contour_nodes",
]

log = logging.getLogger(__name__)

# relative radial clearance the m contour keeps from every branch point
SLIT_MARGIN = 0.1
# the z ellipse's margin past its real extent, relative to the extent's
# width on each side, and its least half-height, relative to that width
Z_MARGIN = 0.05
# columns of the contour CSV written by `to_csv` and read by `from_csv`
CSV_HEADER = ("t_index", "re_sigma", "im_sigma", "re_value", "im_value")


def _as_complex_nodes(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ContourRepresentation:
    """Sampled closed contour sigma(t_j) with transform values on the
    nodes.

    One period is stored without repeating the first node; the wrap-around
    is implied.  Its orientation is not checked here: the moment rule's
    mass check reads it, as a contour run the other way about the support
    sums its residues to -1.
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
            writer.writerow(CSV_HEADER)
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
        """Read nodes written by `to_csv`; ValueError names a malformed line.

        The `t_index` column must count 0, 1, 2, ... in file order.
        """
        sigmas = []
        vals = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(h.strip() for h in header) != CSV_HEADER:
                raise ValueError(f"{path} line 1: unexpected header {header}")
            for row in filter(None, reader):  # blank lines are skipped
                where = f"{path} line {reader.line_num}"
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"{where}: not 5 fields")
                if row[0].strip() != str(len(sigmas)):
                    raise ValueError(
                        f"{where}: t_index {row[0]!r}, expected {len(sigmas)}"
                    )
                try:
                    re_s, im_s, re_v, im_v = map(float, row[1:])
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                sigmas.append(complex(re_s, im_s))
                vals.append(complex(re_v, im_v))
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


def moments_from_z_contour(
    rep: ContourRepresentation, dm: np.ndarray, K: int
) -> ContourMoments:
    """Moments m_0..m_K of a measure from its inverse moment map on `rep`.

    `rep` holds an even number n of equispaced nodes sigma = Minv(m),
    winding once counterclockwise about the measure's support, with
    values G = (1 + m) / sigma, and `dm` the derivative of m in the node
    angle.  The nodes m wind once clockwise about 0 where the inverse
    branch is single valued: a circle about 0, or M(Gamma) for a z
    contour Gamma of another measure whose moment map M is univalent
    outside it.  Lagrange inversion reads m_k =
    (1/2 pi i k) of Minv(m)^k dm = mean(i dm sigma^k) / k for k >= 1;
    m_0 is the residue sum (1/2 pi i) of G dsigma, with dsigma the
    spectral derivative of the nodes.  `half_gap` is the largest
    distance, scaled by max(1, |m_k|), to the same sums over the n/2 even
    nodes: the coarser rule's error estimate, which bounds the full
    one's.  Real measures have real moments, so the worst imaginary part
    across orders, scaled by max(1, |m_k|), is `imag_residue`.  A residue
    at or above 1e-6, or a mass m_0 off 1 by more than 1e-6, means the
    contour does not faithfully enclose a probability measure, and
    raises NoisyContourError.  A contour run the other way reads
    m_0 = -1, so the mass check also reads the orientation.
    """
    if K < 1:
        raise ValueError("need at least orders 0 and 1")
    sigma = rep.sigma
    if dm.shape != sigma.shape or sigma.size % 2:
        raise ValueError("dm must match an even number of contour nodes")
    n = sigma.size
    # m_k = mean(i dm sigma^k) / k for k = 1..K by one running product,
    # over all and even nodes
    sums = np.empty((2, K + 1), dtype=complex)
    sums[:, 0] = np.sum(rep.values * _parametric_derivative(sigma)) / (1j * n)
    g = 1j * dm
    for k in range(1, K + 1):
        g *= sigma
        sums[:, k] = np.add.reduce(g), np.add.reduce(g[::2])
    sums[:, 1:] /= np.outer([n, n // 2], np.arange(1, K + 1))
    full, half = sums
    scale = np.maximum(1.0, np.abs(full.real))
    gap = np.max(np.abs(full - half) / scale)
    residue = float(np.max(np.abs(full.imag) / scale))
    if residue >= 1e-6:
        raise NoisyContourError(
            f"imaginary moment residue {residue:.3e} exceeds 1e-6",
            stage="moments_from_z_contour",
            diagnostics={"imag_residue": residue},
        )
    if abs(full[0].real - 1.0) > 1e-6:
        raise NoisyContourError(
            f"contour mass {full[0].real:.9f} is not 1; the contour misses "
            "support or the transform values are unreliable",
            stage="moments_from_z_contour",
            diagnostics={"mass": float(full[0].real)},
        )
    return ContourMoments(MomentSequence(full.real), residue, float(gap))


def choose_m_contour(free: float, c: float) -> tuple[float, str]:
    """Radius of a circle about 0 in the m plane, and the bound that sets it.

    `free` is the radius of the slit-free disk about 0, as
    `inversion.slit_free_radius` reads it off the branch points (inf when
    there are none).  The radius is (1 - SLIT_MARGIN) free (`slit`),
    capped at 1 (`unit_cap`) and then at 0.5 / c (`mp_pole`, only when
    strictly below): the circle keeps a relative SLIT_MARGIN of radial
    clearance from every slit, which bounds the convergence ratio
    r / free of the trapezoid rule on it by 1 - SLIT_MARGIN, and half the
    distance to the S_MP pole at m = -1/c for aspect ratio c.  An aspect
    ratio outside (0, 1) or a NaN `free` raises ValueError.
    """
    c = MarchenkoPastur(c).c
    if np.isnan(free):
        raise ValueError("the slit-free radius is NaN")
    # cap of 1 for conditioning: larger radii inflate high-order powers
    radius = min((1.0 - SLIT_MARGIN) * free, 1.0)
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

    Nodes sit at half-integer angles 2 pi (j + 1/2) / n.  The first n/2
    are the upper half, and the rest their conjugates in reverse order,
    with the real node -radius between them when n is odd: the set is
    conjugate-symmetric to the bit.
    """
    _require_int("n", n)
    if n < 16:
        raise ValueError("need at least 16 contour nodes")
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    theta = 2.0 * np.pi * (np.arange(n // 2) + 0.5) / n
    upper = radius * np.exp(1j * theta)
    return np.concatenate([upper, [-radius] * (n % 2), np.conj(upper[::-1])])


def z_contour_nodes(
    atoms: np.ndarray, critical_points: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n counterclockwise nodes z of the ellipse of the z-plane rule, and
    dz/dt at them.

    The ellipse must enclose a measure's nonnegative `atoms`, the
    critical points of its moment map, and the zeros of 1 + c M(z), which
    are real and lie in (0, max atom].  Its real extent, from the lesser
    of 0 and the least Re q over the critical points q to the largest of
    the atoms and Re q, widened by Z_MARGIN of its width W on each side,
    sets the half-width a = (1/2 + Z_MARGIN) W.  The half-height b is the
    larger of Z_MARGIN W and 1.3 times the half-height that just reaches
    the farthest critical point, so every q lies inside.  The integrand of
    `moments_from_z_contour` is singular only at the atoms and at the
    zeros of 1 + c M, all real and within that extent.  When
    b <= 0.41 a, the extent lies between the foci, at distance
    sqrt(a^2 - b^2) from the centre; the integrand is then analytic in
    the node angle t on the strip |Im t| < atanh(b / a), and the
    trapezoid rule converges like ((a - b) / (a + b))^(n/2).  Nodes sit
    at half-integer angles t_j = 2 pi (j + 1/2) / n, as in `circle_nodes`.
    """
    _require_int("n", n)
    if n < 16 or n % 2:
        raise ValueError("need an even number of at least 16 nodes")
    q = np.asarray(critical_points, dtype=complex)
    lo = min(0.0, np.min(q.real, initial=np.inf))
    hi = max(float(np.max(atoms)), np.max(q.real, initial=-np.inf))
    width = hi - lo
    centre = 0.5 * (lo + hi)
    a = (0.5 + Z_MARGIN) * width
    # the ellipse of half-width a about the centre through q
    reach = np.abs(q.imag) / np.sqrt(1.0 - ((q.real - centre) / a) ** 2)
    b = max(1.3 * np.max(reach, initial=0.0), Z_MARGIN * width)
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    z = centre + a * np.cos(t) + 1j * b * np.sin(t)
    return z, -a * np.sin(t) + 1j * b * np.cos(t)
