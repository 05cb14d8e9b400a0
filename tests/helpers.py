"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written against definitions only (power
sums, polynomial roots, quadrature, brentq), never by calling back into
the code paths under test, so agreement between a helper and the library
is evidence and not a tautology.  The cross-checks at the end (zeros of
the second kind, the Markov-Krein pair, injectivity on a contour, winding
numbers) evaluate the moment map through `moment_map` here, and its
derivative through `moment_map_derivative`.  `injectivity_radius` is
the radius the lift's sheet guard takes from the pole-major arrays of
`inversion._correct`, written out from the distances to the atoms.

Three references sit on top of library code on purpose: `s_transform`
composes the library's lift, `contour_moment` shares the spectral
derivative that `moments_from_z_contour` takes its mass by, and
`qz_critical_points` shares the Newton polish and the certificate;
`mp_critical_points` stands in for it where its roots fail that
certificate.  `lagrange_sums` checks the running product and the
even-node rule of `moments_from_z_contour`, and `deconvolved_moment_series`
computes the estimate's moments from the input's in 60-digit arithmetic,
with no contour at all; `forward_moment_series` runs the same series
forward, from a population's moments to those of its sample spectrum.
`inverse_moment_series` reverts the moment series in 60-digit arithmetic,
for the Taylor coefficients of m Minv(m) that seed the lift.

Three references were library members that only the tests called, and
moved here with their bodies unchanged: `moment_map(mu, z)` was
`DiscreteMeasure.moment_map`, `mp_s_transform(c, m)` was
`MarchenkoPastur.s_transform`, and `moments_of(mu, order, dtype)` was
`MomentSequence.of_measure`.  The last one's long-double option feeds the
recovery tests that need more than double precision in their input.

`sweep_draws` regenerates the inputs of the uniform and the wide sweep
of sampled spectra, and `near_one_draws` the measures of the near-c = 1
set.  `run_fresh` runs a script in a new interpreter, for
checks on what a process loads or holds.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.spatial import cKDTree

import freedeconv
from freedeconv import contours, inversion
from freedeconv.errors import PoleError
from freedeconv.experiments import ToeplitzPopulation, _multiplicities
from freedeconv.measures import POLE_TOL, DiscreteMeasure, MomentSequence


def rand_measure(rng, l_max, lo=0.1, hi=10.0, min_gap=0.0, w_lo=0.2):
    """Random measure with 1..l_max atoms in [lo, hi] and positive weights.

    With min_gap > 0 the draw is rejected until consecutive atoms are at
    least min_gap apart; the rejection loop redraws atoms only, so the
    generator stream stays aligned with the no-gap variant on accepted
    first draws.
    """
    l = int(rng.integers(1, l_max + 1))
    while True:
        atoms = np.sort(rng.uniform(lo, hi, l))
        if l == 1 or min_gap == 0.0 or np.min(np.diff(atoms)) >= min_gap:
            break
    w = rng.uniform(w_lo, 1.0, l)
    return DiscreteMeasure(atoms, w / w.sum())


SWEEP_SEED = 20261019
SWEEP_P = 100


def sweep_draws(kind):
    """The 400 draws (population, c, n, seed) of the uniform or wide sweep.

    Each draw takes, in this order from one default_rng(SWEEP_SEED), a
    population, c = uniform(0.05, 0.95) with n = round(SWEEP_P / c), and
    the seed `sample_spectrum` draws the SWEEP_P x n sample with.  The
    uniform population is `rand_measure(rng, 5, 0.2, 10.0)`.  The wide one
    has L = integers(2, 6) atoms, exp of uniform(0, log spread) draws with
    spread = 10^uniform(1, 3), and weights uniform(0.2, 1), normalized.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(400):
        if kind == "uniform":
            nu = rand_measure(rng, 5, 0.2, 10.0)
        else:
            l = int(rng.integers(2, 6))
            spread = 10.0 ** rng.uniform(1, 3)
            atoms = np.sort(np.exp(rng.uniform(0, np.log(spread), l)))
            w = rng.uniform(0.2, 1, l)
            nu = DiscreteMeasure(atoms, w / w.sum())
        c = rng.uniform(0.05, 0.95)
        yield nu, c, round(SWEEP_P / c), int(rng.integers(2**30))


def near_one_draws():
    """The 200 measures and aspect ratios (mu, c) of the near-c = 1 set.

    Each draw takes, in this order from one default_rng(SWEEP_SEED),
    L = integers(2, 6) atoms uniform(1, 5), weights uniform(0.1, 1),
    normalized, and c = uniform(0.7, 0.95).  The measure is the input mu
    itself: nothing is sampled.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    for _ in range(200):
        l = int(rng.integers(2, 6))
        atoms = rng.uniform(1, 5, l)
        w = rng.uniform(0.1, 1, l)
        yield DiscreteMeasure(atoms, w / w.sum()), rng.uniform(0.7, 0.95)


def conditioned_measure(seed):
    """Well-separated random measure for exact moment-recovery roundtrips.

    Atom counts up to 7 on a jittered equispaced layout spanning most of
    [0.1, 10]: the layout keeps the Vandermonde/Hankel conditioning inside
    the regime where double-precision recovery resolves atoms and weights
    to 1e-8 (measured worst error 2.9e-10 over seeds 1..100 and stable
    across disjoint seed blocks).  Tighter jitter and weight floors for
    larger L keep the smallest eigenvalue gap bounded.
    """
    rng = np.random.default_rng(seed)
    l = int(rng.integers(1, 8))
    lo = rng.uniform(0.1, 0.3)
    hi = rng.uniform(9.5, 10.0)
    if l <= 4:
        jit, w_lo = 0.10, 0.3
    elif l <= 6:
        jit, w_lo = 0.05, 0.5
    else:
        jit, w_lo = 0.02, 0.7
    if l == 1:
        atoms = np.array([rng.uniform(0.1, 10.0)])
    else:
        gap = (hi - lo) / (l - 1)
        atoms = np.linspace(lo, hi, l) + rng.uniform(-jit, jit, l) * gap
    w = rng.uniform(w_lo, 1.0, l)
    return DiscreteMeasure(atoms, w / w.sum())


def is_conjugate_symmetric(sigma, values, rtol=1e-10):
    """True iff the node set is closed under conjugation, with
    conjugate-symmetric values, to `rtol` relative tolerance.

    Every contour of a real measure has this symmetry.  Each node is
    paired with the nearest candidate for its conjugate; sorting tricks
    break down when conjugate partners carry 1e-16 jitter in the
    tie-breaking coordinate.
    """
    sigma = np.asarray(sigma, dtype=complex)
    values = np.asarray(values, dtype=complex)
    scale = max(float(np.max(np.abs(sigma))), 1.0)
    tree = cKDTree(np.column_stack([sigma.real, sigma.imag]))
    dist, idx = tree.query(np.column_stack([sigma.real, -sigma.imag]))
    if np.max(dist) > rtol * scale:
        return False
    vscale = max(float(np.max(np.abs(values))), 1.0)
    return bool(np.max(np.abs(values[idx] - np.conj(values))) <= rtol * vscale)


def moment_map(mu, z):
    """M(z) = z G(z) - 1 = sum_j w_j x_j / (z - x_j)."""
    z = np.asarray(z, dtype=complex)
    d = z[..., None] - mu.atoms
    if np.min(np.abs(d)) <= POLE_TOL:
        raise PoleError("moment map evaluated at an atom", stage="measure")
    out = np.sum(mu.weights * mu.atoms / d, axis=-1)
    return complex(out) if out.ndim == 0 else out


def mp_pole_preimage(mu, c):
    """The root z* in (0, min atom) of 1 + c M(z), the preimage of the
    S_MP pole -1/c, by brentq on the definition of M; mu's atoms must be
    positive."""
    return brentq(
        lambda t: 1.0 + c * moment_map(mu, t).real,
        0.0, mu.atoms[0] * (1.0 - 1e-12), xtol=1e-300, rtol=1e-15,
    )


def moment_map_derivative(mu, z):
    """M'(z) = - sum_j w_j x_j / (z - x_j)^2."""
    z = np.asarray(z, dtype=complex)
    d = z[..., None] - mu.atoms
    if np.min(np.abs(d)) <= 1e-14:
        raise PoleError("derivative evaluated at an atom", stage="measure")
    out = -np.sum(mu.weights * mu.atoms / d**2, axis=-1)
    return complex(out) if out.ndim == 0 else out


def qz_critical_points(mu):
    """Critical points of M by QZ, a reference for `critical_points`.

    They are the finite eigenvalues of the real (2L+1)-square pencil
    ([[A, b], [u^T, 0]], diag(1, ..., 1, 0)) with the Jordan blocks, b and
    u of `critical_points`, whose transfer function is -M' (Emami-Naeini &
    Van Dooren, Automatica 1982), polished by the library's Newton steps.
    Returns the roots and whether each passes the residual certificate.
    """
    x, c = inversion._effective_poles(mu)
    n = 2 * x.size
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = np.diag(np.repeat(x, 2))
    P[np.arange(0, n, 2), np.arange(1, n, 2)] = 1.0
    P[1:n:2, n] = 1.0
    P[n, 0:n:2] = c
    Q = np.diag(np.append(np.ones(n), 0.0))
    alpha, beta = scipy.linalg.eig(P, Q, right=False, homogeneous_eigvals=True)
    finite = beta != 0.0
    roots = inversion._newton_polish(alpha[finite] / beta[finite], x, c)
    return roots, inversion._certify(roots, x, c)


def mp_critical_points(mu, dps=80):
    """Critical points of M as the roots of its cleared numerator, at `dps`
    digits, a reference for `critical_points` independent of QZ.

    M'(z) = 0 exactly where sum_j c_j prod_{i != j} (z - x_i)^2 = 0, with
    c_j = w_j x_j; the atoms and residues enter exactly as the doubles
    they are, and `mpmath.polyroots` solves the polynomial.
    """
    x, c = inversion._effective_poles(mu)
    with mpmath.workdps(dps):
        num = [mpmath.mpf(0)] * (2 * x.size - 1)
        for j in range(x.size):
            # coefficients, highest first, times (z - x_i)^2 for i != j
            poly = [mpmath.mpf(1)]
            for xi in np.delete(x, j):
                quad = [1, -2 * mpmath.mpf(xi), mpmath.mpf(xi) ** 2]
                poly = [
                    sum(poly[k - d] * quad[d] for d in range(3)
                        if 0 <= k - d < len(poly))
                    for k in range(len(poly) + 2)
                ]
            num = [a + mpmath.mpf(c[j]) * b for a, b in zip(num, poly)]
        roots = mpmath.polyroots(num, maxsteps=500, extraprec=4 * dps)
    return np.array([complex(r) for r in roots])


def moment_map_roots(mu, m):
    """All finite solutions of M_mu(z) = m via the cleared polynomial.

    sum_j w_j x_j prod_{k != j} (z - x_k) = m prod_k (z - x_k); degree is
    the atom count, matching the cover degree of the moment map.
    """
    x, w = mu.atoms, mu.weights
    coeffs = -m * np.asarray(np.poly(x), dtype=complex)
    for j in range(x.size):
        coeffs[1:] += w[j] * x[j] * np.poly(np.delete(x, j))
    return np.roots(coeffs)


def branch_by_eigenvalues(mu, targets, steps=500):
    """Reference Minv, the branch with Minv(0) = infinity, at each target.

    The roots of M(w) = m are the eigenvalues of diag(x) + c 1^T / m, where
    c_j = w_j x_j.  Along the ray s*m the root nearest m_1/(s m) at
    s = 1e-4 is followed by nearest-root steps: 100 geometric ones up to
    s = 0.5, then `steps` equal ones up to 1.  Near a branch point at
    distance d, a step dm moves the root by about |dm| / (4 d) of its
    distance to the nearest other root: under 0.2 for 500 steps to a
    target at 0.995 of the free radius.  Three Newton steps on the last
    root restore the accuracy its eigenvalue loses near a branch point;
    the tracking, not the polish, chooses the sheet.
    """
    m = np.asarray(targets, dtype=complex)
    x, c = mu.atoms, mu.weights * mu.atoms
    s_grid = np.concatenate([
        np.geomspace(1e-4, 0.5, 100, endpoint=False),
        np.linspace(0.5, 1.0, steps),
    ])
    w = mu.moment(1) / (s_grid[0] * m)
    rows = np.arange(m.size)
    for s in s_grid:
        a = np.diag(x) + c[None, :, None] / (s * m)[:, None, None]
        roots = np.linalg.eigvals(a)
        w = roots[rows, np.argmin(np.abs(roots - w[:, None]), axis=1)]
    for _ in range(3):
        w = w - (moment_map(mu, w) - m) / moment_map_derivative(mu, w)
    return w


def reference_march(mu, targets, free):
    """Reference Minv at each target by a fixed-pace march in w along s*m.

    A slow, simple march to hold `inversion.lift_many` against: from
    w = m_1/(s m) + m_2/m_1 at s0 = min(1e-3 / max|m|, 0.1), Euler steps
    in w capped at 0.15 s, starting at (1 - s0)/64, doubled after four
    steps that needed no correction up to (1 - s0)/16 and halved when any
    node fails the residual 1e-12 after 20 Newton steps; one polish step
    at s = 1.  Its
    own Newton corrector works on the definition of M, so agreement with
    the library is evidence.  Raises AssertionError when the step
    underflows or a target leaves the slit-free disk of radius `free`.
    """
    m = np.asarray(targets, dtype=complex)
    assert np.all(np.abs(m) < free)
    x, c = mu.atoms, mu.weights * mu.atoms

    def correct(w, target, polish):
        with np.errstate(all="ignore"):
            for it in range(1, 22):
                t = c / (w[:, None] - x)
                f = np.sum(t, axis=1) - target
                d = -np.sum(t / (w[:, None] - x), axis=1)
                if it > 20 or np.all(np.abs(f) <= 1e-12):
                    break
                w = w - f / d
            if polish:
                w2 = w - f / d
                f2 = np.sum(c / (w2[:, None] - x), axis=1) - target
                w = np.where(np.abs(f2) <= np.abs(f), w2, w)
        return w, np.all(np.abs(f) <= 1e-12) and np.all(np.isfinite(w)), d, it

    r_max = float(np.max(np.abs(m)))
    s = min(1e-3 / r_max, 0.1)
    m1 = mu.moment(1)
    w, ok, d, _ = correct(m1 / (s * m) + mu.moment(2) / m1, s * m, False)
    assert ok, "asymptotic seed did not converge"
    h, h_cap = (1.0 - s) / 64.0, (1.0 - s) / 16.0
    easy = 0
    while s < 1.0:
        ds = min(h, 1.0 - s, 0.15 * s)
        s_next = 1.0 if ds >= 1.0 - s else s + ds
        with np.errstate(all="ignore"):
            guess = w + (s_next - s) * m / d
        w_new, ok, d_new, evals = correct(guess, s_next * m, s_next == 1.0)
        if ok:
            s, w, d = s_next, w_new, d_new
            easy = easy + 1 if evals <= 1 else 0
            if easy >= 4:
                h, easy = min(2.0 * h, h_cap), 0
        else:
            h, easy = 0.5 * h, 0
            assert h * r_max >= 1e-9, "reference march step underflow"
    return w


def s_transform(mu, m, free):
    """Reference S(m) = (1 + m) / (m Minv(m)) for one m in the slit-free
    disk of radius `free`, from the library's lift of that one target."""
    m = complex(m)
    return (1.0 + m) / (m * complex(inversion.lift_many(mu, [m], free)[0]))


def slit_distance(branch_points_upper, m):
    """Euclidean distance from m to the slit set of the upper branch points.

    The slits are the vertical rays {Re b + i t : |t| >= Im b}, one
    conjugate pair per branch point b; inf when there are none.  The general
    geometry that `slit_free_radius` specializes to m = 0.
    """
    bp = np.asarray(branch_points_upper, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if bp.size == 0:
        return np.full(m.shape, np.inf)[()]
    dx = np.abs(m[..., None].real - bp.real)
    dy = np.maximum(bp.imag - np.abs(m[..., None].imag), 0.0)
    return np.min(np.hypot(dx, dy), axis=-1)[()]


def contour_moment(rep, k):
    """Reference k-th moment functional (1/2pi i) of z^k G(z) dz.

    The trapezoid sum over the contour's nodes with the spectral derivative
    of sigma(t), each order's power sigma^k formed on its own: the residue
    rule, which checks the moments of a sampled G contour apart from the
    Lagrange rule of `moments_from_z_contour`.  For exact values of G of a
    measure supported inside the contour the result is the k-th moment up
    to the quadrature error, which falls faster than any power of the node
    count.
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    dsigma = contours._parametric_derivative(rep.sigma)
    integrand = rep.sigma**k * rep.values * dsigma
    return complex(np.sum(integrand) / (1j * rep.sigma.size))


def lagrange_sums(m, z, K):
    """Reference sums mean(m z^k) / k, k = 1..K, over all and the even nodes.

    With m equispaced on a circle about 0 and z = Minv(m), these are the
    trapezoid rules for the Lagrange inversion formula
    m_k = (1/2pi i k) of Minv(m)^k dm, on the n nodes and on the n/2 even
    ones.  The full sums are the same in either direction of the nodes;
    which half is even follows their order.  Each order's power z^k is
    formed on its own.  Returns the two complex arrays (full, even).
    """
    m = np.asarray(m, dtype=complex)
    z = np.asarray(z, dtype=complex)
    full = np.array([np.mean(m * z**k) / k for k in range(1, K + 1)])
    even = np.array(
        [np.mean(m[::2] * z[::2] ** k) / k for k in range(1, K + 1)]
    )
    return full, even


def deconvolved_moment_series(mu, c, K, dps=60):
    """Moments m_0..m_K of nu with mu = nu boxtimes MP_c, by the series.

    With psi(z) = sum_{k >= 1} m_k z^k, S_mu = S_nu S_MP and
    S_MP(m) = 1 / (1 + c m) give psi_mu(z) = psi_nu(u(z)) with
    u(z) = z (1 + c psi_mu(z)).  Comparing coefficients of z^k,
    m^nu_k = m^mu_k - sum_{j < k} m^nu_j [z^k] u^j: a unit lower
    triangular solve.  It runs in mpmath at `dps` digits on the moments
    of mu's atoms and weights, and returns floats.
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(a)) for a in mu.atoms]
        w = [mpmath.mpf(float(b)) for b in mu.weights]
        c = mpmath.mpf(float(c))
        a = [
            mpmath.fsum(wi * xi**k for wi, xi in zip(w, x))
            for k in range(K + 1)
        ]
        u = [0, 1] + [c * a[k - 1] for k in range(2, K + 1)]
        # powers[j][k] = [z^k] u^j, truncated after z^K
        powers = [[mpmath.mpf(1)] + [mpmath.mpf(0)] * K]
        for _ in range(K):
            prev = powers[-1]
            powers.append(
                [
                    mpmath.fsum(prev[i] * u[k - i] for i in range(k + 1))
                    for k in range(K + 1)
                ]
            )
        nu = [mpmath.mpf(1)]
        for k in range(1, K + 1):
            tail = mpmath.fsum(nu[j] * powers[j][k] for j in range(1, k))
            nu.append(a[k] - tail)
        return np.array([float(v) for v in nu])


def forward_moment_series(nu, c, K, dps=60):
    """Moments m_0..m_K of mu = nu boxtimes MP_c, by the series.

    The identity of `deconvolved_moment_series` read forward:
    m^mu_k = m^nu_k + sum_{j < k} m^nu_j [z^k] u^j, with
    u(z) = z (1 + c psi_mu(z)).  [z^k] u^j needs only m^mu_1 .. m^mu_(k-1),
    so the power table fills column by column.  It runs in mpmath at `dps`
    digits on the moments of nu's atoms and weights, and returns floats.
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(a)) for a in nu.atoms]
        w = [mpmath.mpf(float(b)) for b in nu.weights]
        c = mpmath.mpf(float(c))
        a = [
            mpmath.fsum(wi * xi**k for wi, xi in zip(w, x))
            for k in range(K + 1)
        ]
        mu = [mpmath.mpf(1)]
        u = [mpmath.mpf(0), mpmath.mpf(1)]
        # powers[j][k] = [z^k] u^j; u has no constant term, so it is 0
        # for j > k
        powers = [[mpmath.mpf(1)] + [mpmath.mpf(0)] * K]
        powers += [[mpmath.mpf(0)] * (K + 1) for _ in range(K)]
        for k in range(1, K + 1):
            if k >= 2:
                u.append(c * mu[k - 1])
            for j in range(1, k + 1):
                powers[j][k] = mpmath.fsum(
                    powers[j - 1][i] * u[k - i] for i in range(k)
                )
            tail = mpmath.fsum(a[j] * powers[j][k] for j in range(1, k))
            mu.append(a[k] + tail)
        return np.array([float(v) for v in mu])


def inverse_moment_series(mu, K, dps=60):
    """Coefficients phi_0..phi_K of phi(m) = m Minv(m) about m = 0.

    With t = 1/z the moment map is M(t) = sum_{k >= 1} m_k t^k, and its
    compositional inverse T(m) = sum_{k >= 1} tau_k m^k, M(T(m)) = m, is
    1 / Minv(m); so phi = m / T.  The reversion compares coefficients of
    m^n in sum_j m_j T^j: tau_1 = 1 / m_1, and for n >= 2,
    m_1 tau_n = -sum_{2 <= j <= n} m_j [m^n] T^j, where [m^n] T^j needs
    only tau_1 .. tau_(n-1), so the power table fills column by column.
    Then phi is the reciprocal of T / m.  It runs in mpmath at `dps`
    digits on the moments m_1 .. m_(K+1) of mu's atoms and weights, and
    returns floats.
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(a)) for a in mu.atoms]
        w = [mpmath.mpf(float(b)) for b in mu.weights]
        a = [
            mpmath.fsum(wi * xi**k for wi, xi in zip(w, x))
            for k in range(K + 2)
        ]
        n_max = K + 1
        tau = [mpmath.mpf(0), 1 / a[1]]
        # powers[j][n] = [m^n] T^j, for 1 <= j <= n
        powers = [[mpmath.mpf(0)] * (n_max + 1) for _ in range(n_max + 1)]
        powers[1][1] = tau[1]
        for n in range(2, n_max + 1):
            for j in range(2, n + 1):
                powers[j][n] = mpmath.fsum(
                    powers[j - 1][i] * tau[n - i] for i in range(j - 1, n)
                )
            tail = mpmath.fsum(a[j] * powers[j][n] for j in range(2, n + 1))
            tau.append(-tail / a[1])
            powers[1][n] = tau[n]
        phi = [1 / tau[1]]
        for n in range(1, K + 1):
            tail = mpmath.fsum(
                tau[i + 1] * phi[n - i] for i in range(1, n + 1)
            )
            phi.append(-tail / tau[1])
        return np.array([float(v) for v in phi])


def crossing_count(points):
    """Number of proper self-intersections of the closed polyline.

    Plain O(n^2) segment-pair orientation test; adjacent segments and the
    closing pair are skipped.  Brute force on purpose: the production
    injectivity check must agree with an implementation too simple to
    share its bugs.
    """
    pts = np.asarray(points, dtype=complex)
    n = pts.size - 1
    count = 0
    for i in range(n):
        a, b = pts[i], pts[i + 1]
        ab = b - a
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            c, d = pts[j], pts[j + 1]
            cd = d - c
            d1 = ab.real * (c - a).imag - ab.imag * (c - a).real
            d2 = ab.real * (d - a).imag - ab.imag * (d - a).real
            d3 = cd.real * (a - c).imag - cd.imag * (a - c).real
            d4 = cd.real * (b - c).imag - cd.imag * (b - c).real
            if d1 * d2 < 0.0 and d3 * d4 < 0.0:
                count += 1
    return count


def mp_s_transform(c, m):
    """S_MP(m) = 1 / (1 + c m), the closed form certified in the tests."""
    m = np.asarray(m, dtype=complex)
    d = 1.0 + c * m
    if np.min(np.abs(d)) <= 1e-12:
        raise PoleError("S-transform pole at m = -1/c", stage="measure")
    out = 1.0 / d
    if out.ndim == 0:
        out = complex(out)
        return out.real if out.imag == 0.0 else out
    return out


def mp_density(mp, x):
    """Density sqrt((x - l)(r - x)) / (2 pi c x) of MP_c, 0 off (l, r)."""
    x = np.asarray(x, dtype=float)
    l, r = mp.lower_edge, mp.upper_edge
    inside = (x > l) & (x < r)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = np.sqrt((xs - l) * (r - xs)) / (2.0 * np.pi * mp.c * xs)
    return float(out) if out.ndim == 0 else out


def mp_moment(mp, k):
    """k-th moment of MP_c in closed form, the Narayana polynomial.

    m_k = sum over j < k of c^j/(j+1) C(k, j) C(k-1, j), and m_0 = 1.
    """
    if k == 0:
        return 1.0
    return float(
        sum(
            mp.c**j / (j + 1) * math.comb(k, j) * math.comb(k - 1, j)
            for j in range(k)
        )
    )


def mp_g_quadrature(mp, n=160):
    """Stieltjes transform of MP_c by Gauss-Legendre in the arcsine variable.

    The substitution x = m0 + h cos(theta) absorbs the square-root edge
    factors, so the rule converges geometrically.  Returns a callable of a
    real or complex z off the support.
    """
    l, r = mp.lower_edge, mp.upper_edge
    m0, h = 0.5 * (l + r), 0.5 * (r - l)
    t, wt = np.polynomial.legendre.leggauss(n)
    theta = 0.5 * np.pi * (t + 1.0)
    x = m0 + h * np.cos(theta)
    dens = np.sqrt((r - x) * (x - l)) / (2.0 * np.pi * mp.c * x)
    wdens = wt * 0.5 * np.pi * dens * h * np.sin(theta)

    def g(z):
        return complex(np.sum(wdens / (z - x)))

    return g


def mp_s_numeric(mp, m, n=160):
    """S_MP at real m by inverting the quadrature moment map with brentq.

    For m < 0 the preimage sits on the negative axis (M(0-) = -1, M -> 0
    at -infinity); for m > 0 it sits to the right of the support where M
    decreases from +infinity to 0.
    """
    g = mp_g_quadrature(mp, n)

    def f(z):
        return (z * g(z) - 1.0).real - m

    if m < 0:
        z_star = brentq(f, -10.0 / abs(m) - 10.0, -1e-9,
                        xtol=1e-14, rtol=8.9e-16)
    else:
        r = mp.upper_edge
        z_star = brentq(f, r * (1.0 + 1e-12), r + 40.0 / m + 10.0,
                        xtol=1e-14, rtol=8.9e-16)
    return (1.0 + m) / (m * z_star)


def moments_of(mu, order, dtype=float):
    """MomentSequence m_0 .. m_order of mu, in long double on request."""
    if dtype == np.longdouble:
        x = mu.atoms.astype(np.longdouble)
        w = mu.weights.astype(np.longdouble)
        powers = x[None, :] ** np.arange(order + 1, dtype=np.longdouble)[:, None]
        return MomentSequence(powers @ w)
    return MomentSequence(np.array([mu.moment(k) for k in range(order + 1)]))


def lanczos_jacobi(mu, n):
    """Three-term recurrence coefficients by direct orthogonalization.

    Runs the recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1} against the
    measure itself in extended precision, reading a_k and b_k off the
    inner products.  No Hankel matrix, no Cholesky: an independent route
    to the same coefficients.
    """
    x = mu.atoms.astype(np.longdouble)
    w = mu.weights.astype(np.longdouble)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    a_out, b_out = [], []
    b_last = np.longdouble(0.0)
    for k in range(n):
        nrm = np.sum(w * p * p)
        a = np.sum(w * x * p * p) / nrm
        a_out.append(float(a))
        if k == n - 1:
            break
        p_next = (x - a) * p - b_last * p_prev
        b_last = np.sum(w * p_next * p_next) / nrm
        b_out.append(float(b_last))
        p_prev, p = p, p_next
    return np.array(a_out), np.array(b_out)


def hankel(moments, n):
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
    """Outcome of the Hankel eigenvalue test.

    status is "valid", "rank_deficient" or "invalid"; rank is the detected
    support cardinality (n for valid, None for invalid).
    """

    status: str
    rank: int | None
    eigenvalues: np.ndarray


def is_moment_sequence(moments, n, tol=1e-8):
    """Classify the order-n Hankel matrix of the sequence by its eigenvalues.

    Eigenvalues below -tol * ||H|| mean the numbers are not moments of any
    positive measure; eigenvalues inside the +-tol band signal finite
    support of cardinality equal to the count above the band.  A route to
    positivity independent of the library's scaled Cholesky pivots.
    """
    eig = np.linalg.eigvalsh(hankel(moments, n))
    band = tol * max(float(np.max(np.abs(eig))), 1e-300)
    if eig[0] < -band:
        return MomentVerdict("invalid", None, eig)
    above = int(np.sum(eig > band))
    if above == n:
        return MomentVerdict("valid", n, eig)
    return MomentVerdict("rank_deficient", above, eig)


def second_kind_zeros(mu):
    """Real zeros of G, one per open gap between consecutive atoms.

    G is strictly decreasing between its poles, so plain bisection
    (the fastest safe option here) isolates each zero; refined to 1e-13
    relative tolerance.
    """
    x, w = mu.atoms, mu.weights
    if x.size < 2:
        return np.empty(0, dtype=float)

    def g(t):
        return float(np.sum(w / (t - x)))

    zeros = np.empty(x.size - 1)
    for j in range(x.size - 1):
        gap = x[j + 1] - x[j]
        delta = 0.25 * gap
        lo, hi = x[j] + delta, x[j + 1] - delta
        # shrink toward the poles until the signs bracket the zero
        while g(lo) <= 0.0:
            delta *= 0.5
            lo = x[j] + delta
        delta = 0.25 * gap
        while g(hi) >= 0.0:
            delta *= 0.5
            hi = x[j + 1] - delta
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * max(abs(lo), abs(hi)):
                break
        zeros[j] = 0.5 * (lo + hi)
    return zeros


def markov_krein_zero_equivalence(mu, z):
    """Evaluate (M'(z), F'(z)) where F' is the Cauchy transform of the
    signed measure delta_0 + sum_j delta_{y_j} - sum_j delta_{x_j} built
    from the zeros of the second kind y_j.

    The two components vanish at exactly the same points; keeping both
    routes makes the pair a cross-check, not a reformulation.
    """
    z = complex(z)
    y = second_kind_zeros(mu)
    guard = np.concatenate([mu.atoms, y, [0.0]])
    if np.min(np.abs(z - guard)) <= 1e-12:
        raise PoleError(
            "markov-krein transform evaluated at a pole", stage="ramification"
        )
    mprime = moment_map_derivative(mu, z)
    fprime = 1.0 / z + np.sum(1.0 / (z - y)) - np.sum(1.0 / (z - mu.atoms))
    return mprime, complex(fprime)


def _segment_min_distance(p1, q1, p2, q2):
    """Min distance between two segments, vectorized over the first axis.

    Non-intersecting segments attain their distance at an endpoint, so the
    endpoint-to-segment minimum suffices once proper crossings (detected by
    orientation signs) are zeroed out.
    """

    def cross(o, a, b):
        return ((a - o) * np.conj(b - o)).imag

    def pt_seg(p, a, b):
        ab = b - a
        denom = np.abs(ab) ** 2
        t = np.where(denom > 0, ((p - a) * np.conj(ab)).real / denom, 0.0)
        t = np.clip(t, 0.0, 1.0)
        return np.abs(p - (a + t * ab))

    d1 = cross(p1, q1, p2)
    d2 = cross(p1, q1, q2)
    d3 = cross(p2, q2, p1)
    d4 = cross(p2, q2, q1)
    crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    endpoint = np.minimum.reduce([
        pt_seg(p1, p2, q2),
        pt_seg(q1, p2, q2),
        pt_seg(p2, p1, q1),
        pt_seg(q2, p1, q1),
    ])
    return np.where(crossing, 0.0, endpoint)


def injectivity_check(mu, contour):
    """True iff M is one-to-one on the closed polyline `contour`.

    By the boundary principle, M is injective on the enclosed region iff
    the image polyline M(contour) is a simple closed curve, which is tested
    by exact segment-pair intersection with bounding-box pruning.
    Near-tangencies within 1e-10 count as self-intersections.
    """
    sigma = np.asarray(contour, dtype=complex).ravel()
    if sigma.size < 4:
        raise ValueError("contour needs at least 4 points")
    if abs(sigma[0] - sigma[-1]) > 1e-12:
        raise ValueError("contour must be closed (first point = last point)")
    sigma = sigma[:-1]
    if np.min(np.abs(sigma[:, None] - mu.atoms)) <= 1e-14:
        raise ValueError("contour passes through an atom")
    tau = np.atleast_1d(moment_map(mu, sigma))
    n = tau.size
    p = tau
    q = np.roll(tau, -1)
    i_idx, j_idx = np.triu_indices(n, k=2)
    adjacent = (i_idx == 0) & (j_idx == n - 1)
    i_idx, j_idx = i_idx[~adjacent], j_idx[~adjacent]
    # bounding-box pruning
    lo1 = np.minimum(p[i_idx].real, q[i_idx].real)
    hi1 = np.maximum(p[i_idx].real, q[i_idx].real)
    lo2 = np.minimum(p[j_idx].real, q[j_idx].real)
    hi2 = np.maximum(p[j_idx].real, q[j_idx].real)
    lo1i = np.minimum(p[i_idx].imag, q[i_idx].imag)
    hi1i = np.maximum(p[i_idx].imag, q[i_idx].imag)
    lo2i = np.minimum(p[j_idx].imag, q[j_idx].imag)
    hi2i = np.maximum(p[j_idx].imag, q[j_idx].imag)
    margin = 1e-10
    near = (
        (lo1 <= hi2 + margin) & (lo2 <= hi1 + margin)
        & (lo1i <= hi2i + margin) & (lo2i <= hi1i + margin)
    )
    if not np.any(near):
        return True
    i_idx, j_idx = i_idx[near], j_idx[near]
    dist = _segment_min_distance(p[i_idx], q[i_idx], p[j_idx], q[j_idx])
    return not np.any(dist < 1e-10)


def injectivity_radius(w, d, x, c):
    # on |u - w| <= rho <= min_j |w - x_j| / 2, |M''(u)| <= 16 sum |c_j| /
    # |w - x_j|^3, so rho <= |M'(w)| / that bound keeps |M'(u) - M'(w)|
    # below |M'(w)|: w is the only root of M(.) = M(w) there
    dist = np.abs(w[:, None] - x)
    bound = 16.0 * np.sum(np.abs(c) / dist**3, axis=-1)
    return np.minimum(0.5 * np.min(dist, axis=-1), np.abs(d) / bound)


def winding_number(sigma, z0):
    """Winding count of a closed node sequence around z0, as a diagnostic."""
    rel = np.asarray(sigma, dtype=complex) - z0
    turns = np.angle(np.roll(rel, -1) / rel)
    return int(round(float(np.sum(turns)) / (2.0 * np.pi)))


def dense_toeplitz_spectrum(p, rho):
    """Eigenvalue measure of the dense p x p matrix rho^|i-j| by eigvalsh."""
    eigs = np.linalg.eigvalsh(scipy.linalg.toeplitz(rho ** np.arange(p)))
    return DiscreteMeasure(eigs, np.full(p, 1.0 / p))


def _spectrum_of_root_times(pop, n, x):
    """Spectrum of (V^1/2 x)(V^1/2 x)^T / n, with V^1/2 formed explicitly.

    A Toeplitz V gets its symmetric square root from a full eigh; a
    diagonal V scales a fresh copy of x out of place.
    """
    p = x.shape[0]
    if isinstance(pop, ToeplitzPopulation):
        sig = scipy.linalg.toeplitz(pop.rho ** np.arange(p))
        vals, vecs = np.linalg.eigh(sig)
        root = (vecs * np.sqrt(np.maximum(vals, 0.0))[None, :]) @ vecs.T
        vx = root @ x
    else:
        diag = np.repeat(pop.atoms, _multiplicities(pop.weights, p))
        vx = np.sqrt(diag)[:, None] * x
    eigs = np.linalg.eigvalsh((vx @ vx.T) / n)
    return DiscreteMeasure(np.maximum(eigs, 0.0), np.full(p, 1.0 / p))


def bartlett_factor(p, n, seed):
    """The library's Bartlett factor for `seed`, drawn in the same order."""
    rng = np.random.default_rng(seed)
    a = np.zeros((p, p))
    a[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    np.fill_diagonal(a, np.sqrt(rng.chisquare(n - np.arange(p))))
    return a


def dense_sample_spectrum(pop, p, n, seed):
    """Spectrum of V^1/2 X X^T V^1/2 / n with V^1/2 formed explicitly.

    X is the library's Bartlett factor A for the same seed, so the
    diagonal branch agrees bit for bit.  A Toeplitz V = U L U^T, with
    eigh's ascending eigenvalues L, takes X = U A: then V^1/2 X = U L^1/2 A,
    the library's diagonal draw at L rotated by U, which agrees up to
    rounding.
    """
    a = bartlett_factor(p, n, seed)
    if isinstance(pop, ToeplitzPopulation):
        v = scipy.linalg.toeplitz(pop.rho ** np.arange(p))
        a = np.linalg.eigh(v)[1] @ a
    return _spectrum_of_root_times(pop, n, a)


def gaussian_sample_spectrum(pop, p, n, seed):
    """Spectrum of V^1/2 Y Y^T V^1/2 / n for a p x n standard normal Y.

    The textbook draw of the sample covariance, with V^1/2 formed
    explicitly: a reference for the law of the library's Bartlett draw,
    not for any one sample.
    """
    y = np.random.default_rng(seed).standard_normal((p, n))
    return _spectrum_of_root_times(pop, n, y)


# Runs its first argument as a script, with the rest as arguments, in a
# child interpreter that shares its stdout and stderr.
_LAUNCHER = (
    "import subprocess, sys; "
    "sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)"
)


def run_fresh(script, *args):
    """Stdout of `script` run with `args` in a new interpreter.

    The package is imported from where the tests import it, ahead of any
    PYTHONPATH entry; a failing script fails the calling test.  Linux
    carries a process's peak RSS (`ru_maxrss`) over into the programs it
    starts, so a direct child of the test process would report at least
    the test process's own peak; the script runs one step further down,
    under a bare launcher, and its `ru_maxrss` starts from that of a bare
    interpreter.
    """
    src = Path(freedeconv.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, script, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
