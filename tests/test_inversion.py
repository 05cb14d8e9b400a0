"""Ramification geometry, the slit-free radius, path lifting, injectivity."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from freedeconv import inversion
from freedeconv.errors import (
    DegenerateRamificationError,
    IncompleteRootsError,
    LiftFailureError,
    NumericalError,
    PoleError,
)
from freedeconv.inversion import (
    NEWTON_TOL,
    critical_points,
    lift_many,
    slit_free_radius,
)
from freedeconv.contours import choose_m_contour, circle_nodes
from freedeconv.experiments import SCENARIOS
from freedeconv.measures import DiscreteMeasure
from freedeconv.pipeline import forward_measure
from helpers import (
    branch_by_eigenvalues,
    crossing_count,
    injectivity_check,
    injectivity_radius,
    markov_krein_zero_equivalence,
    moment_map_derivative,
    moment_map_roots,
    mp_critical_points,
    qz_critical_points,
    rand_measure,
    reference_march,
    s_transform,
    second_kind_zeros,
    slit_distance,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
# critical points of the two-atom moment map, from the defining equation:
# w1 x1 (z - x2)^2 + w2 x2 (z - x1)^2 = 0 with x = (1, 2), w = (1/2, 1/2)
# reduces to (z - 2)^2 = -2 (z - 1)^2, whose roots are (4 +- sqrt(2) i)/3.
TWO_CRIT = (4.0 + np.sqrt(2.0) * 1j) / 3.0


def _free(mu):
    return slit_free_radius(critical_points(mu).branch_points_upper)


# ---------------------------------------------------------------------------
# critical / branch points
# ---------------------------------------------------------------------------

def test_two_atom_critical_points_solve_the_derivative_equation():
    # independent arithmetic: the closed-form roots really kill M'
    for q in (TWO_CRIT, np.conj(TWO_CRIT)):
        mprime = -(0.5 * 1.0 / (q - 1.0) ** 2 + 0.5 * 2.0 / (q - 2.0) ** 2)
        assert abs(mprime) < 1e-12
    ram = critical_points(TWO)
    assert ram.critical_points.size == 2
    got = np.sort_complex(ram.critical_points)
    want = np.sort_complex(np.array([TWO_CRIT, np.conj(TWO_CRIT)]))
    assert np.max(np.abs(got - want)) < 1e-10


def test_two_atom_branch_points_are_m_at_the_critical_points():
    # M(q) by hand for q = (4 + sqrt(2) i)/3: the value is -1/2 - sqrt(2) i
    q = TWO_CRIT
    mq = 0.5 * 1.0 / (q - 1.0) + 0.5 * 2.0 / (q - 2.0)
    assert mq == pytest.approx(-0.5 - np.sqrt(2.0) * 1j, abs=1e-12)
    ram = critical_points(TWO)
    assert ram.branch_points_upper.size == 1
    # canonical representative lives in the upper half plane
    assert ram.branch_points_upper[0] == pytest.approx(
        -0.5 + np.sqrt(2.0) * 1j, abs=1e-10)


def test_point_mass_has_no_ramification():
    ram = critical_points(DiscreteMeasure([1.0], [1.0]))
    assert ram.critical_points.size == 0
    assert ram.branch_points_upper.size == 0


def test_atom_at_zero_carries_no_pole():
    # 3/4 at 0 contributes nothing to M, so the map is Moebius: no branching
    mu = DiscreteMeasure([0.0, 1.0], [0.75, 0.25])
    ram = critical_points(mu)
    assert ram.critical_points.size == 0


def test_critical_points_raise_when_the_certificate_fails(monkeypatch):
    # polished roots moved off by a millionth pass no certificate
    polish = inversion._newton_polish
    monkeypatch.setattr(
        inversion, "_newton_polish",
        lambda z, x, c: polish(z, x, c) * (1.0 + 1e-6),
    )
    with pytest.raises(IncompleteRootsError) as exc_info:
        critical_points(TWO)
    assert exc_info.value.stage == "critical_points"


def test_negative_atoms_are_rejected():
    with pytest.raises(ValueError):
        critical_points(DiscreteMeasure([-1.0, 2.0], [0.5, 0.5]))


def test_critical_points_are_conjugate_closed_with_small_residuals():
    rng = np.random.default_rng(21)
    measures = [rand_measure(rng, 6, 0.1, 10.0, min_gap=0.05) for _ in range(50)]
    # up to 21 atoms, which reaches degree 40
    rng = np.random.default_rng(22)
    wide = [rand_measure(rng, 21, 0.1, 10.0, min_gap=0.05) for _ in range(30)]
    assert max(mu.n_atoms for mu in wide) == 21
    # noise-free spectra of S2_3, a Gauss quadrature proxy whose atoms
    # crowd towards the edges of the support
    sc = SCENARIOS["S2_3"]
    proxies = [
        forward_measure(sc.population, sc.c),
        forward_measure(sc.population, sc.c, tol=1e-8),
    ]
    assert [mu.n_atoms for mu in proxies] == [10, 8]
    # 9 atoms log-uniform over three decades with Dirichlet(0.5) weights,
    # whose weights span many orders of magnitude
    rng = np.random.default_rng(23)
    spread = [
        DiscreteMeasure(
            np.exp(rng.uniform(np.log(0.005), np.log(10.0), 9)),
            rng.dirichlet(np.full(9, 0.5)),
        )
        for _ in range(40)
    ]
    # up to 9 atoms within 1e-3 of each other, whose critical points
    # crowd within about 1e-3 of the real axis
    clusters = []
    for _ in range(20):
        size = int(rng.integers(2, 10))
        atoms = rng.uniform(0.1, 5.0) + rng.uniform(0.0, 1e-3, size)
        clusters.append(DiscreteMeasure(atoms, rng.dirichlet(np.ones(size))))
    assert max(np.ptp(mu.atoms) for mu in clusters) < 1e-3
    # |M'(q)| is roundoff in the size of M''s terms, which reaches 1e12
    # between clustered atoms: it is bounded relative to that size
    # everywhere (measured at most 3e-10) and absolutely where it is small
    groups = [(measures + wide + proxies, 1e-8), (spread + clusters, np.inf)]
    for group, absolute in groups:
        for mu in group:
            if mu.n_atoms < 2:
                continue
            ram = critical_points(mu)
            assert ram.critical_points.size == 2 * (mu.n_atoms - 1)
            for q in ram.critical_points:
                # conjugate partner present
                assert np.min(np.abs(ram.critical_points - np.conj(q))) < 1e-8
                level = np.sum(mu.weights * mu.atoms / np.abs(q - mu.atoms) ** 2)
                residual = abs(moment_map_derivative(mu, q))
                assert residual < absolute
                assert residual <= 1e-9 * level
            assert np.all(ram.branch_points_upper.imag > 0.0)


def _dirichlet_measures(rng):
    # 1000 clusters of 7-9 atoms within 1e-3 of each other and 500
    # measures of 2-9 atoms log-uniform on [0.005, 10], all with
    # Dirichlet(0.5) weights floored at 1e-12
    def draw(atoms):
        w = np.maximum(rng.dirichlet(np.full(atoms.size, 0.5)), 1e-12)
        return DiscreteMeasure(atoms, w / np.sum(w))

    clusters = [
        draw(rng.uniform(0.1, 5.0) + rng.uniform(0.0, 1e-3, rng.integers(7, 10)))
        for _ in range(1000)
    ]
    spread = [
        draw(np.exp(rng.uniform(np.log(0.005), np.log(10.0), rng.integers(2, 10))))
        for _ in range(500)
    ]
    return clusters, spread


def test_critical_points_match_qz_on_tight_clusters_and_spread_atoms():
    # in a tight cluster a pair of roots can sit within ~1e-8 of an atom,
    # where rounding the root itself moves M' by more than the 1e-8
    # backward-error budget; the certificate allows for that rounding, so
    # every measure here is certified (critical_points raises otherwise).
    # Where QZ's polished roots fail that certificate (3 of the 1 500),
    # 80-digit roots of the cleared numerator are the reference instead
    clusters, spread = _dirichlet_measures(np.random.default_rng(31))
    for mu in clusters + spread:
        ref, ref_ok = qz_critical_points(mu)
        if not np.all(ref_ok):
            ref = mp_critical_points(mu)
        got = critical_points(mu).critical_points
        assert got.size == ref.size == 2 * (mu.n_atoms - 1)
        gap = np.abs(got[:, None] - ref[None, :])
        assert np.all(np.min(gap, axis=1) <= 1e-10 * np.abs(got))
        assert np.all(np.min(gap, axis=0) <= 1e-10 * np.abs(ref))


def test_certificate_rejects_roots_moved_by_a_millionth():
    # the rounding allowance covers a unit of rounding of the root, not a
    # wrong root: every certified root moved by 1e-6 relative, in any of
    # four directions, fails
    clusters, spread = _dirichlet_measures(np.random.default_rng(31))
    for mu in clusters[:200] + spread[:100]:
        roots = critical_points(mu).critical_points
        x, c = inversion._effective_poles(mu)
        for turn in (1.0, -1.0, 1j, -1j):
            moved = roots * (1.0 + 1e-6 * turn)
            assert not np.any(inversion._certify(moved, x, c))


# ---------------------------------------------------------------------------
# zeros of the second kind and the signed-measure cross-check
# ---------------------------------------------------------------------------

def test_second_kind_zeros_examples():
    assert second_kind_zeros(TWO) == pytest.approx([1.5], abs=1e-12)
    mu = DiscreteMeasure([0.0, 1.0], [0.75, 0.25])
    assert second_kind_zeros(mu) == pytest.approx([0.75], abs=1e-12)
    tri = DiscreteMeasure([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
    y = second_kind_zeros(tri)
    assert y.size == 2
    assert 1.0 < y[0] < 2.0 < y[1] < 3.0
    assert second_kind_zeros(DiscreteMeasure([1.0], [1.0])).size == 0


def test_second_kind_zeros_interlace_for_random_measures():
    rng = np.random.default_rng(22)
    for _ in range(25):
        mu = rand_measure(rng, 7, 0.1, 10.0, min_gap=0.1)
        y = second_kind_zeros(mu)
        assert y.size == mu.n_atoms - 1
        for j in range(y.size):
            assert mu.atoms[j] < y[j] < mu.atoms[j + 1]
            assert abs(mu.stieltjes(y[j])) < 1e-10


def test_markov_krein_pair_vanishes_exactly_at_critical_points():
    mp_v, fp_v = markov_krein_zero_equivalence(TWO, TWO_CRIT)
    assert abs(mp_v) < 1e-10
    assert abs(fp_v) < 1e-10
    mp_v, fp_v = markov_krein_zero_equivalence(TWO, np.conj(TWO_CRIT))
    assert abs(mp_v) < 1e-10
    assert abs(fp_v) < 1e-10
    mp_v, fp_v = markov_krein_zero_equivalence(TWO, 10.0)
    assert abs(mp_v) > 1e-4
    assert abs(fp_v) > 1e-4


def test_markov_krein_rejects_poles():
    for z in (1.0, 1.5, 0.0):
        with pytest.raises(PoleError):
            markov_krein_zero_equivalence(TWO, z)


def test_markov_krein_equivalence_on_random_measures():
    # both routes to the ramification locus agree: F' of the signed measure
    # vanishes wherever the package's root finder says M' does
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        mu = rand_measure(rng, 6, 0.1, 10.0, min_gap=0.05)
        if mu.n_atoms == 1:
            continue
        ram = critical_points(mu)
        for q in ram.critical_points:
            _, fp_v = markov_krein_zero_equivalence(mu, q)
            worst = max(worst, abs(fp_v))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# slit-free radius
# ---------------------------------------------------------------------------

def test_slit_free_radius_is_the_modulus_of_one_branch_point():
    # the slits run from -0.5 + 1.5i upward and from its conjugate
    # downward, so the nearest slit point to 0 is the branch point itself
    free = slit_free_radius(np.array([-0.5 + 1.5j]))
    assert isinstance(free, float)
    assert free == pytest.approx(np.hypot(0.5, 1.5), rel=1e-15)
    # TWO's branch point is M(TWO_CRIT), and the radius its modulus
    b = TWO.moment_map(TWO_CRIT)
    assert _free(TWO) == pytest.approx(abs(b), rel=1e-12)


def test_slit_free_radius_without_branch_points_is_infinite():
    assert slit_free_radius(np.empty(0, complex)) == np.inf
    assert _free(DiscreteMeasure([2.0], [1.0])) == np.inf


def test_slit_free_radius_rejects_near_real_branch_points():
    with pytest.raises(DegenerateRamificationError) as exc_info:
        slit_free_radius(np.array([1.0 + 1.0j, 0.3 + 1e-12j]))
    assert exc_info.value.stage == "slit_free_radius"


def test_slit_free_radius_is_the_distance_from_0_to_the_slits():
    # the general slit geometry of tests/helpers.py at m = 0, and the
    # contour radius keeps strictly inside it
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(60):
        mu = rand_measure(rng, 9, 0.05, 10.0)
        try:
            bp = critical_points(mu).branch_points_upper
            free = slit_free_radius(bp)
        except NumericalError:
            continue
        assert free == slit_distance(bp, 0.0)
        if bp.size:
            assert choose_m_contour(bp, 0.5)[0] < free
            # a ray just past the foot of the nearest slit is on it
            foot = bp[np.argmin(np.abs(bp))]
            assert slit_distance(bp, foot + 1e-3j) == 0.0
            checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# path lifting
# ---------------------------------------------------------------------------

def test_lift_point_mass_matches_moebius_inverse():
    # M of a point mass at a inverts in closed form: Minv(m) = a (1 + m) / m
    d2 = DiscreteMeasure([2.0], [1.0])
    free = _free(d2)
    assert lift_many(d2, [0.5], free)[0] == pytest.approx(6.0, abs=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.uniform(0.2, 5.0)
        da = DiscreteMeasure([a], [1.0])
        free_a = _free(da)
        m = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(m) < 1e-2:
            continue
        w = lift_many(da, [m], free_a)[0]
        assert w == pytest.approx(a * (1 + m) / m, rel=1e-12)


def test_lift_real_target_matches_bisection_on_the_outer_branch():
    # real m > 0 lifts to the real branch beyond the largest atom
    free = _free(TWO)
    w = lift_many(TWO, [0.2], free)[0]
    assert w.imag == pytest.approx(0.0, abs=1e-12)
    assert w.real > 2.0
    ref = brentq(
        lambda t: 0.5 * 1.0 / (t - 1.0) + 0.5 * 2.0 / (t - 2.0) - 0.2,
        2.0 + 1e-9, 100.0, xtol=1e-13,
    )
    assert w.real == pytest.approx(ref, abs=1e-10)
    assert abs(TWO.moment_map(w) - 0.2) <= 1e-12


def test_lift_residuals_meet_the_tolerance_on_random_targets():
    rng = np.random.default_rng(24)
    done = 0
    while done < 50:
        mu = rand_measure(rng, 6)
        try:
            free = _free(mu)
        except NumericalError:
            continue
        # uniform in the slit-free disk, capped at radius 1
        radius = min(free, 1.0) * np.sqrt(rng.uniform())
        m = radius * np.exp(2j * np.pi * rng.uniform())
        if abs(m) < 1e-3:
            continue
        w = lift_many(mu, [m], free)[0]
        assert abs(mu.moment_map(w) - m) <= 1e-12
        done += 1


def test_lift_rejects_zero_and_off_domain_targets():
    bp = critical_points(TWO).branch_points_upper
    free = slit_free_radius(bp)
    with pytest.raises(ValueError):
        lift_many(TWO, [0.0], free)
    # directly on the slit above the branch point; use the computed branch
    # point, a hand-rounded abscissa sits off the slit by ~1e-13
    bad = bp[0] + 0.5j
    assert slit_distance(bp, bad) == 0.0
    with pytest.raises(ValueError):
        lift_many(TWO, [bad], free)


def test_lift_many_agrees_with_individual_lifts():
    free = _free(TWO)
    # radius 0.3 lies inside the slit-free disk (radius 1.5 for TWO);
    # radius 2.0 leaves it, and every lifting entry point refuses it
    targets = 0.3 * np.exp(1j * 2 * np.pi * (np.arange(24) + 0.5) / 24)
    batched = lift_many(TWO, targets, free)
    single = np.array([lift_many(TWO, [m], free)[0] for m in targets])
    assert np.max(np.abs(batched - single)) < 1e-10
    grid = lift_many(TWO, targets.reshape(4, 6), free)
    assert grid.shape == (4, 6) and np.array_equal(grid.ravel(), batched)
    steps = []
    lift_many(TWO, targets, free, step_counts=steps)
    assert len(steps) == targets.size
    outside = 2.0 * np.exp(1j * 2 * np.pi * (np.arange(24) + 0.5) / 24)
    with pytest.raises(ValueError, match="slit-free disk"):
        lift_many(TWO, outside, free)
    with pytest.raises(ValueError, match="slit-free disk"):
        s_transform(TWO, outside[0], free)


def _half_offset_upper(radius, n):
    return circle_nodes(radius, n)[: n // 2]


def _oracle_measures(rng):
    # two draws each of uniform, log-normal and clustered 9-atom measures
    for _ in range(2):
        centres = rng.uniform(0.5, 8.0, 3)
        for atoms in (
            rng.uniform(0.1, 10.0, 9),
            rng.lognormal(0.0, 1.0, 9),
            np.repeat(centres, 3) * (1.0 + 0.02 * rng.standard_normal(9)),
        ):
            weights = rng.uniform(0.2, 1.0, 9)
            yield DiscreteMeasure(atoms, weights / weights.sum())


def test_lift_many_matches_the_eigenvalue_oracle():
    # targets up to 0.995 of the free radius, where the rays pass close to
    # branch points and a coarse march can land on another sheet
    rng = np.random.default_rng(31)
    checked = 0
    for mu in _oracle_measures(rng):
        try:
            free = _free(mu)
        except NumericalError:
            continue
        angles = np.exp(2j * np.pi * rng.uniform(size=4))
        targets = np.concatenate([f * free * angles for f in (0.9, 0.97, 0.995)])
        got = lift_many(mu, targets, free)
        want = branch_by_eigenvalues(mu, targets)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
        checked += 1
    assert checked >= 5
    # atoms log-uniform over three decades with Dirichlet(0.5) weights put
    # branch points close to the rays; finer oracle tracking for 0.999
    hard = 0
    for _ in range(15):
        atoms = np.exp(rng.uniform(np.log(0.005), np.log(10.0), 9))
        mu = DiscreteMeasure(atoms, rng.dirichlet(np.full(9, 0.5)))
        try:
            free = _free(mu)
        except NumericalError:
            continue
        angles = np.exp(2j * np.pi * rng.uniform(size=2))
        targets = np.concatenate([f * free * angles for f in (0.99, 0.999)])
        got = lift_many(mu, targets, free)
        want = branch_by_eigenvalues(mu, targets, steps=2000)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
        hard += 1
    assert hard >= 12


def test_lift_many_matches_the_fixed_pace_march_in_few_steps():
    # half-offset upper nodes at three radii on random 2-9 atom measures;
    # the reference march is compared on every eighth node, which it
    # reaches to 1e-12 whatever the batch
    rng = np.random.default_rng(36)
    checked = 0
    far = []
    for _ in range(200):
        size = rng.integers(2, 10)
        mu = DiscreteMeasure(
            rng.uniform(0.05, 10.0, size), rng.dirichlet(np.ones(size))
        )
        try:
            free = _free(mu)
        except NumericalError:
            continue
        circles = [_half_offset_upper(f * free, 512) for f in (0.5, 0.9, 0.99)]
        steps = []
        got = np.concatenate([lift_many(mu, t, free, steps) for t in circles])
        assert len(steps) == 3 * 256 and max(steps) <= 30
        assert max(steps[256:512]) <= 5
        far.append(steps[-1])
        want = reference_march(mu, np.concatenate(circles)[::8], free)
        assert np.max(np.abs(got[::8] - want) / np.abs(want)) <= 1e-12
        checked += 1
    assert checked >= 190
    # the step controller reaches 0.99 of the free radius in a few steps
    assert np.median(far) <= 8 and max(far) <= 12


def test_correct_returns_the_injectivity_radius_at_its_result():
    # random points, and points within 1e-9 to 1e-3 of an atom, where
    # the radius is set by the distance to that atom
    rng = np.random.default_rng(37)
    for _ in range(20):
        mu = rand_measure(rng, 9)
        x, c = inversion._effective_poles(mu)
        near = x[rng.integers(x.size, size=40)] + 10.0 ** rng.uniform(
            -9, -3, 40
        ) * np.exp(2j * np.pi * rng.uniform(size=40))
        far = rng.uniform(-1, 11, 40) + 1j * rng.uniform(-5, 5, 40)
        w0 = np.concatenate([near, far])
        for polish in (False, True):
            w, _, d, rho, _ = inversion._correct(
                x, c, w0, mu.moment_map(w0), polish=polish
            )
            want = injectivity_radius(w, d, x, c)
            assert np.all(np.isfinite(rho))
            assert np.max(np.abs(rho - want) / want) <= 1e-14


def test_lift_stays_on_its_sheet_next_to_a_branch_cluster():
    # a march on a fixed 15 % geometric schedule lands on 0.3607-0.0417j
    mu = DiscreteMeasure(
        [0.007943863874867091, 0.06863100698837989, 0.12094509621116258,
         0.27643179219690156, 1.6987627905438747, 3.2977321369739614,
         3.377703806965403, 5.502470220387932, 7.713838214159768],
        [0.047445002491758266, 0.019571856057010818, 0.026957759676408354,
         0.008986792567914181, 0.018493566664960905, 0.011484305719340874,
         0.049740125012900774, 0.5130785575330177, 0.30424203427668806],
    )
    free = _free(mu)
    target = -0.9177622144919709 + 0.022736371347602133j
    assert abs(target) / free == pytest.approx(0.995, abs=1e-3)
    want = -0.07300811971974142 - 0.06615889039817727j
    assert branch_by_eigenvalues(mu, [target])[0] == pytest.approx(want, rel=1e-10)
    assert lift_many(mu, [target], free)[0] == pytest.approx(want, rel=1e-10)


def test_lift_rejects_a_corrector_that_leaves_its_prediction():
    # without the injectivity-radius guard the march passes the residual
    # test on another sheet's root, 3.04 from the branch value
    mu = DiscreteMeasure(
        [0.016964798394206733, 0.43256613678591005, 0.8401830383601725,
         3.1827861463793967, 5.020743107739198, 6.001829086280926],
        [0.02744682017228971, 0.008969884959504345, 0.054764055225243684,
         0.4739461551212227, 3.557302899566059e-05, 0.43483751149274397],
    )
    free = _free(mu)
    target = -0.9768318514389415 + 0.00599384039440122j
    assert abs(target) / free == pytest.approx(0.999, abs=1e-4)
    want = -0.02236070065801634 - 0.010315782339869758j
    assert branch_by_eigenvalues(mu, [target], steps=2000)[0] == pytest.approx(
        want, rel=1e-10
    )
    assert lift_many(mu, [target], free)[0] == pytest.approx(want, rel=1e-10)


def test_lift_of_point_mass_is_exact_down_to_small_m():
    # the march must end on every target, also those below START_ABS
    rng = np.random.default_rng(32)
    radii = np.array([1e-5, 1e-4, 1e-3, 2e-3, 0.5, 0.99])
    for a in (0.3, 2.0, 5.0):
        da = DiscreteMeasure([a], [1.0])
        free = _free(da)
        targets = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
        exact = a * (1.0 + targets) / targets
        together = lift_many(da, targets, free)
        one_by_one = np.array([lift_many(da, [m], free)[0] for m in targets])
        for got in (together, one_by_one):
            assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12


@st.composite
def _measure_and_target(draw):
    size = draw(st.integers(1, 9))
    unit = st.floats(0.0, 1.0)
    atoms = [0.1 + 9.9 * draw(unit) for _ in range(size)]
    weights = np.array([0.05 + draw(unit) for _ in range(size)])
    mu = DiscreteMeasure(atoms, weights / weights.sum())
    try:
        free = _free(mu)
    except NumericalError:
        assume(False)
    radius = min(free, 2.0) * draw(st.floats(0.01, 0.99))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    return mu, free, radius * np.exp(1j * angle)


@settings(max_examples=60, deadline=None, database=None)
@given(_measure_and_target())
def test_lift_is_conjugate_symmetric_and_meets_the_residual(case):
    mu, free, m = case
    w, w_conj = lift_many(mu, [m, np.conj(m)], free)
    assert w_conj == pytest.approx(np.conj(w), rel=1e-12)
    for target, value in ((m, w), (np.conj(m), w_conj)):
        assert abs(mu.moment_map(value) - target) <= NEWTON_TOL


def test_lift_reports_a_seed_that_does_not_converge(monkeypatch):
    # no residual meets a zero tolerance, so the asymptotic seed fails
    monkeypatch.setattr(inversion, "NEWTON_TOL", 0.0)
    targets = 0.5 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 16)
    with pytest.raises(LiftFailureError) as exc_info:
        lift_many(TWO, targets, _free(TWO))
    assert exc_info.value.stage == "lift_many"
    assert exc_info.value.diagnostics["residual"] > 0.0


def test_lift_of_a_target_does_not_depend_on_its_batch():
    # a batch with a larger max |m| starts its march at a smaller s0 and
    # often paces it differently; the lift of a shared target must not move
    rng = np.random.default_rng(8)
    checked = paced = 0
    for _ in range(60):
        mu = rand_measure(rng, 4, 0.2, 8.0, min_gap=0.3)
        if mu.n_atoms == 1:
            continue
        try:
            free = _free(mu)
        except NumericalError:
            continue
        cap = min(free, 2.0)
        angles = np.exp(2j * np.pi * rng.uniform(size=3))
        target = 0.2 * cap * angles[0]
        batch = np.concatenate([[target], 0.95 * cap * angles[1:]])
        steps_alone, steps_batch = [], []
        alone = lift_many(mu, [target], free, step_counts=steps_alone)[0]
        together = lift_many(mu, batch, free, step_counts=steps_batch)[0]
        assert abs(together - alone) <= 1e-12 * abs(alone)
        checked += 1
        paced += steps_alone[0] != steps_batch[0]
    assert checked >= 10 and paced >= 10


# ---------------------------------------------------------------------------
# S-transform
# ---------------------------------------------------------------------------

def test_s_transform_of_point_mass_is_constant():
    rng = np.random.default_rng(25)
    for _ in range(20):
        a = rng.uniform(0.2, 5.0)
        da = DiscreteMeasure([a], [1.0])
        free = _free(da)
        m = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(m) < 1e-2:
            continue
        assert s_transform(da, m, free) == pytest.approx(1.0 / a, rel=1e-12)


def test_s_transform_tends_to_inverse_mean_at_zero():
    free = _free(TWO)
    ms = 1e-3 * np.exp(1j * 2 * np.pi * (np.arange(32) + 0.5) / 32)
    devs = [abs(s_transform(TWO, m, free) - 1.0 / 1.5) for m in ms]
    # deviation is O(|m|): measured 7.4e-5 at |m| = 1e-3
    assert max(devs) < 1e-3


def test_s_transform_rejects_zero():
    free = _free(TWO)
    with pytest.raises(ValueError):
        s_transform(TWO, 0.0, free)


# ---------------------------------------------------------------------------
# cover degree
# ---------------------------------------------------------------------------

def test_moment_map_has_full_cover_degree_at_random_values():
    # M(z) = m has exactly L finite solutions away from the branch locus
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu = rand_measure(rng, 5, 0.2, 8.0)
        m = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(m) < 1e-6:
            continue
        roots = moment_map_roots(mu, m)
        assert roots.size == mu.n_atoms
        vals = np.array([mu.moment_map(r) for r in roots])
        assert np.max(np.abs(vals - m)) < 1e-6


# ---------------------------------------------------------------------------
# injectivity of M on contours
# ---------------------------------------------------------------------------

def _circle(center, radius, n=257):
    th = np.linspace(0.0, 2.0 * np.pi, n)
    return center + radius * np.exp(1j * th)


def test_moebius_map_is_injective_on_any_circle():
    d1 = DiscreteMeasure([1.0], [1.0])
    assert injectivity_check(d1, _circle(1.0, 0.5))
    assert injectivity_check(d1, _circle(3.0, 10.0))


def test_small_and_large_two_atom_circles_are_injective():
    # both verdicts confirmed by the brute-force crossing counter
    for center, radius in ((1.5, 0.1), (0.0, 10.0)):
        contour = _circle(center, radius)
        image = np.array([TWO.moment_map(z) for z in contour])
        assert crossing_count(image) == 0
        assert injectivity_check(TWO, contour)


def test_circle_around_a_critical_point_is_not_injective():
    # the image winds twice near the branch value and must self-intersect
    q = (4.0 + np.sqrt(2.0) * 1j) / 3.0
    contour = _circle(q, 0.1)
    image = np.array([TWO.moment_map(z) for z in contour])
    assert crossing_count(image) == 1
    assert not injectivity_check(TWO, contour)


def test_injectivity_check_validates_its_contour():
    with pytest.raises(ValueError):
        injectivity_check(TWO, _circle(1.5, 0.1)[:-1])  # not closed
    with pytest.raises(ValueError):
        injectivity_check(TWO, np.array([1.5 + 1j, 1.5 - 1j, 1.5 + 1j]))
    th = np.linspace(0.0, 2.0 * np.pi, 257)
    through_atom = 1.0 + 1.0 * np.exp(1j * th)  # hits the atom at 2 exactly
    with pytest.raises(ValueError):
        injectivity_check(TWO, through_atom)
