"""Contour representation, quadrature, and contour selection."""

import numpy as np
import pytest

from freedeconv.contours import (
    SLIT_MARGIN,
    ContourRepresentation,
    _parametric_derivative,
    choose_m_contour,
    circle_nodes,
    contour_rep_from_s,
    moments_from_circle,
    moments_from_contour,
)
from freedeconv.errors import NoContourError, NoisyContourError
from freedeconv.experiments import SCENARIOS, toeplitz_spectrum
from freedeconv.inversion import critical_points, lift_many, slit_free_radius
from freedeconv.measures import DiscreteMeasure, MarchenkoPastur
from freedeconv.pipeline import forward_contour

from helpers import (
    contour_moment,
    is_conjugate_symmetric,
    lagrange_sums,
    mp_moment,
    rand_measure,
    winding_number,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])


def _circle_nodes(center, radius, n):
    # half-integer angles keep the set conjugate-symmetric without real nodes
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return center + radius * np.exp(1j * theta)


def _stieltjes_rep(mu, center, radius, n):
    sigma = _circle_nodes(center, radius, n)
    return ContourRepresentation(sigma, mu.stieltjes(sigma))


# ---------------------------------------------------------------------------
# representation validation
# ---------------------------------------------------------------------------

def test_contour_representation_basic_fields():
    rep = _stieltjes_rep(DiscreteMeasure([1.0], [1.0]), 1.0, 1.0, 32)
    assert rep.n_nodes == 32
    assert is_conjugate_symmetric(rep.sigma, rep.values)
    assert not rep.sigma.flags.writeable
    assert not rep.values.flags.writeable


def test_contour_representation_rejects_short_contours():
    sigma = _circle_nodes(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        ContourRepresentation(sigma, np.ones(8, dtype=complex))


def test_contour_representation_rejects_length_mismatch():
    sigma = _circle_nodes(0.0, 1.0, 32)
    with pytest.raises(ValueError):
        ContourRepresentation(sigma, np.ones(31, dtype=complex))


def test_contour_representation_rejects_reversed_circle():
    sigma = _circle_nodes(0.0, 1.0, 32)
    ContourRepresentation(sigma, np.ones(32, dtype=complex))
    with pytest.raises(ValueError, match="clockwise"):
        ContourRepresentation(sigma[::-1], np.ones(32, dtype=complex))


def test_contour_representation_rejects_coincident_nodes():
    sigma = _circle_nodes(0.0, 1.0, 32)
    sigma[5] = sigma[6]
    with pytest.raises(ValueError):
        ContourRepresentation(sigma, np.ones(32, dtype=complex))


def test_contour_representation_rejects_nonfinite_nodes():
    sigma = _circle_nodes(0.0, 1.0, 32)
    vals = np.ones(32, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        ContourRepresentation(sigma, vals)


def test_symmetry_helper_reports_shifted_circle_as_asymmetric():
    sigma = _circle_nodes(0.0, 1.0, 32)
    values = np.ones(32, dtype=complex)
    assert is_conjugate_symmetric(sigma, values)
    assert not is_conjugate_symmetric(sigma + 0.05j, values)  # shifted nodes
    assert not is_conjugate_symmetric(sigma, values + 0.05j)  # shifted values


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_contour_csv_roundtrip_is_bit_exact(tmp_path):
    rep = _stieltjes_rep(TWO, 1.5, 2.0, 64)
    path = tmp_path / "contour.csv"
    rep.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t_index,re_sigma,im_sigma,re_value,im_value"
    back = ContourRepresentation.from_csv(path)
    assert np.array_equal(back.sigma, rep.sigma)
    assert np.array_equal(back.values, rep.values)
    assert is_conjugate_symmetric(back.sigma, back.values)


def test_contour_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d,e\n0,1.0,0.0,1.0,0.0\n")
    with pytest.raises(ValueError):
        ContourRepresentation.from_csv(path)


# ---------------------------------------------------------------------------
# moment quadrature: the reference contour_moment of tests/helpers.py
# ---------------------------------------------------------------------------

def test_contour_moment_point_mass():
    rep = _stieltjes_rep(DiscreteMeasure([1.0], [1.0]), 1.0, 1.0, 256)
    assert contour_moment(rep, 0) == pytest.approx(1.0, abs=1e-10)
    assert contour_moment(rep, 1) == pytest.approx(1.0, abs=1e-10)


def test_contour_moment_two_atoms():
    rep = _stieltjes_rep(TWO, 1.5, 2.0, 512)
    assert contour_moment(rep, 2) == pytest.approx(2.5, abs=1e-8)


def test_contour_moment_input_contracts():
    sigma = _circle_nodes(1.5, 2.0, 64)
    rep = ContourRepresentation(sigma, TWO.stieltjes(sigma))
    with pytest.raises(ValueError):
        contour_moment(rep, -1)


def test_contour_moment_converges_spectrally():
    # errors drop by far more than 4x per node doubling until roundoff;
    # measured 9.0e-2, 4.5e-3, 1.0e-5, 5.1e-11 on this configuration
    errs = []
    for n in (32, 64, 128, 256):
        rep = _stieltjes_rep(TWO, 0.0, 2.2, n)
        errs.append(abs(contour_moment(rep, 2) - 2.5))
    for coarse, fine in zip(errs, errs[1:]):
        if coarse > 1e-12:
            assert fine < coarse / 4.0
    assert errs[-1] < 1e-9


def test_contour_moment_deformation_invariance():
    # two different enclosing circles must agree on every moment
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        mu = rand_measure(rng, 5, 0.2, 8.0)
        lo, hi = mu.atoms[0], mu.atoms[-1]
        span = max(hi - lo, 1.0)
        results = []
        for cx, r in (
            (0.5 * (lo + hi), 0.6 * span + 0.3),
            (0.5 * (lo + hi) + 0.1 * span, 0.8 * span + 0.5),
        ):
            rep = _stieltjes_rep(mu, cx, r, 512)
            results.append([contour_moment(rep, k).real for k in range(8)])
        worst = max(worst, np.max(np.abs(np.subtract(*results))))
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# moments_from_contour
# ---------------------------------------------------------------------------

def test_moments_from_contour_point_mass():
    rep = _stieltjes_rep(DiscreteMeasure([1.0], [1.0]), 1.0, 1.0, 256)
    cm = moments_from_contour(rep, 6)
    assert np.allclose(cm.moments.values, np.ones(7), atol=1e-9)
    assert cm.imag_residue < 1e-9


def test_moments_from_contour_two_atoms():
    rep = _stieltjes_rep(TWO, 1.5, 2.0, 512)
    cm = moments_from_contour(rep, 4)
    assert np.allclose(cm.moments.values, [1.0, 1.5, 2.5, 4.5, 8.5], atol=1e-8)


def test_moments_from_contour_detects_partial_enclosure():
    # circle around only the first atom carries mass 0.5, not 1
    rep = _stieltjes_rep(TWO, 1.0, 0.5, 256)
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_contour(rep, 4)
    assert exc_info.value.diagnostics["mass"] == pytest.approx(0.5, abs=1e-8)


def test_moments_from_contour_detects_noisy_values():
    sigma = _circle_nodes(1.5, 2.0, 256)
    rep = ContourRepresentation(sigma, TWO.stieltjes(sigma) * (1.0 + 0.01j))
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_contour(rep, 4)
    assert exc_info.value.diagnostics["imag_residue"] >= 1e-6


def test_moments_from_contour_matches_contour_moment_order_by_order():
    # the running product sigma^k and contour_moment's power round
    # differently, each by a few eps of the sum of the absolute terms;
    # at k = 16 that sum is up to 3 200 |m_k| on these contours
    K = 16
    for nu in (
        SCENARIOS["S2_1"].population,
        SCENARIOS["S2_3"].population,
        toeplitz_spectrum(100, 0.3),
    ):
        rep = forward_contour(nu, 0.2)
        got = moments_from_contour(rep, K).moments.values
        terms = np.abs(rep.values * _parametric_derivative(rep.sigma))
        for k in range(K + 1):
            scale = np.sum(np.abs(rep.sigma) ** k * terms) / rep.n_nodes
            assert abs(got[k] - contour_moment(rep, k).real) <= 1e-14 * scale


def test_moments_from_contour_has_no_coarser_rule():
    rep = _stieltjes_rep(TWO, 1.5, 0.7, 64)
    assert moments_from_contour(rep, 4).half_gap == np.inf


def _two_inverse(m):
    # Minv of TWO in closed form: m = 0.5/(z - 1) + 1/(z - 2) is the
    # quadratic m z^2 - (3m + 1.5) z + 2m + 2 = 0, and the root near
    # 1.5 / m is the branch with Minv(0) = inf.  The discriminant
    # m^2 + m + 2.25 vanishes at -1/2 +- sqrt(2) i, |b| = 1.5, and keeps a
    # positive real part on |m| <= 1.05
    root = np.sqrt(m * m + m + 2.25)
    return (3.0 * m + 1.5 + root) / (2.0 * m)


def test_moments_from_circle_half_gap_is_the_even_node_rules_distance():
    # on the circle of radius 1.05 about 0 the branch points of TWO sit at
    # |b| = 1.5, so the rule on n nodes errs by about (1.05 / 1.5)^n; the
    # gap to the rule on the even nodes is the coarser rule's error, which
    # bounds the full rule's
    exact = np.array([(1.0 + 2.0**k) / 2.0 for k in range(5)])
    for n in (48, 64, 96):
        m = _circle_nodes(0.0, 1.05, n)
        z = _two_inverse(m)
        cm = moments_from_circle(m, z, 4)
        full, half = lagrange_sums(m, z, 4)
        gap = np.max(np.abs(full - half) / np.maximum(1.0, np.abs(full.real)))
        assert cm.half_gap == pytest.approx(gap, rel=1e-6)
        assert np.max(np.abs(cm.moments.values - exact) / exact) <= cm.half_gap
    # an odd node count has no rule on every other node
    m = _circle_nodes(0.0, 1.05, 65)
    with pytest.raises(ValueError, match="even"):
        moments_from_circle(m, _two_inverse(m), 4)


def test_moments_from_circle_keeps_the_contour_checks():
    m = _circle_nodes(0.0, 1.05, 64)
    z = _two_inverse(m)
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_circle(m, z * (1.0 + 0.01j), 4)
    assert exc_info.value.stage == "moments_from_circle"
    assert exc_info.value.diagnostics["imag_residue"] >= 1e-6
    # Minv(m) + 1/2 is no inverse moment map: its image contour encloses
    # the atoms shifted by 1/2, where the residues of (1 + M(z - 1/2)) / z
    # sum to 0.5 / 1.5 + 1 / 2.5 = 11/15
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_circle(m, z + 0.5, 4)
    mass = exc_info.value.diagnostics["mass"]
    assert mass == pytest.approx(11.0 / 15.0, abs=1e-8)
    with pytest.raises(ValueError):
        moments_from_circle(m, z, 0)


def test_moments_from_contour_needs_order_one():
    rep = _stieltjes_rep(TWO, 1.5, 2.0, 64)
    with pytest.raises(ValueError):
        moments_from_contour(rep, 0)


# ---------------------------------------------------------------------------
# contour_rep_from_s
# ---------------------------------------------------------------------------

def test_contour_rep_from_s_point_mass():
    # S of a point mass at a is the constant 1/a
    a = 3.0
    mc = _circle_nodes(0.0, 0.3, 64)
    rep = contour_rep_from_s(np.full_like(mc, 1.0 / a), mc)
    assert is_conjugate_symmetric(rep.sigma, rep.values)
    # counterclockwise around the atom, although the image of the
    # counterclockwise m circle runs clockwise
    assert winding_number(rep.sigma, a) == 1
    assert winding_number((1.0 + mc) * a / mc, a) == -1
    assert contour_moment(rep, 1) == pytest.approx(a, abs=1e-10)


def test_contour_rep_from_s_marchenko_pastur():
    c = 0.2
    mp = MarchenkoPastur(c)
    mc = _circle_nodes(0.0, 0.3, 128)
    rep = contour_rep_from_s(1.0 / (1.0 + c * mc), mc)
    cm = moments_from_contour(rep, 3)
    assert cm.moments.values[1] == pytest.approx(1.0, abs=1e-10)
    assert cm.moments.values[2] == pytest.approx(1.0 + c, abs=1e-10)
    # third moment 1 + 3c + c^2
    assert cm.moments.values[3] == pytest.approx(mp_moment(mp, 3), abs=1e-9)
    assert cm.moments.values[3] == pytest.approx(1.64, abs=1e-9)


def test_contour_rep_from_s_input_contracts():
    with pytest.raises(ValueError):
        contour_rep_from_s(np.ones(8), _circle_nodes(0.0, 0.3, 8))
    mc = _circle_nodes(0.0, 0.3, 64)
    mc[0] = 0.0
    with pytest.raises(ValueError):
        contour_rep_from_s(np.ones(64), mc)
    # one S value per node, in the nodes' shape
    mc = _circle_nodes(0.0, 0.3, 64)
    for s_values in (np.ones(63), np.ones(65), np.ones((64, 1)), 1.0 / 3.0):
        with pytest.raises(ValueError, match="do not match"):
            contour_rep_from_s(s_values, mc)


# ---------------------------------------------------------------------------
# choose_m_contour
# ---------------------------------------------------------------------------

def test_choose_m_contour_hits_unit_cap_for_clear_slits():
    # TWO's only slit starts at -1/2 + sqrt(2) i, beyond the unit cap
    bp = critical_points(TWO).branch_points_upper
    assert choose_m_contour(bp, 0.2) == (1.0, "unit_cap")


def test_choose_m_contour_backs_off_from_low_slits():
    # slit starting at 0.2i above the origin: the largest circle keeping a
    # 10% clearance has radius 0.9 * 0.2 = 0.18
    assert SLIT_MARGIN == 0.1
    r, limiter = choose_m_contour(np.array([0.2j]), 0.5)
    assert r == pytest.approx(0.18, abs=1e-9)
    assert limiter == "slit"


def test_choose_m_contour_caps_at_the_mp_pole_only_below_the_other_bounds():
    # 0.5 / c limits the radius only when it lies strictly below both the
    # slit bound and the unit cap; a tie keeps the other limiter
    bp = critical_points(TWO).branch_points_upper
    assert choose_m_contour(bp, 0.95) == (0.5 / 0.95, "mp_pole")
    assert choose_m_contour(bp, 0.5) == (1.0, "unit_cap")
    assert choose_m_contour(np.array([0.5j]), 0.95) == (0.9 * 0.5, "slit")


def test_choose_m_contour_radius_is_the_tightest_slit_bound():
    # multi-slit ramification of random measures: the radius keeps a 10%
    # radial clearance from every branch point, and is exactly either the
    # unit cap or one branch point's bound 0.9 |b|
    rng = np.random.default_rng(11)
    limited = 0
    for _ in range(12):
        mu = rand_measure(rng, 6, 0.05, 3.0)
        bp = critical_points(mu).branch_points_upper
        if bp.size < 2:
            continue
        r, limiter = choose_m_contour(bp, 0.2)
        assert isinstance(r, float)
        bounds = 0.9 * np.abs(bp)
        assert np.all(r <= bounds)
        # the circle crosses Re = re below the shortened slit
        crossing = np.sqrt(np.maximum(r**2 - bp.real**2, 0.0))
        assert np.all(crossing <= 0.9 * bp.imag + 1e-12)
        if r < 1.0:
            limited += 1
            assert r in bounds and limiter == "slit"
        else:
            assert (r, limiter) == (1.0, "unit_cap")
    assert limited > 0


def test_choose_m_contour_fails_when_slit_touches_origin():
    with pytest.raises(NoContourError):
        choose_m_contour(np.array([1e-9j]), 0.5)


# ---------------------------------------------------------------------------
# circle_nodes
# ---------------------------------------------------------------------------

def test_circle_nodes_lie_on_the_circle_at_half_integer_angles():
    mc = circle_nodes(0.7, 64)
    assert mc.shape == (64,)
    assert np.allclose(np.abs(mc), 0.7, atol=1e-12)
    # half-integer angles: conjugate-symmetric, never real
    assert np.all(np.abs(mc.imag) > 1e-3)
    assert np.angle(mc[0]) == pytest.approx(np.pi / 64)
    for node in mc:
        assert np.min(np.abs(np.conj(node) - mc)) < 1e-12
    # counterclockwise, upper half first
    assert np.all(np.diff(np.unwrap(np.angle(mc))) > 0.0)
    assert np.all(mc[:32].imag > 0.0)


def test_circle_nodes_input_contracts():
    with pytest.raises(ValueError):
        circle_nodes(1.0, 8)
    assert circle_nodes(1.0, 16).shape == (16,)
    for radius in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            circle_nodes(radius, 64)


# ---------------------------------------------------------------------------
# winding number
# ---------------------------------------------------------------------------

def test_winding_number_counts_turns():
    sigma = _circle_nodes(1.5, 1.0, 64)
    assert winding_number(sigma, 1.5) == 1
    assert winding_number(sigma, 4.0) == 0
    assert winding_number(sigma[::-1], 1.5) == -1


# ---------------------------------------------------------------------------
# inversion -> contour -> moments round trip
# ---------------------------------------------------------------------------

def test_roundtrip_measure_to_contour_to_moments():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(8):
        mu = rand_measure(rng, 5, 0.2, 8.0)
        if mu.n_atoms == 1:
            continue
        bp = critical_points(mu).branch_points_upper
        mc = circle_nodes(choose_m_contour(bp, 1.0)[0], 512)
        s_vals = (1.0 + mc) / (mc * lift_many(mu, mc, slit_free_radius(bp)))
        rep = contour_rep_from_s(s_vals, mc)
        cm = moments_from_contour(rep, 2 * mu.n_atoms)
        exact = np.array([mu.moment(k) for k in range(2 * mu.n_atoms + 1)])
        got = np.asarray(cm.moments.values, dtype=float)
        err = np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact)))
        worst = max(worst, err)
    assert worst <= 1e-6
