"""Contour representation, quadrature, and contour selection."""

import numpy as np
import pytest

from freedeconv.contours import (
    SLIT_MARGIN,
    ContourRepresentation,
    _parametric_derivative,
    choose_m_contour,
    circle_nodes,
    moments_from_z_contour,
    z_contour_nodes,
)
from freedeconv.errors import NoContourError, NoisyContourError
from freedeconv.inversion import (
    critical_points,
    lift_many,
    slit_free_radius,
)
from freedeconv.measures import DiscreteMeasure

from helpers import (
    contour_moment,
    is_conjugate_symmetric,
    lagrange_sums,
    moment_map,
    mp_pole_preimage,
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


@pytest.mark.parametrize(
    "text, line",
    [("", 1), ("t_index,re_sigma,im_sigma,re_value,im_value\n"
               "0,1.0,0.0,1.0,0.0\n\n1,1.0\n", 4),
     ("t_index,re_sigma,im_sigma,re_value,im_value\n0,abc,0,1,0\n", 2),
     ("t_index,re_sigma,im_sigma,re_value,im_value\n"
      "0,1.0,0.0,1.0,0.0\n2,0.0,1.0,0.0,1.0\n1,-1.0,0.0,-1.0,0.0\n", 3),
     ("t_index,re_sigma,im_sigma,re_value,im_value\nabc,1.0,0,1,0\n", 2)],
    ids=["empty_file", "short_row", "non_numeric_field", "swapped_rows",
         "non_integer_index"],
)
def test_contour_csv_names_its_malformed_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.csv line {line}: "):
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
# moments_from_z_contour
# ---------------------------------------------------------------------------

def _two_inverse(m):
    # Minv of TWO in closed form: m = 0.5/(z - 1) + 1/(z - 2) is the
    # quadratic m z^2 - (3m + 1.5) z + 2m + 2 = 0, and the root near
    # 1.5 / m is the branch with Minv(0) = inf.  The discriminant
    # m^2 + m + 2.25 vanishes at -1/2 +- sqrt(2) i, |b| = 1.5, and keeps a
    # positive real part on |m| <= 1.05
    root = np.sqrt(m * m + m + 2.25)
    return (3.0 * m + 1.5 + root) / (2.0 * m)


def _circle_rule(m, z):
    # the image z of a counterclockwise m circle winds clockwise, so its
    # contour runs over the nodes reversed, along which dm/dt = -i m
    rm = m[::-1]
    return ContourRepresentation(z[::-1], (1.0 + rm) / z[::-1]), -1j * rm


def test_moments_from_z_contour_half_gap_is_the_even_node_rules_distance():
    # on the circle of radius 1.05 about 0 the branch points of TWO sit at
    # |b| = 1.5, so the rule on n nodes errs by about (1.05 / 1.5)^n; the
    # gap to the rule on the even nodes is the coarser rule's error, which
    # bounds the full rule's
    exact = np.array([(1.0 + 2.0**k) / 2.0 for k in range(5)])
    for n in (48, 64, 96):
        m = _circle_nodes(0.0, 1.05, n)
        rep, dm = _circle_rule(m, _two_inverse(m))
        cm = moments_from_z_contour(rep, dm, 4)
        # in the contour's order, whose even nodes are the circle's odd ones
        full, half = lagrange_sums(m[::-1], rep.sigma, 4)
        gap = np.max(np.abs(full - half) / np.maximum(1.0, np.abs(full.real)))
        assert cm.half_gap == pytest.approx(gap, rel=1e-6)
        assert np.max(np.abs(cm.moments.values - exact) / exact) <= cm.half_gap
    # an odd node count has no rule on every other node
    m = _circle_nodes(0.0, 1.05, 65)
    with pytest.raises(ValueError, match="even"):
        moments_from_z_contour(*_circle_rule(m, _two_inverse(m)), 4)


def test_a_reversed_contour_is_built_and_its_mass_reads_minus_one():
    # the image of a counterclockwise m circle winds clockwise about the
    # atoms; taken in the circle's own order it is a valid representation,
    # and the rule's mass check reads its orientation as m_0 = -1
    m = _circle_nodes(0.0, 1.05, 64)
    z = _two_inverse(m)
    rep = ContourRepresentation(z, (1.0 + m) / z)
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_z_contour(rep, 1j * m, 4)
    assert exc_info.value.stage == "moments_from_z_contour"
    assert exc_info.value.diagnostics["mass"] == pytest.approx(-1.0, abs=1e-9)


def test_moments_from_z_contour_keeps_the_contour_checks():
    m = _circle_nodes(0.0, 1.05, 64)
    z = _two_inverse(m)
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_z_contour(*_circle_rule(m, z * (1.0 + 0.01j)), 4)
    assert exc_info.value.stage == "moments_from_z_contour"
    assert exc_info.value.diagnostics["imag_residue"] >= 1e-6
    # Minv(m) + 1/2 is no inverse moment map: its image contour encloses
    # the atoms shifted by 1/2, where the residues of (1 + M(z - 1/2)) / z
    # sum to 0.5 / 1.5 + 1 / 2.5 = 11/15
    with pytest.raises(NoisyContourError) as exc_info:
        moments_from_z_contour(*_circle_rule(m, z + 0.5), 4)
    mass = exc_info.value.diagnostics["mass"]
    assert mass == pytest.approx(11.0 / 15.0, abs=1e-8)
    with pytest.raises(ValueError):
        moments_from_z_contour(*_circle_rule(m, z), 0)


# ---------------------------------------------------------------------------
# choose_m_contour
# ---------------------------------------------------------------------------

def test_choose_m_contour_hits_unit_cap_for_clear_slits():
    # TWO's only slit starts at -1/2 + sqrt(2) i, beyond the unit cap
    bp = critical_points(TWO).branch_points_upper
    assert choose_m_contour(slit_free_radius(bp), 0.2) == (1.0, "unit_cap")


def test_choose_m_contour_backs_off_from_low_slits():
    # slit starting at 0.2i above the origin: the largest circle keeping a
    # 10% clearance has radius 0.9 * 0.2 = 0.18
    assert SLIT_MARGIN == 0.1
    r, limiter = choose_m_contour(slit_free_radius(np.array([0.2j])), 0.5)
    assert r == pytest.approx(0.18, abs=1e-9)
    assert limiter == "slit"


def test_choose_m_contour_caps_at_the_mp_pole_only_below_the_other_bounds():
    # 0.5 / c limits the radius only when it lies strictly below both the
    # slit bound and the unit cap; a tie keeps the other limiter
    free = slit_free_radius(critical_points(TWO).branch_points_upper)
    assert choose_m_contour(free, 0.95) == (0.5 / 0.95, "mp_pole")
    assert choose_m_contour(free, 0.5) == (1.0, "unit_cap")
    free = slit_free_radius(np.array([0.5j]))
    assert choose_m_contour(free, 0.95) == (0.9 * 0.5, "slit")


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
        r, limiter = choose_m_contour(slit_free_radius(bp), 0.2)
        assert isinstance(r, float)
        bounds = 0.9 * np.hypot(bp.real, bp.imag)
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


def test_choose_m_contour_input_contracts():
    # the aspect ratio must lie in (0, 1) and the slit-free radius must not
    # be NaN; once these gave a radius of -1.0 labelled mp_pole (c = -0.5),
    # a NaN radius labelled unit_cap, and a bare ZeroDivisionError (c = 0)
    for c in (0.0, 1.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError, match="aspect ratio"):
            choose_m_contour(1.0, c)
    with pytest.raises(ValueError, match="NaN"):
        choose_m_contour(np.nan, 0.2)
    # no branch point at all leaves the unit cap
    assert choose_m_contour(np.inf, 0.2) == (1.0, "unit_cap")


def test_choose_m_contour_fails_when_slit_touches_origin():
    with pytest.raises(NoContourError):
        choose_m_contour(slit_free_radius(np.array([1e-9j])), 0.5)


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
    # a node count must be an integer: 16.5 would give 17 nodes whose
    # angles do not close the period
    for n in (16.0, 16.5, np.float64(16.0), True):
        with pytest.raises(ValueError, match="integer"):
            circle_nodes(1.0, n)
    assert circle_nodes(1.0, np.int64(16)).shape == (16,)
    for radius in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            circle_nodes(radius, 64)


@pytest.mark.parametrize("n", [16, 17, 512, 513])
def test_circle_nodes_lower_half_is_the_exact_mirror_of_the_upper(n):
    # the upper half is radius exp(2 pi i (j + 1/2) / n), each node taken
    # on its own; the lower half is its reversed conjugate, and the middle
    # node of an odd n is real, so a contour closed from the upper half by
    # the mirror runs over these very nodes
    mc = circle_nodes(0.7, n)
    half = n // 2
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    assert np.array_equal(mc[:half], (0.7 * np.exp(1j * theta))[:half])
    assert np.array_equal(mc[n - half :], np.conj(mc[:half][::-1]))
    if n % 2:
        assert (mc[half].real, mc[half].imag) == (-0.7, 0.0)


# ---------------------------------------------------------------------------
# the z ellipse
# ---------------------------------------------------------------------------

def test_z_contour_encloses_what_the_z_plane_rule_needs():
    # on measures whose atoms span up to three decades, sit far from 0 or
    # cluster tightly: the ellipse winds once about every atom, critical
    # point, 0 and the root z* of 1 + c M in (0, min atom), so M maps it
    # to a curve that winds once clockwise about 0 and not about the S_MP
    # pole -1/c; dz/dt is the derivative of its nodes
    rng = np.random.default_rng(53)
    for lo, hi in ((0.01, 10.0), (50.0, 51.0), (1.0, 1.05)):
        for _ in range(60):
            mu = rand_measure(rng, 9, lo, hi)
            c = rng.uniform(0.02, 0.98)
            q = critical_points(mu).critical_points
            root = mp_pole_preimage(mu, c)
            z, dz = z_contour_nodes(mu.atoms, q, 512)
            for p in np.concatenate([mu.atoms, q, [0.0, root]]):
                assert winding_number(z, p) == 1
            m = moment_map(mu, z)
            assert winding_number(m, 0.0) == -1
            assert winding_number(m, -1.0 / c) == 0
            scale = np.max(np.abs(dz))
            err = np.max(np.abs(dz - _parametric_derivative(z)))
            assert err <= 1e-12 * scale
            assert np.allclose(z[256:], np.conj(z[:256][::-1]), rtol=1e-14)


def test_z_contour_nodes_input_contracts():
    atoms = np.array([1.0, 2.0])
    q = np.array([1.5 + 0.1j, 1.5 - 0.1j])
    for n in (8, 17):
        with pytest.raises(ValueError):
            z_contour_nodes(atoms, q, n)
    with pytest.raises(ValueError, match="integer"):
        z_contour_nodes(atoms, q, 16.0)
    z = circle_nodes(1.0, 16)
    rep = ContourRepresentation(z, z)
    with pytest.raises(ValueError):
        moments_from_z_contour(rep, z, 0)
    with pytest.raises(ValueError):
        moments_from_z_contour(rep, z[:15], 2)
    z = circle_nodes(1.0, 17)
    with pytest.raises(ValueError):
        moments_from_z_contour(ContourRepresentation(z, z), z, 2)


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
        free = slit_free_radius(bp)
        mc = circle_nodes(choose_m_contour(free, 0.99)[0], 512)
        rep, dm = _circle_rule(mc, lift_many(mu, mc, free))
        cm = moments_from_z_contour(rep, dm, 2 * mu.n_atoms)
        exact = np.array([mu.moment(k) for k in range(2 * mu.n_atoms + 1)])
        got = np.asarray(cm.moments.values, dtype=float)
        err = np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact)))
        worst = max(worst, err)
    assert worst <= 1e-6
