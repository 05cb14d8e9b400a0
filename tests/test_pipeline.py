"""Forward model, S-transform ratio, deconvolution, and REE assembly."""

import itertools
import json
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from freedeconv.contours import (
    ContourRepresentation,
    choose_m_contour,
    circle_nodes,
    moments_from_z_contour,
)
from freedeconv.errors import (
    InvalidMomentsError,
    NoisyContourError,
    NumericalError,
)
from freedeconv.experiments import SCENARIOS, sample_spectrum
from freedeconv.inversion import critical_points, slit_free_radius
from freedeconv.measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    wasserstein_1,
)
from freedeconv import inversion, pipeline
from freedeconv.pipeline import (
    GAUSS_NODES,
    MAX_MOMENTS,
    DeconvConfig,
    deconvolve,
    forward_contour,
    forward_measure,
    ree_assemble,
)

from helpers import (
    SWEEP_P,
    _spectrum_of_root_times,
    bartlett_factor,
    contour_moment,
    crossing_count,
    deconvolved_moment_series,
    forward_moment_series,
    is_conjugate_symmetric,
    lagrange_sums,
    moments_of,
    mp_density,
    mp_g_quadrature,
    mp_s_transform,
    near_one_draws,
    rand_measure,
    s_transform,
    sweep_draws,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
ONE = DiscreteMeasure([1.0], [1.0])


def _free(mu):
    return slit_free_radius(critical_points(mu).branch_points_upper)


def t_ratio(mu_n, c, m, free):
    """Pointwise ratio S_mu_n(m) / S_MP(m), the S-transform of the estimate."""
    return s_transform(mu_n, m, free) / mp_s_transform(c, m)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_deconv_config_defaults_and_lift_mapping():
    # the recovery knobs are the whole configuration; the spectral stage
    # runs on fixed constants, and the lift's are the inversion module's
    cfg = DeconvConfig()
    assert asdict(cfg) == {"rank_tol": 1e-4, "max_support": 8}
    assert pipeline.CIRCLE_NODES == 512
    assert pipeline.SETTLE_GAP == 1e-9
    assert MAX_MOMENTS == 16
    assert inversion.NEWTON_TOL == 1e-12
    assert inversion.MIN_STEP == 1e-9
    # the lift's series reads m_1 .. m_17, which the Gauss proxy
    # reproduces
    assert inversion.SERIES_ORDER == 16
    assert inversion.SERIES_ORDER + 1 <= 2 * GAUSS_NODES - 1


def test_deconv_config_validation():
    # rank detection up to max_support atoms needs 2 * max_support moments
    with pytest.raises(ValueError, match="max_support"):
        DeconvConfig(max_support=MAX_MOMENTS // 2 + 1)
    with pytest.raises(ValueError, match="max_support"):
        DeconvConfig(max_support=0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="max_support"):
            DeconvConfig(max_support=bad)
    DeconvConfig(max_support=MAX_MOMENTS // 2)
    DeconvConfig(max_support=1)
    for bad in (0.0, -1e-6, float("nan"), float("inf"), True,
                np.True_):
        with pytest.raises(ValueError, match="rank_tol"):
            DeconvConfig(rank_tol=bad)


def test_deconv_config_stores_builtin_scalars():
    # NumPy scalars pass validation and are stored as the builtins, so
    # the result's JSON can write the config it ran with
    cfg = DeconvConfig(rank_tol=np.float32(1e-3), max_support=np.int64(8))
    assert type(cfg.rank_tol) is float and type(cfg.max_support) is int
    sc = SCENARIOS["S3"]
    mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, 7)
    res = pipeline.deconvolve_with_retries(
        mu_n, sc.c, DeconvConfig(max_support=np.int64(8))
    )
    assert json.loads(res.to_json())["config"]["max_support"] == 8
    res = deconvolve(mu_n, sc.c, DeconvConfig(rank_tol=np.float32(1e-3)))
    rank_tol = json.loads(res.to_json())["config"]["rank_tol"]
    assert rank_tol == float(np.float32(1e-3))


# ---------------------------------------------------------------------------
# t_ratio
# ---------------------------------------------------------------------------

def test_t_ratio_is_one_on_pure_noise_spectrum():
    # a fine quadrature discretization of the noise-only spectrum has
    # S close to S_MP, so the ratio is 1 up to discretization error;
    # measured 6.0e-8 on this 200-node rule
    mp = MarchenkoPastur(0.2)
    nodes, wts = leggauss(200)
    xq = 0.5 * (nodes + 1) * (mp.upper_edge - mp.lower_edge) + mp.lower_edge
    wq = wts * np.array([mp_density(mp, x) for x in xq])
    mp_disc = DiscreteMeasure(xq, wq / wq.sum())
    free = _free(mp_disc)
    for m in (0.05 + 0.02j, -0.04 + 0.03j, 0.06j):
        assert abs(t_ratio(mp_disc, 0.2, m, free) - 1.0) < 1e-6


def test_t_ratio_recovers_population_s_as_noise_vanishes():
    # with c -> 0 the spectrum is the population itself, so the ratio
    # tends to S of the point mass at 2, the constant 1/2
    d2 = DiscreteMeasure([2.0], [1.0])
    free = _free(d2)
    for m in (0.1 + 0.05j, -0.2 + 0.1j, 0.3j):
        assert abs(t_ratio(d2, 1e-6, m, free) - 0.5) < 1e-5


def test_t_ratio_commutes_with_conjugation():
    free = _free(TWO)
    m = 0.2 + 0.1j
    t_up = t_ratio(TWO, 0.2, m, free)
    t_dn = t_ratio(TWO, 0.2, np.conj(m), free)
    assert abs(t_dn - np.conj(t_up)) < 1e-12


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def test_forward_contour_moments_point_mass():
    rep = forward_contour(ONE, 0.2)
    assert is_conjugate_symmetric(rep.sigma, rep.values)
    got = [contour_moment(rep, k).real for k in range(3)]
    # product spectrum keeps mass 1 and mean 1; second moment is 1 + c
    assert np.allclose(got, [1.0, 1.0, 1.2], atol=1e-6)


def test_forward_contour_scales_mean_with_population():
    rep = forward_contour(DiscreteMeasure([2.0], [1.0]), 0.2)
    assert contour_moment(rep, 1).real == pytest.approx(2.0, abs=1e-6)


def test_forward_contour_weak_noise_returns_population_moments():
    rep = forward_contour(TWO, 1e-6)
    got = [contour_moment(rep, k).real for k in range(5)]
    exact = [TWO.moment(k) for k in range(5)]
    assert np.allclose(got, exact, atol=1e-4)


def test_forward_contour_satisfies_self_consistency():
    # for a unit point mass the transform solves
    # c z G^2 - (z + c - 1) G + 1 = 0 at every node; measured <= 5.2e-16
    for c in (0.1, 0.25, 0.5, 0.9):
        rep = forward_contour(ONE, c)
        z, G = rep.sigma, rep.values
        assert np.max(np.abs(c * z * G * G - (z + c - 1.0) * G + 1.0)) < 1e-10


def test_forward_contour_matches_quadrature_oracle():
    # measured 3.0e-14
    c = 0.25
    rep = forward_contour(ONE, c)
    oracle = mp_g_quadrature(MarchenkoPastur(c), 400)
    for z, G in zip(rep.sigma[::16], rep.values[::16]):
        assert abs(G - oracle(z)) < 1e-10


def test_forward_contour_values_lie_in_the_lower_half_plane():
    # a Stieltjes transform maps the upper half plane to the lower one
    rng = np.random.default_rng(7)
    cases = [(ONE, 0.2), (TWO, 0.2)] + [
        (rand_measure(rng, 6, 0.1, 10.0), rng.uniform(0.05, 0.95))
        for _ in range(200)
    ]
    for nu, c in cases:
        rep = forward_contour(nu, c)
        assert np.all(rep.values.imag[rep.sigma.imag > 0.0] < 0.0)


def test_forward_contour_is_a_simple_curve():
    # every 8th node, since the brute-force counter is O(n^2)
    for nu, c in ((ONE, 0.5), (TWO, 0.2), (SCENARIOS["S2_3"].population, 0.9)):
        sigma = forward_contour(nu, c).sigma[::8]
        assert crossing_count(np.append(sigma, sigma[0])) == 0


def test_forward_contour_moments_match_the_exact_series():
    # orders 0..32 against the forward moment series in 60 digits, on the
    # named populations and on random ones
    rng = np.random.default_rng(24)
    cases = [
        (SCENARIOS[sid].population, SCENARIOS[sid].c)
        for sid in ("S1", "S2_1", "S2_2", "S2_3")
    ] + [
        (rand_measure(rng, 6, 0.1, 10.0), rng.uniform(0.05, 0.95))
        for _ in range(40)
    ]
    for nu, c in cases:
        rep = forward_contour(nu, c)
        got = np.array([contour_moment(rep, k).real for k in range(33)])
        exact = forward_moment_series(nu, c, 32)
        assert np.max(np.abs(got / exact - 1.0)) < 1e-10, (nu, c)
        # the Lagrange rule `forward_measure` takes them by, with m = M(z)
        # and dm/dt explicit, needs no differentiated contour: its worst
        # error read 1.4e-13 here, the G form's 1.2e-11
        rep, dm = pipeline._forward_pass(nu, c)
        got = moments_from_z_contour(rep, dm, 32).moments.values
        err = np.abs(np.asarray(got) - exact) / np.maximum(1.0, exact)
        assert np.max(err) < 1e-12, (nu, c)


def test_forward_mp_g_conjugate_equivariant():
    # the forward G on the contour: the lower half is the exact mirror of
    # the upper half, nodes and values alike
    rep = forward_contour(TWO, 0.2)
    half = len(rep.sigma) // 2
    assert np.array_equal(rep.sigma[half:], np.conj(rep.sigma[:half][::-1]))
    assert np.array_equal(rep.values[half:], np.conj(rep.values[:half][::-1]))


def test_forward_mp_g_input_contracts():
    # G is only taken off the real axis, and the aspect ratio must lie in
    # (0, 1) on every forward path
    assert np.all(forward_contour(TWO, 0.2).sigma.imag != 0.0)
    for c in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="aspect ratio"):
            forward_contour(TWO, c)
        with pytest.raises(ValueError, match="aspect ratio"):
            forward_measure(TWO, c)


def test_forward_contour_input_contracts():
    with pytest.raises(ValueError, match="aspect ratio"):
        forward_contour(TWO, 1.5)
    for nu in (
        DiscreteMeasure([-1.0, 2.0], [0.5, 0.5]),
        DiscreteMeasure([0.0], [1.0]),
    ):
        with pytest.raises(ValueError, match="atoms"):
            forward_contour(nu, 0.2)


def test_forward_measure_mean_and_hull():
    mu = forward_measure(TWO, 0.2)
    assert mu.moment(1) == pytest.approx(1.5, abs=1e-8)
    mp = MarchenkoPastur(0.2)
    assert np.all(mu.atoms >= mp.lower_edge * 1.0 - 1e-9)
    assert np.all(mu.atoms <= mp.upper_edge * 2.0 + 1e-9)


def test_forward_measure_satisfies_s_factorization():
    # S of the product spectrum is S_nu(m) / (1 + c m); check one point
    # on the exact proxy of a point mass at 2
    c = 0.2
    proxy = forward_measure(DiscreteMeasure([2.0], [1.0]), c, tol=1e-8)
    free = _free(proxy)
    for m in (0.05 + 0.05j, -0.1 + 0.08j):
        lhs = s_transform(proxy, m, free)
        rhs = 0.5 / (1.0 + c * m)
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# deconvolve
# ---------------------------------------------------------------------------

def test_deconvolve_recovers_population_from_exact_spectra():
    # noise-free spectra of random 2- and 3-atom populations;
    # measured worst transport error 1.3e-12
    rng = np.random.default_rng(5)
    worst = 0.0
    for c in (0.1, 0.2, 0.5):
        for _ in range(2):
            l = int(rng.integers(2, 4))
            atoms = np.sort(rng.uniform(0.5, 5.0, l))
            while np.min(np.diff(atoms)) < 0.3:
                atoms = np.sort(rng.uniform(0.5, 5.0, l))
            w = rng.uniform(0.3, 1.0, l)
            nu = DiscreteMeasure(atoms, w / w.sum())
            mu_f = forward_measure(nu, c, tol=1e-8)
            est = deconvolve(mu_f, c).estimate
            worst = max(worst, wasserstein_1(est, nu))
    assert worst <= 1e-3


def test_deconvolve_result_structure():
    nu = TWO
    mu_f = forward_measure(nu, 0.2, tol=1e-8)
    res = deconvolve(mu_f, 0.2)
    assert isinstance(res.contour, ContourRepresentation)
    assert is_conjugate_symmetric(res.contour.sigma, res.contour.values)
    assert res.diagnostics.rank == res.estimate.n_atoms
    assert res.diagnostics.imag_residue < 1e-6
    assert res.diagnostics.t_total_s >= 0.0
    # the circle is lifted once
    assert res.diagnostics.nodes_used == pipeline.CIRCLE_NODES
    assert res.moments_used[1] == pytest.approx(1.5, abs=1e-6)
    payload = json.loads(res.to_json())
    assert set(payload) == {"estimate", "moments_used", "diagnostics", "config"}
    assert payload["estimate"]["atoms"] == res.estimate.atoms.tolist()
    assert payload["diagnostics"]["rank"] == res.estimate.n_atoms


def test_deconvolve_result_json_schema():
    # pins every field a run reports and every knob it records, so a new
    # or renamed field is a deliberate change of this list
    res = deconvolve(forward_measure(TWO, 0.2, tol=1e-8), 0.2)
    payload = json.loads(res.to_json())
    assert list(payload) == ["estimate", "moments_used", "diagnostics", "config"]
    assert list(payload["estimate"]) == ["atoms", "weights"]
    assert list(payload["diagnostics"]) == [
        "imag_residue",
        "rank",
        "pivots",
        "moment_error",
        "proxy_atoms",
        "n_slits",
        "contour_radius",
        "radius_limiter",
        "nodes_used",
        "settle_gap",
        "moment_rule",
        "lift_steps_total",
        "lift_steps_max",
        "t_ramification_s",
        "t_lift_s",
        "t_moments_s",
        "t_recovery_s",
        "t_total_s",
    ]
    assert list(payload["config"]) == ["rank_tol", "max_support"]
    assert len(payload["moments_used"]) == MAX_MOMENTS + 1
    assert 0.0 <= payload["diagnostics"]["settle_gap"] < 1e-9
    assert payload["diagnostics"]["moment_rule"] == "m_circle"
    assert 0.0 <= payload["diagnostics"]["moment_error"] <= 10.0 * 1e-4
    # an L-atom proxy has L - 1 conjugate pairs of critical points, and
    # each carries one slit pair
    d = payload["diagnostics"]
    assert d["n_slits"] == d["proxy_atoms"] - 1
    assert d["radius_limiter"] == "unit_cap"
    # the scaled Hankel pivots of the order-8 factorization, through the
    # first one that is not positive; the rank cut stops at the first
    # one below rank_tol
    assert 1 <= len(d["pivots"]) <= MAX_MOMENTS // 2
    assert type(res.diagnostics.pivots) is tuple
    assert all(type(v) is float for v in res.diagnostics.pivots)
    below = [k for k, v in enumerate(d["pivots"]) if v < 1e-4]
    assert d["rank"] == (below[0] if below else MAX_MOMENTS // 2)


def test_deconvolve_reports_the_chosen_radius_exactly():
    # noise-free spectra of three scenarios, one per radius limiter; each
    # circle reaches at most 0.9 of the way to the nearest branch point or
    # to the S_MP pole
    def run(sc_id):
        sc = SCENARIOS[sc_id]
        mu_f = forward_measure(sc.population, sc.c, tol=1e-8)
        d = deconvolve(mu_f, sc.c).diagnostics
        bp = critical_points(pipeline._gauss_proxy(mu_f)).branch_points_upper
        assert d.contour_radius <= 0.9 * min(slit_free_radius(bp), 1 / sc.c)
        return bp, d

    d = run("S2_1")[1]
    assert (d.contour_radius, d.radius_limiter) == (1.0, "unit_cap")
    d = run("S2_2")[1]
    assert (d.contour_radius, d.radius_limiter) == (0.5 / 0.95, "mp_pole")
    bp, d = run("S2_3")
    bounds = 0.9 * np.hypot(bp.real, bp.imag)
    assert d.contour_radius < 1.0 and d.contour_radius in bounds
    assert (d.contour_radius, d.radius_limiter) == choose_m_contour(
        slit_free_radius(bp), SCENARIOS["S2_3"].c
    )
    assert d.radius_limiter == "slit"
    assert d.n_slits == bp.size > 0


def _s3_seed_7():
    """The sampled S3 spectrum at n = 500, seed 7, that the settling tests
    below were written on: V^1/2 A A^T V^1/2 / n for seed 7's Bartlett
    factor A and the dense Toeplitz V.  `sample_spectrum` draws the same
    law at V's eigenvalues, which is another realization, so the input is
    built here."""
    sc = SCENARIOS["S3"]
    p = round(sc.c * 500)
    a = bartlett_factor(p, 500, 7)
    return _spectrum_of_root_times(sc.population, 500, a)


def test_deconvolve_reports_whether_the_moments_settled(monkeypatch, caplog):
    # this sampled S3 spectrum's circle settles at 512 nodes but not at 256,
    # where the run logs a warning and takes the z ellipse's moments, which
    # settle there.  At 128 nodes neither rule settles, and the run raises
    # at the ellipse pass with its gap
    sc = SCENARIOS["S3"]
    mu_n = _s3_seed_7()

    def run(nodes):
        monkeypatch.setattr(pipeline, "CIRCLE_NODES", nodes)
        caplog.clear()
        with caplog.at_level("WARNING", logger="freedeconv.pipeline"):
            d = pipeline.deconvolve_with_retries(mu_n, sc.c).diagnostics
        settled = d.settle_gap < pipeline.SETTLE_GAP
        return (settled, d.nodes_used, d.moment_rule), caplog.text

    full, log = run(512)
    assert full == (True, 512, "m_circle")
    assert log == ""
    coarse, log = run(256)
    assert coarse == (True, 256, "z_ellipse")
    assert "circle moments did not settle" in log
    with pytest.raises(NoisyContourError) as info:
        run(128)
    assert info.value.stage == "z_plane_pass"
    assert info.value.diagnostics["settle_gap"] >= pipeline.SETTLE_GAP
    assert "circle moments did not settle" in caplog.text


def test_a_pass_settled_at_the_start_matches_a_forced_doubled_pass(
    monkeypatch,
):
    # sampled spectra whose pass settles against its own even nodes: a
    # pass at twice the nodes moves none of their moments by 1e-9.
    # S3 at seed 7 is slit-limited: its circle keeps only the 10 % radial
    # clearance from its nearest branch point
    for sc_id, seed in (("S2_1", 1), ("S2_3", 2), ("S3", 1), ("S3", 7)):
        sc = SCENARIOS[sc_id]
        mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, seed)
        first = pipeline.deconvolve_with_retries(mu_n, sc.c)
        assert first.diagnostics.nodes_used == pipeline.CIRCLE_NODES
        assert first.diagnostics.settle_gap < 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "CIRCLE_NODES", 2 * pipeline.CIRCLE_NODES)
            forced = pipeline.deconvolve_with_retries(mu_n, sc.c)
        assert forced.diagnostics.nodes_used == 2 * pipeline.CIRCLE_NODES
        got = np.asarray(first.moments_used.values)
        ref = np.asarray(forced.moments_used.values)
        assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


def _circle_rule(m, z):
    # the contour of a counterclockwise m circle's image z, which winds
    # clockwise: the nodes reversed, with G = (1 + m) / z and dm/dt = -i m
    # on each
    rm = m[::-1]
    return ContourRepresentation(z[::-1], (1.0 + rm) / z[::-1]), -1j * rm


def test_a_pass_settles_on_its_complex_gap_not_its_real_part(
    monkeypatch, caplog
):
    # sampled S3 at n = 500, seed 7, at 256 nodes: the real parts of the
    # full and the even-node Lagrange sums on the circle agree to 1e-15,
    # the sums to 7e-9 only.  The even nodes sit a quarter node off, which
    # turns the leading alias term imaginary, so only the complex gap
    # measures the error, and the run leaves the circle for the z ellipse
    sc = SCENARIOS["S3"]
    mu_n = _s3_seed_7()
    monkeypatch.setattr(pipeline, "CIRCLE_NODES", 256)
    with caplog.at_level("WARNING", logger="freedeconv.pipeline"):
        res = pipeline.deconvolve_with_retries(mu_n, sc.c)
    assert res.diagnostics.moment_rule == "z_ellipse"
    assert "circle moments did not settle" in caplog.text
    # the circle the run lifted, at its radius
    proxy = pipeline._gauss_proxy(mu_n)
    free = slit_free_radius(critical_points(proxy).branch_points_upper)
    m = circle_nodes(res.diagnostics.contour_radius, 256)
    w = inversion.lift_many(proxy, m[:128], free)
    z = w / (1.0 + sc.c * m[:128])
    z = np.concatenate([z, np.conj(z[::-1])])
    # in the order of the circle's contour, the nodes reversed
    full, half = lagrange_sums(m[::-1], z[::-1], MAX_MOMENTS)
    scale = np.maximum(1.0, np.abs(full.real))
    assert np.max(np.abs((full - half).real) / scale) < 1e-12
    gap = np.max(np.abs(full - half) / scale)
    circle = moments_from_z_contour(*_circle_rule(m, z), MAX_MOMENTS)
    assert circle.half_gap == pytest.approx(gap, rel=1e-3)
    assert circle.half_gap >= pipeline.SETTLE_GAP


@pytest.mark.parametrize("sc_id", ["S1", "S2_1", "S2_2", "S2_3", "S3"])
def test_the_contour_is_the_image_the_moments_were_taken_on(sc_id):
    # the result's contour is the lifted image z of the accepted pass's
    # circle, reversed, not a copy rebuilt from S values: its moments are
    # the result's, bit for bit, and G = (1 + m) / z on it exactly
    sc = SCENARIOS[sc_id]
    for seed in (1, 2):
        mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, seed)
        res = pipeline.deconvolve_with_retries(mu_n, sc.c)
        d = res.diagnostics
        m = circle_nodes(d.contour_radius, d.nodes_used)
        sigma = res.contour.sigma
        _, dm = _circle_rule(m, sigma[::-1])
        again = moments_from_z_contour(res.contour, dm, MAX_MOMENTS).moments
        assert np.array_equal(again.values, res.moments_used.values)
        assert np.array_equal(res.contour.values, (1.0 + m[::-1]) / sigma)


# the series oracle on the proxy's moments; S2_2 is not sampled at
# n = 8000, where p = 7600 takes minutes and 1.4 GB to sample
SERIES_RUNS = [
    (sc_id, n, seed, 5e-11 if sc_id == "S2_2" else 1e-11)
    for sc_id in ("S1", "S2_1", "S2_2", "S2_3", "S3")
    for n in (500, 2000, 8000)
    for seed in (1, 2)
    if (sc_id, n) != ("S2_2", 8000)
]


@pytest.mark.parametrize("sc_id, n, seed, tol", SERIES_RUNS)
def test_spectral_stage_moments_match_the_series(sc_id, n, seed, tol):
    sc = SCENARIOS[sc_id]
    mu_n = sample_spectrum(sc.population, round(sc.c * n), n, seed)
    spectral = pipeline._spectral_stage(mu_n, sc.c)
    ref = deconvolved_moment_series(
        pipeline._gauss_proxy(mu_n), sc.c, MAX_MOMENTS
    )
    got = np.asarray(spectral.moments.values)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= tol


# populations and aspect ratios near c = 1 whose circle the S_MP pole caps
MP_POLE_INPUTS = [
    ((2.9635, 3.9618, 4.0518), (0.2656, 0.4802, 0.2542), 0.95),
    ((1.8801, 1.3212, 1.7577), (0.4356, 0.3236, 0.2409), 0.95),
    ((3.54, 7.8421, 5.2472), (0.3879, 0.3271, 0.285), 0.8),
]


@pytest.mark.parametrize("atoms, weights, c", MP_POLE_INPUTS)
def test_circles_capped_by_the_mp_pole_settle(atoms, weights, c):
    # inputs whose circle the S_MP pole caps match the series.  They settle
    # at 512 nodes with gaps of 6.4e-11, 2.5e-10 and 8.7e-10, the last
    # close to SETTLE_GAP; their moments lie 1.3e-9, 1.3e-10 and 4.6e-10
    # from the series, so near c = 1 the gap reads rounding rather than
    # truncation
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    spectral = pipeline._spectral_stage(mu, c)
    d = spectral.diagnostics
    assert d["radius_limiter"] == "mp_pole"
    assert d["nodes_used"] == pipeline.CIRCLE_NODES
    assert d["settle_gap"] < pipeline.SETTLE_GAP
    ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
    got = np.asarray(spectral.moments.values)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-8


@pytest.mark.parametrize("atoms, weights, c", MP_POLE_INPUTS)
def test_the_z_ellipse_settles_where_the_mp_pole_caps_the_circle(
    atoms, weights, c
):
    # the ellipse spans from 0, a zero of sigma = z / (1 + c M), so its
    # image winds once about sigma = 0 and runs counterclockwise; it
    # settles with gaps of 4.1e-14, 2.1e-14 and 8.3e-14, and its moments
    # lie 3.1e-14, 2.5e-14 and 1.5e-13 from the series
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    critical = critical_points(mu).critical_points
    _, got = pipeline._z_plane_pass(mu, critical, c)
    assert got.half_gap < pipeline.SETTLE_GAP
    ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
    err = np.abs(np.asarray(got.moments.values) - ref)
    assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-10


@pytest.mark.parametrize("atoms, weights, c", MP_POLE_INPUTS)
def test_circles_the_mp_pole_caps_fall_back_on_the_z_ellipse(
    atoms, weights, c, monkeypatch
):
    # at a settle gap of 1e-12 these circles, whose gaps read 6.4e-11 to
    # 8.7e-10, do not settle, and the stage takes the ellipse's moments
    monkeypatch.setattr(pipeline, "SETTLE_GAP", 1e-12)
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    spectral = pipeline._spectral_stage(mu, c)
    assert spectral.diagnostics["moment_rule"] == "z_ellipse"
    ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
    err = np.abs(np.asarray(spectral.moments.values) - ref)
    assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-10


# near-c = 1 inputs whose z ellipse's image has negative signed area
NEGATIVE_AREA_INPUTS = [
    ((1.3332, 2.5174, 2.1659), (0.1541, 0.3847, 0.1353), 0.71),
    ((2.6965, 2.0594), (0.1575, 0.1381), 0.9),
    ((2.3582, 3.4632, 3.4496, 4.0159), (0.1464, 0.8964, 0.8151, 0.5185), 0.89),
]


@pytest.mark.parametrize("atoms, weights, c", NEGATIVE_AREA_INPUTS)
def test_a_negative_area_z_ellipse_settles_on_the_series(
    atoms, weights, c
):
    # near c = 1, sigma = z / (1 + c M(z)) maps the z ellipse of these
    # inputs to a curve whose signed area is negative, yet it winds once
    # about the support the right way: its mass reads 1, it settles with
    # gaps of 6.4e-15 to 3.8e-14, and its moments lie within 4.4e-14 of
    # the series
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    critical = critical_points(mu).critical_points
    _, got = pipeline._z_plane_pass(mu, critical, c)
    assert got.half_gap < pipeline.SETTLE_GAP
    ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
    err = np.abs(np.asarray(got.moments.values) - ref)
    assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-12


# tight two-atom clusters near c = 1 whose z ellipse does not settle,
# with gaps of 8.1e6, 7.4e3 and 1.0e5, while their circle settles.  The
# first is near-c = 1 draw 98 to four digits; on draw 98 itself the
# ellipse's moments would lie 21.6, relative, from the series
UNSETTLED_ELLIPSE_INPUTS = [
    ((4.6636, 4.8281), (0.4105, 0.5895), 0.772),
    ((3.325, 3.5295), (0.7524, 0.2476), 0.8224),
    ((3.9072, 4.2647), (0.1867, 0.8133), 0.8041),
]


@pytest.mark.parametrize("atoms, weights, c", UNSETTLED_ELLIPSE_INPUTS)
def test_a_z_ellipse_that_does_not_settle_raises_at_its_stage(
    atoms, weights, c
):
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    critical = critical_points(mu).critical_points
    with pytest.raises(NoisyContourError, match="did not settle") as info:
        pipeline._z_plane_pass(mu, critical, c)
    assert info.value.stage == "z_plane_pass"
    assert info.value.diagnostics["settle_gap"] >= pipeline.SETTLE_GAP
    d = pipeline._spectral_stage(mu, c).diagnostics
    assert d["moment_rule"] == "m_circle"
    assert d["settle_gap"] < pipeline.SETTLE_GAP


def test_the_z_ellipse_on_the_near_one_set_settles_or_raises_a_typed_error():
    # the 200 measures of the near-c = 1 set, taken as they are: each
    # ellipse pass matches the series within 1e-9, or raises
    # NoisyContourError at its own stage with the gap it did not settle
    # on.  182 settle, within 1.8e-11 of the series, and 18 raise, with
    # gaps of 2.1e-9 to 5.3e7: each has two atoms close together
    settled = 0
    for mu, c in near_one_draws():
        critical = critical_points(mu).critical_points
        try:
            _, got = pipeline._z_plane_pass(mu, critical, c)
        except NoisyContourError as exc:
            assert exc.stage == "z_plane_pass"
            assert exc.diagnostics["settle_gap"] >= pipeline.SETTLE_GAP
            continue
        settled += 1
        ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
        err = np.abs(np.asarray(got.moments.values) - ref)
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-9
    assert settled >= 180


def test_the_spectral_stage_returns_every_draw_of_the_near_one_set():
    # the circle settles on 189 of the 200 draws, within 1.2e-9 of the
    # series, and the z ellipse on the other 11, within 1.8e-11
    rules = []
    for mu, c in near_one_draws():
        spectral = pipeline._spectral_stage(mu, c)
        d = spectral.diagnostics
        assert d["settle_gap"] < pipeline.SETTLE_GAP
        rules.append(d["moment_rule"])
        ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
        err = np.abs(np.asarray(spectral.moments.values) - ref)
        bound = 1e-9 if d["moment_rule"] == "z_ellipse" else 1e-8
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= bound
    assert rules.count("m_circle") >= 180


def _wide_draw(i):
    nu, c, n, seed = next(itertools.islice(sweep_draws("wide"), i, None))
    return nu, c, sample_spectrum(nu, SWEEP_P, n, seed)


def _series_gap(mu_n, c, moments):
    proxy = pipeline._gauss_proxy(mu_n)
    ref = deconvolved_moment_series(proxy, c, MAX_MOMENTS)
    got = np.asarray(moments.values)
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize(
    "draw, rung, rank, w1, tol",
    [
        (110, (1e-3, 8), 2, 0.367578, 2e-7),
        (254, (1e-2, 8), 2, 28.580930, 2e-8),
    ],
)
def test_wide_sweep_draws_whose_circle_does_not_settle(
    draw, rung, rank, w1, tol
):
    # two of the wide sweep's three draws whose 512-node circle reads a
    # gap above 1e-9: slit-limited circles of radius 0.056 and 0.059.  On
    # so small a circle the Lagrange sums cancel to a rounding floor near
    # 1e-7 and 1e-9, set by the last bits of the sample and the lift.
    # Draw 110's circle reads 1.5e-7 and the run takes the z ellipse's
    # moments.  Draw 254's reads 5.8e-10 to 2.9e-9 by the number of BLAS
    # threads that sampled it: it keeps the circle's moments, within `tol`
    # of the series, or takes the ellipse's.  Either way the estimate is
    # the same, and the ellipse's moments match the series within 1e-10
    nu, c, mu_n = _wide_draw(draw)
    res = pipeline.deconvolve_with_retries(mu_n, c)
    d = res.diagnostics
    assert d.nodes_used == pipeline.CIRCLE_NODES
    assert d.settle_gap < pipeline.SETTLE_GAP
    assert d.moment_rule == "z_ellipse" or draw == 254
    assert res.config == DeconvConfig(*rung)
    assert d.rank == rank
    assert wasserstein_1(res.estimate, nu) == pytest.approx(w1, abs=1e-6)
    bound = 1e-10 if d.moment_rule == "z_ellipse" else tol
    assert _series_gap(mu_n, c, res.moments_used) <= bound


def test_wide_sweep_draw_233_sits_on_the_imaginary_residue_gate():
    # the third: a circle of radius 0.038 whose pass is far from settled.
    # Its Lagrange sums cancel by 10 digits, so its imaginary residue, the
    # 1e-6 gate of `moments_from_z_contour`, reads 5e-7 to 2e-6 by the last
    # bits of the sample and the lift, and its moments lie 3e-6 to 3e-5
    # from the series.  Whether the circle raises or does not settle, the
    # run takes the z ellipse's moments, which match the series within
    # 1e-10: rung (1e-4, 8), rank 4
    nu, c, mu_n = _wide_draw(233)
    proxy = pipeline._gauss_proxy(mu_n)
    free = slit_free_radius(critical_points(proxy).branch_points_upper)
    radius, _ = choose_m_contour(free, c)
    m = circle_nodes(radius, pipeline.CIRCLE_NODES)
    half = pipeline.CIRCLE_NODES // 2
    z = inversion.lift_many(proxy, m[:half], free) / (1.0 + c * m[:half])
    z = np.concatenate([z, np.conj(z[::-1])])
    try:
        circle = moments_from_z_contour(*_circle_rule(m, z), MAX_MOMENTS)
    except NoisyContourError as exc:
        assert 1e-6 <= exc.diagnostics["imag_residue"] < 1e-5
    else:
        assert 1e-7 < circle.imag_residue < 1e-6
        assert circle.half_gap > 1e-6
    res = pipeline.deconvolve_with_retries(mu_n, c)
    d = res.diagnostics
    assert d.moment_rule == "z_ellipse"
    assert d.nodes_used == pipeline.CIRCLE_NODES
    assert d.settle_gap < pipeline.SETTLE_GAP
    assert d.imag_residue < 1e-12
    assert res.config == DeconvConfig(1e-4, 8)
    assert d.rank == 4
    assert wasserstein_1(res.estimate, nu) == pytest.approx(0.799763, abs=1e-6)
    assert _series_gap(mu_n, c, res.moments_used) <= 1e-10


def test_the_z_ellipse_matches_the_series():
    # every 16th draw of both sweeps, 50 inputs, and a sampled S3 and S2_3
    # spectrum: the z ellipse's moments match the 60-digit series within
    # 1e-10 and settle, and its contour carries G = (1 + m) / sigma, whose
    # residue rule `contour_moment` gives the same moments.  On all 800
    # sweep draws the worst error read 7.0e-12
    inputs = [
        (sample_spectrum(nu, SWEEP_P, n, seed), c)
        for kind in ("uniform", "wide")
        for nu, c, n, seed in itertools.islice(sweep_draws(kind), 0, None, 16)
    ]
    for sc_id in ("S3", "S2_3"):
        sc = SCENARIOS[sc_id]
        inputs.append(
            (sample_spectrum(sc.population, round(sc.c * 500), 500, 1), sc.c)
        )
    for mu_n, c in inputs:
        proxy = pipeline._gauss_proxy(mu_n)
        q = critical_points(proxy).critical_points
        rep, got = pipeline._z_plane_pass(proxy, q, c)
        assert got.half_gap < 1e-9
        ref = deconvolved_moment_series(proxy, c, MAX_MOMENTS)
        err = np.abs(np.asarray(got.moments.values) - ref)
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-10
        again = [contour_moment(rep, k).real for k in range(MAX_MOMENTS + 1)]
        err = np.abs(np.asarray(again) - ref)
        assert np.max(err / np.maximum(1.0, np.abs(ref))) <= 1e-9


def test_a_sweep_slice_returns_estimates_or_staged_errors():
    # every 16th draw of the uniform and the wide sweep, 50 inputs: each
    # run returns an estimate or raises a typed error that names its stage
    for kind in ("uniform", "wide"):
        for nu, c, n, seed in itertools.islice(sweep_draws(kind), 0, None, 16):
            mu_n = sample_spectrum(nu, SWEEP_P, n, seed)
            try:
                res = pipeline.deconvolve_with_retries(mu_n, c)
            except NumericalError as exc:
                assert exc.stage
                continue
            assert res.estimate.n_atoms == res.diagnostics.rank


def sampled_s2_3():
    sc = SCENARIOS["S2_3"]
    return sample_spectrum(sc.population, 400, 2000, 1), sc.c


@pytest.mark.parametrize("kind", ["sampled", "clusters"])
def test_gauss_proxy_reproduces_moments_through_2k_minus_1(kind):
    if kind == "sampled":
        mu, _ = sampled_s2_3()
    else:
        # three tight clusters of 100 atoms each, spaced 1e-7 apart
        atoms = np.concatenate(
            [x + 1e-7 * np.arange(100) for x in (0.5, 1.3, 2.9)]
        )
        mu = DiscreteMeasure(atoms, np.full(300, 1.0 / 300))
    proxy = pipeline._gauss_proxy(mu)
    assert proxy.n_atoms == GAUSS_NODES
    order = 2 * GAUSS_NODES - 1
    assert order == MAX_MOMENTS + 1
    exact = np.asarray(moments_of(mu, order).values)
    approx = np.asarray(moments_of(proxy, order).values)
    assert np.max(np.abs(approx - exact) / np.abs(exact)) <= 1e-12


def test_gauss_proxy_passes_small_measures_through():
    for mu in (ONE, TWO, forward_measure(TWO, 0.2, tol=1e-8)):
        assert mu.n_atoms <= GAUSS_NODES
        assert pipeline._gauss_proxy(mu) is mu


def test_gauss_proxy_reports_a_lanczos_breakdown():
    # the first off-diagonal overflows to inf
    mu = DiscreteMeasure(np.linspace(1.0, 2.0, 12) * 1e200, np.full(12, 1 / 12))
    with np.errstate(over="ignore"), pytest.raises(NumericalError) as exc_info:
        pipeline._gauss_proxy(mu)
    assert exc_info.value.stage == "gauss_proxy"


def test_deconvolve_on_the_proxy_matches_the_full_measure(monkeypatch):
    # the spectral stage alone: recovery may reject a sampled spectrum's
    # moments at the first rung, which the retry ladder absorbs
    mu, c = sampled_s2_3()
    res = pipeline._spectral_stage(mu, c)
    assert res.diagnostics["proxy_atoms"] == GAUSS_NODES
    monkeypatch.setattr(pipeline, "_gauss_proxy", lambda m: m)
    ref = pipeline._spectral_stage(mu, c)
    assert ref.diagnostics["proxy_atoms"] == mu.n_atoms
    got = np.asarray(res.moments.values)
    want = np.asarray(ref.moments.values)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_deconvolve_chooses_the_radius_of_the_proxy():
    mu, c = sampled_s2_3()
    d = pipeline._spectral_stage(mu, c).diagnostics
    proxy = pipeline._gauss_proxy(mu)
    bp = critical_points(proxy).branch_points_upper
    assert (d["contour_radius"], d["radius_limiter"]) == choose_m_contour(
        slit_free_radius(bp), c
    )


def test_deconvolve_rejects_inconsistent_input():
    # a pure point mass cannot be the spectrum of any population under
    # nonzero noise, and the moment gate is the stage that notices
    with pytest.raises(InvalidMomentsError) as exc_info:
        deconvolve(ONE, 0.2)
    assert exc_info.value.stage == "recover_measure"


def test_the_last_rung_returns_the_point_mass_at_m_1():
    # S_MP preserves m_1, so the last rung's rank-1 estimate, the point
    # mass at m_1 of mu_n, lies inside the sanity window: the ladder
    # returns it where every earlier rung rejects the moments
    res = pipeline.deconvolve_with_retries(ONE, 0.2)
    assert res.config == DeconvConfig(1e-2, 1)
    assert res.estimate.atoms == pytest.approx([1.0], rel=1e-14)
    assert res.estimate.weights == pytest.approx([1.0], rel=1e-14)
    sc = SCENARIOS["S2_3"]
    for seed in (1, 2, 3):
        mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, seed)
        m_1 = mu_n.atoms @ mu_n.weights
        est = deconvolve(mu_n, sc.c, DeconvConfig(1e-2, 1)).estimate
        assert est.atoms == pytest.approx([m_1], rel=1e-13)


def test_the_ladder_raises_only_when_no_rung_keeps_a_rank():
    # every rung's tolerance exceeds the leading scaled pivot m_0 = 1, so
    # each recovers rank 0 and the last rung's error propagates
    mu_f = forward_measure(TWO, 0.2, tol=1e-8)
    with pytest.raises(InvalidMomentsError, match="leading Hankel pivot") as e:
        pipeline.deconvolve_with_retries(mu_f, 0.2, DeconvConfig(rank_tol=2.0))
    assert e.value.stage == "recover_measure"


def test_deconvolve_validates_aspect_ratio(monkeypatch):
    mu_f = forward_measure(TWO, 0.2, tol=1e-8)

    def stage_work(mu):
        raise AssertionError("the spectral stage started before checking c")

    monkeypatch.setattr(pipeline, "_gauss_proxy", stage_work)
    for run in (deconvolve, pipeline.deconvolve_with_retries):
        for c in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="aspect ratio"):
                run(mu_f, c)


def test_deconvolve_honors_config():
    mu_f = forward_measure(TWO, 0.2, tol=1e-8)
    cfg = DeconvConfig(max_support=6)
    res = deconvolve(mu_f, 0.2, cfg)
    assert res.config == cfg
    assert res.diagnostics.rank <= 6
    assert wasserstein_1(res.estimate, TWO) < 1e-6
    assert len(res.moments_used) == MAX_MOMENTS + 1


@pytest.fixture
def ramification_calls(monkeypatch):
    """Counts the calls of `critical_points` made through the pipeline."""
    calls = []
    original = pipeline.critical_points

    def counted(mu):
        calls.append(mu)
        return original(mu)

    monkeypatch.setattr(pipeline, "critical_points", counted)
    return calls


def test_deconvolve_runs_the_spectral_stage_unless_handed_one(
    ramification_calls,
):
    sc = SCENARIOS["S1"]
    mu_n = sample_spectrum(sc.population, 50, 250, 33)
    cfg = DeconvConfig(rank_tol=1e-2, max_support=1)
    first = deconvolve(mu_n, sc.c, cfg)
    again = deconvolve(mu_n, sc.c, cfg)
    assert len(ramification_calls) == 2
    stage = pipeline._spectral_stage(mu_n, sc.c)
    rung = deconvolve(mu_n, sc.c, cfg, spectral=stage)
    assert len(ramification_calls) == 3
    assert rung.contour is stage.contour
    # a rung reports the stage's own effort, and its total includes it
    diags = asdict(rung.diagnostics)
    assert {k: diags[k] for k in stage.diagnostics} == stage.diagnostics
    assert diags["t_total_s"] >= stage.wall_s + diags["t_recovery_s"]
    for res in (again, rung):
        assert repr(res.estimate.atoms.tolist()) == repr(
            first.estimate.atoms.tolist()
        )
        assert repr(res.estimate.weights.tolist()) == repr(
            first.estimate.weights.tolist()
        )
        assert res.diagnostics.nodes_used == first.diagnostics.nodes_used
        assert res.diagnostics.rank == first.diagnostics.rank
    # a stage is tied to the input it was built from
    with pytest.raises(ValueError, match="another input"):
        deconvolve(TWO, sc.c, cfg, spectral=stage)
    with pytest.raises(ValueError, match="another input"):
        deconvolve(mu_n, 0.19, cfg, spectral=stage)
    assert len(ramification_calls) == 3


def test_a_retry_ladder_run_rebinds_no_module_global():
    # state carried from one call to the next would live in a module global
    names = [
        name
        for name in sys.modules
        if name == "freedeconv" or name.startswith("freedeconv.")
    ]
    # the copies keep every old object alive, so its id cannot be reused
    before = {name: dict(vars(sys.modules[name])) for name in names}
    sc = SCENARIOS["S2_1"]
    mu_n = sample_spectrum(sc.population, 100, 500, 1)
    pipeline.deconvolve_with_retries(mu_n, sc.c)
    for name, old in before.items():
        new = vars(sys.modules[name])
        rebound = sorted(
            key
            for key in old.keys() | new.keys()
            if key not in old or key not in new or new[key] is not old[key]
        )
        assert rebound == [], f"{name} rebinds {rebound}"


def test_estimates_do_not_depend_on_the_width_of_long_double(monkeypatch):
    # np.longdouble is 80-bit on x86-64 Linux but plain double with MSVC
    # and on macOS arm64; rebinding it to float64 plays the latter here
    def estimates():
        results = []
        for sc_id, n, seed in (
            ("S2_3", 500, 1), ("S3", 500, 7), ("S2_1", 2000, 2), ("S2_2", 500, 3)
        ):
            sc = SCENARIOS[sc_id]
            mu_n = sample_spectrum(sc.population, round(sc.c * n), n, seed)
            results.append(pipeline.deconvolve_with_retries(mu_n, sc.c))
        pop = SCENARIOS["S2_3"].population
        results.append(deconvolve(forward_measure(pop, 0.2, tol=1e-8), 0.2))
        return results

    plain = estimates()
    monkeypatch.setattr(np, "longdouble", np.float64)
    for a, b in zip(plain, estimates(), strict=True):
        assert a.estimate == b.estimate
        assert a.diagnostics.rank == b.diagnostics.rank
        assert a.config == b.config


@pytest.mark.parametrize("sc_id", sorted(SCENARIOS))
def test_the_estimate_scales_with_the_input(sc_id):
    # nu_hat(lam mu_n) = lam nu_hat(mu_n): the same rung and rank, and atoms
    # within rounding; seeds 1-3 read at most 4e-12 relative W1
    sc = SCENARIOS[sc_id]
    for seed in (1, 2):
        mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, seed)
        base = pipeline.deconvolve_with_retries(mu_n, sc.c)
        est = base.estimate
        mean = float(np.sum(est.atoms * est.weights))
        for lam in (1e-3, 0.37, 3.0, 1e3):
            scaled = DiscreteMeasure(lam * mu_n.atoms, mu_n.weights)
            res = pipeline.deconvolve_with_retries(scaled, sc.c)
            assert res.config == base.config
            assert res.diagnostics.rank == base.diagnostics.rank
            expected = DiscreteMeasure(lam * est.atoms, est.weights)
            assert wasserstein_1(expected, res.estimate) < 1e-10 * lam * mean


# ---------------------------------------------------------------------------
# rotation-equivariant estimate
# ---------------------------------------------------------------------------

def test_ree_point_mass_gives_identity():
    sigma = ree_assemble(np.eye(3), [0.5, 1.0, 2.0], ONE)
    assert np.allclose(sigma, np.eye(3), atol=1e-14)


def test_ree_quantile_diagonal():
    sigma = ree_assemble(np.eye(4), [0.1, 0.2, 0.3, 0.4], TWO)
    assert np.allclose(sigma, np.diag([1.0, 1.0, 2.0, 2.0]), atol=1e-14)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_ree_rotation_equivariance(p, seed):
    # replacing the eigenvectors O by Q O conjugates the estimate by Q,
    # for orthogonal O and Q from the QR of Gaussian matrices
    rng = np.random.default_rng(seed)
    O, Q = (np.linalg.qr(rng.normal(size=(p, p)))[0] for _ in range(2))
    vals = np.sort(rng.uniform(0.5, 3.0, p))
    nu_hat = rand_measure(rng, 8)
    base = ree_assemble(O, vals, nu_hat)
    rotated = ree_assemble(Q @ O, vals, nu_hat)
    gap = np.max(np.abs(rotated - Q @ base @ Q.T))
    assert gap <= 1e-10 * np.max(nu_hat.atoms)


def test_ree_input_contracts():
    with pytest.raises(ValueError):
        ree_assemble(np.ones((2, 3)), [1.0, 2.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.eye(3), [1.0, 2.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.eye(2), [2.0, 1.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.full((2, 2), 0.5), [1.0, 2.0], TWO)
