"""Forward model, S-transform ratio, deconvolution, and REE assembly."""

import json
import sys
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from freedeconv.contours import (
    ContourRepresentation,
    choose_m_contour,
    moments_from_contour,
)
from freedeconv.errors import InvalidMomentsError, NumericalError
from freedeconv.experiments import SCENARIOS, sample_spectrum
from freedeconv.inversion import critical_points, slit_free_radius
from freedeconv.measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    MomentSequence,
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
    deconvolved_moment_series,
    is_conjugate_symmetric,
    lagrange_sums,
    mp_density,
    mp_g_quadrature,
    s_transform,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
ONE = DiscreteMeasure([1.0], [1.0])


def _free(mu):
    return slit_free_radius(critical_points(mu).branch_points_upper)


def t_ratio(mu_n, c, m, free):
    """Pointwise ratio S_mu_n(m) / S_MP(m), the S-transform of the estimate."""
    return s_transform(mu_n, m, free) / MarchenkoPastur(c).s_transform(m)


def forward_mp_G(nu, c, z):
    """Stieltjes transform at one z of the spectrum produced by nu.

    The scalar form of the forward solve behind `forward_contour`: the
    result is the G with Im G < 0 for Im z > 0 that behaves like 1/z at
    infinity, and conjugate inputs give conjugate outputs.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("aspect ratio c must lie in (0, 1)")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("forward solve needs z off the real axis")
    if z.imag < 0.0:
        return complex(np.conj(forward_mp_G(nu, c, np.conj(z))))
    B = pipeline._mp_fixed_point_vec(nu.atoms, nu.weights, c, np.array([z]))[0]
    return complex((-B - (1.0 - c) / z) / c)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_deconv_config_defaults_and_lift_mapping():
    # the recovery knobs are the whole configuration; the spectral stage
    # runs on fixed constants, and the lift's are the inversion module's
    cfg = DeconvConfig()
    assert asdict(cfg) == {"rank_tol": 1e-4, "max_support": 8}
    assert pipeline.START_NODES == 512
    assert MAX_MOMENTS == 16
    assert inversion.NEWTON_TOL == 1e-12
    assert inversion.MIN_STEP == 1e-9


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
    for bad in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rank_tol"):
            DeconvConfig(rank_tol=bad)


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

def test_forward_mp_g_matches_quadrature_oracle():
    c = 0.25
    z = 1.0 + 1.0j
    G = forward_mp_G(ONE, c, z)
    oracle = mp_g_quadrature(MarchenkoPastur(c), 400)(z)
    assert abs(G - oracle) < 1e-10
    assert G.imag < 0.0


def test_forward_mp_g_satisfies_self_consistency():
    # for a unit point mass the transform solves
    # c z G^2 - (z + c - 1) G + 1 = 0
    for c in (0.1, 0.25, 0.5, 0.9):
        for z in (1.0 + 1.0j, 0.5 + 0.2j, 2.0 + 0.05j):
            G = forward_mp_G(ONE, c, z)
            assert abs(c * z * G * G - (z + c - 1.0) * G + 1.0) < 1e-10


def test_forward_mp_g_conjugate_equivariant():
    z = 1.3 + 0.7j
    G = forward_mp_G(TWO, 0.2, z)
    assert forward_mp_G(TWO, 0.2, np.conj(z)) == np.conj(G)


def test_forward_mp_g_decays_at_infinity():
    z = 1e6 + 1e6j
    G = forward_mp_G(TWO, 0.2, z)
    assert abs(G - 1.0 / z) < 1e-8


def test_forward_mp_g_input_contracts():
    with pytest.raises(ValueError):
        forward_mp_G(TWO, 0.2, 2.0)  # real z
    for c in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            forward_mp_G(TWO, c, 1.0 + 1.0j)


def test_forward_contour_moments_point_mass():
    rep = forward_contour(ONE, 0.2)
    assert is_conjugate_symmetric(rep.sigma, rep.values)
    cm = moments_from_contour(rep, 2)
    # product spectrum keeps mass 1 and mean 1; second moment is 1 + c
    assert np.allclose(cm.moments.values, [1.0, 1.0, 1.2], atol=1e-6)


def test_forward_contour_scales_mean_with_population():
    rep = forward_contour(DiscreteMeasure([2.0], [1.0]), 0.2)
    cm = moments_from_contour(rep, 1)
    assert cm.moments.values[1] == pytest.approx(2.0, abs=1e-6)


def test_forward_contour_weak_noise_returns_population_moments():
    rep = forward_contour(TWO, 1e-6)
    cm = moments_from_contour(rep, 4)
    exact = [TWO.moment(k) for k in range(5)]
    assert np.allclose(cm.moments.values, exact, atol=1e-4)


def test_forward_contour_input_contracts():
    with pytest.raises(ValueError):
        forward_contour(TWO, 1.5)


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
    # node doubling stops at the first settled pass
    assert res.diagnostics.nodes_used >= pipeline.START_NODES
    assert res.diagnostics.nodes_used % pipeline.START_NODES == 0
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
        "moment_error",
        "proxy_atoms",
        "n_slits",
        "contour_radius",
        "radius_limiter",
        "nodes_used",
        "settled",
        "settle_gap",
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
    assert payload["diagnostics"]["settled"] is True
    assert 0.0 <= payload["diagnostics"]["settle_gap"] < 1e-9
    assert 0.0 <= payload["diagnostics"]["moment_error"] <= 10.0 * 1e-4
    # an L-atom proxy has L - 1 conjugate pairs of critical points, and
    # each carries one slit pair
    d = payload["diagnostics"]
    assert d["n_slits"] == d["proxy_atoms"] - 1
    assert d["radius_limiter"] == "unit_cap"


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
    assert d.contour_radius < 1.0 and d.contour_radius in 0.9 * np.abs(bp)
    assert (d.contour_radius, d.radius_limiter) == choose_m_contour(
        bp, SCENARIOS["S2_3"].c
    )
    assert d.radius_limiter == "slit"
    assert d.n_slits == bp.size > 0


def test_deconvolve_reports_whether_the_moments_settled(monkeypatch, caplog):
    # this sampled S3 spectrum, started at 64 nodes, settles only at 512;
    # with the node cap at 256 the run still returns, reports it and logs
    # a warning
    sc = SCENARIOS["S3"]
    mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, 7)
    monkeypatch.setattr(pipeline, "START_NODES", 64)

    def run():
        return pipeline.deconvolve_with_retries(mu_n, sc.c).diagnostics

    full = run()
    assert (full.settled, full.nodes_used) == (True, 512)
    monkeypatch.setattr(pipeline, "MAX_NODES", 256)
    with caplog.at_level("WARNING", logger="freedeconv.pipeline"):
        capped = run()
    assert (capped.settled, capped.nodes_used) == (False, 256)
    assert "did not settle" in caplog.text


def test_a_pass_settled_at_the_start_matches_a_forced_doubled_pass(
    monkeypatch,
):
    # sampled spectra whose first pass settles against its own even nodes:
    # a first pass at twice the nodes moves none of their moments by 1e-9.
    # S3 at seed 7 is slit-limited: its circle keeps only the 10 % radial
    # clearance from its nearest branch point
    for sc_id, seed in (("S2_1", 1), ("S2_3", 2), ("S3", 1), ("S3", 7)):
        sc = SCENARIOS[sc_id]
        mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, seed)
        first = pipeline.deconvolve_with_retries(mu_n, sc.c)
        assert first.diagnostics.nodes_used == pipeline.START_NODES
        assert first.diagnostics.settle_gap < 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "START_NODES", 2 * pipeline.START_NODES)
            forced = pipeline.deconvolve_with_retries(mu_n, sc.c)
        assert forced.diagnostics.nodes_used == 2 * pipeline.START_NODES
        got = np.asarray(first.moments_used.values)
        ref = np.asarray(forced.moments_used.values)
        assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


def test_a_pass_settles_on_its_complex_gap_not_its_real_part(
    monkeypatch, caplog
):
    # sampled S3 at n = 500, seed 7, at 256 nodes: the real parts of the
    # full and the even-node Lagrange sums agree to 1e-15, the sums to
    # 7e-9 only.  The even nodes sit a quarter node off, which turns the
    # leading alias term imaginary, so only the complex gap measures the
    # error
    sc = SCENARIOS["S3"]
    mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, 7)
    monkeypatch.setattr(pipeline, "START_NODES", 256)
    monkeypatch.setattr(pipeline, "MAX_NODES", 256)
    with caplog.at_level("WARNING", logger="freedeconv.pipeline"):
        res = pipeline.deconvolve_with_retries(mu_n, sc.c)
    d = res.diagnostics
    # the result's contour is the clockwise image of the circle, reversed,
    # with G = (1 + m) / z on it
    theta = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
    m = d.contour_radius * np.exp(1j * theta)
    rep = res.contour
    assert np.allclose((rep.sigma * rep.values - 1.0)[::-1], m, atol=1e-12)
    full, half = lagrange_sums(m, rep.sigma[::-1], MAX_MOMENTS)
    scale = np.maximum(1.0, np.abs(full.real))
    assert np.max(np.abs((full - half).real) / scale) < 1e-12
    gap = np.max(np.abs(full - half) / scale)
    assert d.settle_gap == pytest.approx(gap, rel=1e-3)
    assert d.settle_gap >= 1e-9
    assert (d.settled, d.nodes_used) == (False, 256)
    assert "did not settle" in caplog.text


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


@pytest.mark.parametrize(
    "atoms, weights, c",
    [
        ((2.9635, 3.9618, 4.0518), (0.2656, 0.4802, 0.2542), 0.95),
        ((1.8801, 1.3212, 1.7577), (0.4356, 0.3236, 0.2409), 0.95),
        ((3.54, 7.8421, 5.2472), (0.3879, 0.3271, 0.285), 0.8),
    ],
)
def test_circles_capped_by_the_mp_pole_settle(atoms, weights, c):
    # inputs whose circle the S_MP pole caps; they settle at 512, 512 and
    # 1024 nodes, with gaps of 1e-10 to 8e-10, and match the series
    w = np.asarray(weights)
    mu = DiscreteMeasure(atoms, w / w.sum())
    spectral = pipeline._spectral_stage(mu, c)
    d = spectral.diagnostics
    assert d["radius_limiter"] == "mp_pole"
    assert d["settled"] and d["nodes_used"] <= 1024
    ref = deconvolved_moment_series(mu, c, MAX_MOMENTS)
    got = np.asarray(spectral.moments.values)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-8


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
    exact = np.asarray(MomentSequence.of_measure(mu, order).values)
    approx = np.asarray(MomentSequence.of_measure(proxy, order).values)
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
    assert (d["contour_radius"], d["radius_limiter"]) == choose_m_contour(bp, c)


def test_deconvolve_rejects_inconsistent_input():
    # a pure point mass cannot be the spectrum of any population under
    # nonzero noise, and the moment gate is the stage that notices
    with pytest.raises(InvalidMomentsError) as exc_info:
        deconvolve(ONE, 0.2)
    assert exc_info.value.stage == "recover_measure"


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


# ---------------------------------------------------------------------------
# rotation-equivariant estimate
# ---------------------------------------------------------------------------

def test_ree_point_mass_gives_identity():
    sigma = ree_assemble(np.eye(3), [0.5, 1.0, 2.0], ONE)
    assert np.allclose(sigma, np.eye(3), atol=1e-14)


def test_ree_quantile_diagonal():
    sigma = ree_assemble(np.eye(4), [0.1, 0.2, 0.3, 0.4], TWO)
    assert np.allclose(sigma, np.diag([1.0, 1.0, 2.0, 2.0]), atol=1e-14)


def test_ree_rotation_equivariance():
    rng = np.random.default_rng(7)
    p = 8
    Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    vals = np.sort(rng.uniform(0.5, 3.0, p))
    base = ree_assemble(np.eye(p), vals, TWO)
    rotated = ree_assemble(Q, vals, TWO)
    assert np.max(np.abs(rotated - Q @ base @ Q.T)) <= 1e-10


def test_ree_input_contracts():
    with pytest.raises(ValueError):
        ree_assemble(np.ones((2, 3)), [1.0, 2.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.eye(3), [1.0, 2.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.eye(2), [2.0, 1.0], TWO)
    with pytest.raises(ValueError):
        ree_assemble(np.full((2, 2), 0.5), [1.0, 2.0], TWO)
