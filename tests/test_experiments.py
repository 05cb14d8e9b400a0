"""Scenario registry, spectrum sampling, baseline, and the run harness."""

import csv
import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg

import freedeconv.contours as contours
import freedeconv.experiments as experiments
import freedeconv.pipeline as pipeline
import freedeconv.recovery as recovery
from freedeconv.errors import (
    BaselineFailureError,
    InvalidMomentsError,
    NumericalError,
)
from freedeconv.experiments import (
    REPORT_COLUMNS,
    SCENARIOS,
    RunReport,
    Scenario,
    ToeplitzPopulation,
    _multiplicities,
    baseline_subordination,
    median_w1_by_n,
    run_scenario,
    sample_spectrum,
    toeplitz_spectrum,
    write_report_csv,
)
from freedeconv.measures import DiscreteMeasure, MarchenkoPastur, wasserstein_1
from freedeconv.pipeline import (
    DeconvConfig,
    DeconvDiagnostics,
    deconvolve,
    forward_measure,
)
from freedeconv.recovery import recover_measure_detailed
from helpers import (
    dense_sample_spectrum,
    dense_toeplitz_spectrum,
    gaussian_sample_spectrum,
    run_fresh,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
ORACLE_RHOS = (-0.9, -0.3, 0.3, 0.9, 0.99)
ORACLE_PS = (1, 2, 3, 50, 200)


# ---------------------------------------------------------------------------
# populations and registry
# ---------------------------------------------------------------------------

def test_toeplitz_spectrum_small_cases():
    for rho in ORACLE_RHOS:
        assert toeplitz_spectrum(1, rho) == DiscreteMeasure([1.0], [1.0])
        mu = toeplitz_spectrum(2, rho)
        assert np.allclose(
            mu.atoms, sorted([1 - rho, 1 + rho]), rtol=0, atol=1e-12
        )
        assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-15)
    white = toeplitz_spectrum(7, 0.0)
    assert white.atoms.tolist() == [1.0]
    assert white.weights == pytest.approx([1.0], abs=1e-15)


@pytest.mark.parametrize("rho", ORACLE_RHOS + (0.0,))
@pytest.mark.parametrize("p", ORACLE_PS + (400, 1600))
def test_toeplitz_spectrum_matches_dense_eigvalsh(rho, p):
    mu, ref = toeplitz_spectrum(p, rho), dense_toeplitz_spectrum(p, rho)
    assert mu.n_atoms == ref.n_atoms
    assert np.max(np.abs(mu.atoms - ref.atoms)) <= 1e-12 * ref.atoms[-1]
    assert np.array_equal(mu.weights, ref.weights)


def _toeplitz_secular(theta, p, rho):
    return (
        np.sin((p + 1) * theta)
        - 2.0 * rho * np.sin(p * theta)
        + rho * rho * np.sin((p - 1) * theta)
    )


@pytest.mark.parametrize("r", (0.0, 0.3, 0.5, 0.9, 0.99, 0.999))
@pytest.mark.parametrize("p", (2, 3, 50, 1600))
def test_toeplitz_angles_lie_inside_their_brackets(r, p):
    k = np.arange(1, p + 1)
    # the proof's lemma: f alternates in sign at the bracket ends
    for rho in (r, -r):
        ends = k[:-1] * np.pi / p
        signs = np.sign(_toeplitz_secular(ends, p, rho))
        assert np.array_equal(signs, (-1.0) ** k[:-1])
    theta = experiments._toeplitz_angles(p, r)
    assert np.all((k - 1) * np.pi / p < theta)
    assert np.all(theta < k * np.pi / p)
    # and each angle is a root: f is rounding in the size of its terms,
    # whose arguments carry an absolute error of about p pi eps
    assert np.max(np.abs(_toeplitz_secular(theta, p, r))) <= 1e-14 * p


def test_toeplitz_spectrum_stays_inside_symbol_range():
    rho = 0.3
    mu = toeplitz_spectrum(100, rho)
    assert np.all(mu.atoms > (1 - rho) / (1 + rho))
    assert np.all(mu.atoms < (1 + rho) / (1 - rho))
    assert mu.moment(1) == pytest.approx(1.0, abs=1e-12)


def test_toeplitz_validation():
    with pytest.raises(ValueError):
        toeplitz_spectrum(0, 0.3)
    with pytest.raises(ValueError):
        toeplitz_spectrum(4, 1.0)
    for rho in (-1.0, False, np.True_):
        with pytest.raises(ValueError, match="toeplitz parameter"):
            ToeplitzPopulation(rho)
    for rho in (0, np.float32(0.5), np.float64(-0.3)):
        stored = ToeplitzPopulation(rho).rho
        assert type(stored) is float and stored == float(rho)
    for p in (2.0, True):
        with pytest.raises(ValueError, match="p must be an integer"):
            toeplitz_spectrum(p, 0.3)


def test_scenario_registry_contents():
    assert set(SCENARIOS) == {"S1", "S2_1", "S2_2", "S2_3", "S3"}
    assert SCENARIOS["S1"].population == DiscreteMeasure([1.0], [1.0])
    assert SCENARIOS["S1"].c == 0.2
    assert SCENARIOS["S2_1"].population == TWO
    assert SCENARIOS["S2_2"].c == 0.95
    assert SCENARIOS["S2_2"].modified == "c capped to 0.95 from 1"
    s23 = SCENARIOS["S2_3"].population
    assert np.allclose(s23.atoms, [1.0, 2.0, 5.0, 6.0, 8.0])
    assert np.allclose(s23.weights, np.full(5, 0.2))
    assert isinstance(SCENARIOS["S3"].population, ToeplitzPopulation)
    assert SCENARIOS["S3"].population.rho == 0.3


def test_scenario_ground_truth():
    assert SCENARIOS["S2_1"].ground_truth(40) == TWO
    assert SCENARIOS["S3"].ground_truth(10) == toeplitz_spectrum(10, 0.3)


def test_multiplicities_floor_plus_remainder():
    counts = _multiplicities(np.array([0.5, 0.5]), 5)
    assert counts.tolist() == [3, 2]
    rng = np.random.default_rng(16)
    for _ in range(20):
        w = rng.uniform(0.1, 1.0, int(rng.integers(1, 6)))
        w /= w.sum()
        p = int(rng.integers(5, 200))
        counts = _multiplicities(w, p)
        assert counts.sum() == p
        assert np.all(counts >= np.floor(w * p).astype(int))


# ---------------------------------------------------------------------------
# spectrum sampling
# ---------------------------------------------------------------------------

def test_sample_spectrum_is_deterministic():
    for pop in (TWO, ToeplitzPopulation(0.3)):
        a = sample_spectrum(pop, 40, 200, 11)
        b = sample_spectrum(pop, 40, 200, 11)
        assert np.array_equal(a.atoms, b.atoms)
        assert sample_spectrum(pop, 40, 200, 12) != a


@pytest.mark.parametrize("sc_id", ["S2_3", "S2_2"])
def test_sample_spectrum_diagonal_matches_out_of_place_product(sc_id):
    # bit-for-bit: the benchmark fingerprints these inputs across commits
    pop = SCENARIOS[sc_id].population
    for p, n in ((37, 200), (190, 200), (256, 300)):
        assert sample_spectrum(pop, p, n, 3) == dense_sample_spectrum(pop, p, n, 3)


@pytest.mark.parametrize("rho", ORACLE_RHOS + (0.0, 1e-15))
@pytest.mark.parametrize("p", ORACLE_PS)
def test_sample_spectrum_toeplitz_matches_dense_square_root(rho, p):
    # near rho = 0 the closed-form values merge in `toeplitz_spectrum`,
    # but the draw scales by all p of them
    pop = ToeplitzPopulation(rho)
    for seed in (1, 2):
        mu = sample_spectrum(pop, p, 5 * p, seed)
        ref = dense_sample_spectrum(pop, p, 5 * p, seed)
        assert mu.n_atoms == ref.n_atoms
        assert np.max(np.abs(mu.atoms - ref.atoms)) <= 1e-12 * ref.atoms[-1]


MULTI_BLOCK_POPS = {
    "S2_2": SCENARIOS["S2_2"].population,
    "S2_3": SCENARIOS["S2_3"].population,
    **{f"rho{rho}": ToeplitzPopulation(rho) for rho in ORACLE_RHOS},
}


@pytest.mark.parametrize("pop_id", MULTI_BLOCK_POPS)
@pytest.mark.parametrize("p", (257, 300, 513))
def test_sample_spectrum_over_several_blocks_matches_dense_product(pop_id, p):
    # past GRAM_BLOCK the in-place product sums in blocks, so it agrees
    # with the out-of-place one up to rounding
    assert p > experiments.GRAM_BLOCK
    pop = MULTI_BLOCK_POPS[pop_id]
    for seed in (1, 2):
        mu = sample_spectrum(pop, p, 2 * p, seed)
        ref = dense_sample_spectrum(pop, p, 2 * p, seed)
        assert mu.n_atoms == ref.n_atoms
        assert np.max(np.abs(mu.atoms - ref.atoms)) <= 1e-12 * ref.atoms[-1]


@pytest.mark.parametrize("p", (1, 255, 256, 257, 512, 513))
def test_lower_gram_is_the_lower_triangle_of_the_product(p):
    a = np.tril(np.random.default_rng(p).standard_normal((p, p)))
    ref = a @ a.T
    # rounding of two length-p sums of the same terms
    bound = 2 * p * np.finfo(float).eps * (np.abs(a) @ np.abs(a).T)
    w = a.copy()
    experiments._lower_gram(w)
    if p <= experiments.GRAM_BLOCK:
        assert np.array_equal(w, ref)
    lower = np.tri(p, dtype=bool)
    assert np.all(np.abs(w - ref)[lower] <= bound[lower])
    # above the diagonal blocks the factor's zeros stay
    block = np.arange(p) // experiments.GRAM_BLOCK
    assert np.all(w[block[:, None] < block[None, :]] == 0.0)


def test_sample_spectrum_s1_statistics():
    mp = MarchenkoPastur(0.2)
    for seed in (1, 2, 3):
        mu = sample_spectrum(DiscreteMeasure([1.0], [1.0]), 200, 1000, seed)
        assert mu.n_atoms == 200
        assert np.allclose(mu.weights, 1.0 / 200)
        inside = (mu.atoms >= mp.lower_edge) & (mu.atoms <= mp.upper_edge)
        assert np.mean(inside) >= 0.95
        # trace concentrates at CLT scale 1/sqrt(n p)
        assert abs(mu.moment(1) - 1.0) < 3.0 / np.sqrt(200 * 1000)


def test_sample_spectrum_toeplitz_branch():
    mu = sample_spectrum(ToeplitzPopulation(0.3), 50, 500, 2)
    assert mu.n_atoms == 50
    assert np.allclose(mu.weights, 1.0 / 50)
    assert np.all(mu.atoms >= 0.0)


# a warm-up draw, then the peak-RSS rise over four draws that alternate a
# diagonal and a Toeplitz population, in a fresh interpreter
MEMORY_SCRIPT = """
import resource, sys
from freedeconv.experiments import SCENARIOS, ToeplitzPopulation, sample_spectrum
p, n = int(sys.argv[1]), int(sys.argv[2])
diagonal = SCENARIOS["S2_3"].population
sample_spectrum(diagonal, 20, 100, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for pop in (diagonal, ToeplitzPopulation(0.3)) * 2:
    sample_spectrum(pop, p, n, 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sample_spectrum_holds_at_most_two_p_by_p_arrays():
    # the one buffer that holds the Bartlett factor and then w, and the
    # copy that eigvalsh makes of w; the buffer's pages are gone once the
    # eigenvalues are taken.  A third array would read about 3.4
    pytest.importorskip("resource")
    p, n = 1200, 6000
    rise = int(run_fresh(MEMORY_SCRIPT, str(p), str(n)))
    # ru_maxrss counts bytes on macOS and KiB elsewhere
    rise *= 1 if sys.platform == "darwin" else 1024
    assert rise < 2.9 * 8 * p * p


LAW_DRAWS = 1000
LAW_P, LAW_N = 40, 200


def _moment_draws(sampler, pop, seeds):
    """m_1 .. m_6 of one sampled spectrum per seed, as rows."""
    powers = np.arange(1, 7)
    return np.array([
        np.mean(sampler(pop, LAW_P, LAW_N, s).atoms[:, None] ** powers, axis=0)
        for s in seeds
    ])


@pytest.mark.parametrize(
    "pop",
    [SCENARIOS["S2_3"].population, ToeplitzPopulation(0.3),
     ToeplitzPopulation(0.9)],
    ids=["S2_3", "rho0.3", "rho0.9"],
)
def test_sample_spectrum_has_the_wishart_law(pop):
    # the Bartlett draw against exact Wishart moments and against the
    # textbook draw from a p x n Gaussian, on disjoint fixed seeds
    p, n, k = LAW_P, LAW_N, LAW_DRAWS
    bart = _moment_draws(sample_spectrum, pop, range(k))
    gauss = _moment_draws(gaussian_sample_spectrum, pop, range(k, 2 * k))
    if isinstance(pop, ToeplitzPopulation):
        v = scipy.linalg.toeplitz(pop.rho ** np.arange(p))
    else:
        v = np.diag(np.repeat(pop.atoms, _multiplicities(pop.weights, p)))
    tr1, tr2 = np.trace(v), np.sum(v * v)
    mean_m1, sd_m1 = tr1 / p, math.sqrt(2.0 * tr2 / (n * p * p))
    mean_m2 = ((1.0 + 1.0 / n) * tr2 + tr1 * tr1 / n) / p
    m1, m2 = bart[:, 0], bart[:, 1]
    assert abs(m1.mean() - mean_m1) <= 4.0 * sd_m1 / math.sqrt(k)
    assert np.std(m1, ddof=1) == pytest.approx(sd_m1, rel=0.1)
    assert abs(m2.mean() - mean_m2) <= 4.0 * np.std(m2, ddof=1) / math.sqrt(k)
    se = np.sqrt((bart.var(axis=0, ddof=1) + gauss.var(axis=0, ddof=1)) / k)
    assert np.all(np.abs(bart.mean(axis=0) - gauss.mean(axis=0)) <= 4.0 * se)


def test_sample_spectrum_input_contracts():
    with pytest.raises(ValueError):
        sample_spectrum(TWO, 200, 200, 1)
    with pytest.raises(ValueError):
        sample_spectrum(TWO, 0, 200, 1)
    for p, n, name in ((40.0, 200, "p"), (True, 200, "p"), (40, 200.0, "n"),
                       (40, np.True_, "n")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_spectrum(TWO, p, n, 1)


# ---------------------------------------------------------------------------
# subordination baseline
# ---------------------------------------------------------------------------

def test_baseline_concentrates_on_noise_only_spectrum():
    proxy = forward_measure(DiscreteMeasure([1.0], [1.0]), 0.2, tol=1e-8)
    est = baseline_subordination(proxy, 0.2)
    mean = float(np.sum(est.atoms * est.weights))
    assert abs(mean - 1.0) < 0.15
    assert float(np.sum(est.weights[np.abs(est.atoms - 1.0) < 0.75])) > 0.65


@pytest.fixture(scope="module")
def s2_1_baseline():
    # the sigma = 0.5 baseline on S2_1 at n = 2000, seed 1, with its input
    sc = SCENARIOS["S2_1"]
    p = round(sc.c * 2000)
    mu_n = sample_spectrum(sc.population, p, 2000, 1)
    est = baseline_subordination(mu_n, sc.c, sigma=0.5)
    return sc, mu_n, sc.ground_truth(p), est


def test_baseline_separates_two_atoms_at_n_2000(s2_1_baseline):
    _, _, truth, est = s2_1_baseline
    assert float(np.sum(est.weights[np.abs(est.atoms - 1.0) < 0.5])) >= 0.35
    assert float(np.sum(est.weights[np.abs(est.atoms - 2.0) < 0.5])) >= 0.35
    assert wasserstein_1(est, truth) < 0.25


def test_baseline_oversmoothing_degrades_accuracy(s2_1_baseline):
    sc, mu_n, truth, est = s2_1_baseline
    w_small = wasserstein_1(est, truth)
    w_big = wasserstein_1(baseline_subordination(mu_n, sc.c, sigma=5.0), truth)
    assert w_big > w_small


def test_baseline_fails_loudly_on_atomic_input():
    # an exact point mass keeps the subordination point pinned at the real
    # axis where no grid value is trusted; the baseline must say so
    with pytest.raises(BaselineFailureError):
        baseline_subordination(DiscreteMeasure([1.0], [1.0]), 0.2)


def test_baseline_input_contracts():
    for sigma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            baseline_subordination(TWO, 0.2, sigma=sigma)


# ---------------------------------------------------------------------------
# run harness
# ---------------------------------------------------------------------------

def test_run_scenario_single_job():
    reports = run_scenario(SCENARIOS["S1"], [500], "contour", seeds=[7],
                           workers=1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.scenario == "S1"
    assert (rep.n, rep.p, rep.seed, rep.method) == (500, 100, 7, "contour")
    assert rep.error == ""
    assert rep.w1_error < 0.1


def test_run_scenario_empty_and_invalid_inputs(monkeypatch):
    assert run_scenario(SCENARIOS["S1"], [], seeds=[]) == []
    with pytest.raises(ValueError):
        run_scenario(SCENARIOS["S1"], [500], "gradient", seeds=[1])
    with pytest.raises(ValueError):
        run_scenario(SCENARIOS["S1"], [500, 250], seeds=[1])
    # n and seeds must be integers, checked before any run starts, and
    # are neither truncated nor read as 0 or 1
    monkeypatch.setattr(experiments, "_run_one",
                        lambda job: pytest.fail(f"run {job} started"))
    for n_list, seeds, name in (([500.9], [1], "n"), ([500], [1.7], "seed"),
                                ([500], [True], "seed"),
                                ([np.False_], [1], "n"),
                                ([250, 500.0], [1], "n")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_scenario(SCENARIOS["S1"], n_list, seeds=seeds, workers=1)
    # the smoothing scale is checked before any run starts
    for sigma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            run_scenario(SCENARIOS["S1"], [500], "subordination", seeds=[1],
                         workers=1, sigma=sigma)


def test_run_scenario_pool_matches_serial():
    serial = run_scenario(SCENARIOS["S1"], [250], seeds=[1, 2], workers=1)
    pooled = run_scenario(SCENARIOS["S1"], [250], seeds=[1, 2], workers=2)
    assert len(serial) == len(pooled) == 2
    for a, b in zip(serial, pooled):
        assert a.w1_error == b.w1_error
        assert (a.n, a.seed, a.diagnostics.rank, a.config) == (
            b.n, b.seed, b.diagnostics.rank, b.config
        )


def test_run_scenario_repeat_is_bitwise_deterministic():
    a = run_scenario(SCENARIOS["S1"], [250], seeds=[5], workers=1)
    b = run_scenario(SCENARIOS["S1"], [250], seeds=[5], workers=1)
    assert a[0].w1_error == b[0].w1_error


def test_run_scenario_turns_failures_into_nan_rows(monkeypatch):
    def boom(mu_n, c):
        raise NumericalError("synthetic failure", stage="test")

    monkeypatch.setattr(experiments, "deconvolve_with_retries", boom)
    reports = run_scenario(SCENARIOS["S1"], [250], seeds=[1], workers=1)
    assert len(reports) == 1
    assert math.isnan(reports[0].w1_error)
    assert "synthetic failure" in reports[0].error
    assert reports[0].error_stage == "test"


def test_a_failed_run_writes_its_stage_to_the_csv(monkeypatch, tmp_path):
    # with no radial clearance the circle has radius 0 and the contour
    # choice raises NoContourError before any rung runs
    monkeypatch.setattr(contours, "SLIT_MARGIN", 1.0)
    reports = run_scenario(SCENARIOS["S1"], [250], seeds=[1], workers=1)
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["error_stage"] == "choose_m_contour"
    assert "no circle around 0 clears the branch slits" in row["error"]
    assert _record_cells(row) == {""}

    # contract violations carry no stage
    def bad_input(mu_n, c):
        raise ValueError("synthetic contract violation")

    monkeypatch.setattr(experiments, "deconvolve_with_retries", bad_input)
    (report,) = run_scenario(SCENARIOS["S1"], [250], seeds=[1], workers=1)
    assert (report.error, report.error_stage) == (
        "synthetic contract violation", ""
    )


def test_retry_ladder_runs_the_spectral_stage_once(monkeypatch):
    # S1 at n = 250, seed 33 succeeds only on the last of the 7 rungs
    # (rank_tol 1e-2, max_support 1); every rung calls deconvolve with
    # the spectral stage the ladder computed once, and its recovery reads
    # the one Hankel factorization of that stage
    ramified, factored, rungs = [], [], []
    critical_points = pipeline.critical_points
    hankel_factor = recovery.hankel_factor

    def counted_ramification(mu):
        ramified.append(mu)
        return critical_points(mu)

    def counted_factor(moments, n):
        factored.append(n)
        return hankel_factor(moments, n)

    def counted_rung(mu, c, cfg, **kwargs):
        rungs.append(cfg)
        return deconvolve(mu, c, cfg, **kwargs)

    monkeypatch.setattr(pipeline, "critical_points", counted_ramification)
    monkeypatch.setattr(pipeline, "deconvolve", counted_rung)
    for module in (pipeline, recovery):
        monkeypatch.setattr(module, "hankel_factor", counted_factor)
    sc = SCENARIOS["S1"]
    mu_n = sample_spectrum(sc.population, 50, 250, 33)
    result = pipeline.deconvolve_with_retries(mu_n, sc.c)
    assert len(rungs) == 7
    assert len(ramified) == 1
    assert factored == [pipeline.MAX_MOMENTS // 2]
    last = rungs[-1]
    assert (last.rank_tol, last.max_support) == (1e-2, 1)
    assert result.config == last
    # the same rung run directly on the same input
    direct = deconvolve(mu_n, sc.c, DeconvConfig(rank_tol=1e-2, max_support=1))
    assert len(ramified) == 2
    assert result.estimate == direct.estimate
    truth = sc.ground_truth(50)
    assert repr(wasserstein_1(result.estimate, truth)) == repr(
        wasserstein_1(direct.estimate, truth)
    )


# the ladder of the default config, and (scenario, n, seed) inputs that it
# accepts at four different rungs: S1 at n = 250, seed 33 at the last, and
# three inputs of the benchmark's small_p run list at the first three
DEFAULT_LADDER = [
    (1e-4, 8), (1e-3, 8), (1e-2, 8), (1e-2, 6), (1e-2, 4), (1e-2, 2),
    (1e-2, 1),
]
LADDER_INPUTS = {
    ("S1", 250, 33): (1e-2, 1),
    ("S2_1", 500, 1): (1e-4, 8),
    ("S1", 500, 1): (1e-3, 8),
    ("S1", 500, 10): (1e-2, 8),
}


def _recovered(moments, max_support, rank_tol):
    """Every number a recovery returns, by repr, or the error it raised."""
    try:
        rep = recover_measure_detailed(moments, max_support, rank_tol)
    except InvalidMomentsError as exc:
        return repr(exc)
    return repr([
        np.asarray(v).tolist()
        for v in (rep.measure.atoms, rep.measure.weights, rep.moment_errors,
                  rep.coefficients.a, rep.coefficients.b)
    ])


def test_every_rung_reads_its_rank_off_one_pivot_sequence():
    outcomes = set()
    for (sc_id, n, seed), accepted in LADDER_INPUTS.items():
        sc = SCENARIOS[sc_id]
        mu_n = sample_spectrum(sc.population, round(sc.c * n), n, seed)
        result = pipeline.deconvolve_with_retries(mu_n, sc.c)
        assert (result.config.rank_tol, result.config.max_support) == accepted
        stage = pipeline._spectral_stage(mu_n, sc.c)
        factor = stage.factor
        assert factor.factor.shape[1] == pipeline.MAX_MOMENTS // 2
        assert stage.diagnostics["pivots"] == tuple(factor.pivots.tolist())
        for rank_tol, max_support in DEFAULT_LADDER:
            # the rank is the index of the first pivot below the rung's
            # tolerance, capped at its support; that pivot below -tol raises
            pivots = factor.pivots[:max_support].tolist()
            below = [k for k, v in enumerate(pivots) if v < rank_tol]
            rank = below[0] if below else max_support
            if below and pivots[rank] < -rank_tol:
                with pytest.raises(InvalidMomentsError, match="pivot"):
                    recover_measure_detailed(factor, max_support, rank_tol)
                outcomes.add("raised")
            else:
                report = recover_measure_detailed(
                    factor, max_support, rank_tol
                )
                assert report.coefficients.rank == rank
                outcomes.add("read")
            if max_support == pipeline.MAX_MOMENTS // 2:
                assert _recovered(factor, max_support, rank_tol) == _recovered(
                    stage.moments, max_support, rank_tol
                )
    assert outcomes == {"raised", "read"}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s1_report():
    # the contour run of S1 at n = 250, seed 1, and the ladder's result on
    # the spectrum that run samples
    (rep,) = run_scenario(SCENARIOS["S1"], [250], seeds=[1], workers=1)
    mu_n = sample_spectrum(SCENARIOS["S1"].population, 50, 250, 1)
    return rep, pipeline.deconvolve_with_retries(mu_n, 0.2)


def _record_cells(row: dict) -> set:
    return {v for k, v in row.items() if k.startswith(("diag_", "cfg_"))}


def test_report_columns_are_the_run_then_its_records():
    own = [f.name for f in dataclasses.fields(RunReport)][:-2]
    assert own == ["scenario", "n", "p", "seed", "method", "w1_error",
                   "t_total_s", "error", "error_stage"]
    assert REPORT_COLUMNS == (
        tuple(own)
        + tuple("diag_" + f.name for f in dataclasses.fields(DeconvDiagnostics))
        + tuple("cfg_" + f.name for f in dataclasses.fields(DeconvConfig))
    )


# a DeconvDiagnostics with one more field, series_gap, and the columns and
# row the scenario report builds from it, in a fresh interpreter
NEW_FIELD_SCRIPT = """
import dataclasses, importlib
import freedeconv.experiments as experiments
import freedeconv.pipeline as pipeline
fields = dataclasses.fields(pipeline.DeconvDiagnostics)
pipeline.DeconvDiagnostics = dataclasses.make_dataclass(
    "DeconvDiagnostics",
    [(f.name, f.type) for f in fields] + [("series_gap", float)],
    frozen=True,
)
importlib.reload(experiments)
diags = pipeline.DeconvDiagnostics(*range(len(fields)), series_gap=0.5)
rep = experiments.RunReport(
    "S1", 250, 50, 1, "contour", 0.1, 1.0,
    diagnostics=diags, config=pipeline.DeconvConfig(),
)
print(",".join(experiments.REPORT_COLUMNS))
print(dict(zip(experiments.REPORT_COLUMNS, rep.row()))["diag_series_gap"])
"""


def test_a_new_diagnostics_field_reaches_the_report():
    columns, cell = run_fresh(NEW_FIELD_SCRIPT).splitlines()
    assert columns.split(",") == (
        list(REPORT_COLUMNS[:-2]) + ["diag_series_gap"]
        + list(REPORT_COLUMNS[-2:])
    )
    assert cell == "0.5"


def test_a_contour_row_carries_its_results_records(s1_report):
    rep, result = s1_report
    row = dict(zip(REPORT_COLUMNS, rep.row()))
    diags = dataclasses.asdict(result.diagnostics)
    assert diags.keys() == {
        k[len("diag_"):] for k in row if k.startswith("diag_")
    }
    for name, value in diags.items():
        if not name.startswith("t_"):
            assert row["diag_" + name] == value, name
    for name, value in dataclasses.asdict(result.config).items():
        assert row["cfg_" + name] == value, name
    assert "" not in _record_cells(row)


def test_a_baseline_row_leaves_the_records_empty(monkeypatch):
    # the baseline keeps no diagnostics; mu_n as its estimate keeps the
    # run fast
    monkeypatch.setattr(
        experiments, "baseline_subordination", lambda mu_n, c, sigma: mu_n
    )
    (rep,) = run_scenario(
        SCENARIOS["S1"], [250], "subordination", seeds=[1], workers=1
    )
    assert rep.error == "" and math.isfinite(rep.w1_error)
    assert (rep.diagnostics, rep.config) == (None, None)
    assert _record_cells(dict(zip(REPORT_COLUMNS, rep.row()))) == {""}


def test_run_report_row_follows_column_order(s1_report):
    diags = dataclasses.replace(s1_report[1].diagnostics, rank=3)
    rep = RunReport("S1", 500, 100, 1, "contour", 0.01, 1.0,
                    diagnostics=diags, config=DeconvConfig())
    row = rep.row()
    assert len(row) == len(REPORT_COLUMNS)
    assert row[REPORT_COLUMNS.index("scenario")] == "S1"
    assert row[REPORT_COLUMNS.index("w1_error")] == 0.01
    assert row[REPORT_COLUMNS.index("diag_rank")] == 3


def test_write_report_csv_roundtrip(tmp_path):
    reports = [
        RunReport("S1", 250, 50, 1, "contour", 0.02, 1.0),
        RunReport("S1", 500, 100, 1, "contour", 0.01, 2.0),
        RunReport(
            "S1", 500, 100, 2, "contour", float("nan"), 0.5,
            error="no circle around 0 clears the branch slits",
        ),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(reports, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(REPORT_COLUMNS)
    assert [float(r["w1_error"]) for r in rows[:2]] == [0.02, 0.01]
    assert [int(r["n"]) for r in rows] == [250, 500, 500]
    assert [r["error"] for r in rows] == [
        "", "", "no circle around 0 clears the branch slits"
    ]
    assert math.isnan(float(rows[2]["w1_error"]))


def test_median_w1_ignores_failed_runs():
    reports = [
        RunReport("S1", 250, 50, 1, "contour", 0.1, 0),
        RunReport("S1", 250, 50, 2, "contour", 0.2, 0),
        RunReport("S1", 250, 50, 3, "contour", float("nan"), 0),
        RunReport("S1", 500, 100, 1, "contour", float("nan"), 0),
    ]
    medians = median_w1_by_n(reports)
    assert medians == {250: pytest.approx(0.15)}
