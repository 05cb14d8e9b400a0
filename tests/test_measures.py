"""Measure types, the MP family, and the exact Wasserstein metric."""

import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import wasserstein_distance

from freedeconv.errors import PoleError
from freedeconv.measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    MomentSequence,
    wasserstein_1,
)
from helpers import (
    moment_map,
    moment_map_derivative,
    moments_of,
    mp_density,
    mp_g_quadrature,
    mp_moment,
    mp_s_numeric,
    mp_s_transform,
    rand_measure,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# DiscreteMeasure construction
# ---------------------------------------------------------------------------

def test_construction_sorts_atoms_and_renormalizes():
    mu = DiscreteMeasure([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    assert np.array_equal(mu.atoms, [1.0, 2.0, 3.0])
    assert np.array_equal(mu.weights, [0.5, 0.3, 0.2])
    assert mu.weights.sum() == 1.0
    assert mu.n_atoms == 3


def test_construction_merges_near_duplicate_atoms():
    # duplicates within 1e-10 of the span collapse and their weights add
    mu = DiscreteMeasure([1.0, 1.0 + 1e-12, 2.0], [0.25, 0.25, 0.5])
    assert mu.n_atoms == 2
    assert np.allclose(mu.atoms, [1.0, 2.0])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_construction_rejects_invalid_input():
    with pytest.raises(ValueError):
        DiscreteMeasure([], [])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [1.2, -0.2])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 2.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, np.inf], [0.5, 0.5])


def test_measures_are_immutable_and_comparable():
    mu = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        mu.atoms[0] = 5.0
    assert mu == TWO
    other = DiscreteMeasure([1.0, 2.0], [0.4, 0.6])
    assert mu != other


# ---------------------------------------------------------------------------
# transforms of discrete measures
# ---------------------------------------------------------------------------

def test_stieltjes_point_values():
    d1 = DiscreteMeasure([1.0], [1.0])
    assert d1.stieltjes(2.0) == pytest.approx(1.0, abs=1e-15)
    assert TWO.stieltjes(1.5) == pytest.approx(0.0, abs=1e-15)
    assert TWO.stieltjes(1.5 + 0.5j) == pytest.approx(-1j, abs=1e-15)


def test_stieltjes_pole_guard():
    with pytest.raises(PoleError):
        TWO.stieltjes(1.0)
    with pytest.raises(PoleError):
        TWO.stieltjes(2.0 + 1e-15j)


def test_stieltjes_conjugate_symmetry_and_herglotz_sign():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        mu = rand_measure(rng, 5)
        z = complex(rng.uniform(-5, 15), rng.uniform(1e-3, 5.0))
        g = mu.stieltjes(z)
        assert g.imag < 0.0
        assert mu.stieltjes(np.conj(z)) == pytest.approx(np.conj(g), abs=1e-15)


def test_moment_map_point_mass_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(0.1, 5.0)
        da = DiscreteMeasure([a], [1.0])
        z = complex(rng.uniform(-4, 8), rng.uniform(0.1, 3.0))
        assert moment_map(da, z) == pytest.approx(a / (z - a), rel=1e-14)


def test_moment_map_two_atom_value_and_decay():
    assert moment_map(TWO, 1.5 + 0.5j) == pytest.approx(-0.5 - 1.5j, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(10):
        mu = rand_measure(rng, 6)
        z = 1e8 * np.exp(1j * rng.uniform(0.1, 3.0))
        assert abs(moment_map(mu, z)) < 1e-7 * mu.atoms[-1]


def test_moment_map_matches_moment_series_with_tail_bound():
    rng = np.random.default_rng(4)
    for _ in range(25):
        mu = rand_measure(rng, 6)
        amax = mu.atoms[-1]
        z = complex(rng.uniform(2.5, 6.0) * amax, rng.uniform(-1, 1) * amax)
        series = sum(mu.moment(k) / z**k for k in range(1, 11))
        tail = mu.moment(11) / abs(z) ** 11 / (1.0 - amax / abs(z))
        assert abs(moment_map(mu, z) - series) <= tail


def test_moment_map_derivative_matches_difference_quotient():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = rand_measure(rng, 5)
        z = complex(rng.uniform(-2, 12), rng.uniform(0.5, 2.0))
        h = 1e-6
        fd = (moment_map(mu, z + h) - moment_map(mu, z - h)) / (2 * h)
        assert moment_map_derivative(mu, z) == pytest.approx(fd, rel=1e-7)


def test_exact_moment_values():
    assert DiscreteMeasure([1.0], [1.0]).moment(5) == 1.0
    assert TWO.moment(2) == 2.5
    sym = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    assert sym.moment(1) == 0.0
    assert sym.moment(7) == 0.0
    assert sym.moment(0) == 1.0
    with pytest.raises(ValueError):
        sym.moment(-1)
    with pytest.raises(ValueError):
        sym.moment(1.5)


# ---------------------------------------------------------------------------
# distribution function, quantiles, serialization
# ---------------------------------------------------------------------------

def test_cdf_is_right_continuous_step_function():
    assert TWO.cdf(0.5) == 0.0
    assert TWO.cdf(1.0) == 0.5
    assert TWO.cdf(1.5) == 0.5
    assert TWO.cdf(2.0) == 1.0
    assert TWO.cdf(3.0) == 1.0
    assert np.array_equal(TWO.cdf([0.0, 1.0, 2.0]), [0.0, 0.5, 1.0])


def test_quantile_inverts_cdf_on_atoms():
    assert TWO.quantile(0.25) == 1.0
    assert TWO.quantile(0.5) == 1.0
    assert TWO.quantile(0.75) == 2.0
    assert TWO.quantile(1.0) == 2.0
    with pytest.raises(ValueError):
        TWO.quantile(0.0)
    with pytest.raises(ValueError):
        TWO.quantile(1.1)


def test_measure_json_roundtrip_and_validation():
    text = TWO.to_json()
    back = DiscreteMeasure.from_json(text)
    assert back == TWO
    with pytest.raises(ValueError):
        DiscreteMeasure.from_json(json.dumps({"atoms": [1.0]}))
    with pytest.raises(ValueError):
        DiscreteMeasure.from_json(json.dumps([1.0, 2.0]))
    # each field is a flat array of JSON numbers, neither nested nor
    # booleans nor numeric strings, and an integer fits a float
    for atoms, weights in (
        ([[1.0], [2.0]], [0.5, 0.5]),
        ([1.0, 2.0], [[0.5, 0.5]]),
        (["1.0", 2.0], [0.5, 0.5]),
        ([1.0, 2.0], ["0.5", 0.5]),
        ([True, 2.0], [0.5, 0.5]),
        ([1.0], [True]),
        (1.0, 1.0),
        ([10**400], [1.0]),
    ):
        text = json.dumps({"atoms": atoms, "weights": weights})
        with pytest.raises(ValueError, match="flat JSON array|too large"):
            DiscreteMeasure.from_json(text)


# ---------------------------------------------------------------------------
# MomentSequence
# ---------------------------------------------------------------------------

def test_moment_sequence_enforces_unit_mass():
    ms = MomentSequence([1.0 + 5e-7, 1.5, 2.5])
    assert ms[0] == 1.0
    assert ms.order == 2
    assert len(ms) == 3
    with pytest.raises(ValueError):
        MomentSequence([1.0 + 1e-5, 1.5])
    with pytest.raises(ValueError):
        MomentSequence([])
    with pytest.raises(ValueError):
        MomentSequence([1.0, np.nan])


def test_moment_sequence_of_measure_and_json():
    ms = moments_of(TWO, 4)
    assert np.array_equal(ms.values, [1.0, 1.5, 2.5, 4.5, 8.5])
    back = MomentSequence.from_json(ms.to_json())
    assert np.array_equal(back.values, ms.values)
    with pytest.raises(ValueError):
        MomentSequence.from_json(json.dumps({"m": [1.0]}))
    for data in (
        [[1, 1.5], [2.5, 4.5]],
        [1.0, [1.5]],
        [1.0, "1.5"],
        [True, 1.5],
        [1.0, False],
        [1, 10**400],
    ):
        with pytest.raises(ValueError, match="flat JSON array|too large"):
            MomentSequence.from_json(json.dumps(data))
    # JSON integers are numbers
    assert MomentSequence.from_json("[1, 2]").values.tolist() == [1.0, 2.0]


def test_moment_sequence_keeps_extended_precision():
    ms = moments_of(TWO, 6, dtype=np.longdouble)
    assert ms.values.dtype == np.longdouble
    exact = [TWO.moment(k) for k in range(7)]
    assert np.allclose(ms.values.astype(float), exact, rtol=1e-15)


# ---------------------------------------------------------------------------
# Marchenko-Pastur law
# ---------------------------------------------------------------------------

def test_mp_rejects_aspect_ratio_outside_unit_interval():
    for c in (0.0, 1.0, 1.3, -0.1):
        with pytest.raises(ValueError):
            MarchenkoPastur(c)


def test_mp_support_edges():
    mp = MarchenkoPastur(0.25)
    assert mp.lower_edge == pytest.approx(0.25)
    assert mp.upper_edge == pytest.approx(2.25)


def test_mp_density_vanishes_off_support():
    mp = MarchenkoPastur(0.25)
    assert mp_density(mp, 0.1) == 0.0
    assert mp_density(mp, mp.lower_edge) == 0.0
    assert mp_density(mp, mp.upper_edge) == 0.0
    assert mp_density(mp, 2.5) == 0.0
    assert mp_density(mp, 1.0) > 0.0


@pytest.mark.parametrize("c", [0.1, 0.2, 0.5, 0.9])
def test_mp_density_is_a_unit_mass_with_unit_mean(c):
    mp = MarchenkoPastur(c)
    l, r = mp.lower_edge, mp.upper_edge
    mass, _ = quad(lambda x: mp_density(mp, x), l, r, limit=200)
    mean, _ = quad(lambda x: x * mp_density(mp, x), l, r, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(1.0, abs=1e-8)


def test_mp_moments_match_quadrature():
    for c in (0.2, 0.5):
        mp = MarchenkoPastur(c)
        assert mp_moment(mp, 0) == pytest.approx(1.0, abs=1e-12)
        assert mp_moment(mp, 1) == pytest.approx(1.0, abs=1e-12)
        assert mp_moment(mp, 2) == pytest.approx(1.0 + c, abs=1e-12)
        for k in range(3, 9):
            ref, _ = quad(lambda x: x**k * mp_density(mp, x),
                          mp.lower_edge, mp.upper_edge, limit=200)
            assert mp_moment(mp, k) == pytest.approx(ref, rel=1e-9)


def test_mp_stieltjes_matches_quadrature_oracle():
    for c in (0.2, 0.5):
        mp = MarchenkoPastur(c)
        g_ref = mp_g_quadrature(mp, n=400)
        for z in (1.0 + 1.0j, 0.5 + 0.2j, 3.0 + 0.01j):
            g = mp.stieltjes(z)
            assert g.imag < 0.0
            assert g == pytest.approx(g_ref(z), rel=1e-10)
            assert mp.stieltjes(np.conj(z)) == pytest.approx(np.conj(g))


def test_mp_s_transform_closed_form_and_pole():
    assert mp_s_transform(0.2, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mp_s_transform(0.2, 0.5) == pytest.approx(1.0 / 1.1, rel=1e-15)
    assert mp_s_transform(0.5, -0.5) == pytest.approx(
        1.0 / 0.75, rel=1e-15)
    with pytest.raises(PoleError):
        mp_s_transform(0.2, -1.0 / 0.2)


def test_mp_s_transform_matches_inversion_oracle_at_examples():
    # the closed form is certified against the quadrature-inversion oracle
    assert mp_s_transform(0.2, 0.5) == pytest.approx(
        mp_s_numeric(MarchenkoPastur(0.2), 0.5), abs=1e-10)
    assert mp_s_transform(0.5, -0.5) == pytest.approx(
        mp_s_numeric(MarchenkoPastur(0.5), -0.5), abs=1e-10)


# ---------------------------------------------------------------------------
# Wasserstein distance
# ---------------------------------------------------------------------------

def test_wasserstein_point_values():
    d1 = DiscreteMeasure([1.0], [1.0])
    d2 = DiscreteMeasure([2.0], [1.0])
    spread = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
    assert wasserstein_1(d1, d2) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein_1(TWO, TWO) == 0.0
    assert wasserstein_1(spread, d1) == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_is_a_metric_on_random_triples():
    rng = np.random.default_rng(12)
    for _ in range(30):
        a = rand_measure(rng, 5, -3.0, 9.0)
        b = rand_measure(rng, 5, -3.0, 9.0)
        c = rand_measure(rng, 5, -3.0, 9.0)
        dab = wasserstein_1(a, b)
        assert dab == pytest.approx(wasserstein_1(b, a), abs=1e-15)
        assert dab <= wasserstein_1(a, c) + wasserstein_1(c, b) + 1e-12
        assert wasserstein_1(a, a) == 0.0
        if a != b:
            assert dab > 0.0


def test_wasserstein_matches_scipy():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        a = rand_measure(rng, 6, -3.0, 9.0)
        b = rand_measure(rng, 6, -3.0, 9.0)
        ref = wasserstein_distance(a.atoms, b.atoms, a.weights, b.weights)
        worst = max(worst, abs(wasserstein_1(a, b) - ref))
    assert worst < 1e-12
