"""Hankel gating, recurrence extraction, and measure recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedeconv.errors import InvalidMomentsError, NumericalError
from freedeconv.measures import DiscreteMeasure, MomentSequence
from freedeconv.recovery import (
    JacobiCoefficients,
    jacobi_from_moments,
    measure_from_jacobi,
    recover_measure_detailed,
)

from helpers import (
    hankel,
    is_moment_sequence,
    lanczos_jacobi,
    moments_of,
    rand_measure,
)

TWO = DiscreteMeasure([1.0, 2.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Hankel matrices
# ---------------------------------------------------------------------------

def test_hankel_entries_follow_moment_indices():
    ms = moments_of(TWO, 4)
    H = hankel(ms, 3)
    expected = np.array(
        [[1.0, 1.5, 2.5], [1.5, 2.5, 4.5], [2.5, 4.5, 8.5]]
    )
    assert np.allclose(H, expected, atol=1e-14)
    assert H.shape == (3, 3)
    assert not H.flags.writeable


def test_hankel_requires_enough_moments():
    ms = moments_of(TWO, 2)
    with pytest.raises(ValueError):
        hankel(ms, 3)
    with pytest.raises(ValueError):
        hankel(ms, 0)


# ---------------------------------------------------------------------------
# moment sequence verdicts
# ---------------------------------------------------------------------------

def test_point_mass_moments_are_rank_deficient():
    ms = moments_of(DiscreteMeasure([1.0], [1.0]), 4)
    verdict = is_moment_sequence(ms, 3)
    assert verdict.status == "rank_deficient"
    assert verdict.rank == 1


def test_indefinite_sequence_is_invalid():
    verdict = is_moment_sequence(MomentSequence([1.0, 0.0, -1.0]), 2)
    assert verdict.status == "invalid"
    assert verdict.rank is None
    assert verdict.eigenvalues[0] < 0.0


def test_three_atom_sequence_has_rank_three():
    mu = DiscreteMeasure([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    ms = moments_of(mu, 8)
    verdict = is_moment_sequence(ms, 5)
    assert verdict.status == "rank_deficient"
    assert verdict.rank == 3


def test_full_rank_sequence_is_valid():
    verdict = is_moment_sequence(moments_of(TWO, 4), 2)
    assert verdict.status == "valid"
    assert verdict.rank == 2


# ---------------------------------------------------------------------------
# recurrence coefficients
# ---------------------------------------------------------------------------

def test_jacobi_symmetric_two_atom_example():
    mu = DiscreteMeasure([-1.0, 1.0], [0.5, 0.5])
    jc = jacobi_from_moments(moments_of(mu, 3), 2)
    assert np.allclose(jc.a, [0.0, 0.0], atol=1e-14)
    assert np.allclose(jc.b, [1.0], atol=1e-14)
    assert jc.rank == 2


def test_jacobi_point_mass_example():
    jc = jacobi_from_moments(
        moments_of(DiscreteMeasure([1.7], [1.0]), 1), 1
    )
    assert np.allclose(jc.a, [1.7], atol=1e-14)
    assert jc.b.size == 0
    assert jc.rank == 1


def test_jacobi_two_atom_example():
    jc = jacobi_from_moments(moments_of(TWO, 3), 2)
    assert np.allclose(jc.a, [1.5, 1.5], atol=1e-12)
    # b stores the squared off-diagonal: (0.5)^2 for atoms at distance 1
    assert np.allclose(jc.b, [0.25], atol=1e-12)


def test_jacobi_truncates_on_finite_support():
    ms = moments_of(DiscreteMeasure([1.0], [1.0]), 6)
    jc = jacobi_from_moments(ms, 3)
    assert jc.rank == 1
    assert np.allclose(jc.a, [1.0], atol=1e-12)


def test_jacobi_requires_enough_moments():
    ms = moments_of(TWO, 3)
    with pytest.raises(ValueError):
        jacobi_from_moments(ms, 3)
    with pytest.raises(ValueError):
        jacobi_from_moments(ms, 0)
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            jacobi_from_moments(ms, bad)
    for check, n in ((jacobi_from_moments, 1), (recover_measure_detailed, 2)):
        with pytest.raises(ValueError, match="tol"):
            check(ms, n, tol=True)


def test_jacobi_rejects_indefinite_input():
    with pytest.raises(InvalidMomentsError) as exc_info:
        jacobi_from_moments(MomentSequence([1.0, 0.0, -1.0, 0.0]), 2)
    assert exc_info.value.stage == "recover_measure"


def test_jacobi_coefficient_validation():
    with pytest.raises(ValueError):
        JacobiCoefficients(np.array([1.0, 2.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        JacobiCoefficients(np.array([1.0, 2.0]), np.array([-0.5]))
    with pytest.raises(ValueError):
        JacobiCoefficients(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        JacobiCoefficients(np.array([1.0, np.inf]), np.array([1.0]))


def test_jacobi_matches_lanczos_recurrence():
    # independent oracle: extended-precision Stieltjes three-term recurrence
    # evaluated directly on the atoms; measured worst gap 5.5e-11
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(40):
        mu = rand_measure(rng, 6, 0.1, 10.0, min_gap=1.2)
        if mu.n_atoms < 2:
            continue
        n = mu.n_atoms
        mom = moments_of(mu, 2 * n - 1, dtype=np.longdouble)
        jc = jacobi_from_moments(mom, n, 1e-8)
        a_o, b_o = lanczos_jacobi(mu, n)
        err = np.max(np.abs(jc.a - a_o))
        if jc.b.size:
            err = max(err, np.max(np.abs(jc.b - b_o)))
        worst = max(worst, err)
    assert worst <= 1e-9


def test_hankel_verdict_matches_pivot_certificate():
    # positivity verdict and Cholesky pivot failure must agree on every
    # input: both certify "is a moment sequence of some positive measure"
    rng = np.random.default_rng(10)
    valid_ok = 0
    for _ in range(200):
        mu = rand_measure(rng, 4, 0.1, 5.0, min_gap=0.2)
        n = mu.n_atoms
        mom = moments_of(mu, 2 * n + 1)
        verdict = is_moment_sequence(mom, n + 1, 1e-10)
        try:
            jc = jacobi_from_moments(mom, n + 1, 1e-10)
            ok = bool(np.all(jc.b > 0.0))
        except InvalidMomentsError:
            ok = False
        if verdict.status != "invalid" and ok:
            valid_ok += 1
    assert valid_ok == 200
    mismatches = 0
    invalid = 0
    for _ in range(200):
        mu = rand_measure(rng, 4, 0.1, 5.0, min_gap=0.2)
        n = mu.n_atoms
        vals = np.array([mu.moment(k) for k in range(2 * n + 2)])
        k = int(rng.integers(2, 2 * n + 2))
        vals[k] -= (2.0 + rng.uniform()) * max(1.0, abs(vals[k]))
        verdict = is_moment_sequence(MomentSequence(vals), n + 1, 1e-10)
        raised = False
        try:
            jacobi_from_moments(MomentSequence(vals), n + 1, 1e-10)
        except InvalidMomentsError:
            raised = True
        if (verdict.status == "invalid") != raised:
            mismatches += 1
        if verdict.status == "invalid":
            invalid += 1
    assert mismatches == 0
    assert invalid >= 100


# ---------------------------------------------------------------------------
# measure from recurrence
# ---------------------------------------------------------------------------

def test_measure_from_jacobi_two_atoms():
    mu = measure_from_jacobi(
        JacobiCoefficients(np.array([1.5, 1.5]), np.array([0.25]))
    )
    assert np.allclose(mu.atoms, [1.0, 2.0], atol=1e-12)
    assert np.allclose(mu.weights, [0.5, 0.5], atol=1e-12)


def test_measure_from_jacobi_rank_one():
    mu = measure_from_jacobi(JacobiCoefficients(np.array([1.7]), np.empty(0)))
    assert mu.n_atoms == 1
    assert mu.atoms[0] == 1.7
    assert mu.weights[0] == 1.0


def test_measure_from_jacobi_reports_solver_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError) as exc_info:
        measure_from_jacobi(
            JacobiCoefficients(np.array([1.5, 1.5]), np.array([0.25]))
        )
    assert exc_info.value.stage == "measure_from_jacobi"


def test_measure_from_jacobi_weights_are_normalized():
    rng = np.random.default_rng(14)
    for _ in range(10):
        mu = rand_measure(rng, 6, 0.1, 10.0, min_gap=0.5)
        if mu.n_atoms < 2:
            continue
        a, b = lanczos_jacobi(mu, mu.n_atoms)
        rec = measure_from_jacobi(JacobiCoefficients(a, b))
        assert abs(np.sum(rec.weights) - 1.0) <= 1e-12
        assert np.allclose(rec.atoms, mu.atoms, atol=1e-9)
        assert np.allclose(rec.weights, mu.weights, atol=1e-9)


# ---------------------------------------------------------------------------
# full recovery
# ---------------------------------------------------------------------------

def test_recover_three_atoms_from_order_six_moments():
    mu = DiscreteMeasure([1.0, 2.0, 5.0], [1 / 3, 1 / 3, 1 / 3])
    rec = recover_measure_detailed(moments_of(mu, 6), 8).measure
    assert rec.n_atoms == 3
    assert np.allclose(rec.atoms, mu.atoms, atol=1e-8)
    assert np.allclose(rec.weights, mu.weights, atol=1e-8)


def test_recover_point_mass_from_constant_moments():
    rec = recover_measure_detailed(MomentSequence(np.ones(5)), 2).measure
    assert rec.n_atoms == 1
    assert rec.atoms[0] == pytest.approx(1.0, abs=1e-12)
    assert rec.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_recover_tolerates_small_moment_noise():
    rng = np.random.default_rng(0)
    vals = np.array([TWO.moment(k) for k in range(5)])
    vals[1:] += rng.uniform(-1e-8, 1e-8, 4)
    rec = recover_measure_detailed(MomentSequence(vals), 8).measure
    assert rec.n_atoms == 2
    assert np.max(np.abs(rec.atoms - [1.0, 2.0])) < 1e-3
    assert np.max(np.abs(rec.weights - [0.5, 0.5])) < 1e-3


def test_recover_input_contracts():
    ms = moments_of(TWO, 4)
    with pytest.raises(ValueError):
        recover_measure_detailed(ms, 0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="max_support"):
            recover_measure_detailed(ms, bad)
    with pytest.raises(ValueError):
        recover_measure_detailed(MomentSequence([1.0]), 2)
    # a bad tolerance is a bad argument, not a numerical failure
    for bad in (-1.0, 0.0, np.inf, np.nan):
        for check in (recover_measure_detailed, jacobi_from_moments):
            with pytest.raises(ValueError, match="tol"):
                check(ms, 2, tol=bad)


def test_recover_rejects_indefinite_sequence():
    with pytest.raises(InvalidMomentsError) as exc_info:
        recover_measure_detailed(MomentSequence([1.0, 0.0, -1.0, 0.0]), 2)
    assert exc_info.value.stage == "recover_measure"
    assert exc_info.value.diagnostics["pivot"] < 0.0


def test_recovery_ignores_moments_above_the_detected_rank():
    # m_6 of this two-atom sequence is spoiled, so the order-4 Hankel
    # matrix is indefinite, but no pivot falls below -tol: the third pivot
    # vanishes first and truncates at rank 2, which m_6 does not enter
    vals = np.array([TWO.moment(k) for k in range(8)])
    vals[6] *= 0.5
    ms = MomentSequence(vals)
    assert is_moment_sequence(ms, 4).status == "invalid"
    report = recover_measure_detailed(ms, 4)
    assert report.coefficients.rank == 2
    assert np.allclose(report.measure.atoms, [1.0, 2.0], atol=1e-12)
    assert np.allclose(report.measure.weights, [0.5, 0.5], atol=1e-12)


def test_recover_detailed_report_fields():
    ms = moments_of(TWO, 4)
    report = recover_measure_detailed(ms, 2)
    assert report.coefficients.rank == 2
    assert report.moment_errors.size == 4  # orders 0 .. 2*rank - 1
    assert np.max(report.moment_errors) <= 10.0 * 1e-8
    assert np.allclose(report.measure.atoms, [1.0, 2.0], atol=1e-10)
    assert not report.moment_errors.flags.writeable


def test_recover_eight_equispaced_atoms():
    # the hardest supported configuration: eight atoms across [0.1, 10];
    # extended-precision moments keep the error at the conditioning floor,
    # measured 1.2e-9 for atoms and weights jointly
    mu = DiscreteMeasure(np.linspace(0.1, 10.0, 8), np.full(8, 1.0 / 8))
    mom = moments_of(mu, 16, dtype=np.longdouble)
    rec = recover_measure_detailed(mom, 8, tol=1e-12).measure
    assert rec.n_atoms == 8
    err = max(
        np.max(np.abs(rec.atoms - mu.atoms)),
        np.max(np.abs(rec.weights - mu.weights)),
    )
    assert err <= 5e-8


@st.composite
def _separated_measure(draw):
    # 1 to 5 atoms in [0.1, 5] with consecutive gaps of at least 0.3:
    # sorted uniform draws over the slack, shifted by 0.3 per rank
    size = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0)
    slack = 4.9 - 0.3 * (size - 1)
    offsets = np.sort([draw(unit) for _ in range(size)])
    atoms = 0.1 + 0.3 * np.arange(size) + slack * offsets
    weights = np.array([draw(st.floats(0.2, 1.0)) for _ in range(size)])
    return DiscreteMeasure(atoms, weights / weights.sum())


@settings(max_examples=200, deadline=None, database=None)
@given(_separated_measure())
def test_float64_moments_round_trip(mu):
    # the pipeline hands recovery float64 moments, which it factors in
    # double precision.  Measured over 20 000 uniform draws: worst atom or
    # weight error 1.4e-6, worst moment error 1.3e-14.  The hardest layout,
    # five atoms 0.3 apart at 3.8 .. 5.0, reads up to 7.8e-4 and 2.9e-14
    # over 100 000 weight draws
    report = recover_measure_detailed(
        moments_of(mu, 2 * mu.n_atoms), mu.n_atoms, tol=1e-12
    )
    rec = report.measure
    assert rec.n_atoms == mu.n_atoms
    assert np.max(np.abs(rec.atoms - mu.atoms)) <= 1e-3
    assert np.max(np.abs(rec.weights - mu.weights)) <= 1e-3
    assert np.max(report.moment_errors) <= 1e-13


def test_recover_random_measures_roundtrip():
    rng = np.random.default_rng(15)
    for _ in range(25):
        mu = rand_measure(rng, 6, 0.1, 10.0, min_gap=0.3)
        mom = moments_of(mu, 2 * mu.n_atoms, dtype=np.longdouble)
        report = recover_measure_detailed(mom, mu.n_atoms, tol=1e-12)
        rec = report.measure
        assert rec.n_atoms == mu.n_atoms
        assert np.max(np.abs(rec.atoms - mu.atoms)) < 1e-7
        assert np.max(np.abs(rec.weights - mu.weights)) < 1e-7
        # the moment errors, order by order from the measure's own moments
        want = [
            abs(rec.moment(k) - float(mom[k])) / max(1.0, abs(float(mom[k])))
            for k in range(2 * rec.n_atoms)
        ]
        assert np.allclose(
            report.moment_errors, want, rtol=0.0, atol=64 * np.finfo(float).eps
        )
