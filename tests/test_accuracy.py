"""Accuracy guard: the median W1 error of the estimator on sampled spectra.

Each cell runs `deconvolve_with_retries` on the sampled spectra of seeds
1-5 for one scenario and sample size n (p = round(c n)), scores the
estimate by W1 against the scenario's ground truth, a failed run scoring
inf, and holds the median to at most its recorded value plus a quarter of
the recorded five-seed range.  So an estimator change that costs accuracy
fails here, not only in a benchmark report.  n = 8000 stays out: its
fifteen samples cost about 8 s of p = 1600 `eigvalsh`.
"""

import numpy as np
import pytest

from freedeconv.errors import NumericalError
from freedeconv.experiments import SCENARIOS, sample_spectrum
from freedeconv.measures import wasserstein_1
from freedeconv.pipeline import deconvolve_with_retries

SEEDS = range(1, 6)

# (scenario, n): recorded median W1 and its range (min, max) over SEEDS
RECORDED = {
    ("S2_1", 500): (0.0446, 0.0101, 0.1699),
    ("S2_1", 2000): (0.0113, 0.0057, 0.0236),
    ("S2_3", 500): (0.6995, 0.4462, 0.9530),
    ("S2_3", 2000): (0.5296, 0.2646, 0.5907),
    ("S3", 500): (0.1073, 0.0936, 0.1152),
    ("S3", 2000): (0.1017, 0.0758, 0.1067),
}


def _w1(sc, n, seed):
    p = round(sc.c * n)
    mu_n = sample_spectrum(sc.population, p, n, seed)
    try:
        estimate = deconvolve_with_retries(mu_n, sc.c).estimate
    except (NumericalError, ValueError):
        return np.inf
    return wasserstein_1(estimate, sc.ground_truth(p))


@pytest.mark.parametrize(
    "cell", sorted(RECORDED), ids=lambda cell: f"{cell[0]}-n{cell[1]}"
)
def test_median_w1_stays_within_a_quarter_range_of_its_record(cell):
    sc_id, n = cell
    median, lo, hi = RECORDED[cell]
    w1 = [_w1(SCENARIOS[sc_id], n, seed) for seed in SEEDS]
    assert np.median(w1) <= median + 0.25 * (hi - lo), w1
