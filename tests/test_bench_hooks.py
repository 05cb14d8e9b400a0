"""The benchmark's stage tracer still finds every stage it times.

`bench/tracer.py` wraps package functions by name and reports a stage that
no module defines as missing, so a rename would otherwise show up only as
`trace.missing_stages` in a benchmark record.
"""

import inspect
import sys
from pathlib import Path

import freedeconv
from freedeconv import pipeline
from freedeconv.experiments import SCENARIOS, run_scenario, sample_spectrum
from freedeconv.measures import wasserstein_1
from freedeconv.inversion import lift_many

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from layers import STAGES  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.remove(str(BENCH))


def test_tracer_finds_every_stage():
    original = pipeline.deconvolve
    with Tracer(STAGES) as tracer:
        # the G-form moment rule and the S-value contour builder left the
        # package; the benchmark still lists them as stages
        assert tracer.missing == ["contour_rep_from_s", "moments_from_contour"]
        # the package-level re-export is wrapped too
        assert freedeconv.deconvolve is not original
        assert freedeconv.deconvolve is pipeline.deconvolve
    assert freedeconv.deconvolve is original


def test_lift_hook_reads_targets_and_step_counts():
    params = inspect.signature(lift_many).parameters
    assert "targets" in params
    assert "step_counts" in params
    sc = SCENARIOS["S3"]
    mu_n = sample_spectrum(sc.population, round(sc.c * 500), 500, 7)
    tracer = Tracer(STAGES)
    with tracer:
        # looked up on the module, where the tracer installs its wrapper
        result = pipeline.deconvolve(mu_n, sc.c)
    lifts = [span for span in tracer.spans if span.name == "lift_many"]
    # one march over the upper half of the circle's nodes
    assert [span.counts["nodes"] for span in lifts] == [256]
    assert result.diagnostics.nodes_used == 512
    assert sum(span.counts["steps"] for span in lifts) == (
        result.diagnostics.lift_steps_total
    )
    decon = [span for span in tracer.spans if span.name == "deconvolve"]
    assert [span.counts["nodes_used"] for span in decon] == [
        result.diagnostics.nodes_used
    ]


def test_retry_ladder_shows_every_rung_and_one_spectral_stage():
    # S1 at n = 250, seed 33 succeeds only on the last of 7 rungs; each rung
    # is a deconvolve span, but ramification and lifting run once
    sc = SCENARIOS["S1"]
    tracer = Tracer(STAGES)
    with tracer:
        (report,) = run_scenario(sc, [250], seeds=[33], workers=1)
    assert report.error == ""
    names = [span.name for span in tracer.spans]
    assert names.count("deconvolve") == 7
    assert names.count("critical_points") == 1
    lifts = [span for span in tracer.spans if span.name == "lift_many"]
    # one march over the upper half of the circle's nodes
    assert [span.counts["nodes"] for span in lifts] == [256]
    decon = [span for span in tracer.spans if span.name == "deconvolve"]
    assert all(span.error for span in decon[:-1])
    # the benchmark's correctness gate reads the estimate off the last
    # deconvolve span of a run
    est = decon[-1].counts["estimate"]
    assert not decon[-1].error
    assert decon[-1].counts["nodes_used"] == pipeline.CIRCLE_NODES
    assert wasserstein_1(est, sc.ground_truth(report.p)) == report.w1_error
