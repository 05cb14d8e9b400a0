"""Workload definitions: which scenario runs a benchmark invocation makes.

A *scenario run* is what ``freedeconv scenario`` does for one (n, seed):
sample a spectrum, estimate it with the retry ladder, score W1.  A
workload is a block of scenario runs, repeated with fresh sample seeds as
many times as the requested measuring time holds blocks of nominal length,
rounded to the nearest count.  The block count depends only on
``--seconds``, never on how fast the code runs, so two commits always
receive the same inputs.

Sample seeds are ``base + SEED_STRIDE * seed``: the workload seed shifts
every sample seed, so a claim made on some seeds can be re-checked on
seeds nobody looked at while writing it.  Seed 0 reproduces seeds 1, 2,
... of the workload design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    n: int
    seeds_per_block: int
    block_s: float  # median seconds of one block on a 2-core x86 machine
    why: str

    def blocks(self, seconds: float) -> int:
        return max(1, round(seconds / self.block_s))


@dataclass(frozen=True)
class Run:
    scenario: str
    n: int
    seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small_p", ("S1", "S2_1", "S2_3", "S3"), 500, 5, 11.0,
            "p = 100: lifting dominates and retries are mixed, 1 to 6 "
            "deconvolve calls per run",
        ),
        Workload(
            "large_p", ("S2_3", "S3"), 8000, 1, 24.0,
            "p = 1600: ramification dominates and each run makes a single "
            "deconvolve call",
        ),
        Workload(
            "near_square", ("S2_2",), 500, 3, 10.0,
            "c = 0.95: every run makes 3 to 6 deconvolve calls and repeats "
            "ramification in each; the Marchenko-Pastur pole caps the radius",
        ),
    )
}


def run_list(workload: Workload, seed: int, seconds: float) -> list[Run]:
    """The scenario runs of one invocation, in execution order."""
    if seed < 0:
        raise ValueError("workload seed must be nonnegative")
    blocks = workload.blocks(seconds)
    if blocks * workload.seeds_per_block >= SEED_STRIDE:
        raise ValueError("too many blocks for the seed stride")
    runs = []
    for b in range(blocks):
        for sc in workload.scenarios:
            for i in range(workload.seeds_per_block):
                base = 1 + b * workload.seeds_per_block + i
                runs.append(Run(sc, workload.n, base + SEED_STRIDE * seed))
    return runs


def fingerprint(measure) -> str:
    """Content hash of a spectral measure, bit-exact."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(measure.atoms, dtype=float).tobytes())
    h.update(np.ascontiguousarray(measure.weights, dtype=float).tobytes())
    return h.hexdigest()[:16]


def combined_fingerprint(fingerprints: list[str]) -> str:
    return hashlib.sha256("".join(fingerprints).encode()).hexdigest()[:16]


# a single-call run at p = 40: it passes every stage once, and the package
# has no lazy state that a longer warm-up would fill
WARMUP = Run("S2_3", 200, 0)


def warm_up() -> None:
    """One small scenario run through the code path every workload takes."""
    from freedeconv.experiments import SCENARIOS, run_scenario

    run_scenario(
        SCENARIOS[WARMUP.scenario], [WARMUP.n], "contour",
        seeds=[WARMUP.seed], workers=1,
    )
