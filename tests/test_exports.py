"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import freedeconv
from helpers import run_fresh

MODULES = [
    importlib.import_module(f"freedeconv.{info.name}")
    for info in pkgutil.iter_modules(freedeconv.__path__)
    if info.name != "__main__"  # importing it would run the CLI
]


@pytest.mark.parametrize(
    "module", [freedeconv] + MODULES, ids=lambda mod: mod.__name__
)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module.__name__} declares no __all__"
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


# One deconvolution with retries and one serial S3 scenario run, which
# takes the Toeplitz truth and scores its estimate, in a fresh
# interpreter; prints which of the modules named on its command line the
# run loaded.
UNLOADED_SCRIPT = """
import sys
import freedeconv
mu_n = freedeconv.sample_spectrum(freedeconv.SCENARIOS["S2_1"].population, 40, 200, 1)
freedeconv.deconvolve_with_retries(mu_n, 0.2)
(report,) = freedeconv.run_scenario(freedeconv.SCENARIOS["S3"], [200], workers=1)
assert report.error == "", report.error
print(sorted(set(sys.modules) & set(sys.argv[1:])))
"""


def test_scipy_and_process_pools_stay_unloaded():
    loaded = run_fresh(UNLOADED_SCRIPT, "scipy", "concurrent.futures")
    assert loaded.strip() == "[]"


def test_scoring_a_run_leaves_numpy_ma_unloaded():
    # np.union1d goes through np.unique, which imports numpy.ma: about
    # 13 ms and 1 MB in every process that scores a run
    assert run_fresh(UNLOADED_SCRIPT, "numpy.ma").strip() == "[]"
