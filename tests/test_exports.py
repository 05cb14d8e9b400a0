"""Every exported name of the package and its modules resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import freedeconv

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
# takes the Toeplitz truth, in a fresh interpreter; prints the loaded
# modules that the package must not pull in.
UNLOADED_SCRIPT = """
import sys
import freedeconv
mu_n = freedeconv.sample_spectrum(freedeconv.SCENARIOS["S2_1"].population, 40, 200, 1)
freedeconv.deconvolve_with_retries(mu_n, 0.2)
(report,) = freedeconv.run_scenario(freedeconv.SCENARIOS["S3"], [200], workers=1)
assert report.error == "", report.error
print(sorted(set(sys.modules) & {"scipy", "concurrent.futures"}))
"""


def test_scipy_and_process_pools_stay_unloaded():
    src = Path(freedeconv.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", UNLOADED_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
