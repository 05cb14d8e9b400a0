"""Reference kernel that measures the machine's speed next to each run.

On a shared machine the same scenario run can take 0.12 s or 0.23 s a few
seconds apart, and whole minutes can run 1.5 times slower than others.
The benchmark therefore times this fixed kernel before and after each
scenario run and scales the run's time by ``REFERENCE_S`` over the
kernel's time.  The kernel uses no ``freedeconv`` code, so a change to the
package cannot move it; it mixes the kinds of work the package does:
a symmetric eigensolve, Newton steps on a complex array, polynomial roots
and interpreted Python.
"""

from __future__ import annotations

import time

import numpy as np

# mean kernel time on a 2-core x86 machine with one BLAS thread; scaled
# times read as seconds on that machine at its mean speed
REFERENCE_S = 0.018

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((120, 120))
_SYM = _SYM + _SYM.T
_Z = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_COEF = _rng.standard_normal(16)


def reference_time() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(9):
        np.linalg.eigvalsh(_SYM)
    w = _Z.copy()
    for _ in range(180):
        w = w - (w * w * w - _Z) / (3.0 * w * w + 1.0)
    for _ in range(3):
        np.roots(_COEF)
    acc = 0.0
    for i in range(60000):
        acc += i * 0.5
    return time.perf_counter() - t0
