"""Host speed reference for scaling measured times.

The benchmark host is a shared virtual machine whose speed drifts by 20-30%
over seconds to minutes: a fixed pure-Python loop, timed in 10 s windows
over 100 s, had an interquartile range of 15% of its median.  No run length
averages that out, so every measured time is scaled to the host's reference
speed.  A fixed kernel that does not call the program is timed before and
after each op, and the op's time is multiplied by REF / (kernel time).  A
change to the program moves the op time and not the kernel, so it moves the
scaled time by the same factor; a slow phase of the host moves both.  Over
90 s of repeated moments passes, scaling cut the spread (interquartile
range over median) of each op's repeated times from 27% to 11%; over 100 s
of CBC passes, from 13% to 10% per op and from 8.4% to 6.7% per pass.

Three kernels, matched to the work they stand for: object-heavy pure Python
for the per-point evaluators and the series, a numpy gather, multiply and
column sum for the CBC scan, and a fresh interpreter importing numpy for
set-up, which is mostly interpreter start and imports.  Over 100 s of
set-up samples, the last cut the spread of 5-sample medians from 19% to
12%.  The numpy kernel avoids BLAS and allocates no large array: a BLAS
call runs faster while the thread pool is still awake from the op before
it, and a fresh large array costs page faults that depend on what the op
before it freed, so either would make the kernel time track the state
left by the op rather than the host's speed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# median kernel times of the reference host (2-core Xeon), so that scaled
# times read as seconds on that host at its usual speed
REF_S = {"python": 0.0084, "numpy": 0.0012, "startup": 0.15}

_N = 1 << 12
_ARGS = None


def _python_kernel() -> None:
    table = {}
    acc = 0.0
    for i in range(40000):
        t = (i & 255, (i * 7) & 255, (i * 13) & 255)
        table[t[0]] = t
        acc += t[1] * 0.5 - t[2] * 0.25


def _numpy_kernel() -> None:
    global _ARGS
    if _ARGS is None:
        rng = np.random.default_rng(1)
        cols = np.arange(1, 129, 2, dtype=np.intp)
        idx = (np.arange(_N, dtype=np.intp)[:, None] * cols[None, :]) & (_N - 1)
        _ARGS = (rng.random((_N, 1)), rng.random(_N), idx, np.empty(idx.shape), np.empty(cols.size))
    p, w, idx, buf, out = _ARGS
    np.take(w, idx, out=buf)
    np.multiply(buf, p, out=buf)
    np.sum(buf, axis=0, out=out)


def _startup_kernel() -> None:
    subprocess.run([sys.executable, "-B", "-c", "import numpy"], check=True)


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel, "startup": _startup_kernel}
_CALLS = {"python": 5, "numpy": 5, "startup": 3}


def sample(kind: str) -> float:
    """Kernel time, the median of a few calls."""
    kernel = _KERNELS[kind]
    times = []
    for _ in range(_CALLS[kind]):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(kind: str, before: float, after: float) -> float:
    """Factor taking a time measured between two samples to the reference speed."""
    return REF_S[kind] / ((before + after) / 2.0)
