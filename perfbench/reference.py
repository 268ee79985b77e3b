"""Reference clock: the speed of the machine, read beside the workload.

The speed of a shared machine swings with the load of its neighbours, by
up to 2x and for minutes at a time, and a run of the benchmark cannot
avoid that.  So the run also times a fixed reference kernel, a few calls
before every set-up and every timed iteration.  The kernel uses numpy,
scipy and plain Python only, on inputs that never change, so no change to
mixedgp moves it: its median time in a run says how fast the machine was
during that run.

End-to-end times are scaled by ``REF_S / median reference time``, which
reads them as seconds on a machine where the reference takes ``REF_S``.
The raw times and the reference medians are in the ``report`` line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# A round figure near the median time of one reference call on the
# machine of the README's numbers; it only sets the scale of scaled times.
REF_S = 1.0e-3
# Timed reference calls per reading, after one untimed call; a reading is
# taken before every set-up and every timed iteration, and once more after
# the last of each.
REF_CALLS = 5

_RNG = np.random.default_rng(20221115)
_X = _RNG.random((98, 3))
_Y = _RNG.random(98)
_THETA = np.array([3.0, 5.0, 2.0])
_ROWS = [tuple(row) for row in _RNG.random((300, 3))]
_BIG = _RNG.random(200_000)


def reference_kernel() -> float:
    """One call: the steps of a likelihood evaluation at n=98 (correlation
    matrix, Cholesky, triangular solve), a Python loop over small tuples and
    a pass over a 1.6 MB array."""
    D = (_X[:, None, :] - _X[None, :, :]) ** 2
    R = np.exp(-(D @ _THETA))
    R[np.diag_indices_from(R)] += 1e-8
    L = scipy.linalg.cholesky(R, lower=True)
    alpha = scipy.linalg.solve_triangular(L, _Y, lower=True)
    checked = 0
    for row in _ROWS:
        if all(0.0 <= v <= 1.0 for v in row):
            checked += 1
    return float(alpha @ alpha) + float(np.log(np.diag(L)).sum()) + checked + float(
        np.sqrt(_BIG).sum())


class ReferenceClock:
    """Reference readings per phase of a run ("setup", "run")."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {"setup": [], "run": []}

    def read(self, phase: str) -> None:
        # one untimed call first: the work before a reading may have left the
        # caches cold, and how cold depends on the program, not the machine
        reference_kernel()
        for _ in range(REF_CALLS):
            start = time.perf_counter()
            reference_kernel()
            self.samples[phase].append(time.perf_counter() - start)

    def median(self, phase: str) -> float:
        return statistics.median(self.samples[phase])

    def scale(self, phase: str) -> float:
        """Factor that turns a raw time of the phase into reference seconds."""
        return REF_S / self.median(phase)
