"""Host-speed probe: a fixed reference task timed between units of work.

The machines this benchmark runs on share their cores with other tenants, and
their speed drifts by 20-40% over tens of seconds, for the benchmark's own
process and for any other (process CPU time moves with wall time). A median
over one run cannot remove drift that lasts longer than the run. So each unit
is timed between two probes, and its wall time is divided by the host's
speed factor measured around it.

The probe's work is the benchmark's own and never calls longnav, so a change
to longnav cannot move it. It has two parts, timed separately: Hamming
distances of the live-frame size in numpy (longnav's kernels) and JSON
parsing with small-object churn in the interpreter (longnav's bookkeeping).
A workload weights them by its numpy share. The speed factor is 1.0 when
both parts take their nominal times, so normalized figures read as they
would on a host of that speed.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_NUMPY_S = 0.035
NOMINAL_PYTHON_S = 0.025
REPEATS = 5  # the median of five short probes resists sub-second spikes


class HostProbe:
    def __init__(self, numpy_share: float):
        if not 0.0 <= numpy_share <= 1.0:
            raise ValueError("numpy_share must be in [0, 1]")
        self.numpy_share = numpy_share
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 2**63, size=(500, 4), dtype=np.uint64)
        self._b = rng.integers(0, 2**63, size=(530, 4), dtype=np.uint64)
        self._doc = json.dumps([{"x": float(v), "y": float(v) / 3.0,
                                 "d": format(int(v * 1e6), "064x")}
                                for v in rng.random(200)])

    def _numpy_part(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.bitwise_count(self._a[:, None, :] ^ self._b[None, :, :]).sum(axis=2)
        return time.perf_counter() - t0

    def _python_part(self) -> float:
        t0 = time.perf_counter()
        for _ in range(60):
            recs = json.loads(self._doc)
            rows = [(r["x"] - 1.0, r["y"], int(r["d"], 16)) for r in recs]
            rows.sort(key=lambda t: (-t[0], t[2]))
        return time.perf_counter() - t0

    def speed_factor(self) -> float:
        """Reference-task time over its nominal time: above 1 on a slow host."""
        np_s = statistics.median(self._numpy_part() for _ in range(REPEATS))
        py_s = statistics.median(self._python_part() for _ in range(REPEATS))
        return (self.numpy_share * np_s / NOMINAL_NUMPY_S
                + (1.0 - self.numpy_share) * py_s / NOMINAL_PYTHON_S)
