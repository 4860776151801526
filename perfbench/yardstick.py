"""A fixed reference load that reads the machine's current speed.

The machine this benchmark was built on changes speed in phases that
last from a few seconds to minutes, with process CPU time equal to wall
time.  The same program work takes 1.3-1.6 times as long in a slow phase
as in a fast one, and a whole run often falls in one phase.  The timed
path divides each wall time by the speed factor read just before and just
after it, so that runs from fast and slow phases can be compared.

The load is frozen benchmark code that never calls the program, so a
change to the program cannot move it.  Its mix follows the program's:
a Python loop over vehicle-like objects, small numpy array work, a
Cholesky factorization and one HiGHS LP.  Across 39 six-hour
``ccmpc`` periods over 150 s of mixed phases, dividing by it cut the
quartile spread of the period times from 0.146 to 0.072 of the median;
across 168 ``gbm`` days, from 0.318 to 0.115.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# A reading in a fast phase of the 2-core Xeon machine the benchmark was
# built on.  Corrected figures are therefore close to fast-phase wall
# times there; elsewhere every figure is scaled alike.
NOMINAL_READING_S = 8.5e-3


class _Car:
    __slots__ = ("leg", "x", "y", "t")

    def __init__(self, i: int):
        self.leg = "idle" if i % 3 else "pickup"
        self.x = float(i)
        self.y = 2.0 * i
        self.t = 0.5 * i


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cars = [_Car(i) for i in range(300)]
        m = rng.random((120, 120))
        self.spd = m @ m.T + 120.0 * np.eye(120)
        # A balanced 30 x 30 transportation problem.
        n = 30
        supply = rng.integers(5, 15, n)
        demand = rng.integers(5, 15, n)
        gap = int(supply.sum() - demand.sum())
        if gap > 0:
            demand[-1] += gap
        else:
            supply[-1] -= gap
        cols = np.arange(n * n)
        self.a = sparse.csr_matrix(
            (np.ones(2 * n * n), (np.concatenate([cols // n, n + cols % n]),
                                  np.concatenate([cols, cols]))),
            shape=(2 * n, n * n))
        self.b = np.concatenate([supply, demand]).astype(float)
        self.c = rng.random(n * n)

    def _unit(self) -> float:
        total = 0.0
        for _ in range(3):
            idle = [c for c in self.cars if c.leg == "idle"]
            xy = np.array([(c.x, c.y) for c in idle])
            d = np.sqrt(((xy[:, None, :] - xy[None, :20, :]) ** 2).sum(axis=2))
            total += float(d.min()) + sum(c.t for c in self.cars if c.t < 50.0)
        total += float(np.linalg.cholesky(self.spd)[-1, -1])
        res = linprog(self.c, A_eq=self.a, b_eq=self.b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"yardstick LP failed: {res.message}")
        return total + float(res.fun)

    def factor(self, units: int = 3) -> float:
        """Current slowdown: the median unit time over its nominal value."""
        times = []
        for _ in range(units):
            t0 = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / NOMINAL_READING_S
