"""A fixed reference kernel that gauges the host's speed between operations.

On a shared host the same operation runs up to 1.5x slower from one minute
to the next, in spells of a few seconds, and this kernel slows down with
it.  run.py times the kernel before the first operation and after every
operation (and around every set-up), and scales each operation's wall time
to a host on which the kernel takes REFERENCE_S: seconds * REFERENCE_S /
(mean of the kernel times on either side).  The end-to-end times are these
scaled seconds; the wall-clock seconds stay in the run record.  A change
to the library moves the scaled times as it moves the wall times, but a
slower spell of the host moves the kernel too and cancels out.

The kernel does, at small sizes, the kinds of work the library does: a
HiGHS LP over points on the sphere, array arithmetic on frames, scalar
Python arithmetic and JSON encoding.  It uses only numpy, scipy and the
standard library, so no change to the library moves it.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from scipy.optimize import linprog


class Reference:
    # the kernel's time on a quiet 2-vCPU x86_64 host; scaled seconds are
    # seconds on a host where the kernel takes this long
    REFERENCE_S = 0.030
    REPEATS = 3
    POINTS = 3000
    FRAMES = 8000
    SCALARS = 40000

    def __init__(self):
        rng = np.random.default_rng(20130410)
        p = rng.normal(size=(self.POINTS, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        p[:, 2] = np.abs(p[:, 2]) + 0.05     # a cap: the best margin is positive
        self.points = p / np.linalg.norm(p, axis=1, keepdims=True)
        self.angles = np.linspace(0.0, 2.0 * math.pi, self.FRAMES)
        self.text = [[float(x) for x in row] for row in self.points[:300]]

    def run(self) -> float:
        # max t  s.t.  <p_i, h> >= t,  -1 <= h <= 1
        n = self.POINTS
        a_ub = np.hstack([-self.points, np.ones((n, 1))])
        res = linprog(c=[0.0, 0.0, 0.0, -1.0], A_ub=a_ub, b_ub=np.zeros(n),
                      bounds=[(-1.0, 1.0)] * 3 + [(None, None)], method="highs")
        c, s = np.cos(self.angles), np.sin(self.angles)
        frames = np.stack([c, s, np.zeros_like(c)], axis=1)
        for _ in range(20):
            frames = np.cross(frames, [0.0, 0.0, 1.0]) * 0.5 + frames
            frames /= np.linalg.norm(frames, axis=1, keepdims=True)
        acc = 0.0
        for i in range(self.SCALARS):
            acc += math.sin(i * 1e-3) * math.cos(i * 2e-3)
        encoded = json.dumps(self.text)
        return float(res.fun) + float(frames.sum()) + acc + len(encoded)

    def time(self) -> float:
        """Mean wall time of REPEATS kernel runs, in seconds.

        One run takes about as long as the host's speed flickers, so a
        single run is a noisy gauge; the operations it scales take seconds.
        """
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            self.run()
        return (time.perf_counter() - start) / self.REPEATS

    @classmethod
    def scale(cls, seconds: float, before: float, after: float) -> float:
        """Seconds of a call at the kernel speed of REFERENCE_S.

        `before` and `after` are the kernel times on either side of the call.
        """
        return seconds * cls.REFERENCE_S / (0.5 * (before + after))
