"""A fixed reference computation that gauges how fast the machine is right now.

On a shared host the same pass runs up to 1.5x slower for stretches of
seconds to minutes, because other tenants load the same cores, caches and
memory. Process CPU time slows down with wall time, so neither clock
removes it. The harness therefore times this reference right before and
right after every pass and reports the pass time in units of reference
time. A change to the program moves that ratio; a slow phase of the
machine slows both and mostly cancels.

The reference uses numpy and scipy only, never ``srp``, and its work is
fixed: the same inputs and operation counts on every run and every seed.
Its parts mirror the kinds of work the workloads do, each sized to take
about the same time, so no single kind of contention dominates the gauge:

- ``fft``: masked FFT round trips on 2048-long complex vectors (``demo``);
- ``tiny``: per-call dispatch of small scipy calls on 4-vectors (``audit`` steps);
- ``batch``: 40k-row array passes (``audit`` probes);
- ``dense``: Cholesky solves cycling over four 256x256 factors, 2 MB in all
  (``superres``: one cached factor per blur-fold member).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
from scipy.special import logsumexp


class Reference:
    """Fixed inputs built once; ``time()`` returns the seconds one round takes."""

    def __init__(self):
        rng = np.random.default_rng(20241002)
        self.z = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        self.mask = rng.random(2048) < 0.5
        a = rng.standard_normal((4, 4))
        self.small_factor = scipy.linalg.cho_factor(a @ a.T + 4.0 * np.eye(4))
        self.v = rng.standard_normal(4)
        self.rows = rng.standard_normal((40000, 4))
        self.offsets = rng.standard_normal((1, 3))
        self.dense_factors = []
        for _ in range(4):
            b = rng.standard_normal((256, 256))
            self.dense_factors.append(scipy.linalg.cho_factor(b @ b.T / 256.0 + np.eye(256)))
        self.rhs = rng.standard_normal((256, 1))

    def fft(self, rounds=240):
        z = self.z
        for _ in range(rounds):
            z = np.fft.ifft(np.fft.fft(z) * self.mask) + self.z
            z = z / np.linalg.norm(z)
        return z

    def tiny(self, rounds=160):
        x = self.v
        for _ in range(rounds):
            shift = logsumexp(np.array([x[0], x[1], -x[2]]))
            x = 0.5 * scipy.linalg.cho_solve(self.small_factor, x) + self.v + 1e-3 * shift
        return x

    def batch(self, rounds=2):
        out = None
        for _ in range(rounds):
            y = self.rows @ self.small_factor[0]
            sq = -0.5 * np.einsum("ij,ij->i", y, y)[:, None] + self.offsets
            out = logsumexp(sq, axis=1).mean() + y.mean(axis=0)
        return out

    def dense(self, rounds=240):
        x = self.rhs
        for i in range(rounds):
            x = scipy.linalg.cho_solve(self.dense_factors[i % 4], x) + self.rhs
        return x

    def parts(self):
        """Seconds taken by each part, in a fixed order."""
        times = {}
        for name in ("fft", "tiny", "batch", "dense"):
            t = time.perf_counter()
            getattr(self, name)()
            times[name] = time.perf_counter() - t
        return times

    def time(self):
        return sum(self.parts().values())
