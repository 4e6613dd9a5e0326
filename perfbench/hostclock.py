"""Timing at reference host speed.

On the machine the benchmark was tuned on (2 vCPUs of a shared host), each
vCPU runs at one of two speeds about 1.8x apart and switches between them
every few seconds to minutes, independently of the other vCPU. CPU time
equals wall time and the steal counter does not move, so the program cannot
see it. The median of raw operation times then depends on which speed a
run happened to get, and ten runs of the same code spread by 0.2 to 0.5 of
their median.

So the benchmark times a fixed piece of reference work, the probe, before
the first timed section and after every section, and scales the section's
time by ``reference / (mean of the probes on either side of it)``: the time
the section would have taken on a host where the probe takes its reference
time. A probe calls nothing in cemlab, so a change to the program moves the
scaled time by the same share as the raw one. Two probes, each made of the
kind of work that dominates the workloads that use it:

- ``loop``: small matrix products (16x8 by 8x8) and a short Python loop,
  like the per-batch work of training and attacking;
- ``bulk``: elementwise arithmetic and a row sum over a 250 000 x 8 array,
  like ``numerics.mc_entropy``.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time at reference host speed: about the time either probe takes at
# the faster of the two speeds of the machine the benchmark was tuned on.
REFERENCE_S = 0.05
PROBES = ("loop", "bulk")

LOOP_ITERATIONS = 12000
BULK_ROWS = 250_000
BULK_REPEATS = 2


class HostClock:
    """Probes host speed around timed sections; ``factor`` scales the
    section that just ended to reference host speed. Every probe times each
    of ``kinds``, so sections of different kinds of work can be scaled by
    their own probe."""

    def __init__(self, kinds=("loop",)):
        unknown = set(kinds) - set(PROBES)
        if unknown:
            raise ValueError(f"unknown probe {sorted(unknown)}")
        self.kinds = tuple(kinds)
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8, 8))
        self._b = rng.standard_normal((16, 8))
        if "bulk" in self.kinds:
            self._rows = rng.standard_normal((BULK_ROWS, 8))
            self._mean = rng.standard_normal(8)
            self._var = rng.uniform(0.5, 1.5, size=8)
        self.probes: list[dict[str, float]] = []
        self.last = self.probe()

    def _probe_once(self, kind: str) -> float:
        t0 = time.perf_counter()
        if kind == "loop":
            a, b = self._a, self._b
            total = 0.0
            for _ in range(LOOP_ITERATIONS):
                total += float((b @ a).sum()) + sum(range(50))
        else:
            for _ in range(BULK_REPEATS):
                dev = self._rows - self._mean
                np.log(np.sum(dev * dev / self._var, axis=1) + 1.0).sum()
        return time.perf_counter() - t0

    def probe(self) -> dict[str, float]:
        """Time each probe kind and record the times."""
        seconds = {kind: self._probe_once(kind) for kind in self.kinds}
        self.probes.append(seconds)
        return seconds

    def scale(self, seconds: float, kind: str = "loop") -> float:
        """``seconds`` measured just before the last probe, at reference
        speed by that probe alone (for the section before the first one)."""
        return seconds * REFERENCE_S / self.last[kind]

    def factor(self, kind: str = "loop") -> float:
        """Probe once more and return the factor that scales the section
        that ended just now: reference time over the mean of the ``kind``
        probes before and after it."""
        before, self.last = self.last, self.probe()
        return REFERENCE_S / (0.5 * (before[kind] + self.last[kind]))
