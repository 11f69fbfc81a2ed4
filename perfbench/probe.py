"""Host speed, measured by a fixed pure-Python reference loop.

On a shared VM the speed of the host swings by up to 2x, for every process
alike, and it changes within seconds: identical runs read very different
wall times, and so do the halves of one run.  The benchmark therefore times
its work as a sequence of operations (a workload's inputs, the CLI's
processes) and runs a probe between them about every half second.  Each
operation is scaled to reference seconds, the seconds it would take at the
host speed at which the probe takes its reference time, by the mean of the
two probes taken just before and just after it.

The library workloads probe with `probe_s()`, the loop below, in their own
process.  The CLI workload probes with `spawn_probe_s()`, a fresh
interpreter that runs the loop once: process start slows in other ways than
pure-Python work does, and only a probe that starts a process as well tracks
the CLI's requests.  The loop uses only the standard library (dict, tuple,
list and Fraction work, like the library's), so no change to the library can
move either probe.  Never change the loop or the reference times: either
would rescale every time the benchmark reports.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

ITERATIONS = 40_000
REFERENCE_S = 0.03
SPAWN_REFERENCE_S = 0.1
PROBE_EVERY_S = 0.5


def probe_s():
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    counts, total, recent = {}, Fraction(0), []
    for i in range(ITERATIONS):
        k = (i & 255, i & 7)
        counts[k] = counts.get(k, 0) + i
        if i & 15 == 0:
            total += Fraction(i, 7 + (i & 31))
        recent.append(k)
        if len(recent) > 512:
            recent.clear()
    return time.perf_counter() - start


def spawn_probe_s(env, cwd):
    """Seconds a fresh interpreter takes now to start and run `probe_s()` once."""
    start = time.perf_counter()
    # Captured pipes: see run.spawn_seconds.
    subprocess.run([sys.executable, __file__], cwd=cwd, env=env, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


class Prober:
    """Probes before the first operation, then after an operation whenever
    PROBE_EVERY_S of operations have gone by since the last probe, and once
    more at `scaled()`.  `measure` takes one probe and `reference_s` is its
    time at the reference host speed."""

    def __init__(self, measure=probe_s, reference_s=REFERENCE_S):
        self.measure, self.reference_s = measure, reference_s
        self.probes = [measure()]
        self.ops = []  # (raw seconds, index of the probe taken before it)
        self._since = 0.0

    def add(self, seconds):
        """Count an operation that took `seconds`."""
        self.ops.append((seconds, len(self.probes) - 1))
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probes.append(self.measure())
            self._since = 0.0

    def scaled(self):
        """Every operation's time in reference seconds, in order."""
        if self._since > 0:
            self.probes.append(self.measure())
            self._since = 0.0
        p = self.probes
        return [s * 2 * self.reference_s / (p[i] + p[i + 1]) for s, i in self.ops]

    def scale_first(self, seconds):
        """`seconds` measured just before the first probe, in reference seconds."""
        return seconds * self.reference_s / self.probes[0]


if __name__ == "__main__":
    probe_s()
