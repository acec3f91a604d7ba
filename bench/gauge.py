"""Machine-speed gauge: a child process that times a fixed CPU kernel.

Shared virtual machines change speed by up to 1.5x in phases that last from
seconds to minutes, and every kind of code the workloads run (interpreter
loops, small numpy calls, sorting, BLAS) slows down with them, on both
vCPUs at once.  While an untraced run measures, `SpeedGauge` keeps a child
process on the other vCPU that runs a ~3 ms kernel every 50 ms and records
when each run started and ended.  Afterwards a time measured between two
instants is scaled by the mean speed the child saw around them, giving
seconds at the reference speed.  The child costs about 6% of one vCPU.

The gauge assumes the measured process keeps to one vCPU, as every workload
does with BLAS and OpenMP pinned to one thread.  Work spread over both
vCPUs would slow the child down and so read as faster than it is.

Run as a script, this file is the child: it prints `ready` once its kernel
is built, samples until its standard input closes, then prints its samples
as one JSON list of [start, end] pairs on the monotonic clock.
"""
from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.05
# speed around an interval is averaged over at least this long, which holds
# about 20 samples and is short next to the machine's speed phases
MIN_WINDOW_S = 1.0


class Kernel:
    """A fixed mix of interpreter loop, small numpy calls, sort, matmul and
    sums over an array the size of a core's L2 cache, which tracked the
    coupled workloads' slowdowns better than compute alone."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(32_768)
        self._matrix = rng.random((96, 96))
        self._block = rng.random(300_000)

    def __call__(self) -> int:
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(150):
            np.exp(self._values[:64]).sum()
        np.sort(self._values)
        self._matrix @ self._matrix
        for _ in range(4):
            self._block.sum()
        return total


class SpeedGauge:
    """Parent side: start the child, stop it, and scale measured times.

    Use as a context manager; `scale` works after the block has exited.
    """

    # the kernel's time in the child at full speed on a 2-vCPU Intel Xeon VM
    # (Python 3.11, numpy 2.4); any constant would do, this one keeps
    # calibrated times close to that machine's fastest wall times
    REFERENCE_S = 0.0025

    def __init__(self):
        self._proc = None
        self.samples: list[tuple[float, float]] = []  # (midpoint, speed)

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if self._proc.stdout.readline().strip() != "ready":
                raise RuntimeError("speed gauge did not start")
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, *exc):
        try:
            self._proc.stdin.close()
            pairs = json.loads(self._proc.stdout.read())
            if self._proc.wait(timeout=30) != 0:
                raise RuntimeError("speed gauge failed")
        finally:
            self._kill()
        self.samples = [((start + end) / 2, self.REFERENCE_S / (end - start))
                        for start, end in pairs]
        return False

    def _kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if not stream.closed:
                stream.close()

    def speed(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference, over an interval widened to
        at least MIN_WINDOW_S about its middle."""
        middle, half = (start + end) / 2, max(end - start, MIN_WINDOW_S) / 2
        inside = [s for t, s in self.samples if abs(t - middle) <= half]
        if not inside:
            raise RuntimeError("no speed samples around a measured interval")
        return statistics.fmean(inside)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured between `start` and `end` (time.monotonic),
        at the reference speed."""
        return seconds * self.speed(start, end)


def sample() -> None:
    kernel = Kernel()
    kernel()
    print("ready", flush=True)
    clock = time.monotonic
    pairs = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = clock()
        kernel()
        pairs.append((start, clock()))
    json.dump(pairs, sys.stdout)


if __name__ == "__main__":
    sample()
