"""Machine-speed reference for the timing metrics.

On a shared sandbox the CPU speed changes from one tenth of a second to the
next: a fixed pure-Python loop took 1.2 to 2.9 ms per run within half a
minute, and process CPU time moved with wall time, so neither clock alone
gives a steady figure. Timings are therefore reported at a fixed reference
speed. A short reference loop, which never calls the package, runs right
before every timed operation and once after the last; this is a tick. The
wall time between two ticks is scaled by NOMINAL_S over the median duration
of the four loops nearest to it, two on each side, so that a loop the
operating system preempted does not move the factor. On 2 s blocks of
parse-and-fingerprint work this cut the quartile spread from 0.19-0.25 of
the median to 0.05-0.10; a factor taken from loops timed half a second
away cut it only to 0.20, because the speed changes faster than that.

A tick runs the loop twice and times only the second run. The first run
brings the loop's code and data back into the caches the operation before
it used, so the timed run measures the machine's speed and not the
program's memory footprint: right after an operation that touched a few
megabytes, a single run took 19 to 27 % longer than after one that touched
almost none, which would have cut that operation's scaled time by as much;
the second run took 1 to 3 % longer (perfbench/scalecheck.py).

A machine that runs at the reference speed reports scaled times equal to
wall times; the unscaled figures are printed with each run's record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The timed loop's duration at the reference speed: near its median over
# the ticks of a run on a 2-vCPU x86_64 sandbox with Python 3.11.7, which
# was 17 to 25 us.
NOMINAL_S = 20e-6
_KEYS = tuple((f"k{i}", i) for i in range(48))
_TABLE = dict(_KEYS)


def _loop() -> int:
    """Dict lookups and integer arithmetic; allocates no container, so it
    moves no garbage-collector counter of the program under test."""
    table, acc = _TABLE, 0
    for _ in range(4):
        for key, value in _KEYS:
            acc += table[key] * 3 % 7 + (value ^ acc) % 5
    return acc


class Reference:
    """Ticks and the scale factors of the intervals between them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []

    def tick(self) -> int:
        """Run the reference loop to warm it, then timed; return the tick's
        index."""
        began = perf_counter()
        _loop()
        timed = perf_counter()
        _loop()
        end = perf_counter()
        self.loops.append(end - timed)
        self.ends.append(end)
        self.starts.append(began)
        return len(self.ends) - 1

    def loop_s(self, k: int) -> float:
        """Duration of tick k's timed loop."""
        return self.loops[k]

    def tick_s(self, k: int) -> float:
        """Duration of tick k, both loops."""
        return self.ends[k] - self.starts[k]

    def factor(self, k: int) -> float:
        """Scale for the interval from tick k to tick k + 1."""
        near = range(max(0, k - 1), min(len(self.ends), k + 3))
        return NOMINAL_S / statistics.median(self.loop_s(i) for i in near)

    def span(self, i: int, j: int) -> tuple[float, float]:
        """Wall and scaled seconds from the end of tick i to the start of
        tick j, the ticks in between left out."""
        wall = scaled = 0.0
        for k in range(i, j):
            gap = self.starts[k + 1] - self.ends[k]
            wall += gap
            scaled += gap * self.factor(k)
        return wall, scaled

    def total_s(self) -> float:
        """Time spent in ticks."""
        return sum(self.tick_s(k) for k in range(len(self.ends)))

    def summary(self) -> dict:
        loops = sorted(self.loop_s(k) * 1e6 for k in range(len(self.ends)))
        if not loops:
            return {"ticks": 0}
        return {"ticks": len(loops), "loop_us_median": statistics.median(loops),
                "loop_us_min": loops[0], "loop_us_max": loops[-1]}
