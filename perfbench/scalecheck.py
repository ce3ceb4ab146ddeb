"""Check that the reference loop of leadbench/speed.py measures the machine's
speed and not the memory footprint of the operation before it.

    python3 perfbench/scalecheck.py --seconds 20

In one process, so at one machine speed, it alternates three operations:
pure-Python arithmetic that touches almost no memory, the same with a
scattered read of 64 K elements of a 64 MB array, and the same with a walk
over 43 K of 300 K small Python strings. After each it runs the reference
loop twice and prints the median time of the first run, which is what a
single-loop tick would time, and of the second, which is what a tick times.
When the loop measures speed alone, its time does not depend on which
operation came before.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from leadbench.speed import _loop  # noqa: E402

_ARRAY = numpy.arange(8_000_000, dtype=numpy.int64)
_INDEX = numpy.random.default_rng(0).integers(0, len(_ARRAY), 65536)
_STRINGS = [str(i) for i in range(300_000)]


def _arithmetic(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * 7 % 13
    return acc


def light() -> None:
    _arithmetic(12000)


def gather() -> None:
    _arithmetic(9000)
    _ARRAY[_INDEX].sum()


def walk() -> None:
    _arithmetic(6000)
    sum(len(_STRINGS[j]) for j in range(0, len(_STRINGS), 7))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    operations = (light, gather, walk)
    first = {op.__name__: [] for op in operations}
    second = {op.__name__: [] for op in operations}
    end = perf_counter() + args.seconds
    while perf_counter() < end:
        for op in operations:
            op()
            began = perf_counter()
            _loop()
            middle = perf_counter()
            _loop()
            first[op.__name__].append(middle - began)
            second[op.__name__].append(perf_counter() - middle)
    base_first = statistics.median(first["light"])
    base_second = statistics.median(second["light"])
    for op in operations:
        name = op.__name__
        one, two = statistics.median(first[name]), statistics.median(second[name])
        print(f"after {name:6s}  first run {one * 1e6:6.2f} us ({one / base_first - 1:+.1%})"
              f"  second run {two * 1e6:6.2f} us ({two / base_second - 1:+.1%})"
              f"  n={len(first[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
