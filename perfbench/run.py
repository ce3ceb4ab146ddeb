"""Benchmark of the leadopt package.

    python3 perfbench/run.py --workload search-memory --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Workloads:

  search-memory  in-process ``leadopt run`` invocations with the greedy
                 policy, the exemplar bank built from the fixture corpus and
                 skill harvesting into an initially empty skill bank
  search-bare    the same loop with the random policy and no memories
  memory-serve   exemplar-bank ingest, skill-bank writes past capacity and a
                 query stream of retrieve-and-render requests

Every workload is a closed loop: one client, one process, no threads; the
next call starts when the previous one returns. Inputs come from
tests/fixtures/corpus_500.smi and --seed. With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced pass, which repeats the work of an
untraced pass so the two can be compared. The line before it is a JSON
object with the environment, output digests, checks and marks.
BENCHMARK.json lists the metrics; leadbench/report.py says what each one
measures on each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("search-memory", "search-bare", "memory-serve")
# Set-up runs this many times, each in a fresh interpreter; setup_s is the
# median.
SETUP_SAMPLES = 5
# Interval of the reference ticks during a set-up sample.
TICK_S = 0.004
# Scratch files; removed at exit.
WORK_DIR = ".perfbench_work"


class LogCounter(logging.Handler):
    """Counts the package's log records by message template, which also
    keeps them off stderr."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[str(record.msg)] += 1


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import leadopt from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "leadopt"
    corpus = ROOT / "tests" / "fixtures" / "corpus_500.smi"
    for needed in (package / "__init__.py", corpus):
        if not needed.is_file():
            sys.exit(f"perfbench: {needed} not found; run from a leadopt source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import leadopt.cli  # noqa: F401  (loads every layer)
    import leadopt

    if Path(leadopt.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported leadopt from {leadopt.__file__}, not {package}")


def _workload(name: str, work: Path, seed: int, log_counts):
    from leadbench.memserve import MemoryServe
    from leadbench.search import SearchWorkload

    if name == "memory-serve":
        return MemoryServe(ROOT, work, seed, log_counts)
    return SearchWorkload(ROOT, work, seed, memory=(name == "search-memory"))


@contextlib.contextmanager
def _work_dir(args):
    work = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _setup_probe(args) -> int:
    """One set-up in this fresh interpreter, with a reference tick every
    TICK_S seconds from a timer signal (see leadbench/speed.py). Prints when
    the first tick began and when set-up ended, on the monotonic clock, and
    the scaled seconds between them."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from leadbench.speed import Reference

    reference = Reference()
    ticking = False

    def on_timer(_signum, _frame):
        # A handler can run inside another handler's loop; skip that tick.
        nonlocal ticking
        if not ticking:
            ticking = True
            reference.tick()
            ticking = False

    first = time.monotonic()
    reference.tick()
    signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        _import_package()
        with _work_dir(args) as work:
            _workload(args.workload, work, args.seed, Counter()).setup()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    _wall, scaled = reference.span(0, reference.tick())
    print(json.dumps({"first": first, "end": time.monotonic(), "scaled_s": scaled}))
    return 0


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of its set-up,
    SETUP_SAMPLES times: scaled to the reference speed from the probe's
    first tick on, and wall time. Interpreter start before that tick is
    counted unscaled."""
    scaled, wall = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    for _ in range(SETUP_SAMPLES):
        began = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        scaled.append(probe["first"] - began + probe["scaled_s"])
        wall.append(probe["end"] - began)
    return scaled, wall


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    _import_package()
    from leadbench import report

    log_counter = LogCounter()
    logging.getLogger("leadopt").addHandler(log_counter)
    with _work_dir(args) as work:
        setup_samples = _measure_setup(args)
        workload = _workload(args.workload, work, args.seed, log_counter.counts)
        workload.setup()
        info, result = report.run(workload, args, setup_samples, ROOT)
    info["log_records"] = dict(log_counter.counts)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
