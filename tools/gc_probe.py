"""Run a Python module or script with the cyclic garbage collector watched,
and write what the collector did to a JSON file.

    python3 tools/gc_probe.py --out gc.json leadopt.cli run --leads leads.smi ...
    python3 tools/gc_probe.py --out gc.json perfbench/run.py --workload memory-serve

The first argument after the options names the target: a path ending in
``.py`` runs as a script (its directory first on ``sys.path``, as
``python3 script.py`` would put it), anything else as a module, both as
``__main__`` with the remaining arguments in ``sys.argv``. A callback in
``gc.callbacks`` times every collection. The file holds three lists indexed
by generation (0, 1, 2): ``collections``, ``pause_s`` (seconds spent in
them) and ``collected`` (objects they freed). It is written when the target
returns, raises or exits, and the probe exits with the target's exit code.
Watching changes no output of the target.
"""

from __future__ import annotations

import argparse
import gc
import json
import runpy
import sys
import time
from pathlib import Path


def watch() -> dict:
    """Install a `gc.callbacks` entry and return the counts it keeps."""
    counts = {"collections": [0, 0, 0], "pause_s": [0.0, 0.0, 0.0], "collected": [0, 0, 0]}
    began = [0.0]

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            began[0] = time.perf_counter()
            return
        generation = info["generation"]
        counts["collections"][generation] += 1
        counts["pause_s"][generation] += time.perf_counter() - began[0]
        counts["collected"][generation] += info["collected"]

    gc.callbacks.append(on_collect)
    return counts


def run_target(target: str, args: list[str]) -> int:
    """Run the module or script as `__main__`; its exit code."""
    sys.argv = [target, *args]
    try:
        if target.endswith(".py"):
            sys.path.insert(0, str(Path(target).resolve().parent))
            runpy.run_path(target, run_name="__main__")
        else:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        if stop.code is None or isinstance(stop.code, int):
            return stop.code or 0
        print(stop.code, file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file written")
    parser.add_argument("target", help="module name, or path of a .py script")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the target's arguments")
    args = parser.parse_args(argv)
    counts = watch()
    try:
        return run_target(args.target, args.args)
    finally:
        args.out.write_text(json.dumps(counts) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
