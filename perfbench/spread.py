"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --seeds 1-10 --sets 2

For every workload and end-to-end metric it prints the median of the runs
of each set, the quartile spread (q3 - q1) / median that
``statistics.quantiles(values, n=4)`` gives, and how far the second set's
median moved from the first in the worse direction, each next to the
metric's bound from BENCHMARK.json; for the timings it also prints the
unscaled medians and spreads. It also shows each run's MCS fallback count
and flags a seed whose digests differ between sets. Runs go one at a time.
The summary is written to .perfbench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _flatten(digests: dict) -> dict:
    """Digest per key; a list (one digest per invocation) gives one key per
    entry, so runs that made different numbers of invocations compare on
    the invocations both made."""
    flat = {}
    for key, value in digests.items():
        if isinstance(value, list):
            flat.update({f"{key}[{i}]": v for i, v in enumerate(value)})
        else:
            flat[key] = value
    return flat


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    problems = []
    seeds = _seeds(args.seeds)
    runs: dict = {}
    for set_index in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in seeds:
                info, result = _run(workload, seed, args.seconds, args.trace)
                runs.setdefault(workload, []).append(
                    {"set": set_index, "seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "raw": info.get("raw", {}),
                     "digests": info.get("digests"), "mcs_approx": info.get("mcs_approx"),
                     "problems": info.get("problems"), "marks": info.get("marks")})
                row = runs[workload][-1]
                print(f"set {set_index} {workload} seed {seed}: correct={row['correct']} "
                      f"failed={row['failed']} mcs_approx={row['mcs_approx']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in row["metrics"].items()),
                      flush=True)
                if not row["correct"]:
                    problems.append(f"{workload} seed {seed}: {row['problems']}")

    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    summary = {}
    for workload, rows in runs.items():
        names = rows[0]["metrics"].keys()
        summary[workload] = {}
        print(f"\n{workload}")
        for name in names:
            medians, spreads = [], []
            for set_index in range(args.sets):
                values = [r["metrics"][name] for r in rows if r["set"] == set_index]
                medians.append(statistics.median(values))
                spreads.append(_spread(values))
            entry = {"medians": medians, "spreads": spreads}
            line = (f"  {name:14s} median {' / '.join(f'{m:.5g}' for m in medians)}"
                    f"  spread {' / '.join(f'{s:.3f}' for s in spreads)}")
            if name in rows[0]["raw"]:
                raw = [[r["raw"][name] for r in rows if r["set"] == k]
                       for k in range(args.sets)]
                entry["unscaled_medians"] = [statistics.median(v) for v in raw]
                entry["unscaled_spreads"] = [_spread(v) for v in raw]
                line += ("  (unscaled median "
                         + " / ".join(f"{m:.5g}" for m in entry["unscaled_medians"])
                         + " spread "
                         + " / ".join(f"{s:.3f}" for s in entry["unscaled_spreads"]) + ")")
            if name in bounds:
                better, bound = bounds[name]
                entry["bound"] = bound
                worse = [((m - medians[0]) if better == "lower" else (medians[0] - m))
                         / medians[0] for m in medians[1:]]
                entry["second_median_worse_by"] = worse
                line += f"  bound {bound}"
                if worse:
                    line += f"  set-2 worse by {worse[0]:+.3f}"
                if max(spreads) > bound:
                    problems.append(f"{workload} {name}: spread {max(spreads):.3f} > {bound}")
                elif max(spreads) > bound / 3:
                    line += "  (spread above a third of the bound)"
                if worse and max(worse) > bound:
                    problems.append(f"{workload} {name}: second median worse by {max(worse):.3f}")
            summary[workload][name] = entry
            print(line)
        for seed in seeds:
            seen: dict = {}
            for row in (r for r in rows if r["seed"] == seed):
                for key, digest in _flatten(row["digests"]).items():
                    if seen.setdefault(key, digest) != digest:
                        problems.append(f"{workload} seed {seed}: {key} digest differs")
        approx = [r["mcs_approx"] for r in rows]
        print(f"  mcs_approx per run: {approx}")

    out = ROOT / ".perfbench_out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "summary": summary,
                               "problems": problems}, indent=1), encoding="utf-8")
    print("\nproblems:" if problems else "\nno problems", *problems, sep="\n  ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
