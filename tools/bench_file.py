"""Measure a source tree with the benchmark and the Baseline fixture and
write the numbers to BENCH_<label>.json.

    python3 tools/bench_file.py --label edit-memo --tree . --baseline ../parent \
        --seeds 41-50

For every workload in the tree's BENCHMARK.json, every seed runs
``perfbench/run.py --seconds <run_seconds>`` in a subprocess from the root
of each tree; with ``--baseline``, the two trees alternate which one runs
first from seed to seed. Then each tree runs the ROADMAP Baseline fixture
once: ``leadopt build-bank`` on tests/fixtures/corpus_500.smi, then
``leadopt run`` on its first 8 molecules (greedy policy, exemplar bank,
skill harvest, budget 500, 20 generations of 32 rollouts, seed 7), timed as
one subprocess, its peak resident set size read from the kernel's resource
usage of that subprocess, and its outputs and the bank files hashed. The
run goes through ``tools/gc_probe.py`` (this script's own copy, for either
tree), which records the cyclic garbage collector's collections, pause
seconds and freed objects per generation. The file is written to the
current directory.

The file holds, per tree, the git rev and whether the tree had uncommitted
changes (``git status --porcelain`` lists anything; both null outside a git
checkout, and the rev null for a modified tree, whose HEAD names its parent
rather than the code measured), the source digest, the src/ line count and the Python and numpy versions (as
perfbench reports them), every run's end-to-end metrics and output
digests, the per-workload medians and the fixture's wall time, peak RSS,
sha256 values and collector counts (``gc``). With a baseline it also
holds, per workload and metric, the baseline's quartiles and how many
seeds the tree measured beat the baseline on, and under ``agreement`` whether the two trees' outputs are
equal: per workload and seed, whether the output digests match (a bank and
a stream where the workload has them; of the search invocations, those
both runs made, since a faster tree makes more in the same time), whether
the fixture's five sha256 values match (the exemplar bank's two files and
the run's three outputs), and the tree's src/ line count
minus the baseline's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURE_LEADS = 8
FIXTURE_RUN = [
    "--objective", "qed", "--policy", "greedy", "--harvest-skills",
    "--budget", "500", "--generations", "20", "--rollouts", "32", "--seed", "7",
]
GC_PROBE = Path(__file__).resolve().parent / "gc_probe.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment record, result record) of one perfbench run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line), json.loads(result_line)


def _git_state(tree: Path, rev: str | None) -> dict:
    """`git_rev` and `git_dirty` of a tree, given the rev perfbench read."""
    if not (tree / ".git").exists():
        return {"git_rev": None, "git_dirty": None}
    status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"],
                            capture_output=True, text=True, check=True)
    dirty = bool(status.stdout.strip())
    return {"git_rev": None if dirty else rev, "git_dirty": dirty}


def _run_record(seed: int, env: dict, result: dict) -> dict:
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "digests": env["digests"],
    }


def _run_measured(cmd: list[str], cwd: Path, env: dict) -> float:
    """Run `cmd` to completion; the peak RSS of that process, in MB."""
    with tempfile.TemporaryFile() as log:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            log.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, cmd, log.read())
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def _fixture(tree: Path) -> dict:
    """Wall time, peak RSS and output hashes of the Baseline fixture."""
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()  # noqa: E731
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = tree / "tests" / "fixtures" / "corpus_500.smi"
        rows = [line for line in corpus.read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        (work / "leads.smi").write_text("\n".join(rows[:FIXTURE_LEADS]) + "\n")
        subprocess.run([sys.executable, "-m", "leadopt.cli", "build-bank", "--corpus",
                        str(corpus), "--out", str(work / "bank"), "--objective", "qed"],
                       cwd=work, env=env, capture_output=True, check=True)
        began = time.perf_counter()
        rss = _run_measured(
            [sys.executable, str(GC_PROBE), "--out", "gc.json", "leadopt.cli",
             "run", "--leads", "leads.smi", "--exemplar-bank", "bank",
             "--skill-bank", "skills.jsonl", "--out", "out", *FIXTURE_RUN],
            work, env)
        wall = time.perf_counter() - began
        return {
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 2),
            "gc": json.loads((work / "gc.json").read_text(encoding="utf-8")),
            "sha256": {
                "bank.bank.jsonl": sha(work / "bank.bank.jsonl"),
                "bank.fp.bin": sha(work / "bank.fp.bin"),
                "report.json": sha(work / "out" / "report.json"),
                "trajectories.jsonl": sha(work / "out" / "trajectories.jsonl"),
                "skills.jsonl": sha(work / "skills.jsonl"),
            },
        }


def _medians(runs: list[dict]) -> dict:
    names = sorted({name for run in runs for name in run["metrics"]})
    return {name: statistics.median(run["metrics"][name] for run in runs) for name in names}


def _compare(tree_runs: list[dict], base_runs: list[dict], better: dict) -> dict:
    """Per metric: the baseline's quartiles, both medians and the seeds on
    which the tree was better."""
    out = {}
    for name, direction in better.items():
        pairs = [(t["metrics"][name], b["metrics"][name])
                 for t, b in zip(tree_runs, base_runs)]
        base = [b for _, b in pairs]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
        wins = sum((t > b) if direction == "higher" else (t < b) for t, b in pairs)
        out[name] = {
            "baseline_median": statistics.median(base),
            "baseline_q1": q1,
            "baseline_q3": q3,
            "median": statistics.median(t for t, _ in pairs),
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def _same_digests(tree: dict, base: dict) -> bool:
    """Whether two runs' output digests agree: every digest both name, the
    search invocations compared on the prefix both runs made."""
    for key in set(tree) | set(base):
        if key == "invocations":
            common = min(len(tree[key]), len(base[key]))
            if tree[key][:common] != base[key][:common]:
                return False
        elif tree.get(key) != base.get(key):
            return False
    return True


def _agreement(trees: dict) -> dict:
    """Whether the tree's outputs equal the baseline's, and the src/ line
    delta, from the per-tree records of a report."""
    tree, base = trees["tree"], trees["baseline"]
    return {
        "digests_equal": {
            workload: {
                str(run["seed"]): _same_digests(run["digests"], other["digests"])
                for run, other in zip(data["runs"], base["workloads"][workload]["runs"])
            }
            for workload, data in tree["workloads"].items()
        },
        "fixture_sha256_equal": tree["fixture"]["sha256"] == base["fixture"]["sha256"],
        "src_lines_delta": tree["environment"]["src_lines"] - base["environment"]["src_lines"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--tree", required=True, type=Path, help="source tree measured")
    parser.add_argument("--baseline", type=Path, help="source tree to compare against")
    parser.add_argument("--seeds", default="1-3", help="'41-50' or '1,5,9' (default 1-3)")
    args = parser.parse_args(argv)

    trees = {"tree": args.tree.resolve()}
    if args.baseline:
        trees["baseline"] = args.baseline.resolve()
    spec = json.loads((trees["tree"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    report = {"label": args.label, "seconds": seconds, "seeds": seeds, "trees": {}}
    for side in trees:
        report["trees"][side] = {"environment": None, "workloads": {}}
    for workload in workloads:
        for n, seed in enumerate(seeds):
            order = list(trees) if n % 2 == 0 else list(reversed(trees))
            for side in order:
                env, result = _perfbench(trees[side], workload, seed, seconds)
                entry = report["trees"][side]
                if entry["environment"] is None:
                    entry["environment"] = {
                        key: env["environment"].get(key)
                        for key in ("source_sha256", "src_lines", "python", "numpy",
                                    "machine", "nproc")
                    }
                    entry["environment"].update(
                        _git_state(trees[side], env["environment"].get("git_rev")))
                entry["workloads"].setdefault(workload, {"runs": []})["runs"].append(
                    _run_record(seed, env, result))
                print(f"{side} {workload} seed {seed}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)
        for side in trees:
            data = report["trees"][side]["workloads"][workload]
            data["median"] = _medians(data["runs"])
        if args.baseline:
            report.setdefault("compare", {})[workload] = _compare(
                report["trees"]["tree"]["workloads"][workload]["runs"],
                report["trees"]["baseline"]["workloads"][workload]["runs"], better)
    for side, root in trees.items():
        report["trees"][side]["fixture"] = _fixture(root)
    if args.baseline:
        report["agreement"] = agreement = _agreement(report["trees"])
        print(f"agreement: {json.dumps(agreement, sort_keys=True)}", file=sys.stderr)

    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
