"""Count the skill-bank traffic of search-memory, from which memory-serve's
write batches are made (the constants at the top of leadbench/inputs.py).

    python3 perfbench/traffic.py --seeds 1,2,3 --invocations 4

Runs search-memory invocations traced and re-harvests the trajectories they
logged, generation by generation. Prints the generations, how many of them
yielded cards, the cards per card-yielding generation, skill retrievals per
insert, trajectories by number of steps and the share of unscored steps.
Run from the root of a source checkout; scratch files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import sys
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from leadopt import env, oracles, skillbank  # noqa: E402

from leadbench.search import ROLLOUTS_PER_GENERATION, SearchWorkload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--invocations", type=int, default=4)
    args = parser.parse_args(argv)
    objective = oracles.load_objective("qed")
    cards_per_generation: Counter = Counter()
    steps_per_trajectory: Counter = Counter()
    retrievals = inserts = steps = unscored = 0
    work = ROOT / ".perfbench_work" / "traffic"
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            workload = SearchWorkload(ROOT, work / str(seed), seed, memory=True)
            (work / str(seed)).mkdir(parents=True)
            workload.setup()
            result = workload.run_pass("run", True, invocations=args.invocations)
            retrievals += result.instrument.calls["skillbank.retrieve_skills"]
            inserts += result.instrument.calls["skillbank.insert"]
            for log in sorted((work / str(seed) / "run").glob("inv*/out/trajectories.jsonl")):
                by_lead = defaultdict(list)
                for trajectory in env.read_trajectories(log):
                    by_lead[trajectory.lead].append(trajectory)
                    steps_per_trajectory[len(trajectory.steps)] += 1
                    steps += len(trajectory.steps)
                    unscored += sum(not s.valid or s.score is None for s in trajectory.steps)
                for trajectories in by_lead.values():
                    for g in range(0, len(trajectories), ROLLOUTS_PER_GENERATION):
                        generation = trajectories[g:g + ROLLOUTS_PER_GENERATION]
                        cards_per_generation[sum(len(skillbank.harvest(t, objective))
                                                 for t in generation)] += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    yielding = {k: n for k, n in sorted(cards_per_generation.items()) if k}
    print(f"generations {sum(cards_per_generation.values())}, "
          f"with cards {sum(yielding.values())}, "
          f"cards {sum(k * n for k, n in yielding.items())}, env steps {steps}")
    print(f"CARDS_PER_GENERATION = {yielding}")
    print(f"RETRIEVALS_PER_INSERT = {round(retrievals / inserts) if inserts else None}"
          f"  ({retrievals} retrievals / {inserts} inserts)")
    print(f"TRAJECTORY_STEPS = {dict(sorted(steps_per_trajectory.items()))}")
    print(f"UNSCORED_SHARE = {unscored} / {steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
