"""The search workloads: repeated in-process ``leadopt run`` invocations.

search-memory runs the greedy policy with the exemplar bank built from the
fixture corpus and skill harvesting into a skill bank that starts empty;
search-bare runs the random policy with neither memory. Each invocation
gets fresh leads, a fresh output directory and a fresh skill-bank path,
because ``leadopt run`` rewrites the skill bank it was given.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import leadopt.cli
from leadopt import exembank, oracles

from . import inputs
from .common import DigestRegistry, sha256_files
from .instrument import Instrument

GENERATIONS = 4
ROLLOUTS_PER_GENERATION = 16
# Every invocation runs all fixture leads, in a seeded order.
LEADS_PER_INVOCATION = inputs.FIXTURE_LEADS
BUDGET = 500
# sr and ri come from the first MIN_INVOCATIONS invocations, which every run
# makes, so they do not depend on how fast the run was.
MIN_INVOCATIONS = 4


@dataclass
class Pass:
    """What one pass over a list of invocations measured and checked."""

    walls: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    digests: dict[int, str] = field(default_factory=dict)
    skill_cards: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    invocations: int = 0
    instrument: Optional[Instrument] = None

    @property
    def program_s(self) -> float:
        """Wall time inside the invocations, reference loops left out."""
        return sum(self.walls) - self.instrument.reference.total_s()


def _run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = leadopt.cli.main(args)
    return code, out.getvalue(), err.getvalue()


class SearchWorkload:
    def __init__(self, root: Path, work: Path, seed: int, memory: bool):
        self.root, self.work, self.seed, self.memory = root, work, seed, memory
        self.bank_base: Optional[Path] = None
        self.bank_digest: Optional[str] = None
        self._leads = inputs.lead_stream(inputs.read_corpus(root), seed)
        self._lead_sets: list[list[str]] = []

    def setup(self) -> None:
        """Build and save the exemplar bank (search-memory only)."""
        if not self.memory:
            return
        objective = oracles.load_objective("qed")
        bank = exembank.build_bank(self.root / inputs.CORPUS,
                                   oracles=[t.oracle for t in objective.terms])
        self.bank_base = self.work / "bank"
        self.bank_digest = sha256_files(exembank.save_bank(bank, self.bank_base))

    def leads(self, index: int) -> list[str]:
        while len(self._lead_sets) <= index:
            self._lead_sets.append([next(self._leads) for _ in range(LEADS_PER_INVOCATION)])
        return self._lead_sets[index]

    def run_pass(self, label: str, trace: bool, seconds: float = 0.0,
                 invocations: int = 0) -> Pass:
        """Invoke until `seconds` have passed and MIN_INVOCATIONS are done,
        or exactly `invocations` times when that is given."""
        result = Pass()
        result.instrument = probe = Instrument(trace).install()
        start = perf_counter()
        try:
            index = 0
            while (index < invocations if invocations else
                   index < MIN_INVOCATIONS or perf_counter() - start < seconds):
                self._invoke(label, index, probe, result)
                index += 1
        finally:
            probe.close()
        result.invocations = index
        return result

    def _invoke(self, label: str, index: int, probe: Instrument, result: Pass) -> None:
        directory = self.work / label / f"inv{index:03d}"
        directory.mkdir(parents=True)
        leads = self.leads(index)
        (directory / "leads.smi").write_text("\n".join(leads) + "\n", encoding="utf-8")
        out = directory / "out"
        args = ["run", "--leads", str(directory / "leads.smi"), "--objective", "qed",
                "--out", str(out), "--budget", str(BUDGET),
                "--generations", str(GENERATIONS),
                "--rollouts", str(ROLLOUTS_PER_GENERATION),
                "--seed", str((self.seed * 1_000_003 + index) % 2**31)]
        if self.memory:
            args += ["--policy", "greedy", "--exemplar-bank", str(self.bank_base),
                     "--skill-bank", str(directory / "skills.jsonl"), "--harvest-skills"]
        else:
            args += ["--policy", "random"]

        branches_before = _branch_total(probe)
        rollouts_before = len(probe.rollout_firsts)
        steps_before = len(probe.step_ticks)
        result.attempted += len(leads)
        began = perf_counter()
        code, _stdout, stderr = _run_cli(args)
        wall = perf_counter() - began
        if code != 0:
            result.failed += len(leads)
            kind = _error_kind(stderr)
            result.errors[kind] = result.errors.get(kind, 0) + len(leads)
            return

        report_path, trajectory_path = out / "report.json", out / "trajectories.jsonl"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        rows = [json.loads(line) for line in
                trajectory_path.read_text(encoding="utf-8").splitlines()]
        result.walls.append(wall)
        result.steps.append(len(rows))
        result.reports.append(report)
        result.digests[index] = sha256_files([report_path, trajectory_path])
        if self.memory:
            skills = directory / "skills.jsonl"
            result.skill_cards.append(
                len(skills.read_text(encoding="utf-8").splitlines()) if skills.exists() else 0)
        result.problems.extend(
            f"{label}/inv{index}: {problem}"
            for problem in self._check(out, report, rows, {
                "reward branches": _branch_total(probe) - branches_before,
                "policy calls": len(probe.step_ticks) - steps_before,
            }, len(probe.rollout_firsts) - rollouts_before))

    def _check(self, out: Path, report: dict, rows: list[dict], step_counts: dict,
               rollouts: int) -> list[str]:
        problems = []
        code, stdout, stderr = _run_cli(["eval", "--report", str(out)])
        if code != 0:
            problems.append(f"leadopt eval failed: {_error_kind(stderr)}")
        else:
            evaluated = json.loads(stdout)
            for key, stored in report["aggregates"].items():
                if abs(evaluated["aggregates"][key] - stored) > 1e-12:
                    problems.append(f"eval {key} {evaluated['aggregates'][key]} != {stored}")
        over = [lead["lead"] for lead in report["leads"] if lead["calls_used"] > BUDGET]
        if over:
            problems.append(f"calls_used above budget for {over}")
        if len(report["leads"]) != LEADS_PER_INVOCATION:
            problems.append(f"{len(report['leads'])} leads in report")
        for what, count in step_counts.items():
            if count != len(rows):
                problems.append(f"{what} {count} != trajectory lines {len(rows)}")
        if rollouts != len({row["trajectory"] for row in rows}):
            problems.append(f"rollouts {rollouts} != trajectories in log")
        return problems

    def quality(self, result: Pass) -> tuple[float, float]:
        """SR and mean RI over the leads of the first MIN_INVOCATIONS."""
        leads = [lead for report in result.reports[:MIN_INVOCATIONS]
                 for lead in report["leads"]]
        if not leads:
            return 0.0, 0.0
        return (sum(lead["success"] for lead in leads) / len(leads),
                sum(lead["ri"] for lead in leads) / len(leads))

    def record_digests(self, registry: DigestRegistry, result: Pass) -> None:
        if self.bank_digest:
            registry.record("bank", self.bank_digest)
        for index, digest in result.digests.items():
            registry.record(f"inv{index}", digest)


def _branch_total(probe: Instrument) -> int:
    return sum(count for name, count in probe.counts.items()
               if name.startswith("env.branch."))


def _error_kind(stderr: str) -> str:
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return "unknown"
