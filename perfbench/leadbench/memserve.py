"""The memory-serve workload: both memories used as a store.

A pass ingests a few thousand prefixed corpus variants into an exemplar
bank (build, save, load), fills a skill bank past its capacity with write
batches (harvest plus insert), then alternates one write batch with a fixed
number of query requests. A write batch is what a search-memory generation
that yields cards does: harvest its 16 trajectories and insert the cards;
the cards per batch and the queries per batch are those counted on
search-memory (see inputs.py). A query request is what ``leadopt retrieve``
and the env's memory injection do: parse the query and the lead, retrieve
and render exemplars, retrieve and render skills. Interleaving the writes
makes a retrieval speed-up that moves cost into insert time visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from leadopt import env, exembank, molgraph, oracles, skillbank

from . import inputs
from .common import sha256_files, sha256_text
from .instrument import Instrument

INGEST_ROWS = 3000
QUERIES_PER_ROUND = inputs.RETRIEVALS_PER_INSERT
CAPACITY = skillbank.DEFAULT_CAPACITY
# Ten samples beyond p99; sr, ri and the output digest cover exactly these.
MIN_QUERIES = 1000
# ri parses and scores this many answered queries after the pass.
RI_QUERIES = 300
MAX_FAILURES = 10


@dataclass
class Pass:
    ingest_rows: int = 0
    ingest_s: float = 0.0
    bank_rows: int = 0
    bank_digest: str = ""
    # (reference tick right before the operation, wall seconds); fill holds
    # the writes that bring the skill bank to capacity, writes those after.
    # The median write covers both: the cards per write come in rounds of
    # 142 (inputs.py), and over the stream's writes alone their median
    # flips between 4 and 5 cards from seed to seed; over fill and stream,
    # some 300 writes, it is 5 for every seed.
    fill: list[tuple[int, float]] = field(default_factory=list)
    writes: list[tuple[int, float]] = field(default_factory=list)
    queries: list[tuple[int, float]] = field(default_factory=list)
    cards: int = 0
    evicted: int = 0
    answered: list[tuple[str, float]] = field(default_factory=list)  # query, top score
    outputs: list[str] = field(default_factory=list)
    write_outputs: list[str] = field(default_factory=list)
    rounds: int = 0
    round_ops: list[list[tuple[int, float]]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    instrument: Optional[Instrument] = None
    bank: Optional[exembank.ExemplarBank] = None

    @property
    def program_s(self) -> float:
        return self.ingest_s + sum(s for _, s in self.fill + self.writes + self.queries)

    def scaled_s(self, ops: list[tuple[int, float]]) -> list[float]:
        """Each operation's time at the reference speed (see speed.py)."""
        factor = self.instrument.reference.factor
        return [wall * factor(tick) for tick, wall in ops]


class MemoryServe:
    def __init__(self, root: Path, work: Path, seed: int, log_counts):
        self.work, self.seed, self.log_counts = work, seed, log_counts
        self.rows = inputs.read_corpus(root)
        self.objective: Optional[oracles.Objective] = None

    def setup(self) -> None:
        self.objective = oracles.load_objective("qed")

    def run_pass(self, label: str, trace: bool, seconds: float = 0.0,
                 rounds: int = 0) -> Pass:
        """Ingest, fill, then rounds until `seconds` have passed since the
        first round began and MIN_QUERIES are done, or exactly `rounds`
        rounds."""
        result = Pass()
        mutants = inputs.PrefixMutants(self.rows, random.Random(self.seed))
        directory = self.work / label
        directory.mkdir(parents=True)
        ingest_path = directory / "ingest.smi"
        ingest_path.write_text(
            "\n".join(mutants.draw()[0] for _ in range(INGEST_ROWS)) + "\n",
            encoding="utf-8")
        result.instrument = probe = Instrument(trace).install()
        try:
            result.bank = bank = self._ingest(ingest_path, directory / "bank", result)
            if bank is None:
                return result
            skills = skillbank.SkillBank(CAPACITY)
            while skills.size(self.objective.name) < CAPACITY or result.evicted == 0:
                if result.failed > MAX_FAILURES:
                    return self._stopped(result)
                self._write(mutants, skills, result, result.fill)
            start = perf_counter()
            while (result.rounds < rounds if rounds else
                   len(result.queries) < MIN_QUERIES or perf_counter() - start < seconds):
                if result.failed > MAX_FAILURES:
                    return self._stopped(result)
                writes, queries = len(result.writes), len(result.queries)
                self._write(mutants, skills, result, result.writes)
                for _ in range(QUERIES_PER_ROUND):
                    self._query(bank, skills, *mutants.draw(), result)
                result.round_ops.append(result.writes[writes:] + result.queries[queries:])
                result.rounds += 1
            probe.tick()
        finally:
            probe.close()
        if skills.size(self.objective.name) != CAPACITY:
            result.problems.append(f"skill bank holds {skills.size(self.objective.name)} cards")
        return result

    @staticmethod
    def _stopped(result: Pass) -> Pass:
        result.problems.append(f"pass stopped after {result.failed} failed operations")
        return result

    @staticmethod
    def _failure(result: Pass, exc: Exception) -> None:
        result.failed += 1
        result.errors[type(exc).__name__] = result.errors.get(type(exc).__name__, 0) + 1

    def _ingest(self, path: Path, base: Path, result: Pass):
        skipped_before = self.log_counts["skipping corpus row %d: %s"]
        result.attempted += 1
        began = perf_counter()
        try:
            built = exembank.build_bank(path, oracles=[t.oracle for t in self.objective.terms])
            files = exembank.save_bank(built, base)
            bank = exembank.load_bank(base)
        except Exception as exc:  # recorded as a failed operation
            self._failure(result, exc)
            return None
        result.ingest_s = perf_counter() - began
        result.ingest_rows = INGEST_ROWS
        result.bank_rows = len(bank)
        result.bank_digest = sha256_files(files)
        skipped = self.log_counts["skipping corpus row %d: %s"] - skipped_before
        if skipped:
            result.problems.append(f"ingest skipped {skipped} generated rows")
        if [r.canonical for r in bank.records] != [r.canonical for r in built.records]:
            result.problems.append("loaded bank differs from the built bank")
        return bank

    def _write(self, mutants: inputs.PrefixMutants, skills: skillbank.SkillBank,
               result: Pass, timings: list) -> None:
        trajectories = [
            env.Trajectory(lead, lead_score,
                           [env.StepRecord(action, None, 0.0, score, score is not None)
                            for action, score in steps], "max_turns")
            for lead, lead_score, steps in mutants.generation()]
        result.attempted += 1
        tick = result.instrument.tick()
        began = perf_counter()
        try:
            cards = []
            for trajectory in trajectories:
                cards.extend(skillbank.harvest(trajectory, self.objective))
            report = skills.insert([skillbank.make_skill_card(card, self.objective.name)
                                    for card in cards])
        except Exception as exc:  # recorded as a failed operation
            self._failure(result, exc)
            return
        timings.append((tick, perf_counter() - began))
        result.cards += len(cards)
        result.evicted += len(report.evicted_keys)
        if report.retained != skills.size(self.objective.name) or report.retained > CAPACITY:
            result.problems.append(f"insert retained {report.retained} cards")
        result.write_outputs.append(
            sha256_text([card.key for card in cards] + list(report.evicted_keys)))

    def _query(self, bank, skills, query: str, lead: str, result: Pass) -> None:
        objective = self.objective
        result.attempted += 1
        tick = result.instrument.tick()
        began = perf_counter()
        try:
            outputs = serve_query(bank, skills, objective, query, lead)
        except Exception as exc:  # recorded as a failed operation
            self._failure(result, exc)
            return
        result.queries.append((tick, perf_counter() - began))
        exemplars, exemplar_block, skill_cards, skill_block = outputs
        if len(exemplars) > 3 or len(skill_cards) > 6:
            result.problems.append(f"query {query}: too many results")
        if len(result.outputs) < MIN_QUERIES:
            result.outputs.append(exemplar_block + skill_block)
            if exemplars:
                result.answered.append((query, objective.aggregate(exemplars[0].props)))

    def quality(self, result: Pass) -> tuple[float, float]:
        """sr: share of the first MIN_QUERIES queries answered with an
        exemplar block. ri: mean relative improvement of the top exemplar's
        score over the query molecule's, over the first RI_QUERIES answers."""
        if not result.answered:
            return 0.0, 0.0
        sr = len(result.answered) / len(result.outputs)
        gains = []
        for query, top in result.answered[:RI_QUERIES]:
            score = self.objective.aggregate(
                {t.oracle.name: t.oracle(molgraph.parse(query)) for t in self.objective.terms})
            if score:
                gains.append((top - score) / abs(score))
        return sr, sum(gains) / len(gains) if gains else 0.0

    def digest(self, result: Pass) -> str:
        writes = len(result.fill) + -(-MIN_QUERIES // QUERIES_PER_ROUND)
        return sha256_text(result.write_outputs[:writes] + result.outputs)

    def defect_probe(self, bank: exembank.ExemplarBank, molecules) -> dict:
        """Each (name, smiles) sent once as a query request for itself;
        outcome and time are reported, outside the timed stream."""
        skills = skillbank.SkillBank(CAPACITY)
        outcomes = {}
        for name, smiles in molecules:
            began = perf_counter()
            try:
                serve_query(bank, skills, self.objective, smiles, smiles)
                outcome = "ok"
            except Exception as exc:  # the known defect: reported, not raised
                outcome = type(exc).__name__
            outcomes[name] = {"outcome": outcome, "s": round(perf_counter() - began, 3)}
        return outcomes


def serve_query(bank, skills, objective, query: str, lead: str):
    current = molgraph.parse(query)
    lead_molecule = molgraph.parse(lead)
    exemplars = exembank.retrieve_exemplars(bank, current, lead_molecule, objective)
    exemplar_block = (exembank.render_exemplar_block(exemplars, objective, lead_molecule)
                      if exemplars else "")
    skill_cards = skillbank.retrieve_skills(skills, current, objective.name)
    skill_block = (skillbank.render_skill_block(skill_cards, objective.name)
                   if skill_cards else "")
    return exemplars, exemplar_block, skill_cards, skill_block
