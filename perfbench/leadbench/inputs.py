"""Seeded workload inputs, made from the fixture corpus by text operations.

Nothing here calls the package under test. Parsing an input while making it
would warm any parse cache the program keeps, so the timed call would be
cheaper than the first call a user makes.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Iterator, Optional

CORPUS = Path("tests") / "fixtures" / "corpus_500.smi"
# The search fixture's leads: the first rows of the corpus.
FIXTURE_LEADS = 8

_ATOM = re.compile(r"\[[^\]]*\]|Br|Cl|[BCNOPSFI]|[bcnops]")

# A prefix's last atom bonds to the first atom of the molecule it is
# written in front of, with a single bond. "C(C)" alone is left out: it is
# the same ethyl group as "CC", and a trajectory step must change the
# molecule.
_HEADS = ("", "F", "Cl", "Br", "O", "N", "N#C", "C", "FC(F)(F)", "CO")
_LINKERS = ("", "C", "CC", "C(C)", "C(=O)")
PREFIXES = tuple(sorted({h + l for h in _HEADS for l in _LINKERS} - {"", "C(C)"}))

# Highly symmetric graphs. Canonicalizing the first two runs out of the leaf
# budget after several seconds (a known defect); the last two finish.
SYMMETRIC = (
    ("tetra-tert-butylmethane", "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"),
    (
        "perfluoro-tetra-tert-butylmethane",
        "C(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)"
        "(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F",
    ),
    ("cubane", "C12C3C4C1C5C2C3C45"),
    ("adamantane", "C1C2CC3CC1CC(C2)C3"),
)
# The perfluoro analogue takes 13 to 19 s to fail, so only traced runs send
# it; every run shows the defect through tetra-tert-butylmethane (4 to 6 s).
SYMMETRIC_EVERY_RUN = tuple(m for m in SYMMETRIC if not m[0].startswith("perfluoro"))


# Skill-bank write traffic of search-memory, counted with a traced run of
# 3 seeds x 4 invocations: 384 generations of 16 rollouts, 18,103 env steps.
# A generation harvests its 16 trajectories and inserts the cards, if any.
# 142 of the 384 generations yielded cards; they inserted 756 in all, and
# the search made 6,074 skill retrievals, 43 per insert. The histogram below
# counts those 142 generations by the cards they yielded. perfbench/traffic.py
# counts all of these.
GENERATION_TRAJECTORIES = 16
CARDS_PER_GENERATION = {1: 35, 2: 15, 3: 8, 4: 8, 5: 14, 6: 12, 7: 9, 8: 6, 9: 5,
                        10: 8, 11: 13, 12: 5, 13: 2, 14: 2}
RETRIEVALS_PER_INSERT = 43
# Trajectories by their number of steps, and the share of steps with no
# score (invalid, no-op, copy and similarity-rejected proposals).
TRAJECTORY_STEPS = {1: 2199, 2: 596, 3: 822, 4: 389, 5: 2138}
UNSCORED_SHARE = 9922 / 18103


def read_corpus(root: Path) -> list[str]:
    """Non-comment rows of the fixture corpus, in file order."""
    with open(root / CORPUS, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh]
    return [row for row in rows if row and not row.startswith("#")]


def takes_prefix(smiles: str) -> bool:
    """True when the first atom is a bare aliphatic C, N or O bonded only to
    the next atom: it then carries an implicit hydrogen that a prefix can
    replace, so every prefixed string is a valid molecule."""
    return (
        smiles[:1] in ("C", "N", "O")
        and not smiles.startswith("Cl")
        and _ATOM.match(smiles, 1) is not None
    )


def lead_stream(rows: list[str], seed: int) -> Iterator[str]:
    """The fixture leads (the first FIXTURE_LEADS corpus rows), each round in
    a fresh seeded order. The lead set stays fixed so a run's cost does not
    hinge on which molecules a seed drew; the seed moves the search."""
    rng = random.Random(seed)
    panel = rows[:FIXTURE_LEADS]
    while True:
        yield from rng.sample(panel, len(panel))


class PrefixMutants:
    """Distinct prefixed variants of the corpus rows that take a prefix."""

    def __init__(self, rows: list[str], rng: random.Random):
        self.bases = [row for row in rows if takes_prefix(row)]
        self.rng = rng
        self._used: set[tuple[str, str]] = set()
        self._round: list[str] = []
        self._deck = [cards for cards, generations in CARDS_PER_GENERATION.items()
                      for _ in range(generations)]
        self._cards: list[int] = []

    def draw(self) -> tuple[str, str]:
        """A (mutant, base row) pair not drawn before in this cycle.

        Bases come in rounds, each base once per round in a seeded order, so
        every seed draws the same mix of small and large molecules and a
        tail percentile does not hinge on how many large ones a seed drew.
        Once every variant has been drawn a new cycle begins, so a stream
        of any length stays seeded; its queries then repeat earlier ones.
        """
        if len(self._used) == len(self.bases) * len(PREFIXES):
            self._used.clear()
        while True:
            if not self._round:
                self._round = self.rng.sample(self.bases, len(self.bases))
            base = self._round.pop()
            free = [p for p in PREFIXES if (p, base) not in self._used]
            if free:
                prefix = self.rng.choice(free)
                self._used.add((prefix, base))
                return prefix + base, base

    def generation(self) -> list[tuple[str, float, list[tuple[str, Optional[float]]]]]:
        """The trajectories of one search generation that yields skill cards:
        GENERATION_TRAJECTORIES of (lead, lead score, steps), each step an
        (action, score) pair with score None for a step the env did not
        score. Trajectory lengths follow TRAJECTORY_STEPS and unscored steps
        UNSCORED_SHARE; the number of steps that improve on the chain by more
        than the harvest threshold comes from CARDS_PER_GENERATION, dealt in
        seeded rounds like the bases. Every other scored step stays below
        the threshold, so each improving step gives one card."""
        if not self._cards:
            self._cards = self.rng.sample(self._deck, len(self._deck))
        improving = self._cards.pop()
        lengths = self.rng.choices(list(TRAJECTORY_STEPS), TRAJECTORY_STEPS.values(),
                                   k=GENERATION_TRAJECTORIES)
        slots = [(t, i) for t, length in enumerate(lengths) for i in range(length)]
        gains = set(self.rng.sample(slots, improving))
        trajectories = []
        for t, length in enumerate(lengths):
            base = self.rng.choice(self.bases)
            score = lead_score = round(self.rng.uniform(0.2, 0.5), 6)
            steps = []
            for i, prefix in enumerate(self.rng.sample(PREFIXES, length)):
                if (t, i) in gains:
                    score = round(score + self.rng.uniform(0.06, 0.25), 6)
                elif self.rng.random() < UNSCORED_SHARE:
                    steps.append((prefix + base, None))
                    continue
                else:
                    score = round(score + self.rng.uniform(-0.15, 0.04), 6)
                steps.append((prefix + base, score))
            trajectories.append((base, lead_score, steps))
        return trajectories
