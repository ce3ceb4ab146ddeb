"""Multi-turn molecule-editing environment: step rewards, termination,
plateau-triggered memory injection, and trajectory logging.

Reward branches, in precedence order (earlier masks later):
  1. unparseable proposal        -> -0.5
  2. no-op (same as current)     -> -0.3
  3. copy of injected exemplar   -> copy_penalty (default -0.3)
  4. lead similarity below gamma -> -2 * (gamma - sim)
  5. oracle evaluation           -> 5 * delta if improved else -|delta|
Only branch 5 touches the oracle budget.

Rollouts restart from the lead and keep returning to the same molecules, so
an env remembers each exemplar block it retrieved, keyed by the current
molecule's and the lead's canonical strings, and each skill block, keyed by
the current molecule's canonical string for the task store that answered
it: harvesting replaces the store on every insert, which starts the skill
blocks afresh. The coin flip between the two memories is still drawn on
every injection.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .chemfeat import morgan_fp, tanimoto
from .exembank import ExemplarBank, render_exemplar_block, retrieve_exemplars
from .files import data_text, write_jsonl
from .molgraph import Molecule, SmilesError, parse
from .oracles import BudgetExhaustedError, BudgetLedger, Objective, check_success
from .skillbank import SkillBank, render_skill_block, retrieve_skills

__all__ = [
    "EnvConfig",
    "EnvState",
    "StepRecord",
    "StepResult",
    "InjectedMemory",
    "Trajectory",
    "MolEnv",
    "RewardOutcome",
    "reward_outcome",
    "write_trajectories",
    "read_trajectories",
]

REWARD_INVALID = -0.5
REWARD_NO_OP = -0.3
IMPROVEMENT_SCALE = 5.0
SIMILARITY_SCALE = 2.0

# memory retrieval on a plateau: exemplars kept from a broad recall pool,
# skills per retrieval channel, and the chance that exemplars win when both
# memories have a block
EXEMPLAR_K = 3
EXEMPLAR_POOL = 200
SKILL_K = 3
MEMORY_SELECT_P = 0.5


@dataclass(frozen=True)
class EnvConfig:
    objective: Objective
    max_turns: int = 5
    plateau_patience: int = 2
    copy_penalty: float = -0.3
    seed: int = 0
    gamma_exemplar: Optional[float] = None  # None: reuse objective.gamma
    gamma_fp: float = 0.4
    gamma_fg: float = 0.5

    def __post_init__(self):
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if self.copy_penalty > 0:
            raise ValueError("copy_penalty must be non-positive")


@dataclass(frozen=True)
class InjectedMemory:
    source: str  # "exemplar" | "skill"
    block: str
    exemplar_canonicals: tuple[str, ...]  # retrieval-ranked order


@dataclass
class StepRecord:
    action: str
    canonical: Optional[str]
    reward: float
    score: Optional[float]
    valid: bool
    injected_source: Optional[str] = None


@dataclass(frozen=True)
class StepResult:
    reward: float
    done: bool
    done_reason: str  # "success" | "max_turns" | "none"
    feedback: str
    budget_consumed: int


@dataclass
class EnvState:
    lead: Molecule
    lead_values: dict[str, float]
    lead_score: float
    current: Molecule
    current_score: float
    best_score: float
    history: list[StepRecord] = field(default_factory=list)
    stall_count: int = 0
    injected: Optional[InjectedMemory] = None
    done: bool = False
    done_reason: str = "none"
    rng: random.Random = field(default_factory=random.Random)

    @property
    def turn(self) -> int:
        return len(self.history)


@dataclass
class Trajectory:
    lead: str
    lead_score: float
    steps: list[StepRecord]
    terminal_reason: str


@dataclass(frozen=True)
class RewardOutcome:
    """Reward plus which branch fired; branch 5 also carries the values."""

    reward: float
    branch: str  # "invalid" | "no_op" | "copy" | "similarity" | "evaluated"
    molecule: Optional[Molecule]
    values: Optional[dict[str, float]]
    score: Optional[float]
    similarity: Optional[float]
    feedback: str


def reward_outcome(
    current: Molecule,
    proposal: str,
    lead: Molecule,
    obj: Objective,
    gamma: float,
    injected_exemplars: frozenset[str],
    ledger: BudgetLedger,
    copy_penalty: float = REWARD_NO_OP,
    current_score: Optional[float] = None,
) -> RewardOutcome:
    """Branch-by-branch step reward; raises BudgetExhaustedError only from
    the oracle branch."""
    try:
        candidate = parse(proposal)
        candidate.canonical  # a search that trips is an invalid proposal
    except SmilesError as exc:
        return RewardOutcome(
            REWARD_INVALID, "invalid", None, None, None, None,
            f"invalid SMILES: {exc}",
        )
    if candidate.canonical == current.canonical:
        return RewardOutcome(
            REWARD_NO_OP, "no_op", candidate, None, None, None,
            "proposal is identical to the current molecule",
        )
    if candidate.canonical in injected_exemplars:
        return RewardOutcome(
            copy_penalty, "copy", candidate, None, None, None,
            "proposal copies an injected exemplar",
        )
    sim = tanimoto(morgan_fp(lead), morgan_fp(candidate))
    if sim < gamma:
        return RewardOutcome(
            -SIMILARITY_SCALE * (gamma - sim), "similarity", candidate, None,
            None, sim,
            f"similarity {sim:.4f} to the lead is below the threshold {gamma:g}",
        )
    if current_score is None:
        current_score = obj.aggregate(ledger.evaluate(current, obj))
    values = ledger.evaluate(candidate, obj)
    score = obj.aggregate(values)
    delta = score - current_score
    if delta > 0:
        reward = IMPROVEMENT_SCALE * delta
    elif delta == 0:
        reward = 0.0
    else:
        reward = -abs(delta)
    detail = "; ".join(f"{name}={values[name]:.4f}" for name in obj.oracle_names())
    return RewardOutcome(
        reward, "evaluated", candidate, values, score, sim,
        f"evaluated: {detail}; aggregate {score:.4f} (delta {delta:+.4f})",
    )


class MolEnv:
    """One environment instance drives many rollouts against shared banks
    and one budget ledger; each rollout owns its EnvState."""

    def __init__(
        self,
        config: EnvConfig,
        ledger: BudgetLedger,
        exemplar_bank: Optional[ExemplarBank] = None,
        skill_bank: Optional[SkillBank] = None,
    ):
        self.config = config
        self.objective = config.objective
        self.ledger = ledger
        self.exemplar_bank = exemplar_bank
        self.skill_bank = skill_bank
        self._prompt_template = data_text("prompt_template.txt")
        # (current, lead) canonical strings -> exemplar block or None; the
        # bank's records are a tuple and the objective is fixed, so a block
        # depends only on the pair
        self._exemplar_blocks: dict[tuple[str, str], Optional[InjectedMemory]] = {}
        # (skill store, current canonical string -> skill block or None):
        # the thresholds and the task are fixed, so a block depends only on
        # the store that answered it and the current molecule. A reader
        # racing an insert may keep a block of the newer store; any later
        # reader sees the newer store and starts afresh
        self._skill_blocks: tuple[object, dict[str, Optional[InjectedMemory]]] = (None, {})

    # -- rollout lifecycle --------------------------------------------------

    def reset(
        self,
        lead: Molecule,
        seed: Optional[int] = None,
        start: Optional[Molecule] = None,
    ) -> EnvState:
        """Fresh state; evaluates the lead once (a cache hit after the
        first rollout). Raises BudgetExhaustedError when nothing is left."""
        lead_values = self.ledger.evaluate(lead, self.objective)
        lead_score = self.objective.aggregate(lead_values)
        current = lead if start is None else start
        if start is None or start.canonical == lead.canonical:
            current_score = lead_score
        else:
            current_score = self.objective.aggregate(
                self.ledger.evaluate(start, self.objective)
            )
        return EnvState(
            lead=lead,
            lead_values=lead_values,
            lead_score=lead_score,
            current=current,
            current_score=current_score,
            best_score=max(lead_score, current_score),
            rng=random.Random(self.config.seed if seed is None else seed),
        )

    def step(self, state: EnvState, action: str) -> tuple[EnvState, StepResult]:
        """Advance one turn. Invalid and similarity-violating proposals are
        recorded in history but consume no budget. A step that meets the
        success criterion ends its rollout with done_reason "success", so
        only a rollout's last step can be a success; the search loop
        relies on this."""
        if state.done:
            raise RuntimeError("rollout already terminated")
        source = state.injected.source if state.injected else None
        injected = frozenset(
            state.injected.exemplar_canonicals if state.injected else ()
        )
        before = self.ledger.consumed
        try:
            outcome = reward_outcome(
                state.current,
                action,
                state.lead,
                self.objective,
                self.objective.gamma,
                injected,
                self.ledger,
                self.config.copy_penalty,
                current_score=state.current_score,
            )
        except BudgetExhaustedError:
            state.history.append(
                StepRecord(action, None, 0.0, None, False, source)
            )
            state.done = True
            state.done_reason = "none"
            return state, StepResult(
                0.0, True, "none",
                "oracle budget exhausted; rollout terminated", 0,
            )
        consumed = self.ledger.consumed - before

        evaluated = outcome.branch == "evaluated"
        state.history.append(
            StepRecord(
                action,
                outcome.molecule.canonical if outcome.molecule else None,
                outcome.reward,
                outcome.score,
                evaluated,
                source,
            )
        )

        improved = evaluated and outcome.score > state.best_score
        if improved:
            state.best_score = outcome.score
            state.stall_count = 0
        else:
            state.stall_count += 1

        feedback = outcome.feedback
        success = False
        if evaluated:
            state.current = outcome.molecule
            state.current_score = outcome.score
            success = check_success(
                state.lead, outcome.molecule, self.objective,
                outcome.values, state.lead_values,
            )
            if success:
                feedback += "; success criterion met"

        if success:
            state.done = True
            state.done_reason = "success"
        elif state.turn >= self.config.max_turns:
            state.done = True
            state.done_reason = "max_turns"

        if not state.done:
            self.maybe_inject_memory(state)
        return state, StepResult(
            outcome.reward, state.done, state.done_reason if state.done else "none",
            feedback, consumed,
        )

    # -- memory injection ----------------------------------------------------

    def maybe_inject_memory(self, state: EnvState) -> None:
        """Inject a rendered memory block once progress has stalled for
        `plateau_patience` turns; both sources eligible -> seeded coin flip
        (exemplars win below MEMORY_SELECT_P). Below patience the slot is
        cleared. The exemplar block is retrieved once per (current, lead)
        pair, so a record that lacks a property is logged once per pair; the
        skill block once per current molecule while the task's skill store
        stays the same."""
        if state.stall_count < self.config.plateau_patience:
            state.injected = None
            return
        exemplar_block = None
        if self.exemplar_bank is not None and len(self.exemplar_bank) > 0:
            key = (state.current.canonical, state.lead.canonical)
            if key not in self._exemplar_blocks:
                self._exemplar_blocks[key] = self._exemplar_block(state)
            exemplar_block = self._exemplar_blocks[key]
        skill_block = None
        if self.skill_bank is not None:
            store = self.skill_bank.store(self.objective.name)
            held, blocks = self._skill_blocks
            if held is not store:
                blocks = {}
                self._skill_blocks = (store, blocks)
            key = state.current.canonical
            if key not in blocks:
                blocks[key] = self._skill_block(state)
            skill_block = blocks[key]
        if exemplar_block and skill_block:
            pick_exemplar = state.rng.random() < MEMORY_SELECT_P
            state.injected = exemplar_block if pick_exemplar else skill_block
        else:
            state.injected = exemplar_block or skill_block

    def _exemplar_block(self, state: EnvState) -> Optional[InjectedMemory]:
        gamma_ex = (
            self.objective.gamma
            if self.config.gamma_exemplar is None
            else self.config.gamma_exemplar
        )
        exemplars = retrieve_exemplars(
            self.exemplar_bank,
            state.current,
            state.lead,
            self.objective,
            k=EXEMPLAR_K,
            gamma_ex=gamma_ex,
            pool_size=EXEMPLAR_POOL,
        )
        if not exemplars:
            return None
        return InjectedMemory(
            "exemplar",
            render_exemplar_block(exemplars, self.objective, state.lead),
            tuple(record.canonical for record in exemplars),
        )

    def _skill_block(self, state: EnvState) -> Optional[InjectedMemory]:
        skills = retrieve_skills(
            self.skill_bank,
            state.current,
            self.objective.name,
            k_fp=SKILL_K,
            k_fg=SKILL_K,
            gamma_fp=self.config.gamma_fp,
            gamma_fg=self.config.gamma_fg,
        )
        if not skills:
            return None
        return InjectedMemory("skill", render_skill_block(skills, self.objective.name), ())

    # -- observation ----------------------------------------------------------

    def observation(self, state: EnvState) -> str:
        """Task prompt, then history lines, then any injected memory block."""
        text = self._prompt_template.format(
            similarity_threshold=f"{self.objective.gamma:g}",
            input_smiles=state.lead.canonical,
            property_description=self.objective.property_description(),
        )
        if state.history:
            lines = []
            for idx, record in enumerate(state.history, start=1):
                score = "NA" if record.score is None else f"{record.score:.4f}"
                lines.append(
                    f"turn {idx}: SMILES={record.action} "
                    f"reward={record.reward:.4f} score={score}"
                )
            text += "\n" + "\n".join(lines) + "\n"
        if state.injected is not None:
            text += "\n" + state.injected.block
        return text

    def to_trajectory(self, state: EnvState) -> Trajectory:
        return Trajectory(
            lead=state.lead.canonical,
            lead_score=state.lead_score,
            steps=list(state.history),
            terminal_reason=state.done_reason if state.done else "none",
        )


# ---------------------------------------------------------------------------
# Trajectory logs (JSONL, one step per line)
# ---------------------------------------------------------------------------


def write_trajectories(trajectories: list[Trajectory], path: str | Path) -> Path:
    """One JSON line per step, trajectories numbered in list order; the file
    appears whole or not at all."""
    return write_jsonl(path, (
        {
            "trajectory": t_idx,
            "lead": trajectory.lead,
            "lead_score": trajectory.lead_score,
            "turn": turn,
            "action": record.action,
            "reward": record.reward,
            "score": record.score,
            "valid": record.valid,
            "injected_source": record.injected_source,
            "terminal_reason": trajectory.terminal_reason,
        }
        for t_idx, trajectory in enumerate(trajectories)
        for turn, record in enumerate(trajectory.steps, start=1)
    ))


def read_trajectories(path: str | Path) -> list[Trajectory]:
    groups: dict[tuple, list[dict]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            groups.setdefault((row["trajectory"], row["lead"]), []).append(row)
    trajectories = []
    for (_, lead), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r["turn"])
        steps = [
            StepRecord(
                row["action"], None, row["reward"], row["score"], row["valid"],
                row.get("injected_source"),
            )
            for row in rows
        ]
        trajectories.append(
            Trajectory(
                lead=lead,
                lead_score=rows[0]["lead_score"],
                steps=steps,
                terminal_reason=rows[0].get("terminal_reason", "none"),
            )
        )
    return trajectories
