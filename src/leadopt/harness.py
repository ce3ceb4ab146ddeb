"""Inference-time search loop, built-in policies, and evaluation metrics.

A search runs G generations of N rollouts under one budget ledger per
lead, with a rising temperature schedule; the best-scoring evaluated
molecule is the incumbent. Metrics follow the standard conventions:
failures contribute similarity 1.0 (the lead itself) and improvement 0.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .chemfeat import _mix_stream, morgan_fp, tanimoto
from .env import EnvConfig, MolEnv, Trajectory
from .exembank import ExemplarBank
from .lineproto import DEFAULT_TIMEOUT, ProtocolError, connect
from .molgraph import (
    EDIT_OPERATORS,
    CanonicalizationBudgetError,
    Molecule,
    NoApplicableSiteError,
    SmilesError,
    ValenceError,
    _edit,
    mutate,
    parse,
)
from .oracles import BudgetLedger, Objective, check_success
from .skillbank import DEFAULT_HARVEST_DELTA, SkillBank, harvest, make_skill_card

__all__ = [
    "SearchConfig",
    "PolicyView",
    "Policy",
    "LeadResult",
    "EvalReport",
    "temperature",
    "optimize_lead",
    "aggregate_records",
    "metrics",
    "policy_random_edit",
    "policy_retrieval_greedy",
    "policy_wire",
    "get_policy",
    "report_to_json",
    "report_to_tsv",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchConfig:
    generations: int = 20
    rollouts_per_gen: int = 32
    temp0: float = 0.9
    temp_step: float = 0.1
    temp_max: float = 2.0
    budget: int = Objective.budget
    budget_unit: str = BudgetLedger.UNITS[0]
    seed: int = EnvConfig.seed
    max_turns: int = EnvConfig.max_turns
    plateau_patience: int = EnvConfig.plateau_patience
    warm_start_incumbent: bool = False
    harvest_skills: bool = False
    harvest_delta: float = DEFAULT_HARVEST_DELTA

    def __post_init__(self):
        # a NaN passes every comparison below, an infinite step makes
        # generation 0's temperature NaN (0 * inf), and a NaN harvest delta
        # would harvest nothing
        for name in ("temp0", "temp_step", "temp_max", "harvest_delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        if self.temp0 > self.temp_max:
            raise ValueError("temp0 must not exceed temp_max")
        if self.generations < 1 or self.rollouts_per_gen < 1:
            raise ValueError("generations and rollouts_per_gen must be >= 1")
        if self.harvest_delta <= 0:  # checked before any rollout spends budget
            raise ValueError(f"harvest_delta must be positive, not {self.harvest_delta}")


def temperature(g: int, cfg: SearchConfig) -> float:
    """Sampling temperature for generation g: min(t0 + g*step, t_max).

    Quantized to 12 decimals so tabulated schedules (0.9 + 5*0.1 = 1.4)
    compare exactly despite binary float drift.
    """
    if g < 0:
        raise ValueError("generation index must be >= 0")
    return min(round(cfg.temp0 + g * cfg.temp_step, 12), cfg.temp_max)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyView:
    """Structured state access for the built-in scripted policies; wire
    policies see only the observation text."""

    lead: Molecule
    current: Molecule
    injected_source: Optional[str]
    injected_exemplars: tuple[str, ...]
    turn: int


Policy = Callable[[str, PolicyView, float, random.Random], str]


def _random_edits(molecule: Molecule, count: int, rng: random.Random) -> Molecule:
    """`count` edits in a chain, each tried up to six times. Only the last
    edit searches for its child's string; when it fails, the chain ends on
    an intermediate whose string is still unread."""
    out = molecule
    for step in range(count):
        edit = mutate if step == count - 1 else _edit
        for _attempt in range(6):
            op = rng.choice(EDIT_OPERATORS)
            seed = rng.randrange(1 << 30)
            try:
                out = edit(out, op, seed)
                break
            except (NoApplicableSiteError, ValenceError, CanonicalizationBudgetError):
                continue
    return out


def policy_random_edit(
    observation: str, view: PolicyView, temp: float, rng: random.Random
) -> str:
    """Edit count scales with temperature: ceil(temperature) local edits.
    A chain that ends on an intermediate whose search trips proposes the
    current molecule."""
    edits = max(1, math.ceil(temp))
    try:
        return _random_edits(view.current, edits, rng).canonical
    except CanonicalizationBudgetError:
        return view.current.canonical


def policy_retrieval_greedy(
    observation: str, view: PolicyView, temp: float, rng: random.Random
) -> str:
    """Mutate the top injected exemplar one step toward the lead; never the
    exemplar verbatim. Falls back to random edits without an injection.

    Of 8 edits, proposes the child closest to the lead (the largest string
    among ties), skipping edits that fail, trip the canonical search or
    give the exemplar back. Only the children tied at the best score still
    in play are named: a child whose fingerprint differs from the
    exemplar's cannot be the exemplar.
    """
    if view.injected_source != "exemplar" or not view.injected_exemplars:
        return policy_random_edit(observation, view, temp, rng)
    try:
        base = parse(view.injected_exemplars[0])
        base.canonical  # a base whose search trips is no base
    except SmilesError:
        return policy_random_edit(observation, view, temp, rng)
    lead_fp, base_fp = morgan_fp(view.lead), morgan_fp(base)
    by_score: dict[float, list[tuple[Molecule, bool]]] = {}
    for _ in range(8):
        op = rng.choice(EDIT_OPERATORS)
        seed = rng.randrange(1 << 30)
        try:
            cand = _edit(base, op, seed)
        except (NoApplicableSiteError, ValenceError):
            continue
        fp = morgan_fp(cand)
        by_score.setdefault(tanimoto(lead_fp, fp), []).append((cand, fp == base_fp))
    for score in sorted(by_score, reverse=True):
        names = []
        for cand, maybe_base in by_score[score]:
            try:
                name = cand.canonical
            except CanonicalizationBudgetError:
                continue
            if not (maybe_base and name == base.canonical):
                names.append(name)
        if names:
            return max(names)
    return policy_random_edit(observation, view, temp, rng)


def policy_wire(endpoint: str, timeout: float = DEFAULT_TIMEOUT) -> Policy:
    """External policy over `ACT <json>` -> `OK <smiles>`; any transport
    failure or malformed reply becomes an invalid proposal (empty string).
    A malformed endpoint raises ValueError here, before any proposal. The
    policy's `close` ends its connection."""
    transport = connect(endpoint, timeout)

    def act(observation: str, view: PolicyView, temp: float,
            rng: random.Random) -> str:
        payload = json.dumps(
            {"observation": observation, "temperature": temp}, sort_keys=True
        )
        try:
            reply = transport.request(f"ACT {payload}")
        except ProtocolError as exc:
            log.warning("wire policy failed (%s); treating as invalid", exc)
            return ""
        if not reply.startswith("OK "):
            return ""
        return reply[3:].strip()

    act.close = transport.close
    return act


def get_policy(spec: str, timeout: float = DEFAULT_TIMEOUT) -> Policy:
    """`random`, `greedy`, or `wire:<endpoint>`."""
    if spec == "random":
        return policy_random_edit
    if spec == "greedy":
        return policy_retrieval_greedy
    if spec.startswith("wire:"):
        return policy_wire(spec[len("wire:"):], timeout)
    raise ValueError(f"unknown policy spec {spec!r}")


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@dataclass
class LeadResult:
    lead: str
    best: str
    success: bool
    sim: float
    lead_values: dict[str, float]
    best_values: dict[str, float]
    calls_used: int
    incumbent_score: float


def _derive_seed(*parts: int) -> int:
    return _mix_stream(parts) & 0x7FFFFFFF


def optimize_lead(
    lead: Molecule,
    cfg: SearchConfig,
    policy: Policy,
    objective: Objective,
    exemplar_bank: Optional[ExemplarBank] = None,
    skill_bank: Optional[SkillBank] = None,
) -> tuple[LeadResult, list[Trajectory]]:
    """Budgeted multi-generation search from one lead molecule.

    Every rollout restarts from the lead unless `warm_start_incumbent` is
    set, in which case rollouts start from the current incumbent while the
    similarity anchor stays on the lead.

    The env judges every step: the incumbent is the best `score` among the
    rollouts' valid records, and the winner the best last record of a
    rollout that ended in "success" (the smaller canonical string wins a
    tie), or the lead if it meets the criterion and nothing beats it.
    """
    if cfg.harvest_skills and skill_bank is None:
        skill_bank = SkillBank()  # harvested skills still feed this search
    ledger = BudgetLedger(cfg.budget, unit=cfg.budget_unit)
    env = MolEnv(
        EnvConfig(
            objective=objective,
            max_turns=cfg.max_turns,
            plateau_patience=cfg.plateau_patience,
            seed=cfg.seed,
        ),
        ledger,
        exemplar_bank,
        skill_bank,
    )

    lead_values = ledger.evaluate(lead, objective)
    incumbent, incumbent_score = lead.canonical, objective.aggregate(lead_values)
    winner: Optional[tuple[float, str]] = None  # (-score, canonical): least wins
    if check_success(lead, lead, objective, lead_values, lead_values):
        winner = (-incumbent_score, lead.canonical)
    trajectories: list[Trajectory] = []

    for g in range(cfg.generations):
        temp = temperature(g, cfg)
        generation_trajs: list[Trajectory] = []
        for n in range(cfg.rollouts_per_gen):
            if ledger.exhausted:
                break
            # the lead and every incumbent are in the ledger's cache, so a
            # reset spends no budget
            start = None
            if cfg.warm_start_incumbent and incumbent != lead.canonical:
                start = parse(incumbent)
            state = env.reset(lead, seed=_derive_seed(cfg.seed, g, n, 0), start=start)
            policy_rng = random.Random(_derive_seed(cfg.seed, g, n, 1))
            while not state.done:
                injected = state.injected
                view = PolicyView(
                    state.lead, state.current,
                    injected.source if injected else None,
                    injected.exemplar_canonicals if injected else (),
                    state.turn,
                )
                action = policy(env.observation(state), view, temp, policy_rng)
                state, _result = env.step(state, action)
            generation_trajs.append(env.to_trajectory(state))
            for record in state.history:
                if record.valid and record.score > incumbent_score:
                    incumbent, incumbent_score = record.canonical, record.score
            if state.done_reason == "success":
                last = state.history[-1]
                key = (-last.score, last.canonical)
                winner = key if winner is None else min(winner, key)
        trajectories.extend(generation_trajs)
        if cfg.harvest_skills:
            cards = [card for trajectory in generation_trajs
                     for card in harvest(trajectory, objective, cfg.harvest_delta)]
            if cards:
                skill_bank.insert([make_skill_card(c, objective.name) for c in cards])
        if ledger.exhausted:
            break

    best = lead.canonical if winner is None else winner[1]
    best_molecule = lead if best == lead.canonical else parse(best)
    result = LeadResult(
        lead=lead.canonical,
        best=best,
        success=winner is not None,
        sim=tanimoto(morgan_fp(lead), morgan_fp(best_molecule)),
        lead_values=dict(lead_values),
        best_values=dict(ledger.peek(best) or lead_values),
        calls_used=ledger.consumed,
        incumbent_score=incumbent_score,
    )
    return result, trajectories


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    records: list[dict]
    sr: float
    sim: float
    ri: float
    task: str = ""

    def aggregates(self) -> dict[str, float]:
        return {"SR": self.sr, "Sim": self.sim, "RI": self.ri}


def relative_improvement(
    result: LeadResult, objective: Objective
) -> float:
    """Mean over terms of direction * (F(best) - F(lead)) / |F(lead)|;
    failed leads contribute 0, zero-denominator terms are skipped."""
    if not result.success:
        return 0.0
    total = 0.0
    n = len(objective.terms)
    for term in objective.terms:
        lead_value = result.lead_values[term.oracle.name]
        best_value = result.best_values[term.oracle.name]
        if lead_value == 0:
            log.warning(
                "lead value for %s is zero; skipping its RI term",
                term.oracle.name,
            )
            continue
        total += term.oracle.direction * (best_value - lead_value) / abs(lead_value)
    return total / n


def aggregate_records(records: Sequence[dict]) -> dict[str, float]:
    """SR / Sim / RI: the means of the per-lead `success`, `sim` and `ri`
    fields, whose failure conventions are already applied."""
    if not records:
        raise ValueError("no leads to evaluate")
    n = len(records)
    return {
        "SR": sum(1 for r in records if r["success"]) / n,
        "Sim": sum(r["sim"] for r in records) / n,
        "RI": sum(r["ri"] for r in records) / n,
    }


def metrics(results: Sequence[LeadResult], objective: Objective) -> EvalReport:
    """SR / Sim / RI across leads with the failure conventions applied."""
    records = [
        {
            "lead": result.lead,
            "best_molecule": result.best,
            "success": result.success,
            "sim": result.sim if result.success else 1.0,
            "ri": relative_improvement(result, objective),
            "calls_used": result.calls_used,
        }
        for result in results
    ]
    means = aggregate_records(records)
    return EvalReport(records, means["SR"], means["Sim"], means["RI"], objective.name)


def report_to_json(report: EvalReport) -> str:
    payload = {
        "task": report.task,
        "aggregates": report.aggregates(),
        "leads": report.records,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_to_tsv(report: EvalReport) -> str:
    """One summary row in the SR / Sim / RI column convention."""
    header = "task\tSR(%)\tSim\tRI"
    row = (
        f"{report.task}\t{100.0 * report.sr:.1f}\t"
        f"{report.sim:.2f}\t{report.ri:.2f}"
    )
    return header + "\n" + row + "\n"
