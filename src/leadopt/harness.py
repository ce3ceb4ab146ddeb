"""Inference-time search loop, built-in policies, and evaluation metrics.

A search runs G generations of N rollouts under one budget ledger per
lead, with a rising temperature schedule; the best feasible molecule seen
anywhere is the incumbent. Metrics follow the standard conventions:
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
from .lineproto import LineTransport, ProtocolError, open_transport
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
from .oracles import BudgetExhaustedError, BudgetLedger, Objective, check_success
from .skillbank import SkillBank, harvest, make_skill_card

__all__ = [
    "SearchConfig",
    "PolicyView",
    "Policy",
    "LeadResult",
    "EvalReport",
    "temperature",
    "optimize_lead",
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
    budget: int = 500
    budget_unit: str = "per_candidate"  # or "per_term"
    seed: int = 0
    max_turns: int = 5
    plateau_patience: int = 2
    warm_start_incumbent: bool = False
    harvest_skills: bool = False
    harvest_delta: float = 0.05

    def __post_init__(self):
        if self.temp0 > self.temp_max:
            raise ValueError("temp0 must not exceed temp_max")
        if self.generations < 1 or self.rollouts_per_gen < 1:
            raise ValueError("generations and rollouts_per_gen must be >= 1")


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


def policy_wire(endpoint: str, timeout: float = 10.0) -> Policy:
    """External policy over `ACT <json>` -> `OK <smiles>`; any transport
    failure or malformed reply becomes an invalid proposal (empty string).
    A failed connection is closed, so the next proposal opens a fresh one."""
    transport: Optional[LineTransport] = None

    def act(observation: str, view: PolicyView, temp: float,
            rng: random.Random) -> str:
        nonlocal transport
        payload = json.dumps(
            {"observation": observation, "temperature": temp}, sort_keys=True
        )
        try:
            transport = transport or open_transport(endpoint, timeout)
            reply = transport.request(f"ACT {payload}")
        except (ProtocolError, OSError) as exc:
            log.warning("wire policy failed (%s); treating as invalid", exc)
            if transport is not None:
                transport.close()
                transport = None
            return ""
        if not reply.startswith("OK "):
            return ""
        return reply[3:].strip()

    return act


def get_policy(spec: str, timeout: float = 10.0) -> Policy:
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
    lead_score = objective.aggregate(lead_values)
    molecules: dict[str, Molecule] = {lead.canonical: lead}

    incumbent = lead.canonical
    incumbent_score = lead_score
    winner: Optional[str] = None
    winner_score = -math.inf
    trajectories: list[Trajectory] = []

    def consider(canonical: str) -> None:
        nonlocal incumbent, incumbent_score, winner, winner_score
        values = ledger.peek(canonical)
        if values is None:
            return
        molecule = molecules.get(canonical)
        if molecule is None:
            molecule = parse(canonical)
            molecules[canonical] = molecule
        score = objective.aggregate(values)
        if score > incumbent_score:
            incumbent, incumbent_score = canonical, score
        if check_success(lead, molecule, objective, values, lead_values):
            if score > winner_score or (
                score == winner_score and winner is not None and canonical < winner
            ):
                winner, winner_score = canonical, score

    consider(lead.canonical)

    stop = False
    for g in range(cfg.generations):
        if stop:
            break
        temp = temperature(g, cfg)
        generation_trajs: list[Trajectory] = []
        for n in range(cfg.rollouts_per_gen):
            if ledger.exhausted:
                stop = True
                break
            start = None
            if cfg.warm_start_incumbent and incumbent != lead.canonical:
                start = molecules[incumbent]
            try:
                state = env.reset(
                    lead, seed=_derive_seed(cfg.seed, g, n, 0), start=start
                )
            except BudgetExhaustedError:
                stop = True
                break
            policy_rng = random.Random(_derive_seed(cfg.seed, g, n, 1))
            while not state.done:
                observation = env.observation(state)
                view = PolicyView(
                    lead=state.lead,
                    current=state.current,
                    injected_source=(
                        state.injected.source if state.injected else None
                    ),
                    injected_exemplars=(
                        state.injected.exemplar_canonicals
                        if state.injected
                        else ()
                    ),
                    turn=state.turn,
                )
                action = policy(observation, view, temp, policy_rng)
                state, _result = env.step(state, action)
            trajectory = env.to_trajectory(state)
            generation_trajs.append(trajectory)
            for record in state.history:
                if record.valid and record.canonical is not None:
                    consider(record.canonical)
        trajectories.extend(generation_trajs)
        if cfg.harvest_skills and skill_bank is not None and generation_trajs:
            cards = []
            for trajectory in generation_trajs:
                cards.extend(harvest(trajectory, objective, cfg.harvest_delta))
            if cards:
                skill_bank.insert(
                    [make_skill_card(card, objective.name) for card in cards]
                )

    best = winner if winner is not None else lead.canonical
    best_molecule = molecules.get(best) or parse(best)
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


def metrics(results: Sequence[LeadResult], objective: Objective) -> EvalReport:
    """SR / Sim / RI across leads with the failure conventions applied."""
    if not results:
        raise ValueError("no leads to evaluate")
    records = []
    successes = 0
    sim_total = 0.0
    ri_total = 0.0
    for result in results:
        ri = relative_improvement(result, objective)
        sim = result.sim if result.success else 1.0
        successes += int(result.success)
        sim_total += sim
        ri_total += ri
        records.append(
            {
                "lead": result.lead,
                "best_molecule": result.best,
                "success": result.success,
                "sim": sim,
                "ri": ri,
                "calls_used": result.calls_used,
            }
        )
    n = len(results)
    return EvalReport(
        records=records,
        sr=successes / n,
        sim=sim_total / n,
        ri=ri_total / n,
        task=objective.name,
    )


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
