"""The search loop takes every verdict from the env's rollouts. These tests
keep the loop that decided each evaluated step a second time (re-reading
the ledger, re-parsing and re-checking the success criterion) as the
reference, and check that `optimize_lead` gives the same result and
trajectories; and that a trajectory can hold a success only in its last
step, and only when it ended in "success"."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadopt.chemfeat import morgan_fp, tanimoto
from leadopt.env import EnvConfig, MolEnv, Trajectory
from leadopt.exembank import build_bank
from leadopt.harness import (
    LeadResult,
    PolicyView,
    SearchConfig,
    _derive_seed,
    get_policy,
    optimize_lead,
    temperature,
)
from leadopt.molgraph import Molecule, parse
from leadopt.oracles import (
    BudgetExhaustedError,
    BudgetLedger,
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
    check_success,
)
from leadopt.skillbank import SkillBank, harvest, make_skill_card

from conftest import CORPUS

LEAD = "CCCCCCO"  # 7 heavy atoms, 1 heteroatom


def reference_optimize_lead(
    lead: Molecule,
    cfg: SearchConfig,
    policy,
    objective: Objective,
    exemplar_bank=None,
    skill_bank=None,
) -> tuple[LeadResult, list[Trajectory]]:
    """The search loop as it was when it judged every valid record again
    through `consider`."""
    if cfg.harvest_skills and skill_bank is None:
        skill_bank = SkillBank()
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
    winner = None
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
            generation_trajs.append(env.to_trajectory(state))
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


def size_objective(threshold: float, cap: float = math.inf,
                   polar_term: bool = False) -> Objective:
    """`size` is a tenth of the heavy-atom count, capped at `cap` so that
    every molecule past it ties; `polar` (a second term, for per-term
    budgets) is a tenth of the N and O count and must not fall."""
    size = Oracle("size", lambda m: min(cap, 0.1 * len(m.atoms)), kind="table")
    terms = [ObjectiveTerm(size, 1.0, SuccessCriterion("absolute", "ge", threshold))]
    if polar_term:
        polar = Oracle(
            "polar",
            lambda m: 0.1 * sum(a.element in ("N", "O") for a in m.atoms),
            kind="table",
        )
        terms.append(ObjectiveTerm(polar, 0.5, SuccessCriterion("delta", "ge", 0.0)))
    return Objective(name="size", terms=tuple(terms), gamma=0.4)


def both_searches(objective, policy="random", exemplar_bank=None, **settings):
    cfg = SearchConfig(**{
        "generations": 3, "rollouts_per_gen": 6, "budget": 40, "max_turns": 3,
        **settings,
    })
    runs = [
        search(parse(LEAD), cfg, get_policy(policy), objective,
               exemplar_bank=exemplar_bank)
        for search in (reference_optimize_lead, optimize_lead)
    ]
    return runs[0], runs[1]


@pytest.fixture(scope="module")
def size_bank():
    oracles = [term.oracle for term in size_objective(0.8).terms]
    return build_bank(CORPUS[:60] + ["CCCCCCN", "CCCCCCCO", "CCCCCC(C)O"],
                      oracles=oracles)


class TestSameVerdictsAsReference:
    @pytest.mark.parametrize("threshold", [0.8, 0.9])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("policy", ["random", "greedy"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_policies_and_warm_start(self, policy, warm, seed, threshold,
                                     size_bank):
        reference, ours = both_searches(
            size_objective(threshold), policy, size_bank,
            seed=seed, warm_start_incumbent=warm,
        )
        assert ours == reference

    @pytest.mark.parametrize("unit", ["per_candidate", "per_term"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_budget_units(self, unit, seed):
        # a budget this small runs out within the search
        reference, ours = both_searches(
            size_objective(0.8, polar_term=True), seed=seed, budget_unit=unit,
            budget=8, warm_start_incumbent=seed == 5,
        )
        assert ours == reference
        assert ours[0].calls_used <= 8

    @pytest.mark.parametrize("seed", [2, 4, 8])
    def test_lead_meets_the_criterion(self, seed):
        # the lead scores 0.7; an edit that keeps or grows it succeeds too,
        # so the lead wins only when no success scores higher
        reference, ours = both_searches(size_objective(0.7), seed=seed)
        assert ours == reference
        assert ours[0].success

    def test_lead_alone_is_the_winner(self):
        # one unit of budget: only the lead is evaluated, and it succeeds
        reference, ours = both_searches(size_objective(0.7), seed=7, budget=1)
        assert ours == reference
        assert ours[0].best == parse(LEAD).canonical and ours[0].success

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_tied_winners(self, seed):
        # every molecule of 8 or more heavy atoms scores 0.8 and succeeds,
        # so the smaller canonical string decides among them
        objective = size_objective(0.8, cap=0.8)
        reference, ours = both_searches(objective, seed=seed, generations=4,
                                        rollouts_per_gen=12, budget=60)
        assert ours == reference
        result, trajectories = ours
        tied = {t.steps[-1].canonical for t in trajectories
                if t.terminal_reason == "success"}
        assert len(tied) >= 2
        assert result.success and result.best == min(tied)


def values_of(objective: Objective, molecule: Molecule) -> dict[str, float]:
    return {term.oracle.name: term.oracle(molecule) for term in objective.terms}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    threshold=st.sampled_from([0.7, 0.8, 0.9, 1.0]),
    warm=st.booleans(),
    polar=st.booleans(),
)
def test_only_a_successful_rollouts_last_step_succeeds(seed, threshold, warm, polar):
    objective = size_objective(threshold, polar_term=polar)
    lead = parse(LEAD)
    lead_values = values_of(objective, lead)
    cfg = SearchConfig(generations=2, rollouts_per_gen=4, budget=30, max_turns=3,
                       seed=seed, warm_start_incumbent=warm)
    _, trajectories = optimize_lead(lead, cfg, get_policy("random"), objective)
    for trajectory in trajectories:
        succeeded = [
            turn for turn, record in enumerate(trajectory.steps, start=1)
            if record.valid and check_success(
                lead, parse(record.canonical), objective,
                values_of(objective, parse(record.canonical)), lead_values,
            )
        ]
        if trajectory.terminal_reason == "success":
            assert succeeded == [len(trajectory.steps)]
        else:
            assert succeeded == []
