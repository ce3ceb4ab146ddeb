import pytest

from leadopt.chemfeat import morgan_fp, tanimoto
from leadopt.env import (
    EnvConfig,
    MolEnv,
    read_trajectories,
    reward_outcome,
    write_trajectories,
)
from leadopt.exembank import build_bank
from leadopt.molgraph import parse
from leadopt.oracles import (
    BudgetLedger,
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
)
from leadopt.skillbank import SkillBank, build_edit_card, make_skill_card

LEAD = "CCCCCCO"

# scripted property values; unlisted molecules default to 0.0
SCORES = {
    "CCCCCCO": 0.50,   # lead
    "CCCCCCN": 0.60,
    "CCCCCC": 0.30,
    "CCCCCCCO": 0.95,
    "OCCCCCCO": 0.50,
    "CCCCCCF": 0.70,
    "CCCCCCS": 0.40,
    "CCCCCO": 0.55,
    "CCCCCCCN": 0.65,
}


def scripted_oracle():
    canon_scores = {parse(s).canonical: v for s, v in SCORES.items()}
    return Oracle("act", lambda m: canon_scores.get(m.canonical, 0.0), kind="table")


def objective(threshold=0.9, gamma=0.4):
    return Objective(
        name="act",
        terms=(
            ObjectiveTerm(
                scripted_oracle(), 1.0,
                SuccessCriterion("absolute", "ge", threshold),
            ),
        ),
        gamma=gamma,
    )


def make_env(budget=100, exemplar_bank=None, skill_bank=None, **config_kw):
    obj = config_kw.pop("objective", objective())
    config = EnvConfig(objective=obj, **config_kw)
    ledger = BudgetLedger(budget)
    return MolEnv(config, ledger, exemplar_bank, skill_bank), ledger


def exemplar_bank_near_lead():
    rows = [f"{s}\tact={SCORES[s]}" for s in
            ("CCCCCCN", "CCCCCCF", "CCCCCCS", "CCCCCCCN")]
    return build_bank(rows)


class TestRewardBranches:
    def setup_method(self):
        self.obj = objective()
        self.lead = parse(LEAD)
        self.ledger = BudgetLedger(100)
        self.lead_values = self.ledger.evaluate(self.lead, self.obj)

    def reward(self, proposal, injected=frozenset(), copy_penalty=-0.3):
        return reward_outcome(
            self.lead, proposal, self.lead, self.obj, self.obj.gamma,
            injected, self.ledger, copy_penalty,
        ).reward

    def test_invalid(self):
        assert self.reward("C1CC") == -0.5
        assert self.reward("((((") == -0.5
        assert self.reward("") == -0.5

    def test_no_op(self):
        assert self.reward("OCCCCCC") == -0.3  # same canonical as lead

    def test_copy_of_injected_exemplar(self):
        target = parse("CCCCCCN").canonical
        assert self.reward("NCCCCCC", frozenset({target})) == -0.3
        assert self.reward("NCCCCCC", frozenset({target}), copy_penalty=-0.7) == -0.7

    def test_similarity_penalty(self):
        sim = tanimoto(morgan_fp(self.lead), morgan_fp(parse("CCCC")))
        assert sim < 0.4
        assert self.reward("CCCC") == -2 * (0.4 - sim)

    def test_similarity_boundary_proceeds(self):
        # exactly at gamma the proposal reaches the oracle branch
        cand = parse("CCCCCCN")
        sim = tanimoto(morgan_fp(self.lead), morgan_fp(cand))
        obj = objective(gamma=sim)
        reward = reward_outcome(self.lead, "CCCCCCN", self.lead, obj, sim,
                                frozenset(), self.ledger).reward
        assert reward == 5 * (SCORES["CCCCCCN"] - SCORES["CCCCCCO"])

    def test_improvement_scaled_five(self):
        assert self.reward("CCCCCCN") == 5 * (0.60 - 0.50)

    def test_degradation_negative_abs(self):
        assert self.reward("CCCCCC") == -abs(0.30 - 0.50)

    def test_zero_delta(self):
        assert self.reward("OCCCCCCO") == 0.0

    def test_branch_precedence_copy_masks_similarity(self):
        # molecule that both copies an exemplar and violates similarity:
        # the copy branch must fire first
        far = parse("c1ccccc1").canonical
        sim = tanimoto(morgan_fp(self.lead), morgan_fp(parse("c1ccccc1")))
        assert sim < 0.4
        assert self.reward("c1ccccc1", frozenset({far})) == -0.3

    def test_branch_precedence_no_op_masks_copy(self):
        lead_canonical = self.lead.canonical
        assert self.reward(LEAD, frozenset({lead_canonical}), copy_penalty=-0.9) == -0.3

    def test_budget_only_consumed_by_oracle_branch(self):
        ledger = BudgetLedger(100)
        obj = objective()
        lead = parse(LEAD)
        ledger.evaluate(lead, obj)
        base = ledger.consumed
        for proposal in ["C1CC", LEAD, "CCCC"]:
            reward_outcome(lead, proposal, lead, obj, 0.4, frozenset(), ledger).reward
        assert ledger.consumed == base
        reward_outcome(lead, "CCCCCCN", lead, obj, 0.4, frozenset(), ledger).reward
        assert ledger.consumed == base + 1

    def test_canonicalization_budget_trip_is_invalid(self, no_canon_leaves):
        consumed = self.ledger.consumed
        outcome = reward_outcome(
            self.lead, "CC(C)CCCO", self.lead, self.obj, 0.4,  # methyls tie
            frozenset(), self.ledger,
        )
        assert outcome.branch == "invalid"
        assert self.ledger.consumed == consumed

    def test_non_ascii_digit_is_invalid(self):
        for proposal in ("CCCCCCO²", "C١CCCCC١O"):
            outcome = reward_outcome(
                self.lead, proposal, self.lead, self.obj, 0.4,
                frozenset(), self.ledger,
            )
            assert outcome.branch == "invalid"

    def test_exactly_one_branch_fires(self):
        cases = ["C1CC", LEAD, "CCCC", "CCCCCCN", "c1ccccc1", "CCCCCC"]
        for proposal in cases:
            outcome = reward_outcome(
                self.lead, proposal, self.lead, self.obj, 0.4,
                frozenset(), self.ledger,
            )
            assert outcome.branch in (
                "invalid", "no_op", "copy", "similarity", "evaluated",
            )


class TestStep:
    def test_success_termination(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        state, result = env.step(state, "CCCCCCCO")  # act 0.95 >= 0.9, sim 1.0
        assert result.done and result.done_reason == "success"
        assert state.done_reason == "success"

    def test_max_turns_termination(self):
        env, _ = make_env(max_turns=5)
        state = env.reset(parse(LEAD))
        for i in range(5):
            state, result = env.step(state, "C1CC")
        assert result.done and result.done_reason == "max_turns"
        assert state.turn == 5

    def test_step_after_done_rejected(self):
        env, _ = make_env(max_turns=1)
        state = env.reset(parse(LEAD))
        state, _ = env.step(state, "C1CC")
        with pytest.raises(RuntimeError):
            env.step(state, "C1CC")

    def test_history_records_invalid_attempts(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        state, _ = env.step(state, "not_smiles((")
        assert state.turn == 1
        record = state.history[0]
        assert not record.valid and record.score is None
        assert record.reward == -0.5

    def test_current_molecule_advances_only_on_evaluation(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        env.step(state, "CCCC")  # similarity violation
        assert state.current.canonical == parse(LEAD).canonical
        env.step(state, "CCCCCCN")
        assert state.current.canonical == parse("CCCCCCN").canonical
        assert state.current_score == 0.60

    def test_budget_consumed_flags(self):
        env, ledger = make_env()
        state = env.reset(parse(LEAD))
        assert ledger.consumed == 1  # the lead
        _, r1 = env.step(state, "CCCCCCN")
        assert r1.budget_consumed == 1
        _, r2 = env.step(state, "OCCCCCC" if False else "CCCCCCO")  # no-op
        assert r2.budget_consumed == 0

    def test_budget_exhaustion_terminates(self):
        env, ledger = make_env(budget=1)
        state = env.reset(parse(LEAD))  # consumes the only unit
        state, result = env.step(state, "CCCCCCN")
        assert result.done and result.done_reason == "none"
        assert "budget" in result.feedback
        assert ledger.consumed == 1

    def test_stall_counting(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")   # 0.30 < best: stall 1
        assert state.stall_count == 1
        env.step(state, "C1CC")     # invalid: stall 2
        assert state.stall_count == 2
        env.step(state, "CCCCCCF")  # 0.70 > best: reset
        assert state.stall_count == 0
        assert state.best_score == 0.70

    def test_reset_reevaluation_is_cache_hit(self):
        env, ledger = make_env()
        env.reset(parse(LEAD))
        env.reset(parse(LEAD))
        assert ledger.consumed == 1

    def test_warm_start_keeps_lead_similarity_anchor(self):
        env, _ = make_env()
        start = parse("CCCCCCF")
        state = env.reset(parse(LEAD), start=start)
        assert state.current.canonical == start.canonical
        assert state.lead.canonical == parse(LEAD).canonical
        # reward for a far molecule is measured against the lead, not start
        state, result = env.step(state, "CCCC")
        sim = tanimoto(morgan_fp(parse(LEAD)), morgan_fp(parse("CCCC")))
        assert result.reward == -2 * (0.4 - sim)


class TestInjection:
    def test_no_injection_below_patience(self):
        env, _ = make_env(exemplar_bank=exemplar_bank_near_lead())
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        assert state.stall_count == 1
        assert state.injected is None

    def test_exemplar_injected_after_two_stalls(self):
        env, _ = make_env(exemplar_bank=exemplar_bank_near_lead())
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        env.step(state, "C1CC")
        assert state.stall_count == 2
        assert state.injected is not None
        assert state.injected.source == "exemplar"
        assert state.injected.block.startswith(
            "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
        )

    def test_injection_cleared_when_progress_resumes(self):
        env, _ = make_env(exemplar_bank=exemplar_bank_near_lead())
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        env.step(state, "C1CC")
        assert state.injected is not None
        # improving proposal (not an injected exemplar) resets the plateau
        env.step(state, "CCCCCO")
        assert state.stall_count == 0
        assert state.injected is None

    def test_single_eligible_source_used(self):
        env, _ = make_env(skill_bank=SkillBank())  # empty skill bank
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        env.step(state, "C1CC")
        assert state.injected is None  # nothing eligible at all

        env2, _ = make_env(exemplar_bank=exemplar_bank_near_lead(),
                           skill_bank=SkillBank())
        state2 = env2.reset(parse(LEAD))
        env2.step(state2, "CCCCCC")
        env2.step(state2, "C1CC")
        assert state2.injected.source == "exemplar"

    def test_both_sources_seeded_choice_reproducible(self):
        skills = SkillBank()
        card = build_edit_card(parse("CCCCCCN"), parse("CCCCCCCN"), 0.60, 0.65)
        skills.insert([make_skill_card(card, "act")])

        def run(seed):
            env, _ = make_env(exemplar_bank=exemplar_bank_near_lead(),
                              skill_bank=skills)
            state = env.reset(parse(LEAD), seed=seed)
            env.step(state, "CCCCCC")
            env.step(state, "C1CC")
            assert state.injected is not None
            return state.injected.source

        for seed in range(8):
            assert run(seed) == run(seed)
        assert {run(seed) for seed in range(16)} == {"exemplar", "skill"}

    def test_copy_penalty_uses_injected_set(self):
        env, _ = make_env(exemplar_bank=exemplar_bank_near_lead())
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        env.step(state, "C1CC")
        exemplar = sorted(state.injected.exemplar_canonicals)[0]
        state, result = env.step(state, exemplar)
        assert result.reward == -0.3
        assert state.history[-1].valid is False


def stalled_blocks(env, actions=("CCCCCC", "C1CC", "C1CC")):
    """The injected block after each step of one rollout from the lead."""
    state = env.reset(parse(LEAD))
    blocks = []
    for action in actions:
        env.step(state, action)
        blocks.append(state.injected.block if state.injected else None)
    return blocks


class TestSkillBlocks:
    def skills(self, *pairs):
        bank = SkillBank()
        for before, after, s0, s1 in pairs:
            card = build_edit_card(parse(before), parse(after), s0, s1)
            bank.insert([make_skill_card(card, "act")])
        return bank

    def counted(self, monkeypatch):
        from leadopt import env as env_module

        calls = []
        real = env_module.retrieve_skills

        def counted(bank, current, *args, **kwargs):
            calls.append(current.canonical)
            return real(bank, current, *args, **kwargs)

        monkeypatch.setattr(env_module, "retrieve_skills", counted)
        return calls

    def test_retrieved_once_per_store_and_molecule(self, monkeypatch):
        skills = self.skills(("CCCCCCN", "CCCCCCCN", 0.60, 0.65))
        calls = self.counted(monkeypatch)
        env, _ = make_env(skill_bank=skills)
        # "CCCCCC" is evaluated and becomes the current molecule, then two
        # invalid steps inject at it; a second rollout meets it again
        first = stalled_blocks(env)
        assert stalled_blocks(env) == first
        assert first[0] is None and first[1] is not None and first[1] == first[2]
        assert calls == ["CCCCCC"]
        # the blocks a fresh env retrieves anew
        monkeypatch.undo()
        assert stalled_blocks(make_env(skill_bank=skills)[0]) == first

    def test_an_insert_starts_afresh(self, monkeypatch):
        skills = self.skills(("CCCCCCN", "CCCCCCCN", 0.60, 0.65))
        calls = self.counted(monkeypatch)
        env, _ = make_env(skill_bank=skills)
        before = stalled_blocks(env)
        store = skills.store("act")
        skills.insert([make_skill_card(
            build_edit_card(parse("CCCCCC"), parse("CCCCCCO"), 0.30, 0.50), "act")])
        assert skills.store("act") is not store
        after = stalled_blocks(env)
        assert calls == ["CCCCCC", "CCCCCC"]
        assert after != before
        monkeypatch.undo()
        assert stalled_blocks(make_env(skill_bank=skills)[0]) == after

    def test_store_is_the_same_until_an_insert(self):
        skills = SkillBank()
        empty = skills.store("act")
        assert skills.store("act") is empty and skills.store("other") is empty
        card = build_edit_card(parse("CCCCCCN"), parse("CCCCCCCN"), 0.60, 0.65)
        skills.insert([make_skill_card(card, "act")])
        store = skills.store("act")
        assert store is not empty and skills.store("act") is store
        assert skills.store("other") is empty
        skills.insert([])
        assert skills.store("act") is store


class TestObservation:
    def test_fresh_state_prompt_only(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        obs = env.observation(state)
        assert "expert medicinal chemist" in obs
        assert f"<SMILES> {parse(LEAD).canonical} </SMILES>" in obs
        assert "at least 0.4" in obs
        assert "turn" not in obs

    def test_history_lines(self):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCCN")
        env.step(state, "bad((")
        obs = env.observation(state)
        assert "turn 1: SMILES=CCCCCCN reward=0.5000 score=0.6000" in obs
        assert "turn 2: SMILES=bad(( reward=-0.5000 score=NA" in obs

    def test_injected_block_appended_verbatim(self):
        env, _ = make_env(exemplar_bank=exemplar_bank_near_lead())
        state = env.reset(parse(LEAD))
        env.step(state, "CCCCCC")
        env.step(state, "C1CC")
        obs = env.observation(state)
        assert state.injected.block in obs
        assert obs.endswith(state.injected.block)

    def test_property_description_from_objective(self):
        env, _ = make_env()
        obs = env.observation(env.reset(parse(LEAD)))
        assert "Requested modifications: increase act" in obs


class TestTrajectoryLog:
    def test_round_trip(self, tmp_path):
        env, _ = make_env()
        state = env.reset(parse(LEAD))
        for action in ["CCCCCC", "bad((", "CCCCCCF"]:
            state, result = env.step(state, action)
            if result.done:
                break
        trajectory = env.to_trajectory(state)
        path = write_trajectories([trajectory], tmp_path / "t.jsonl")
        back = read_trajectories(path)
        assert len(back) == 1
        assert back[0].lead == trajectory.lead
        assert back[0].lead_score == trajectory.lead_score
        assert [s.action for s in back[0].steps] == [
            s.action for s in trajectory.steps
        ]
        assert [s.score for s in back[0].steps] == [
            s.score for s in trajectory.steps
        ]

    def test_rewrite_replaces_the_file(self, tmp_path):
        env, _ = make_env()
        state, _ = env.step(env.reset(parse(LEAD)), "CCCCCC")
        trajectory = env.to_trajectory(state)
        path = tmp_path / "t.jsonl"
        write_trajectories([trajectory, trajectory], path)
        write_trajectories([trajectory], path)
        assert len(read_trajectories(path)) == 1
        assert path.read_text().count("\n") == 1
        write_trajectories([], path)
        assert path.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


from hypothesis import given, settings, strategies as st

from conftest import ANY_TEXT

# proposals that reach each branch, then any text
PROPOSALS = st.one_of(st.sampled_from([
    "C1CC", "((", "", "CCCCCCO", "OCCCCCC", "CCCC", "c1ccccc1",
    "CCCCCCN", "CCCCCC", "CCCCCCCO", "CC(C)O", "CCO", "CCCCCCF",
    "OCCCCCCO", "CCCCCCS", "not smiles", "CCCCCCOC",
]), ANY_TEXT)


class TestRewardProperties:
    # whatever a policy sends lands in exactly one branch and raises nothing
    @given(PROPOSALS)
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_branch_and_precedence(self, proposal):
        obj = objective()
        lead = parse(LEAD)
        ledger = BudgetLedger(1000)
        ledger.evaluate(lead, obj)
        injected = frozenset({parse("CCCCCCF").canonical})
        outcome = reward_outcome(lead, proposal, lead, obj, 0.4,
                                 injected, ledger)
        # independent branch classification, in precedence order
        from leadopt.molgraph import SmilesError
        try:
            cand = parse(proposal)
        except SmilesError:
            cand = None
        if cand is None:
            expected = "invalid"
        elif cand.canonical == lead.canonical:
            expected = "no_op"
        elif cand.canonical in injected:
            expected = "copy"
        elif tanimoto(morgan_fp(lead), morgan_fp(cand)) < 0.4:
            expected = "similarity"
        else:
            expected = "evaluated"
        assert outcome.branch == expected

    @given(PROPOSALS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_branch_when_every_search_trips(self, proposal, spare):
        # with no leaf to spend, every proposal whose refined ranks tie trips
        # its canonical search, and a trip is an invalid proposal. With no
        # spare unit, the oracle branch raises budget exhaustion, and
        # nothing else may raise. The budget is patched here, since
        # hypothesis rejects function-scoped fixtures.
        from unittest import mock

        from leadopt import molgraph
        from leadopt.molgraph import SmilesError
        from leadopt.oracles import BudgetExhaustedError

        obj = objective()
        lead = parse(LEAD)
        ledger = BudgetLedger(1 + spare)
        ledger.evaluate(lead, obj)
        injected = frozenset({parse("CCCCCCF").canonical})
        with mock.patch.object(molgraph, "_MAX_CANON_LEAVES", 0):
            molgraph.forget_memos()  # no text comes back named from a cache
            try:
                try:
                    branch = reward_outcome(lead, proposal, lead, obj, 0.4,
                                            injected, ledger).branch
                except BudgetExhaustedError:
                    branch = "exhausted"
                try:
                    cand = parse(proposal)
                    cand.canonical
                except SmilesError:
                    cand = None
            finally:
                molgraph.forget_memos()
        if cand is None:
            expected = "invalid"
        elif cand.canonical == lead.canonical:
            expected = "no_op"
        elif cand.canonical in injected:
            expected = "copy"
        elif tanimoto(morgan_fp(lead), morgan_fp(cand)) < 0.4:
            expected = "similarity"
        else:
            expected = "evaluated" if spare else "exhausted"
        assert branch == expected

    @given(st.sampled_from(["CCCC", "c1ccccc1", "CC(C)O", "CCO", "CCCCCCOC",
                            "CCCN", "CO", "C", "CCCCOC"]))
    @settings(max_examples=40, deadline=None)
    def test_similarity_branch_reward_range(self, proposal):
        # branch-4 rewards lie in [-2*gamma, 0)
        gamma = 0.4
        obj = objective()
        lead = parse(LEAD)
        ledger = BudgetLedger(1000)
        ledger.evaluate(lead, obj)
        outcome = reward_outcome(lead, proposal, lead, obj, gamma,
                                 frozenset(), ledger)
        if outcome.branch == "similarity":
            assert -2 * gamma <= outcome.reward < 0


class TestConcurrentRollouts:
    def test_shared_ledger_across_threads(self):
        # independent states, one atomic ledger, read-only banks: total
        # consumption is exact and never exceeds the budget
        import threading

        env, ledger = make_env(budget=30)
        lead = parse(LEAD)
        env.reset(lead)  # lead evaluation (1 unit)
        proposals = ["CCCCCCN", "CCCCCC", "CCCCCCF", "CCCCCO", "CCCCCCCN",
                     "CCCCCCS"]
        errors = []

        def rollout(seed):
            try:
                state = env.reset(lead, seed=seed)
                rng = __import__("random").Random(seed)
                while not state.done:
                    state, _ = env.step(state, rng.choice(proposals))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=rollout, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert ledger.consumed <= 30
        # every scripted proposal is cacheable: at most 1 unit per distinct
        # molecule plus the lead
        assert ledger.consumed <= len(proposals) + 1
