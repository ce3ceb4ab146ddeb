import json
import math
import random
from contextlib import closing

import pytest

from leadopt.chemfeat import morgan_fp, tanimoto
from leadopt.exembank import build_bank
from leadopt.harness import (
    EvalReport,
    LeadResult,
    PolicyView,
    SearchConfig,
    aggregate_records,
    get_policy,
    metrics,
    optimize_lead,
    policy_random_edit,
    policy_retrieval_greedy,
    policy_wire,
    relative_improvement,
    report_to_json,
    report_to_tsv,
    temperature,
)
from leadopt import molgraph
from leadopt.harness import _random_edits
from leadopt.molgraph import (
    EDIT_OPERATORS,
    CanonicalizationBudgetError,
    NoApplicableSiteError,
    SmilesError,
    ValenceError,
    _edit,
    mutate,
    parse,
)
from leadopt.oracles import Objective, ObjectiveTerm, Oracle, SuccessCriterion

from conftest import CORPUS

LEAD = "CCCCCCO"

SCORES = {
    "CCCCCCO": 0.50,
    "CCCCCCN": 0.60,
    "CCCCCC": 0.30,
    "CCCCCCCO": 0.95,
    "CCCCCCF": 0.70,
    "CCCCCO": 0.55,
}


def scripted_objective(threshold=0.9, gamma=0.4, direction=1, name="act"):
    canon = {parse(s).canonical: v for s, v in SCORES.items()}
    oracle = Oracle(
        name, lambda m: canon.get(m.canonical, 0.0), direction, kind="table"
    )
    comparator = "ge" if direction == 1 else "le"
    return Objective(
        name=name,
        terms=(
            ObjectiveTerm(
                oracle, 1.0, SuccessCriterion("absolute", comparator, threshold)
            ),
        ),
        gamma=gamma,
    )


def make_result(lead, best, success, sim, lead_values, best_values, calls=10):
    return LeadResult(
        lead=lead, best=best, success=success, sim=sim,
        lead_values=lead_values, best_values=best_values,
        calls_used=calls, incumbent_score=0.0,
    )


class TestTemperature:
    def test_schedule_values(self):
        cfg = SearchConfig()
        assert temperature(0, cfg) == 0.9
        assert temperature(5, cfg) == pytest.approx(1.4)
        assert temperature(11, cfg) == 2.0
        assert temperature(19, cfg) == 2.0

    def test_monotone_nondecreasing(self):
        cfg = SearchConfig()
        values = [temperature(g, cfg) for g in range(25)]
        assert values == sorted(values)
        assert max(values) == cfg.temp_max

    def test_invalid_generation(self):
        with pytest.raises(ValueError):
            temperature(-1, SearchConfig())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["temp0", "temp_step", "temp_max", "harvest_delta"])
    def test_non_finite_temperatures_are_rejected(self, field, value):
        # a NaN passes `temp0 > temp_max`, an infinite step makes generation
        # 0's temperature NaN, and a NaN harvest delta harvested nothing
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_a_harvest_delta_that_is_not_positive_is_rejected(self, delta):
        # rejected at construction, not by `harvest` after generation 0 spent budget
        with pytest.raises(ValueError, match=f"^harvest_delta must be positive, not {delta}$"):
            SearchConfig(harvest_delta=delta, harvest_skills=True)


class TestMetrics:
    def test_maximize_ri_term(self):
        obj = scripted_objective()
        result = make_result("L", "B", True, 0.5, {"act": 0.5}, {"act": 0.6})
        assert relative_improvement(result, obj) == pytest.approx(0.2, abs=1e-12)

    def test_minimize_sa_style_ri_term(self):
        obj = scripted_objective(threshold=-2.5, direction=-1, name="sa")
        result = make_result("L", "B", True, 0.5, {"sa": -3.0}, {"sa": -4.0})
        assert relative_improvement(result, obj) == pytest.approx(1 / 3, abs=1e-12)

    def test_failure_contributes_zero_ri_and_unit_sim(self):
        obj = scripted_objective()
        ok = make_result("L1", "B", True, 0.5, {"act": 0.5}, {"act": 0.6})
        fail = make_result("L2", "L2", False, 1.0, {"act": 0.5}, {"act": 0.5})
        report = metrics([ok, fail], obj)
        assert report.sr == 0.5
        assert report.sim == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)
        assert report.ri == pytest.approx(
            relative_improvement(ok, obj) / 2, abs=1e-12
        )

    def test_no_successes_conventions(self):
        obj = scripted_objective()
        fails = [
            make_result(f"L{i}", f"L{i}", False, 1.0, {"act": 0.4}, {"act": 0.4})
            for i in range(4)
        ]
        report = metrics(fails, obj)
        assert report.sr == 0.0
        assert report.sim == 1.0
        assert report.ri == 0.0

    def test_zero_denominator_skipped(self):
        obj = scripted_objective()
        result = make_result("L", "B", True, 0.6, {"act": 0.0}, {"act": 0.5})
        assert relative_improvement(result, obj) == 0.0

    def test_aggregates_match_records(self):
        obj = scripted_objective()
        results = [
            make_result("L1", "B1", True, 0.42, {"act": 0.5}, {"act": 0.9}),
            make_result("L2", "L2", False, 1.0, {"act": 0.5}, {"act": 0.5}),
            make_result("L3", "B3", True, 0.77, {"act": 0.4}, {"act": 0.6}),
        ]
        report = metrics(results, obj)
        assert report.sr == sum(r["success"] for r in report.records) / 3
        assert report.sim == pytest.approx(
            sum(r["sim"] for r in report.records) / 3, abs=1e-15
        )
        assert report.ri == pytest.approx(
            sum(r["ri"] for r in report.records) / 3, abs=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], scripted_objective())
        with pytest.raises(ValueError, match="no leads"):
            aggregate_records([])

    def test_report_aggregates_are_the_records_means(self):
        obj = scripted_objective()
        results = [
            make_result("L1", "B1", True, 0.42, {"act": 0.5}, {"act": 0.9}),
            make_result("L2", "L2", False, 0.8, {"act": 0.5}, {"act": 0.5}),
            make_result("L3", "B3", True, 0.61, {"act": 0.4}, {"act": 0.95}),
        ]
        report = metrics(results, obj)
        assert aggregate_records(report.records) == report.aggregates()


class TestPolicies:
    def view(self, injected=None):
        mol = parse(LEAD)
        return PolicyView(
            lead=mol,
            current=mol,
            injected_source="exemplar" if injected else None,
            injected_exemplars=tuple(injected or ()),
            turn=0,
        )

    def test_random_edit_deterministic(self):
        a = policy_random_edit("", self.view(), 0.9, random.Random(3))
        b = policy_random_edit("", self.view(), 0.9, random.Random(3))
        assert a == b

    def test_random_edit_count_follows_temperature(self):
        # ceil(0.9) = 1 edit, ceil(2.0) = 2 edits: replay the rng to verify
        for temp, count in [(0.9, 1), (1.2, 2), (2.0, 2)]:
            got = policy_random_edit("", self.view(), temp, random.Random(11))
            want = _random_edits(parse(LEAD), count, random.Random(11)).canonical
            assert got == want

    def test_greedy_without_injection_falls_back(self):
        got = policy_retrieval_greedy("", self.view(), 0.9, random.Random(5))
        want = policy_random_edit("", self.view(), 0.9, random.Random(5))
        assert got == want

    def test_greedy_never_returns_exemplar_verbatim(self):
        exemplar = parse("CCCCCCN").canonical
        for seed in range(25):
            out = policy_retrieval_greedy(
                "", self.view([exemplar]), 0.9, random.Random(seed)
            )
            assert out != exemplar

    def test_canonicalization_budget_trips_are_failed_edits(self, no_canon_leaves):
        lead = parse(LEAD)
        tripped = 0
        for seed in range(20):
            for op in EDIT_OPERATORS:
                try:
                    mutate(lead, op, seed)
                except CanonicalizationBudgetError:
                    tripped += 1
                except (NoApplicableSiteError, ValenceError):
                    pass
        assert tripped > 0
        exemplar = parse("CCCCCCN").canonical
        for seed in range(20):
            out = policy_random_edit("", self.view(), 2.0, random.Random(seed))
            assert parse(out)
            out = policy_retrieval_greedy(
                "", self.view([exemplar]), 0.9, random.Random(seed)
            )
            assert parse(out)

    def test_greedy_tracks_lead(self):
        exemplar = parse("CCCCCCN").canonical
        out = policy_retrieval_greedy(
            "", self.view([exemplar]), 0.9, random.Random(1)
        )
        # proposal derives from the exemplar but moves toward the lead
        sim = tanimoto(morgan_fp(parse(LEAD)), morgan_fp(parse(out)))
        assert sim > 0.0

    def test_wire_policy_round_trip(self, tmp_path):
        stub = tmp_path / "policy.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('OK CCCCCCN\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with closing(policy_wire(f"proc:python3 {stub}")) as policy:
            out = policy("obs", self.view(), 0.9, random.Random(0))
        assert out == "CCCCCCN"

    def test_wire_policy_malformed_reply_is_invalid(self, tmp_path):
        stub = tmp_path / "policy.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('WHAT\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with closing(policy_wire(f"proc:python3 {stub}")) as policy:
            assert policy("obs", self.view(), 0.9, random.Random(0)) == ""

    def test_wire_policy_undecodable_reply_is_invalid(self, tmp_path):
        stub = tmp_path / "policy.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'OK C\\xff\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with closing(policy_wire(f"proc:python3 {stub}")) as policy:
            assert policy("obs", self.view(), 0.9, random.Random(0)) == ""

    def test_wire_policy_reopens_after_a_timeout(self, tmp_path):
        # the first child stalls past the timeout on its first request, so
        # that connection is retired; the next proposals reach a fresh child
        stub = tmp_path / "policy.py"
        marker = tmp_path / "stalled"
        stub.write_text(
            "import os, sys, time\n"
            "for line in sys.stdin:\n"
            f"    if not os.path.exists({str(marker)!r}):\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        time.sleep(0.6)\n"
            "    sys.stdout.write('OK CCO\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with closing(policy_wire(f"proc:python3 {stub}", timeout=0.2)) as policy:
            out = [policy("obs", self.view(), 0.9, random.Random(0)) for _ in range(4)]
        assert out == ["", "CCO", "CCO", "CCO"]

    def test_wire_policy_unreachable_is_invalid(self):
        policy = policy_wire("tcp:127.0.0.1:1", timeout=0.2)
        assert policy("obs", self.view(), 0.9, random.Random(0)) == ""

    def test_get_policy_specs(self):
        assert get_policy("random") is policy_random_edit
        assert get_policy("greedy") is policy_retrieval_greedy
        assert callable(get_policy("wire:tcp:127.0.0.1:1"))
        with pytest.raises(ValueError):
            get_policy("alphafold")

    @pytest.mark.parametrize("endpoint", [
        "foo", "foo:bar", "tcp:127.0.0.1", "tcp::80", "tcp:host:port", "proc:",
        "proc:  ", "proc:python3 'unclosed",
    ])
    def test_wire_policy_rejects_a_malformed_endpoint_when_made(self, endpoint):
        with pytest.raises(ValueError):
            get_policy(f"wire:{endpoint}")


def eager_greedy(observation, view, temp, rng, trips):
    """Eager reference of the greedy policy: every candidate built by
    `mutate`, no-ops dropped by string, the best by (Tanimoto, string).
    `trips` collects the candidates whose search tripped."""
    if view.injected_source != "exemplar" or not view.injected_exemplars:
        return policy_random_edit(observation, view, temp, rng)
    try:
        base = parse(view.injected_exemplars[0])
        base.canonical
    except SmilesError:
        return policy_random_edit(observation, view, temp, rng)
    lead_fp = morgan_fp(view.lead)
    candidates = []
    for _ in range(8):
        op = rng.choice(EDIT_OPERATORS)
        seed = rng.randrange(1 << 30)
        try:
            cand = mutate(base, op, seed)
        except CanonicalizationBudgetError:
            trips.append(op)
            continue
        except (NoApplicableSiteError, ValenceError):
            continue
        if cand.canonical != base.canonical:
            candidates.append(cand)
    if not candidates:
        return policy_random_edit(observation, view, temp, rng)
    best = max(
        candidates, key=lambda m: (tanimoto(lead_fp, morgan_fp(m)), m.canonical)
    )
    return best.canonical


def corpus_views(count):
    """(view, seed) pairs: corpus exemplars edited toward other corpus leads.
    The molecules are parsed and named here, before any leaf-budget fixture
    runs: the leads first, then the exemplars, so the exemplar strings are
    the latest writes and parse back as named write-order twins."""
    leads = [parse(CORPUS[(7 * i + 3) % len(CORPUS)]) for i in range(count)]
    for lead in leads:
        lead.canonical
    views = []
    for i, lead in enumerate(leads):
        exemplar = parse(CORPUS[i % len(CORPUS)]).canonical
        views.append((PolicyView(lead, lead, "exemplar", (exemplar,), 0), i))
    return views


def count_searches(monkeypatch):
    searches = []
    real = molgraph._canonical_string

    def counted(*args):
        searches.append(args[0])
        return real(*args)

    monkeypatch.setattr(molgraph, "_canonical_string", counted)
    return searches


class TestDeferredPolicies:
    def greedy_matches_eager(self, views):
        trips = []
        for view, seed in views:
            got = policy_retrieval_greedy("", view, 0.9, random.Random(seed))
            want = eager_greedy("", view, 0.9, random.Random(seed), trips)
            assert got == want, (view.injected_exemplars[0], seed)
        return trips

    def test_greedy_equals_eager_reference(self):
        self.greedy_matches_eager(corpus_views(240))

    def test_greedy_equals_eager_reference_when_searches_trip(self, request):
        views = corpus_views(240)
        request.getfixturevalue("no_canon_leaves")
        # the policy must drop tripped candidates and go on to the next score
        assert self.greedy_matches_eager(views)

    def test_random_edit_never_raises_when_searches_trip(self, request, monkeypatch):
        views = corpus_views(240)
        request.getfixturevalue("no_canon_leaves")
        outs, trapped = [], 0
        for view, seed in views:
            for temp in (2.0, 3.0):
                outs.append(policy_random_edit("", view, temp, random.Random(seed)))
                chain = _random_edits(view.current, int(temp), random.Random(seed))
                try:
                    chain.canonical
                except CanonicalizationBudgetError:
                    # the last edit failed, and the chain ends on an
                    # intermediate whose search trips
                    trapped += 1
                    assert outs[-1] == view.current.canonical
        assert trapped
        monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 20_000)
        for out in outs:
            assert parse(out).canonical == out

    def test_edit_runs_no_search(self, monkeypatch):
        parent = parse(CORPUS[0])
        searches = count_searches(monkeypatch)
        children = []
        for op in EDIT_OPERATORS:
            for seed in range(5):
                try:
                    children.append(_edit(parent, op, seed))
                except NoApplicableSiteError:
                    pass
        assert children and searches == []
        # the first read searches, later reads return the stored string
        name = children[0].canonical
        assert children[0].canonical is name and searches == [children[0]]

    def test_greedy_names_one_candidate(self, monkeypatch):
        # a unique best candidate whose fingerprint differs from the
        # exemplar's is proposed with a single canonical search. The base is
        # named before the counted window (the policy's parse of the same
        # text returns this molecule), so the count holds only searches on
        # candidates, however long ago the exemplar string was written
        checked = 0
        for view, seed in corpus_views(40):
            base = parse(view.injected_exemplars[0])
            base.canonical
            lead_fp, base_fp = morgan_fp(view.lead), morgan_fp(base)
            rng = random.Random(seed)
            scored = []
            for _ in range(8):
                op = rng.choice(EDIT_OPERATORS)
                try:
                    cand = _edit(base, op, rng.randrange(1 << 30))
                except NoApplicableSiteError:
                    continue
                scored.append((tanimoto(lead_fp, morgan_fp(cand)), cand))
            best = max(score for score, _ in scored)
            top = [cand for score, cand in scored if score == best]
            if len(top) != 1 or morgan_fp(top[0]) == base_fp:
                continue
            with monkeypatch.context() as patch:
                searches = count_searches(patch)
                out = policy_retrieval_greedy("", view, 0.9, random.Random(seed))
            assert len(searches) == 1 and out == top[0].canonical
            checked += 1
        assert checked >= 10


class TestOptimizeLead:
    def test_budget_one_lead_only(self):
        obj = scripted_objective(threshold=0.4)  # the lead itself passes
        cfg = SearchConfig(generations=2, rollouts_per_gen=2, budget=1, seed=7)
        result, trajectories = optimize_lead(
            parse(LEAD), cfg, get_policy("random"), obj
        )
        assert result.calls_used == 1
        assert result.success  # lead meets the criterion
        assert result.best == parse(LEAD).canonical

    def test_budget_one_lead_failing_criterion(self):
        obj = scripted_objective(threshold=0.9)
        cfg = SearchConfig(generations=2, rollouts_per_gen=2, budget=1, seed=7)
        result, _ = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert not result.success
        assert result.best == parse(LEAD).canonical
        assert result.sim == 1.0

    def test_budget_ceiling_respected(self):
        obj = scripted_objective(threshold=2.0)  # unreachable
        cfg = SearchConfig(generations=3, rollouts_per_gen=4, budget=20,
                           max_turns=3, seed=3)
        result, _ = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert result.calls_used <= 20

    def test_deterministic_given_seed(self):
        obj = scripted_objective(threshold=2.0)
        cfg = SearchConfig(generations=2, rollouts_per_gen=3, budget=30,
                           max_turns=3, seed=11)
        r1, t1 = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        r2, t2 = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert r1 == r2
        assert [[s.action for s in t.steps] for t in t1] == [
            [s.action for s in t.steps] for t in t2
        ]

    def test_incumbent_not_worse_than_lead(self):
        obj = scripted_objective(threshold=2.0)
        cfg = SearchConfig(generations=2, rollouts_per_gen=3, budget=30,
                           max_turns=3, seed=5)
        result, _ = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert result.incumbent_score >= 0.5

    def test_memory_enables_greedy_success(self):
        obj = scripted_objective(threshold=0.9)
        bank = build_bank([f"CCCCCCF\tact={SCORES['CCCCCCF']}",
                           f"CCCCCCN\tact={SCORES['CCCCCCN']}"])
        cfg = SearchConfig(generations=4, rollouts_per_gen=4, budget=200,
                           max_turns=5, seed=2)
        with_memory, _ = optimize_lead(
            parse(LEAD), cfg, get_policy("greedy"), obj, exemplar_bank=bank
        )
        assert with_memory.calls_used <= 200

    def test_trajectory_count_bounded(self):
        obj = scripted_objective(threshold=2.0)
        cfg = SearchConfig(generations=2, rollouts_per_gen=3, budget=500,
                           max_turns=2, seed=1)
        _, trajectories = optimize_lead(
            parse(LEAD), cfg, get_policy("random"), obj
        )
        assert len(trajectories) == 2 * 3
        assert all(len(t.steps) <= 2 for t in trajectories)


class TestInjectionMemo:
    def test_one_retrieval_per_pair_and_the_same_trajectories(self, monkeypatch):
        # rollouts restart from the lead, so injections repeat (current,
        # lead) pairs; each pair is retrieved once, and forgetting every
        # block before each injection changes nothing but the call count
        from leadopt import env as env_module
        from leadopt.env import MolEnv
        from leadopt.oracles import load_objective

        objective = load_objective("qed")
        bank = build_bank(CORPUS[:150], oracles=[t.oracle for t in objective.terms])
        cfg = SearchConfig(generations=3, rollouts_per_gen=8, budget=60,
                           seed=7, harvest_skills=True)
        calls = []
        real_retrieve = env_module.retrieve_exemplars

        def spy(bank, current, lead, *args, **kwargs):
            calls.append((current.canonical, lead.canonical))
            return real_retrieve(bank, current, lead, *args, **kwargs)

        monkeypatch.setattr(env_module, "retrieve_exemplars", spy)

        def search():
            calls.clear()
            result, trajectories = optimize_lead(
                parse(CORPUS[1]), cfg, get_policy("greedy"), objective,
                exemplar_bank=bank,
            )
            return result, trajectories, list(calls)

        result, trajectories, remembered = search()
        assert remembered and len(remembered) == len(set(remembered))
        assert any(step.injected_source == "exemplar"
                   for t in trajectories for step in t.steps)

        real_inject = MolEnv.maybe_inject_memory

        def forgetful(self, state):
            self._exemplar_blocks.clear()
            real_inject(self, state)

        monkeypatch.setattr(MolEnv, "maybe_inject_memory", forgetful)
        forgot_result, forgot_trajectories, forgot = search()
        assert (forgot_result, forgot_trajectories) == (result, trajectories)
        assert set(forgot) == set(remembered) and len(forgot) > len(remembered)


class TestReports:
    def test_json_deterministic(self):
        obj = scripted_objective()
        results = [
            make_result("L1", "B1", True, 0.42, {"act": 0.5}, {"act": 0.9}),
            make_result("L2", "L2", False, 1.0, {"act": 0.5}, {"act": 0.5}),
        ]
        a = report_to_json(metrics(results, obj))
        b = report_to_json(metrics(results, obj))
        assert a == b
        payload = json.loads(a)
        assert payload["aggregates"]["SR"] == 0.5

    def test_tsv_shape(self):
        obj = scripted_objective()
        results = [
            make_result("L1", "B1", True, 0.42, {"act": 0.5}, {"act": 0.9}),
            make_result("L2", "L2", False, 1.0, {"act": 0.5}, {"act": 0.5}),
        ]
        tsv = report_to_tsv(metrics(results, obj))
        lines = tsv.strip().splitlines()
        assert lines[0] == "task\tSR(%)\tSim\tRI"
        assert lines[1].startswith("act\t50.0\t")


class TestWarmStart:
    def test_warm_start_rollouts_begin_at_incumbent(self):
        obj = scripted_objective(threshold=2.0)  # never succeeds
        cfg = SearchConfig(generations=2, rollouts_per_gen=2, budget=50,
                           max_turns=2, seed=13, warm_start_incumbent=True)
        result, trajectories = optimize_lead(
            parse(LEAD), cfg, get_policy("random"), obj
        )
        assert result.calls_used <= 50
        # similarity is still anchored on the original lead
        assert result.lead == parse(LEAD).canonical

    def test_per_term_budget_unit(self):
        obj = scripted_objective(threshold=2.0)
        cfg = SearchConfig(generations=1, rollouts_per_gen=1, budget=9,
                           max_turns=2, seed=1, budget_unit="per_term")
        result, _ = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert result.calls_used <= 9


class TestHarvestDuringSearch:
    def test_harvest_flag_fills_skill_bank(self):
        from leadopt.skillbank import SkillBank

        obj = scripted_objective(threshold=2.0)  # never succeeds, keeps going
        bank = SkillBank()
        cfg = SearchConfig(generations=3, rollouts_per_gen=4, budget=60,
                           max_turns=4, seed=23, harvest_skills=True,
                           harvest_delta=0.01)
        optimize_lead(parse(LEAD), cfg, get_policy("random"), obj,
                      skill_bank=bank)
        # improving random edits exist in the scripted table, so at least
        # one transition should have been distilled
        assert bank.size("act") >= 1
        for skill in bank.cards("act"):
            assert skill.delta_r > 0.01
            assert skill.text.endswith(".")

    def test_harvest_without_bank_uses_internal_one(self):
        obj = scripted_objective(threshold=2.0)
        cfg = SearchConfig(generations=2, rollouts_per_gen=2, budget=30,
                           max_turns=3, seed=5, harvest_skills=True)
        result, _ = optimize_lead(parse(LEAD), cfg, get_policy("random"), obj)
        assert result.calls_used <= 30


class TestCrossLeadSkillReuse:
    def test_skills_harvested_on_one_lead_inject_on_another(self):
        from leadopt.env import EnvConfig, MolEnv
        from leadopt.oracles import BudgetLedger
        from leadopt.skillbank import SkillBank

        obj = scripted_objective(threshold=2.0)  # success unreachable
        bank = SkillBank()
        cfg = SearchConfig(generations=3, rollouts_per_gen=6, budget=80,
                           max_turns=4, seed=41, harvest_skills=True,
                           harvest_delta=0.01)
        optimize_lead(parse(LEAD), cfg, get_policy("random"), obj,
                      skill_bank=bank)
        assert bank.size("act") >= 1

        # a structurally close second lead sees those skills after stalling
        second = parse("CCCCCCCO")
        env = MolEnv(
            EnvConfig(objective=obj, max_turns=5, plateau_patience=2,
                      gamma_fp=0.3, gamma_fg=0.0),
            BudgetLedger(50), None, bank,
        )
        state = env.reset(second)
        env.step(state, "CCCCCC")   # worse: stall 1
        env.step(state, "bad((")    # invalid: stall 2
        assert state.injected is not None
        assert state.injected.source == "skill"
        assert state.injected.block.startswith(
            "=== Potential Useful Strategies for act ==="
        )
        obs = env.observation(state)
        assert state.injected.block in obs
