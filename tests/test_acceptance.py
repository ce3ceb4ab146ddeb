"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass line with the measured quantities (run with `-s` to see
them live; pytest echoes them on failure regardless).

Run: pytest tests/test_acceptance.py -v -s
"""

import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from leadopt.chemfeat import (
    Fingerprint,
    FunctionalGroupSet,
    detect_functional_groups,
    jaccard,
    morgan_fp,
    tanimoto,
)
from leadopt.credit import AdvantageInput, gae, ppo_clip_term
from leadopt.env import EnvConfig, MolEnv, reward_outcome
from leadopt.exembank import (
    ExemplarBank,
    ExemplarRecord,
    build_bank,
    candidate_recall,
    render_exemplar_block,
    retrieve_exemplars,
)
from leadopt.harness import (
    SearchConfig,
    get_policy,
    metrics,
    optimize_lead,
    relative_improvement,
    temperature,
)
from leadopt.harness import LeadResult
from leadopt.molgraph import parse
from leadopt.oracles import (
    BudgetLedger,
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
)
from leadopt.skillbank import (
    SkillBank,
    build_edit_card,
    make_skill_card,
    render_skill_block,
    retrieve_skills,
)
from leadopt.skillbank import EditCard, SkillCard
from leadopt.chemfeat import DescriptorDelta

from conftest import CORPUS, brute_tanimoto, near_positions, relabel, scatter

GOLDEN = Path(__file__).parent / "golden"


def table_objective(scores, threshold=0.9, gamma=0.4, direction=1, name="act",
                    default=0.0, mode="absolute"):
    canon = {parse(s).canonical: v for s, v in scores.items()}
    oracle = Oracle(
        name, lambda m: canon.get(m.canonical, default), direction, kind="table"
    )
    comparator = "ge" if direction == 1 else "le"
    return Objective(
        name=name,
        terms=(
            ObjectiveTerm(oracle, 1.0, SuccessCriterion(mode, comparator, threshold)),
        ),
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# 1. Reward table exactness
# ---------------------------------------------------------------------------


def test_criterion_01_reward_table_exactness():
    started = time.perf_counter()
    scores = {
        "CCCCCCO": 0.50, "CCCCCCN": 0.60, "CCCCCC": 0.30, "CCCCCCCO": 0.95,
        "OCCCCCCO": 0.50, "CCCCCCF": 0.70, "CCCCCCS": 0.40, "CCCCCO": 0.55,
        "CCCCCCCN": 0.65, "CCCCCCCC": 0.20,
    }
    obj = table_objective(scores)
    lead = parse("CCCCCCO")
    ledger = BudgetLedger(1000)
    ledger.evaluate(lead, obj)
    gamma = 0.4

    def sim_to_lead(smiles):
        return tanimoto(morgan_fp(lead), morgan_fp(parse(smiles)))

    injected = frozenset({parse("CCCCCCF").canonical})
    # (proposal, injected set, copy penalty, expected reward)
    cases = [
        # branch 1: unparseable
        ("C1CC", frozenset(), -0.3, -0.5),
        ("((((", frozenset(), -0.3, -0.5),
        ("", frozenset(), -0.3, -0.5),
        ("C[Xx]C", frozenset(), -0.3, -0.5),
        ("CC.O", frozenset(), -0.3, -0.5),
        # branch 2: no-op in any input spelling
        ("CCCCCCO", frozenset(), -0.3, -0.3),
        ("OCCCCCC", frozenset(), -0.3, -0.3),
        ("C(CCCCC)O" if True else "", frozenset(), -0.3, -0.3),
        # branch 3: exact copy of an injected exemplar
        ("CCCCCCF", injected, -0.3, -0.3),
        ("FCCCCCC", injected, -0.3, -0.3),
        ("CCCCCCF", injected, -0.7, -0.7),
        # branch 4: similarity shortfall, -2 * (gamma - sim)
        ("CCCC", frozenset(), -0.3, -2 * (gamma - sim_to_lead("CCCC"))),
        ("c1ccccc1", frozenset(), -0.3, -2 * (gamma - sim_to_lead("c1ccccc1"))),
        ("CCCCCCOC", frozenset(), -0.3, -2 * (gamma - sim_to_lead("CCCCCCOC"))),
        ("CC(C)O", frozenset(), -0.3, -2 * (gamma - sim_to_lead("CC(C)O"))),
        ("CCO", frozenset(), -0.3, -2 * (gamma - sim_to_lead("CCO"))),
        # branch 5: improvement -> 5 * delta
        ("CCCCCCN", frozenset(), -0.3, 5 * (0.60 - 0.50)),
        ("CCCCCCCO", frozenset(), -0.3, 5 * (0.95 - 0.50)),
        ("CCCCCCF", frozenset(), -0.3, 5 * (0.70 - 0.50)),
        ("CCCCCO", frozenset(), -0.3, 5 * (0.55 - 0.50)),
        # branch 5: degradation -> -|delta|
        ("CCCCCC", frozenset(), -0.3, -abs(0.30 - 0.50)),
        ("CCCCCCCC", frozenset(), -0.3, -abs(0.20 - 0.50)),
        ("CCCCCCS", frozenset(), -0.3, -abs(0.40 - 0.50)),
        # branch 5: zero delta
        ("OCCCCCCO", frozenset(), -0.3, 0.0),
    ]
    assert len(cases) >= 20
    for proposal, inj, penalty, expected in cases:
        got = reward_outcome(lead, proposal, lead, obj, gamma, inj, ledger, penalty).reward
        assert got == expected, (proposal, got, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS ({len(cases)} reward cases exact, {elapsed:.3f}s)")


# ---------------------------------------------------------------------------
# 2. Budget soundness over randomized rollouts
# ---------------------------------------------------------------------------


def test_criterion_02_budget_soundness():
    started = time.perf_counter()
    corpus = [s for s in CORPUS if 6 <= len(parse(s).atoms) <= 14][:25]
    assert len(corpus) == 25
    policy = get_policy("random")
    rng = random.Random(99)
    total_rollouts = 0
    for lead_smiles in corpus:
        lead = parse(lead_smiles)
        scores = {lead_smiles: 0.5}
        obj = table_objective(scores, threshold=2.0)  # unreachable criterion
        # strict accounting: memoization off so every oracle evaluation
        # consumes exactly one unit
        ledger = BudgetLedger(500, cache_enabled=False)
        env = MolEnv(EnvConfig(objective=obj, max_turns=5), ledger)
        evaluations = 0
        lead_evals = 0
        for rollout in range(40):
            before_reset = ledger.consumed
            state = env.reset(lead, seed=rng.randrange(1 << 30))
            lead_evals += ledger.consumed - before_reset
            policy_rng = random.Random(rng.randrange(1 << 30))
            while not state.done:
                obs = ""
                from leadopt.harness import PolicyView
                view = PolicyView(state.lead, state.current, None, (), state.turn)
                action = policy(obs, view, 0.9, policy_rng)
                before = ledger.consumed
                state, result = env.step(state, action)
                delta = ledger.consumed - before
                record = state.history[-1]
                if record.valid:
                    evaluations += 1
                    assert delta == 1  # every branch-5 evaluation pays one unit
                else:
                    assert delta == 0  # invalid / no-op / copy / similarity: free
                assert result.budget_consumed == delta
            total_rollouts += 1
        # each reset re-evaluates the lead (cache disabled): lead units equal
        # the number of rollouts that got a fresh evaluation
        assert ledger.consumed == evaluations + lead_evals
        assert ledger.consumed <= 500
    assert total_rollouts == 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 2: PASS (1000 rollouts, per-lead consumption == "
        f"evaluations + lead evals, <=500; {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 3. Retrieval oracle equivalence (exemplar + skill)
# ---------------------------------------------------------------------------


def _brute_retrieve(records, query_fp, lead_fp, gamma_ex, k, pool_size, agg):
    pool = sorted(
        records, key=lambda r: (-brute_tanimoto(query_fp, r.fp), r.canonical)
    )[:pool_size]
    kept = [r for r in pool if brute_tanimoto(r.fp, lead_fp) >= gamma_ex]
    kept.sort(
        key=lambda r: (-agg(r.props), -brute_tanimoto(r.fp, lead_fp), r.canonical)
    )
    return [r.canonical for r in kept[:k]]


def _synth_skill(idx, delta_r, bits, tags):
    card = EditCard(
        before=f"SYN{idx:05d}A", after=f"SYN{idx:05d}B",
        modification_type="addition", removed_fragment="", added_fragment="F",
        scaffold_before="", scaffold_after="", scaffold_type="unchanged",
        fg_removed=FunctionalGroupSet(frozenset()),
        fg_added=FunctionalGroupSet(frozenset({"halogen"})),
        deltas=DescriptorDelta(0.0, 0, 0, 0, 0.0, 0),
        score_before=0.0, score_after=delta_r,
    )
    return SkillCard(
        text="Add fluorine (-F) to improve the target score.",
        card=card, delta_r=delta_r,
        fp_key=Fingerprint(bits),
        fg_tags=FunctionalGroupSet(frozenset(tags)), task="qed",
    )


def test_criterion_03_retrieval_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1234)
    # each row is a random 128-bit draw over the bits of the bank's query
    # fingerprints and other bits, so similarities spread from 0 upward
    span = 128
    obj = table_objective({"C": 0.0}, threshold=0.9, name="act")
    queries = [parse(s) for s in CORPUS[:40] if len(parse(s).atoms) >= 5][:10]

    for bank_idx in range(50):
        size = rng.randint(50, 2000)
        current = queries[bank_idx % len(queries)]
        lead = queries[(bank_idx + 3) % len(queries)]
        positions = near_positions(morgan_fp(current).bits | morgan_fp(lead).bits, span)
        records = [
            ExemplarRecord(
                f"M{bank_idx:02d}_{i:04d}",
                Fingerprint(scatter(rng.getrandbits(span), positions)),
                {"act": round(rng.random(), 6)},
            )
            for i in range(size)
        ]
        bank = ExemplarBank(records)
        k = rng.randint(1, 6)
        pool = rng.randint(10, 300)
        gamma_ex = rng.choice([0.0, 0.1, 0.2, 0.3])
        got = [
            r.canonical
            for r in retrieve_exemplars(bank, current, lead, obj, k=k,
                                        gamma_ex=gamma_ex, pool_size=pool)
        ]
        want = _brute_retrieve(
            records, morgan_fp(current), morgan_fp(lead), gamma_ex, k, pool,
            obj.aggregate,
        )
        assert got == want, f"bank {bank_idx}: {got} != {want}"

    tag_pool = ["hydroxyl", "amine", "halogen", "amide", "ether", "ketone",
                "nitro", "ester"]
    for bank_idx in range(50):
        size = rng.randint(20, 300)
        current = queries[bank_idx % len(queries)]
        positions = near_positions(morgan_fp(current).bits, span)
        skills = [
            _synth_skill(
                bank_idx * 1000 + i,
                round(rng.random(), 6),
                scatter(rng.getrandbits(span), positions),
                tuple(rng.sample(tag_pool, rng.randint(0, 4))),
            )
            for i in range(size)
        ]
        bank = SkillBank(capacity=10_000)
        bank.insert(skills)
        k_fp, k_fg = rng.randint(1, 4), rng.randint(1, 4)
        g_fp = rng.choice([0.0, 0.1, 0.2])
        g_fg = rng.choice([0.0, 0.25, 0.5])
        got = [s.key for s in retrieve_skills(bank, current, "qed",
                                              k_fp, k_fg, g_fp, g_fg)]
        query_fp = morgan_fp(current)
        query_fg = detect_functional_groups(current)
        fp_chan = [s for s in skills if brute_tanimoto(query_fp, s.fp_key) >= g_fp]
        fp_chan.sort(key=lambda s: (-s.delta_r,
                                    -brute_tanimoto(query_fp, s.fp_key), s.key))
        fg_chan = [s for s in skills if jaccard(query_fg, s.fg_tags) >= g_fg]
        fg_chan.sort(key=lambda s: (-s.delta_r,
                                    -jaccard(query_fg, s.fg_tags), s.key))
        want, seen = [], set()
        for s in fp_chan[:k_fp] + fg_chan[:k_fg]:
            if s.key not in seen:
                seen.add(s.key)
                want.append(s.key)
        assert got == want, f"skill bank {bank_idx}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 3: PASS (50 exemplar + 50 skill banks match brute force; "
        f"{elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 4. Capacity control
# ---------------------------------------------------------------------------


def test_criterion_04_capacity_control():
    rng = random.Random(4)
    deltas = rng.sample(range(1, 100_000), 1500)
    skills = [
        _synth_skill(i, d / 100_000.0, rng.getrandbits(64), ())
        for i, d in enumerate(deltas)
    ]
    bank = SkillBank(capacity=1000)
    report = bank.insert(skills)
    assert bank.size("qed") == 1000
    assert len(report.evicted_keys) == 500
    kept = {s.key for s in bank.cards("qed")}
    expected_kept = {
        s.key for s in sorted(skills, key=lambda s: -s.delta_r)[:1000]
    }
    assert kept == expected_kept  # exactly the 1000 largest deltas
    print("criterion 4: PASS (1500 -> exactly the 1000 largest-delta cards)")


# ---------------------------------------------------------------------------
# 5. Plateau trigger
# ---------------------------------------------------------------------------


def test_criterion_05_plateau_trigger():
    rng = random.Random(55)
    # proposals are distinct chain molecules mapped to scripted scores
    chain = lambda i: "C" * (i + 2) + "N"
    patience = 2

    def run_sequence(scores, seed):
        proposals = [chain(i) for i in range(len(scores))]
        table = {"CCCCCCO": 0.5}
        table.update({proposals[i]: scores[i] for i in range(len(scores))})
        obj = table_objective(table, threshold=10.0, gamma=0.0)
        ledger = BudgetLedger(10_000)
        # the exemplar must stay disjoint from the scripted proposals, or
        # the copy penalty (correctly) masks their evaluation
        exemplar_bank = build_bank(["Oc1ccccc1\tact=0.9"])
        skills = SkillBank()
        card = build_edit_card(parse("CCCCCCN"), parse("CCCCCCCN"), 0.1, 0.9)
        skills.insert([make_skill_card(card, "act")])
        env = MolEnv(
            EnvConfig(objective=obj, max_turns=len(scores) + 1,
                      plateau_patience=patience, seed=seed,
                      gamma_exemplar=0.0, gamma_fp=0.0, gamma_fg=0.0),
            ledger, exemplar_bank, skills,
        )
        state = env.reset(parse("CCCCCCO"), seed=seed)
        injected_flags, sources = [], []
        for proposal in proposals:
            state, _result = env.step(state, proposal)
            if state.done:
                break
            injected_flags.append(state.injected is not None)
            sources.append(state.injected.source if state.injected else None)
        return injected_flags, sources

    for trial in range(60):
        length = rng.randint(3, 8)
        scores = [round(rng.uniform(0, 1), 3) for _ in range(length)]
        flags, _ = run_sequence(scores, seed=trial)
        # independent stagnation oracle over the synthetic score sequence
        best = 0.5
        stall = 0
        expected = []
        for value in scores[: len(flags)]:
            if value > best:
                best = value
                stall = 0
            else:
                stall += 1
            expected.append(stall >= patience)
        assert flags == expected, (scores, flags, expected)

    # fixed seed: source selection reproducible; both sources reachable
    all_sources = set()
    for seed in range(10):
        _, first = run_sequence([0.1, 0.1, 0.1, 0.1, 0.1], seed)
        _, second = run_sequence([0.1, 0.1, 0.1, 0.1, 0.1], seed)
        assert first == second
        all_sources.update(s for s in first if s)
    assert all_sources == {"exemplar", "skill"}
    print("criterion 5: PASS (injection iff 2-turn stagnation; seeded source choice reproducible)")


# ---------------------------------------------------------------------------
# 6. Metrics conventions
# ---------------------------------------------------------------------------


def test_criterion_06_metrics_conventions():
    tol = 1e-12
    obj_max = table_objective({"C": 0.0}, threshold=0.9, name="act")
    obj_sa = table_objective({"C": 0.0}, threshold=-2.5, direction=-1, name="sa")

    def result(lead, best, success, sim, lv, bv):
        return LeadResult(lead=lead, best=best, success=success, sim=sim,
                          lead_values=lv, best_values=bv, calls_used=1,
                          incumbent_score=0.0)

    # the sgn(w) = -1 case: F -3.0 -> -4.0 gives RI +1/3
    sa_case = result("L", "B", True, 0.5, {"sa": -3.0}, {"sa": -4.0})
    assert abs(relative_improvement(sa_case, obj_sa) - (1 / 3)) < tol
    # maximize case: 0.5 -> 0.6 gives +0.2
    up_case = result("L", "B", True, 0.5, {"act": 0.5}, {"act": 0.6})
    assert abs(relative_improvement(up_case, obj_max) - 0.2) < tol

    five = [
        result("L1", "B1", True, 0.50, {"act": 0.5}, {"act": 0.6}),   # +0.2
        result("L2", "B2", True, 0.45, {"act": 0.8}, {"act": 1.0}),   # +0.25
        result("L3", "L3", False, 1.0, {"act": 0.3}, {"act": 0.3}),   # 0
        result("L4", "B4", True, 0.62, {"act": 0.4}, {"act": 0.5}),   # +0.25
        result("L5", "L5", False, 1.0, {"act": 0.7}, {"act": 0.7}),   # 0
    ]
    report = metrics(five, obj_max)
    assert abs(report.sr - 3 / 5) < tol
    assert abs(report.sim - (0.50 + 0.45 + 1.0 + 0.62 + 1.0) / 5) < tol
    assert abs(report.ri - (0.2 + 0.25 + 0.25 + 0.0 + 0.0) / 5) < tol

    # no successes at all: Sim exactly 1.0, RI exactly 0.0
    fails = [result(f"L{i}", f"L{i}", False, 1.0, {"act": 0.5}, {"act": 0.5})
             for i in range(5)]
    report = metrics(fails, obj_max)
    assert report.sim == 1.0 and report.ri == 0.0 and report.sr == 0.0
    print("criterion 6: PASS (SR/Sim/RI conventions exact incl. sgn=-1 at 1e-12)")


# ---------------------------------------------------------------------------
# 7. GAE / clipped-term numerics
# ---------------------------------------------------------------------------


def test_criterion_07_gae_ppo_numerics():
    rng = random.Random(777)
    for _ in range(1000):
        horizon = 20
        rewards = [rng.uniform(-2, 2) for _ in range(horizon)]
        values = [rng.uniform(-2, 2) for _ in range(horizon + 1)]
        gamma, lam = rng.random(), rng.random()
        got = gae(AdvantageInput(tuple(rewards), tuple(values), gamma, lam))
        deltas = [rewards[t] + gamma * values[t + 1] - values[t]
                  for t in range(horizon)]
        for t in range(horizon):
            forward = sum(
                (gamma * lam) ** k * deltas[t + k] for k in range(horizon - t)
            )
            assert abs(got[t] - forward) < 1e-12

    # lambda = 0 reduces exactly to one-step TD errors
    rewards = [rng.uniform(-1, 1) for _ in range(12)]
    values = [rng.uniform(-1, 1) for _ in range(13)]
    adv = gae(AdvantageInput(tuple(rewards), tuple(values), 0.97, 0.0))
    assert adv.tolist() == [
        rewards[t] + 0.97 * values[t + 1] - values[t] for t in range(12)
    ]
    # lambda = 1, gamma = 1, zero values: reward-to-go sums
    rewards = [1.0, 2.0, -3.0, 0.5]
    adv = gae(AdvantageInput(tuple(rewards), (0.0,) * 5, 1.0, 1.0))
    assert adv.tolist() == [0.5, -0.5, -2.5, 0.5]

    for _ in range(500):
        ratio = rng.uniform(0.05, 5.0)
        advantage = rng.uniform(-3, 3)
        epsilon = rng.uniform(0.05, 0.5)
        clipped = min(max(ratio, 1 - epsilon), 1 + epsilon)
        assert ppo_clip_term(ratio, advantage, epsilon) == min(
            ratio * advantage, clipped * advantage
        )
    assert ppo_clip_term(1.5, 1.0, 0.2) == 1.2
    assert ppo_clip_term(0.5, -1.0, 0.2) == -0.8
    print("criterion 7: PASS (1000 GAE instances vs forward sum at 1e-12; reductions and clip exact)")


# ---------------------------------------------------------------------------
# 8. Canonicalization soundness
# ---------------------------------------------------------------------------


def test_criterion_08_canonicalization_soundness():
    started = time.perf_counter()
    corpus = CORPUS
    assert len(corpus) == 500
    rng = random.Random(88)
    for smiles in corpus:
        mol = parse(smiles)
        canonical = mol.canonical
        # round trip is graph-isomorphic (same canonical + same multisets)
        again = parse(canonical)
        assert again.canonical == canonical
        assert sorted(
            (a.element, a.aromatic, a.formal_charge, a.hcount) for a in mol.atoms
        ) == sorted(
            (a.element, a.aromatic, a.formal_charge, a.hcount) for a in again.atoms
        )
        assert len(mol.bonds) == len(again.bonds)
        n = len(mol.atoms)
        seen = {canonical}
        for _ in range(50):
            perm = list(range(n))
            rng.shuffle(perm)
            seen.add(relabel(mol, perm).canonical)
        assert len(seen) == 1, f"{smiles}: {seen}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 8: PASS (500 molecules x 50 permutations -> one canonical "
        f"string each; {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 9. Memory-injection plumbing (directional ablation echo)
# ---------------------------------------------------------------------------


def test_criterion_09_memory_injection_ablation():
    lead = parse("CCCCCCCC")
    success_mol = parse("ICCCCCCCC")   # reachable only by editing the exemplar
    exemplar = parse("IC(C)CCCCCCC")   # success molecule plus one methyl
    assert tanimoto(morgan_fp(lead), morgan_fp(success_mol)) >= 0.4
    assert tanimoto(morgan_fp(lead), morgan_fp(exemplar)) >= 0.4
    # random edit operators cannot introduce iodine, so without the injected
    # exemplar no success molecule is expressible from the iodine-free lead
    from leadopt.molgraph import _APPEND_POOL, _SUBSTITUTE_POOL
    assert "I" not in _APPEND_POOL and "I" not in _SUBSTITUTE_POOL

    scores = {lead.canonical: 0.5, success_mol.canonical: 0.95}
    obj = table_objective(scores, threshold=0.9, gamma=0.4)
    bank = ExemplarBank(
        [ExemplarRecord(exemplar.canonical, morgan_fp(exemplar), {"act": 0.9})]
    )
    cfg = SearchConfig(generations=6, rollouts_per_gen=8, budget=500,
                       max_turns=5, seed=17)

    with_memory, _ = optimize_lead(
        lead, cfg, get_policy("greedy"), obj, exemplar_bank=bank
    )
    without_memory, _ = optimize_lead(lead, cfg, get_policy("greedy"), obj)

    assert with_memory.success, "memory-enabled search must succeed"
    assert with_memory.best == success_mol.canonical
    assert with_memory.calls_used <= 500
    assert not without_memory.success, "memory-disabled search must fail"
    assert without_memory.calls_used <= 500

    report_on = metrics([with_memory], obj)
    report_off = metrics([without_memory], obj)
    assert report_on.sr == 1.0 and report_off.sr == 0.0
    print(
        f"criterion 9: PASS (SR 100% with memory vs 0% without; "
        f"calls {with_memory.calls_used} vs {without_memory.calls_used})"
    )


# ---------------------------------------------------------------------------
# 10. Temperature schedule
# ---------------------------------------------------------------------------


def test_criterion_10_temperature_schedule():
    cfg = SearchConfig()
    expected = {0: 0.9, 5: 1.4, 11: 2.0, 19: 2.0}
    for g, value in expected.items():
        assert temperature(g, cfg) == value, (g, temperature(g, cfg))
    print("criterion 10: PASS (tau_g at g in {0,5,11,19} equals {0.9,1.4,2.0,2.0})")


# ---------------------------------------------------------------------------
# 11. Retrieval latency
# ---------------------------------------------------------------------------


def test_criterion_11_retrieval_latency():
    rng = np.random.default_rng(11)
    count, width = 100_000, 2048
    words = rng.integers(0, 2 ** 64, size=(count, width // 64), dtype=np.uint64)
    # sparsify to fingerprint-like density
    words &= rng.integers(0, 2 ** 64, size=words.shape, dtype=np.uint64)
    words &= rng.integers(0, 2 ** 64, size=words.shape, dtype=np.uint64)
    records = []
    for i in range(count):
        bits = int.from_bytes(words[i].tobytes(), "little")
        records.append(ExemplarRecord(f"R{i:06d}", Fingerprint(bits), {"act": 0.0}))
    bank = ExemplarBank(records)
    query = parse("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    candidate_recall(bank, query, 50)  # warm the matrix build

    timings = []
    for _ in range(25):
        start = time.perf_counter()
        top = candidate_recall(bank, query, 50)
        timings.append(time.perf_counter() - start)
        assert len(top) == 50
    median = statistics.median(timings)
    assert median < 0.250, f"median {median * 1000:.1f} ms exceeds the hard cap"
    print(
        f"criterion 11: PASS (exact top-50 over 100k records: median "
        f"{median * 1000:.2f} ms, target < 50 ms, hard cap 250 ms)"
    )
    if median >= 0.050:
        print("criterion 11: note: median above the 50 ms soft target")


# ---------------------------------------------------------------------------
# 12. Hint-block byte-exactness
# ---------------------------------------------------------------------------


def test_criterion_12_hint_block_goldens():
    obj = Objective(
        name="qed",
        terms=(ObjectiveTerm(Oracle("act", lambda m: 0.0), 1.0,
                             SuccessCriterion("absolute", "ge", 0.9)),),
        gamma=0.4,
    )
    lead = parse("CCCCCCCO")
    bank = build_bank(
        ["CCCCCCCN\tact=0.8915", "CCCCCCCCO\tact=0.7", "OCCCCCCCO\tact=0.64"]
    )
    exemplars = retrieve_exemplars(bank, lead, lead, obj, k=3, gamma_ex=0.4,
                                   pool_size=10)
    block = render_exemplar_block(exemplars, obj, lead)
    golden = (GOLDEN / "exemplar_block.txt").read_text()
    assert block == golden
    assert block.splitlines()[0] == (
        "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
    )
    assert block.rstrip("\n").splitlines()[-1] == (
        "Learn from structural patterns, but do not copy directly."
    )

    cards = [
        build_edit_card(parse("COc1ccccc1CC(=O)N"), parse("Fc1ccccc1CC(=O)N"),
                        0.775, 0.901),
        build_edit_card(parse("CCCCC"), parse("CCCCCF"), 0.5, 0.62),
        build_edit_card(parse("CCc1ccccc1S(=O)(=O)N"), parse("CCc1ccccc1"),
                        0.5, 0.8),
    ]
    skills = [make_skill_card(card, "qed") for card in cards]
    skill_block = render_skill_block(skills, "qed")
    golden_skills = (GOLDEN / "skill_block.txt").read_text()
    assert skill_block == golden_skills
    assert skill_block.splitlines()[0] == (
        "=== Potential Useful Strategies for qed ==="
    )
    print("criterion 12: PASS (exemplar + skill blocks byte-identical to goldens)")
