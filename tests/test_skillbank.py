import functools
import itertools
import json
import logging
import math
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leadopt.chemfeat import (
    DescriptorDelta,
    Fingerprint,
    FunctionalGroupSet,
    detect_functional_groups,
    jaccard,
    morgan_fp,
    pack_rows,
    tanimoto,
)
from leadopt import molgraph, skillbank
from leadopt.lineproto import connect
from leadopt.molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
    neighbor_maps,
    parse,
)
from leadopt.skillbank import (
    EditCard,
    SkillBank,
    SkillCard,
    build_edit_card,
    harvest,
    load_skills,
    make_skill_card,
    mcs_decompose,
    render_skill_block,
    render_summarizer_prompt,
    retrieve_skills,
    save_skills,
    summarize_external,
    summarize_template,
)

from conftest import near_positions, scatter


# -- lightweight trajectory stand-in (duck-typed like env.Trajectory) --------


@dataclass
class FakeStep:
    action: str
    score: float | None
    valid: bool


@dataclass
class FakeTrajectory:
    lead: str
    lead_score: float
    steps: list = field(default_factory=list)


def exhaustive_mccs_size(a, b) -> int:
    """Test oracle: largest common connected induced subgraph by brute force.

    Enumerates every partial mapping recursively; only viable for tiny
    molecules (<= ~10 atoms).
    """
    a_adj = [{j: o for j, o in a.neighbors(i)} for i in range(len(a.atoms))]
    b_adj = [{j: o for j, o in b.neighbors(i)} for i in range(len(b.atoms))]

    def label(mol, i):
        atom = mol.atoms[i]
        return (atom.element, atom.aromatic, atom.formal_charge)

    best = [0]

    def grow(mapping):
        best[0] = max(best[0], len(mapping))
        frontier = set()
        for u in mapping:
            frontier.update(x for x in a_adj[u] if x not in mapping)
        used = set(mapping.values())
        for u in sorted(frontier):
            for v in range(len(b.atoms)):
                if v in used or label(a, u) != label(b, v):
                    continue
                if all(a_adj[u].get(x) == b_adj[v].get(y) for x, y in mapping.items()):
                    mapping[u] = v
                    grow(mapping)
                    del mapping[u]

    for u in range(len(a.atoms)):
        for v in range(len(b.atoms)):
            if label(a, u) == label(b, v):
                grow({u: v})
    return best[0]


def card_from(before, after, s0, s1):
    return build_edit_card(parse(before), parse(after), s0, s1)


def synthetic_skill(key_idx, delta_r, bits, tags, task="qed"):
    """Skill card with synthetic retrieval keys for bank-logic tests."""
    before = f"SYN{key_idx:05d}A"
    after = f"SYN{key_idx:05d}B"
    card = EditCard(
        before=before,
        after=after,
        modification_type="addition",
        removed_fragment="",
        added_fragment="F",
        scaffold_before="",
        scaffold_after="",
        scaffold_type="unchanged",
        fg_removed=FunctionalGroupSet(frozenset()),
        fg_added=FunctionalGroupSet(frozenset({"halogen"})),
        deltas=DescriptorDelta(0.0, 0, 0, 0, 0.0, 0),
        score_before=0.0,
        score_after=delta_r,
    )
    return SkillCard(
        text="Add fluorine (-F) to improve the target score.",
        card=card,
        delta_r=delta_r,
        fp_key=Fingerprint(bits),
        fg_tags=FunctionalGroupSet(frozenset(tags)),
        task=task,
    )


class TestMcs:
    def test_identity_full_mapping(self):
        res = mcs_decompose(parse("CCO"), parse("CCO"))
        assert len(res.mapping) == 3
        assert res.removed_fragment == "" and res.added_fragment == ""
        assert not res.approximate

    def test_small_substitution(self):
        res = mcs_decompose(parse("CCO"), parse("CCN"))
        assert len(res.mapping) == 2
        assert res.removed_fragment == "O"
        assert res.added_fragment == "N"

    def test_ring_substituent_swap(self):
        res = mcs_decompose(parse("c1ccccc1C"), parse("c1ccccc1F"))
        assert len(res.mapping) == 6
        assert res.removed_fragment == "C"
        assert res.added_fragment == "F"

    def test_swap_symmetry(self):
        pairs = [("CCO", "CCN"), ("c1ccccc1C", "c1ccccc1F"),
                 ("CCC(=O)O", "CCC(=O)N"), ("CCCCO", "CCCC")]
        for a, b in pairs:
            fwd = mcs_decompose(parse(a), parse(b))
            rev = mcs_decompose(parse(b), parse(a))
            assert fwd.removed_fragment == rev.added_fragment
            assert fwd.added_fragment == rev.removed_fragment
            assert {(x, y) for x, y in fwd.mapping} == {
                (y, x) for x, y in rev.mapping
            }

    @pytest.mark.parametrize(
        "a,b",
        [
            ("CCO", "CCN"),
            ("CCCC", "CCC"),
            ("c1ccccc1", "c1ccncc1"),
            ("CC(=O)O", "CC(=O)N"),
            ("C1CCCCC1", "C1CCCC1"),
            ("CCOCC", "CCSCC"),
            ("CC(C)O", "CC(C)(C)O"),
        ],
    )
    def test_matches_exhaustive_oracle(self, a, b):
        ma, mb = parse(a), parse(b)
        res = mcs_decompose(ma, mb)
        assert not res.approximate
        assert len(res.mapping) == exhaustive_mccs_size(ma, mb)

    def test_large_pair_is_mapped_exactly(self):
        # no atom limit: a 45-atom pair runs the one exact search
        before, after = parse("C" * 45), parse("C" * 44 + "O")
        mapping, completed, nodes = skillbank._exact_mcs(*mcs_order(before, after))
        assert (len(mapping), completed, nodes) == (44, True, 132)
        res = mcs_decompose(before, after)
        assert not res.approximate and len(res.mapping) == 44
        assert (res.removed_fragment, res.added_fragment) == ("C", "O")

    def test_mapping_preserves_bonds(self):
        a, b = parse("CCc1ccccc1O"), parse("CCc1ccccc1N")
        res = mcs_decompose(a, b)
        m = res.mapping_dict()
        a_adj = [{j: o for j, o in a.neighbors(i)} for i in range(len(a.atoms))]
        b_adj = [{j: o for j, o in b.neighbors(i)} for i in range(len(b.atoms))]
        for (u, v), (x, y) in itertools.combinations(m.items(), 2):
            assert a_adj[u].get(x) == b_adj[v].get(y)


class TestEditCard:
    def test_methoxy_to_fluoro_replacement(self):
        card = card_from("COc1ccccc1CC(=O)N", "Fc1ccccc1CC(=O)N", 0.775, 0.901)
        assert card.modification_type == "replacement"
        assert "methoxy" in card.fg_removed
        assert "halogen" in card.fg_added
        assert card.score_after - card.score_before == pytest.approx(0.126)

    def test_terminal_addition_unchanged_scaffold(self):
        card = card_from("CCCCC", "CCCCCF", 0.5, 0.62)
        assert card.modification_type == "addition"
        assert card.scaffold_type == "unchanged"
        assert card.removed_fragment == ""

    def test_ring_removal_classification(self):
        card = card_from("c1ccc2ccccc2c1", "c1ccccc1CC", 0.3, 0.6)
        assert card.scaffold_type == "ring_removal"

    def test_ring_addition_classification(self):
        card = card_from("c1ccccc1CC", "c1ccc2ccccc2c1", 0.3, 0.6)
        assert card.scaffold_type == "ring_addition"

    def test_scaffold_hop_classification(self):
        # same ring count, different core, core not covered by the mapping
        card = card_from("c1ccccc1CCO", "C1CCCCC1CCO", 0.3, 0.6)
        assert card.scaffold_type == "scaffold_hop"
        assert card.modification_type == "scaffold_hop"

    def test_fragment_consistency_enforced(self):
        with pytest.raises(ValueError):
            EditCard(
                before="A", after="B", modification_type="addition",
                removed_fragment="C", added_fragment="F",
                scaffold_before="", scaffold_after="",
                scaffold_type="unchanged",
                fg_removed=FunctionalGroupSet(frozenset()),
                fg_added=FunctionalGroupSet(frozenset()),
                deltas=DescriptorDelta(0, 0, 0, 0, 0, 0),
                score_before=0.0, score_after=0.1,
            )

    def test_identical_molecules_rejected(self):
        with pytest.raises(ValueError):
            card_from("CCO", "CCO", 0.1, 0.2)

    def test_descriptor_deltas(self):
        card = card_from("COc1ccccc1", "Fc1ccccc1", 0.7, 0.9)
        assert card.deltas.mw < 0
        assert card.deltas.hba == -1


EDIT_CARD_GOLDEN = Path(__file__).parent / "golden" / "edit_cards.tsv"


class TestEditCardGolden:
    def test_cards_match_golden(self):
        # every (source, child) pair of canonical_strings.tsv whose child
        # parses and differs from its source, decomposed by build_edit_card
        # (no search spends the MCS node budget, so none is approximate),
        # with the card fields that the subgraph, fragment and scaffold code
        # produce
        rows = [
            line.split("\t")
            for line in EDIT_CARD_GOLDEN.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 1874
        mismatches = []
        for source, child, *want in rows:
            card = build_edit_card(parse(source), parse(child), 0.0, 1.0)
            got = [
                card.modification_type,
                card.removed_fragment or "-",
                card.added_fragment or "-",
                card.scaffold_before or "-",
                card.scaffold_after or "-",
                card.scaffold_type,
                ",".join(card.fg_removed) or "-",
                ",".join(card.fg_added) or "-",
                str(int(card.aromatic_attachment)),
                str(int(card.approximate_mcs)),
            ]
            if got != want:
                mismatches.append((source, child, got, want))
        assert mismatches == []


class TestHarvest:
    def test_monotone_worsening_empty(self):
        traj = FakeTrajectory("CCCCO", 0.9, [
            FakeStep("CCCCN", 0.8, True), FakeStep("CCCCC", 0.7, True),
        ])
        assert harvest(traj, delta=0.05) == []

    def test_single_improving_step(self):
        traj = FakeTrajectory("CCCCO", 0.5, [FakeStep("CCCCOF", 0.8, True)])
        cards = harvest(traj, delta=0.05)
        assert len(cards) == 1
        assert cards[0].before == parse("CCCCO").canonical

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_is_rejected(self, delta):
        # no improvement exceeds a NaN, so it harvested nothing, unwarned
        traj = FakeTrajectory("CCCCO", 0.5, [FakeStep("CCCCOF", 0.8, True)])
        with pytest.raises(ValueError, match=f"^delta must be finite, not {delta}$"):
            harvest(traj, delta=delta)

    def test_threshold_filters_noise(self):
        traj = FakeTrajectory("CCCCO", 0.5, [FakeStep("CCCCCO", 0.52, True)])
        assert harvest(traj, delta=0.05) == []

    def test_invalid_steps_do_not_advance_chain(self):
        traj = FakeTrajectory("CCCCO", 0.5, [
            FakeStep("garbage((", None, False),
            FakeStep("CCCCOF", 0.8, True),
        ])
        cards = harvest(traj, delta=0.05)
        assert len(cards) == 1
        assert cards[0].before == parse("CCCCO").canonical

    def test_duplicate_edits_merge_max_delta(self):
        t1 = FakeTrajectory("CCCCO", 0.5, [FakeStep("CCCCOF", 0.8, True)])
        t2 = FakeTrajectory("CCCCO", 0.4, [FakeStep("CCCCOF", 0.9, True)])
        cards = harvest(t1) + harvest(t2)
        bank = SkillBank(capacity=10)
        skills = [make_skill_card(c, "qed") for c in cards]
        bank.insert([skills[0]])
        report = bank.insert([skills[1]])
        assert bank.size("qed") == 1
        assert report.merged == 1
        assert bank.cards("qed")[0].delta_r == pytest.approx(0.5)


    def test_threads_harvest_the_cards_one_thread_does(self):
        # the subgraph memo is shared: two threads racing on the same
        # scaffold cores and fragments build the same cards
        trajectories = [
            FakeTrajectory(source, 0.1, [FakeStep(child, 0.9, True)])
            for source, child in (
                line.split("\t")[:2]
                for line in EDIT_CARD_GOLDEN.read_text().splitlines()[:200]
                if not line.startswith("#")
            )
        ]
        results: list[list] = [[], []]

        def work(out):
            out.extend(harvest(t) for t in trajectories)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            molgraph._SUBGRAPHS.clear()
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        molgraph._SUBGRAPHS.clear()
        want = [harvest(t) for t in trajectories]
        assert all(len(cards) == 1 for cards in want)
        assert results == [want, want]


class TestSentences:
    def test_replacement_on_ring(self):
        card = card_from("COc1ccccc1CC(=O)N", "Fc1ccccc1CC(=O)N", 0.775, 0.901)
        assert summarize_template(card, "qed") == (
            "Replace methoxy (-OCH3) with fluorine (-F) on the aromatic ring "
            "to improve the target score."
        )

    def test_addition_no_location(self):
        card = card_from("CCCCC", "CCCCCF", 0.5, 0.62)
        assert summarize_template(card, "qed") == (
            "Add fluorine (-F) to improve the target score."
        )

    def test_removal_from_ring(self):
        card = card_from("CCc1ccccc1S(=O)(=O)N", "CCc1ccccc1", 0.5, 0.8)
        assert summarize_template(card, "qed") == (
            "Remove sulfonamide from the aromatic ring to improve the target score."
        )

    def test_single_sentence_with_period(self):
        for args in [("CCCCO", "CCCCOF", 0.5, 0.7), ("CCCCN", "CCCC", 0.4, 0.6)]:
            card = card_from(*args)
            text = summarize_template(card, "qed")
            assert text.endswith(".")
            assert text.count(".") == 1


class TestSummarizerPrompt:
    def test_placeholders_filled(self):
        card = card_from("COc1ccccc1", "Fc1ccccc1", 0.775, 0.901)
        prompt = render_summarizer_prompt(card, "qed")
        assert "Analyze this molecular transformation for qed optimization:" in prompt
        assert f"Before: {card.before}" in prompt
        assert "0.775 -> 0.901 (+0.126)" in prompt
        assert "{" not in prompt.replace("{task}", "")  # all placeholders gone

    def test_external_fallback_on_unreachable(self):
        card = card_from("CCCCC", "CCCCCF", 0.5, 0.62)
        with connect("tcp:127.0.0.1:1", timeout=0.2) as transport:
            assert make_skill_card(card, "qed", transport).text == summarize_template(card, "qed")

    def test_external_stub_sentence(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('OK Swap the tail group. And ignore this.\\n')\n"
            "    sys.stdout.flush()\n"
        )
        card = card_from("CCCCC", "CCCCCF", 0.5, 0.62)
        with connect(f"proc:python3 {stub}") as transport:
            assert summarize_external(card, "qed", transport) == "Swap the tail group."


class TestBankInsert:
    def test_capacity_keeps_largest(self):
        bank = SkillBank(capacity=1000)
        rng = random.Random(1)
        deltas = rng.sample(range(1, 2000), 1200)
        skills = [
            synthetic_skill(i, d / 1000.0, rng.getrandbits(64), ())
            for i, d in enumerate(deltas)
        ]
        report = bank.insert(skills)
        assert bank.size("qed") == 1000
        assert len(report.evicted_keys) == 200
        kept = sorted(s.delta_r for s in bank.cards("qed"))
        assert min(kept) > max(
            skills[i].delta_r
            for i in range(1200)
            if skills[i].key in report.evicted_keys
        ) - 1e-12

    def test_no_eviction_when_under_capacity(self):
        bank = SkillBank(capacity=100)
        skills = [synthetic_skill(i, 0.1 + i, i + 1, ()) for i in range(10)]
        report = bank.insert(skills)
        assert report.evicted_keys == ()
        assert bank.size("qed") == 10

    def test_duplicate_smaller_delta_ignored(self):
        bank = SkillBank(capacity=10)
        big = synthetic_skill(0, 0.9, 0b1, ())
        small = synthetic_skill(0, 0.2, 0b1, ())
        bank.insert([big])
        report = bank.insert([small])
        assert report.merged == 0 and report.inserted == 0
        assert bank.cards("qed")[0].delta_r == 0.9

    def test_reinsert_idempotent(self):
        bank = SkillBank(capacity=10)
        skills = [synthetic_skill(i, 0.1 * (i + 1), i + 1, ()) for i in range(5)]
        bank.insert(skills)
        snapshot = [(s.key, s.delta_r) for s in bank.cards("qed")]
        bank.insert(skills)
        assert [(s.key, s.delta_r) for s in bank.cards("qed")] == snapshot

    def test_insert_leaves_the_earlier_store_whole(self):
        # a reader holding the store from before an insert (merges, new
        # cards, evictions) sees it unchanged
        bank = SkillBank(capacity=4)
        bank.insert([synthetic_skill(i, 0.1 * (i + 1), i + 1, ("amine",)) for i in range(4)])
        old = bank._tasks["qed"]
        snapshot = (dict(old.items), list(old.rows), old.words.copy(),
                    old.pops.copy(), old.fg.copy(), old.delta.copy())
        report = bank.insert([synthetic_skill(0, 0.9, 7, ("halogen",)),
                              synthetic_skill(9, 0.8, 9, ())])
        assert report.evicted_keys == ("SYN00001A>>SYN00001B",)
        assert bank._tasks["qed"] is not old
        assert (old.items, old.rows) == snapshot[:2]
        for array, before in zip((old.words, old.pops, old.fg, old.delta),
                                 snapshot[2:]):
            assert np.array_equal(array, before)

    def test_mixed_task_batch_rejected(self):
        a = synthetic_skill(0, 0.5, 1, (), task="qed")
        b = synthetic_skill(1, 0.5, 2, (), task="drd2")
        with pytest.raises(ValueError):
            SkillBank().insert([a, b])


class TestRetrieveSkills:
    def test_exact_source_hits_fp_channel(self):
        mol = parse("CCCCO")
        fp = morgan_fp(mol)
        skill = synthetic_skill(0, 0.5, fp.bits, ("hydroxyl",))
        bank = SkillBank()
        bank.insert([skill])
        got = retrieve_skills(bank, mol, "qed", gamma_fp=0.99, gamma_fg=1.1 - 1)
        assert [s.key for s in got] == [skill.key]

    def test_below_both_thresholds_empty(self):
        mol = parse("CCCCO")
        skill = synthetic_skill(0, 0.5, 1 << 63, ("nitro",))
        bank = SkillBank()
        bank.insert([skill])
        assert retrieve_skills(bank, mol, "qed", gamma_fp=0.9, gamma_fg=0.9) == []

    def test_matches_brute_force_two_channel(self):
        rng = random.Random(42)
        tags = ["hydroxyl", "amine", "halogen", "amide", "ether", "ketone"]
        mol = parse("CCCCO")
        positions = near_positions(morgan_fp(mol).bits, 64)
        skills = [
            synthetic_skill(
                i,
                round(rng.random(), 6),
                scatter(rng.getrandbits(64), positions),
                tuple(rng.sample(tags, rng.randint(0, 3))),
            )
            for i in range(50)
        ]
        bank = SkillBank()
        bank.insert(skills)
        k_fp, k_fg, g_fp, g_fg = 3, 3, 0.2, 0.3
        got = retrieve_skills(bank, mol, "qed", k_fp, k_fg, g_fp, g_fg)

        # brute force per the two-channel rule
        query_fp = morgan_fp(mol)
        query_fg = detect_functional_groups(mol)
        fp_chan = [
            s for s in skills if tanimoto(query_fp, s.fp_key) >= g_fp
        ]
        fp_chan.sort(key=lambda s: (-s.delta_r, -tanimoto(query_fp, s.fp_key), s.key))
        fg_chan = [
            s for s in skills if jaccard(query_fg, s.fg_tags) >= g_fg
        ]
        fg_chan.sort(key=lambda s: (-s.delta_r, -jaccard(query_fg, s.fg_tags), s.key))
        expected, seen = [], set()
        for s in fp_chan[:k_fp] + fg_chan[:k_fg]:
            if s.key not in seen:
                seen.add(s.key)
                expected.append(s.key)
        assert [s.key for s in got] == expected

    def test_channel_delta_ordering(self):
        rng = random.Random(7)
        skills = [
            synthetic_skill(i, rng.random(), (1 << 64) - 1, ())
            for i in range(10)
        ]
        bank = SkillBank()
        bank.insert(skills)
        got = retrieve_skills(bank, parse("CCCCO"), "qed",
                              k_fp=5, k_fg=0, gamma_fp=0.0, gamma_fg=1.0)
        deltas = [s.delta_r for s in got]
        assert deltas == sorted(deltas, reverse=True)


def loop_retrieve(bank, current, task, k_fp=3, k_fg=3, gamma_fp=0.4, gamma_fg=0.5):
    """The per-card loop retrieve_skills replaced, kept as its reference:
    both similarities for every card, Jaccard over the tag sets."""
    cards = bank.cards(task)
    if not cards:
        return []
    query_fp = morgan_fp(current)
    query_tags = detect_functional_groups(current).tags
    fp_pass, fg_pass = [], []
    for skill in cards:
        fp_sim = tanimoto(query_fp, skill.fp_key)
        if fp_sim >= gamma_fp:
            fp_pass.append((fp_sim, skill))
        union = query_tags | skill.fg_tags.tags
        fg_sim = len(query_tags & skill.fg_tags.tags) / len(union) if union else 1.0
        if fg_sim >= gamma_fg:
            fg_pass.append((fg_sim, skill))
    fp_pass.sort(key=lambda pair: (-pair[1].delta_r, -pair[0], pair[1].key))
    fg_pass.sort(key=lambda pair: (-pair[1].delta_r, -pair[0], pair[1].key))
    result, seen = [], set()
    for _, skill in fp_pass[:k_fp] + fg_pass[:k_fg]:
        if skill.key not in seen:
            seen.add(skill.key)
            result.append(skill.key)
    return result


# queries with no, one and several functional groups
QUERY_SMILES = ["C", "CC", "CCO", "CCN", "CC(=O)N", "Oc1ccccc1", "CC(=O)O", "FCCCl"]
QUERY_TAGS = ["hydroxyl", "amine", "amide", "aromatic_ring", "carboxylic_acid",
              "halogen"]
# few keys, few deltas (ties at the k-th place, 0.0 beside -0.0), bits on
# few positions (equal similarities, all-zero rows)
SYNTH_CARD = st.tuples(
    st.integers(0, 15),
    st.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.5]),
    st.integers(0, (1 << 64) - 1),
    st.frozensets(st.sampled_from(QUERY_TAGS), max_size=3),
)
QUERY_POSITIONS = near_positions(
    functools.reduce(int.__or__, (morgan_fp(parse(s)).bits for s in QUERY_SMILES)), 64
)
QUERY = st.tuples(
    st.sampled_from(QUERY_SMILES),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)


def assert_matches_loop(bank, queries, task="qed"):
    for smiles, k_fp, k_fg, g_fp, g_fg in queries:
        current = parse(smiles)
        got = retrieve_skills(bank, current, task, k_fp, k_fg, g_fp, g_fg)
        assert [s.key for s in got] == loop_retrieve(
            bank, current, task, k_fp, k_fg, g_fp, g_fg
        )


def assert_rows_packed(bank, task="qed"):
    """The store's arrays hold its cards' fingerprints as `pack_rows` packs
    them, popcounts, functional-group bitmasks and improvements, in the
    order of its rows."""
    store = bank._tasks.get(task)
    if store is None:
        return
    skills = [item[3] for item in store.rows]
    words, pops = pack_rows([s.fp_key for s in skills])
    assert np.array_equal(store.words, words)
    assert np.array_equal(store.pops, pops)
    assert store.fg.tolist() == [s.fg_tags.mask for s in skills]
    assert store.delta.tolist() == [s.delta_r for s in skills]


def real_skill(smiles, idx, delta_r, task="qed"):
    """A template-summarized card whose keys come from a real molecule."""
    before = parse(smiles).canonical
    card = EditCard(
        before=before, after=f"AFTER{idx}", modification_type="addition",
        removed_fragment="", added_fragment="F", scaffold_before="",
        scaffold_after="", scaffold_type="unchanged",
        fg_removed=FunctionalGroupSet(frozenset()),
        fg_added=FunctionalGroupSet(frozenset({"halogen"})),
        deltas=DescriptorDelta(0.0, 0, 0, 0, 0.0, 0),
        score_before=0.0, score_after=delta_r,
    )
    return make_skill_card(card, task)


class SortingBank:
    """One task's store as `SkillBank.insert` kept it before it maintained a
    ranking: merge the batch, then sort the whole store past capacity."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.store = {}
        self.seq = 0

    def insert(self, skills):
        store = dict(self.store)
        for skill in skills:
            existing = store.get(skill.key)
            if existing is None or skill.delta_r > existing[1].delta_r:
                self.seq += 1
                store[skill.key] = (self.seq, skill)
        evicted = ()
        if len(store) > self.capacity:
            ranked = sorted(store.items(), key=lambda kv: (-kv[1][1].delta_r, -kv[1][0]))
            evicted = tuple(sorted(key for key, _ in ranked[self.capacity:]))
            store = dict(ranked[: self.capacity])
        self.store = store
        return evicted

    def cards(self):
        """Oldest first: a merged card is as old as its merge."""
        return [skill for _, skill in sorted(self.store.values(), key=lambda v: v[0])]


class TestBankInsertDifferential:
    SOURCES = ("CCO", "CCN", "c1ccccc1O", "CC(=O)O")

    @given(
        st.integers(1, 12),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 24), st.sampled_from([0.1, 0.25, 0.5, 0.75])),
                min_size=1, max_size=8,
            ),
            min_size=1, max_size=12,
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_store_matches_a_full_sort(self, capacity, batches, reload_at):
        # few keys and few improvements: duplicates merge, ranks tie, and
        # the bank fills, overflows, or never reaches capacity
        bank, ref = SkillBank(capacity), SortingBank(capacity)
        for step, batch in enumerate(batches):
            if step == reload_at:
                with tempfile.TemporaryDirectory() as tmp:
                    bank = load_skills(save_skills(bank, Path(tmp) / "s.jsonl"), capacity)
                cards, ref = ref.cards(), SortingBank(capacity)
                ref.insert(cards)
            skills = [real_skill(self.SOURCES[k % 4], k, d) for k, d in batch]
            assert bank.insert(skills).evicted_keys == ref.insert(skills)
            assert [(s.key, s.delta_r) for s in bank.cards("qed")] == [
                (s.key, s.delta_r) for s in ref.cards()
            ]
            assert_rows_packed(bank)

    @given(
        st.integers(1, 8),
        st.lists(
            st.tuples(
                st.sampled_from(["qed", "drd2"]),
                st.lists(
                    st.tuples(st.integers(0, 19), st.sampled_from([0.1, 0.25, 0.5, 0.75])),
                    min_size=1, max_size=6,
                ),
            ),
            min_size=1, max_size=12,
        ),
        st.integers(0, 12),
        st.lists(QUERY, min_size=1, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_tasks_match_their_own_references(self, capacity, batches, reload_at,
                                                  queries):
        # batches for two tasks interleave, with the same keys in both: each
        # task's store merges, evicts, reloads and retrieves as if alone
        sources = QUERY_SMILES + ["c1ccccc1CC(=O)N", "CCCCO"]
        bank = SkillBank(capacity)
        refs = {"qed": SortingBank(capacity), "drd2": SortingBank(capacity)}
        for step, (task, batch) in enumerate(batches):
            if step == reload_at:
                with tempfile.TemporaryDirectory() as tmp:
                    bank = load_skills(save_skills(bank, Path(tmp) / "s.jsonl"), capacity)
                for name, ref in list(refs.items()):
                    refs[name] = SortingBank(capacity)
                    refs[name].insert(ref.cards())
            skills = [real_skill(sources[k % len(sources)], k, d, task) for k, d in batch]
            assert bank.insert(skills).evicted_keys == refs[task].insert(skills)
            assert bank.tasks() == sorted(name for name, ref in refs.items() if ref.store)
            for name, ref in refs.items():
                assert [(s.key, s.delta_r) for s in bank.cards(name)] == [
                    (s.key, s.delta_r) for s in ref.cards()
                ]
                assert_matches_loop(bank, queries, name)
                assert_rows_packed(bank, name)


class TestBankResume:
    @given(
        st.integers(1, 8),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 15), st.sampled_from([0.25, 0.5])),
                min_size=1, max_size=6,
            ),
            min_size=2, max_size=8,
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_save_load_continue_matches_the_live_bank(self, capacity, batches, save_at):
        # few keys and two improvements: merges and evictions tie on delta_r,
        # so the cards' ages decide which go; a reloaded bank must know them
        live = SkillBank(capacity)
        skills = [[real_skill(QUERY_SMILES[k % 8], k, d) for k, d in batch]
                  for batch in batches]
        for batch in skills[:save_at]:
            live.insert(batch)
        with tempfile.TemporaryDirectory() as tmp:
            resumed = load_skills(save_skills(live, Path(tmp) / "s.jsonl"), capacity)
        for batch in skills[save_at:]:
            assert resumed.insert(batch).evicted_keys == live.insert(batch).evicted_keys
            assert [s.key for s in resumed.cards("qed")] == [
                s.key for s in live.cards("qed")]


class TestIndexedRetrievalDifferential:
    @given(
        st.sampled_from([8, 16, 64]),
        st.integers(1, 10),
        st.lists(st.lists(SYNTH_CARD, min_size=1, max_size=5), min_size=1, max_size=6),
        st.lists(QUERY, min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_through_inserts_merges_evictions(
        self, span, capacity, batches, queries
    ):
        # card bits on `span` positions, the queries' fingerprint bits first
        positions = QUERY_POSITIONS[:span]
        bank = SkillBank(capacity)
        for batch in batches:
            bank.insert([
                synthetic_skill(idx, delta, scatter(bits & ((1 << span) - 1), positions),
                                tags)
                for idx, delta, bits, tags in batch
            ])
            assert_matches_loop(bank, queries)

    @given(
        st.integers(1, 12),
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(QUERY_SMILES + ["c1ccccc1CC(=O)N", "CCCCO"]),
                          st.integers(0, 9), st.sampled_from([0.125, 0.25, 0.5])),
                min_size=1, max_size=5,
            ),
            min_size=1, max_size=4,
        ),
        st.lists(QUERY, min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_after_save_and_load(self, capacity, batches, queries):
        bank = SkillBank(capacity)
        for batch in batches:
            bank.insert([real_skill(smiles, idx, delta) for smiles, idx, delta in batch])
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_skills(save_skills(bank, Path(tmp) / "skills.jsonl"),
                                 capacity)
        assert sorted(s.key for s in loaded.cards("qed")) == sorted(
            s.key for s in bank.cards("qed"))
        assert_matches_loop(loaded, queries)
        for smiles, k_fp, k_fg, g_fp, g_fg in queries:
            current = parse(smiles)
            assert retrieve_skills(loaded, current, "qed", k_fp, k_fg, g_fp, g_fg) == \
                retrieve_skills(bank, current, "qed", k_fp, k_fg, g_fp, g_fg)

    def test_negative_k_rejected(self):
        bank = SkillBank()
        bank.insert([synthetic_skill(0, 0.5, 1, ())])
        with pytest.raises(ValueError):
            retrieve_skills(bank, parse("CCO"), "qed", k_fp=-1)


class TestRenderSkillBlock:
    def test_header_and_numbering(self):
        skills = [
            synthetic_skill(i, 0.5, i + 1, ()) for i in range(3)
        ]
        block = render_skill_block(skills, "qed")
        lines = block.splitlines()
        assert lines[0] == "=== Potential Useful Strategies for qed ==="
        assert lines[1].startswith("1. ")
        assert lines[2].startswith("2. ")
        assert lines[3].startswith("3. ")

    def test_task_in_header(self):
        block = render_skill_block([synthetic_skill(0, 0.5, 1, ())], "drd2")
        assert block.splitlines()[0] == "=== Potential Useful Strategies for drd2 ==="

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_skill_block([], "qed")


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cards = [
            card_from("COc1ccccc1CC(=O)N", "Fc1ccccc1CC(=O)N", 0.775, 0.901),
            card_from("CCCCC", "CCCCCF", 0.5, 0.62),
        ]
        bank = SkillBank(capacity=10)
        bank.insert([make_skill_card(c, "qed") for c in cards])
        path = save_skills(bank, tmp_path / "skills.jsonl")
        loaded = load_skills(path, capacity=10)
        assert loaded.size("qed") == 2
        orig = {s.key: s for s in bank.cards("qed")}
        back = {s.key: s for s in loaded.cards("qed")}
        assert orig.keys() == back.keys()
        for key in orig:
            assert orig[key].text == back[key].text
            assert orig[key].delta_r == back[key].delta_r
            assert orig[key].fp_key == back[key].fp_key
            assert orig[key].fg_tags.tags == back[key].fg_tags.tags


    def test_bad_lines_skipped_and_counted(self, tmp_path, caplog):
        bank = SkillBank(capacity=10)
        bank.insert([real_skill("CCO", 0, 0.25), real_skill("CCN", 1, 0.5)])
        good = save_skills(bank, tmp_path / "good.jsonl").read_text().splitlines()
        mismatch = json.loads(good[0])
        mismatch["delta_r"] = 0.75
        unparsable = json.loads(good[0])
        unparsable["before"] = "C1CC"
        bad_text = json.loads(good[0])
        bad_text["text"] = 7
        missing = json.loads(good[0])
        del missing["before"]
        lines = [
            good[0], "not json", json.dumps(missing), json.dumps(unparsable),
            json.dumps(mismatch), "[1, 2]", json.dumps(bad_text), "", good[1],
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="leadopt.skillbank"):
            loaded = load_skills(path, capacity=10)
        assert sorted(s.key for s in loaded.cards("qed")) == sorted(
            s.key for s in bank.cards("qed"))
        skips = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("skipping skill-bank line")]
        assert [m.split(":")[0] for m in skips] == [
            f"skipping skill-bank line {n}" for n in (2, 3, 4, 5, 6, 7)
        ]
        assert "skill-bank load skipped 6 bad lines" in caplog.text


class TestMcsRings:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("c1ccccc1C", "c1ccccc1N"),
            ("C1CCCCC1O", "C1CCCCC1N"),
            ("c1ccoc1C", "c1ccsc1C"),
            ("C1CC1CC", "C1CC1CCC"),
            ("c1ccncc1", "c1ccccc1"),
        ],
    )
    def test_ring_pairs_match_exhaustive_oracle(self, a, b):
        ma, mb = parse(a), parse(b)
        res = mcs_decompose(ma, mb)
        assert not res.approximate
        assert len(res.mapping) == exhaustive_mccs_size(ma, mb)


class TestMcsRandomDifferential:
    def test_random_pairs_match_exhaustive_oracle(self):
        # random small molecule pairs: exact search must equal brute force
        rng = random.Random(31415)
        elements = ["C", "C", "C", "N", "O"]
        from leadopt.molgraph import Atom, Bond, Molecule

        def random_molecule(k):
            bonds = [Bond(i, rng.randrange(i), "single") for i in range(1, k)]
            if k >= 4 and rng.random() < 0.5:
                a, b = rng.sample(range(k), 2)
                key = (min(a, b), max(a, b))
                if key not in {x.key() for x in bonds}:
                    bonds.append(Bond(a, b, "single"))
            degree = [0] * k
            for b in bonds:
                degree[b.a] += 1
                degree[b.b] += 1
            if max(degree) > 4:
                return None
            atoms = []
            for i in range(k):
                el = rng.choice(elements)
                cap = {"C": 4, "N": 3, "O": 2}[el]
                if degree[i] > cap:
                    el = "C"
                    cap = 4
                atoms.append(Atom(el, hcount=cap - degree[i]))
            return Molecule(atoms, bonds)

        checked = 0
        for _ in range(160):
            a = random_molecule(rng.randint(3, 8))
            b = random_molecule(rng.randint(3, 8))
            if a is None or b is None:
                continue
            res = mcs_decompose(a, b)
            if res.approximate:
                continue
            assert len(res.mapping) == exhaustive_mccs_size(a, b), (
                a.canonical, b.canonical,
            )
            checked += 1
        assert checked >= 100


# -- the exact MCS search on atom bitsets -------------------------------------


def reference_exact_mcs(g, h):
    """The list-based McSplit search that the bitset search replaced, with
    its wall-clock deadline taken out and a node count put in: the same
    branching rules, the class-size bound only. Returns (mapping, completed,
    nodes)."""
    g_adj = neighbor_maps(g)
    h_adj = neighbor_maps(h)
    target = min(len(g.atoms), len(h.atoms))

    classes = {}
    for i in range(len(g.atoms)):
        classes.setdefault(skillbank._atom_label(g, i), ([], []))[0].append(i)
    for j in range(len(h.atoms)):
        classes.setdefault(skillbank._atom_label(h, j), ([], []))[1].append(j)
    initial = [(gs, hs, False) for gs, hs in classes.values() if gs and hs]

    best = []
    nodes = 0

    class Done(Exception):
        pass

    def refine(current, v, w):
        out = []
        for gs, hs, adj in current:
            buckets = {}
            for u in gs:
                if u == v:
                    continue
                buckets.setdefault(g_adj[v].get(u), ([], []))[0].append(u)
            for u in hs:
                if u == w:
                    continue
                buckets.setdefault(h_adj[w].get(u), ([], []))[1].append(u)
            for key, (sub_g, sub_h) in buckets.items():
                if sub_g and sub_h:
                    out.append((sub_g, sub_h, adj or key is not None))
        return out

    def search(mapping, current):
        nonlocal best, nodes
        nodes += 1
        if len(mapping) > len(best):
            best = list(mapping)
            if len(best) == target:
                raise Done
        bound = len(mapping) + sum(min(len(gs), len(hs)) for gs, hs, _ in current)
        if bound <= len(best):
            return
        usable = [
            (gs, hs, adj)
            for gs, hs, adj in current
            if gs and hs and (adj or not mapping)
        ]
        if not usable:
            return
        gs, hs, adj = max(
            usable, key=lambda c: (min(len(c[0]), len(c[1])), -min(c[0]))
        )
        v = max(gs, key=lambda u: (len(g_adj[u]), -u))
        rest = [c for c in current if c[0] is not gs] + [
            ([u for u in gs if u != v], hs, adj)
        ]
        for w in sorted(hs):
            search(mapping + [(v, w)], refine(current, v, w))
        search(mapping, [c for c in rest if c[0] and c[1]])

    try:
        search([], initial)
    except Done:
        pass
    return best, True, nodes


def mcs_order(a, b):
    """The pair in the order mcs_decompose hands it to the exact search."""
    return (b, a) if b.canonical < a.canonical else (a, b)


LABELS = [
    ("C", False, 0), ("C", False, 0), ("C", True, 0), ("N", False, 0),
    ("N", True, 0), ("N", False, 1), ("O", False, 0), ("O", False, -1),
]


@st.composite
def labelled_graphs(draw, max_atoms=9):
    """A connected graph of labelled atoms: a random spanning tree plus up to
    three ring bonds, every bond of any order. Built unchecked: only the
    labels and bond orders matter to the MCS search."""
    n = draw(st.integers(1, max_atoms))
    orders = st.sampled_from([SINGLE, DOUBLE, TRIPLE, AROMATIC])
    bonds = {}
    for i in range(1, n):
        bonds[(draw(st.integers(0, i - 1)), i)] = draw(orders)
    for a, b, order in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), orders),
        max_size=3,
    )):
        if a != b:
            bonds.setdefault((min(a, b), max(a, b)), order)
    atoms = [
        Atom(element, aromatic=aromatic, formal_charge=charge)
        for element, aromatic, charge in draw(
            st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
        )
    ]
    bonds = tuple(Bond(a, b, order) for (a, b), order in bonds.items())
    return Molecule._assemble(tuple(atoms), bonds, molgraph._ring_bond_flags(n, bonds))


# harvested pairs of 29-45 atoms from runs on tests/fixtures/drug_leads.smi
# whose reference search completes: each lead against a child, and children
# of imatinib, atorvastatin, gefitinib and sunitinib further out; the search
# takes 41-3,564 nodes on them
DRUG_PAIRS = [
    ("CC(C)c1c(C(Nc2c(ccc(c2)F)N)=O)c(c2c(ccc(C)c2)N)c(c2ccc(cc2)F)n1CCC(CC(CC(=O)O)O)O",
     "CC(C)c1c(C(Nc2cc(ccc2)F)=O)c(c2c(ccc(C)c2)N)c(c2ccc(cc2)F)n1CCC(CC(CCO)O)O"),
    ("CC(C)c1c(C(Nc2ccccc2)=O)c(c(c2ccc(cc2)F)n1CC=C(CC(CC(=O)O)OO)O)c1cc(coc1)F",
     "CC(C)c1c(C(Nc2ccccc2)=O)c(c(c2ccc(cc2)F)n1CC=C(CC(CC(=O)O)OC)O)c1cc(coc1)F"),
    ("CC(C)c1c(C(Nc2ccccc2)=O)c(c(c2ccc(cc2)F)n1CCC(CC(CC(=O)O)O)O)c1ccccc1",
     "CC(C)c1c(C(Nc2ccccc2)=O)c(c(c2ccc(cc2)F)n1CCCCC(CC(=O)O)O)c1ccccc1"),
    ("Cc1c(c2cccnc2)nc(Nc2c(C)c(cc(c2)NC(c2ccc(CN3CC(N(C=P3)C)N)cc2)=O)F)nc1Cl",
     "Cc1c(c2cccnc2)nc(Nc2c(C)c(cc(c2)NC(c2ccc(CN3CCN(C=P3)C)cc2)=O)F)nc1Cl"),
    ("CN1BCN(C#C1)Cc1ccc(C(Nc2cc(c(CN)cc2)Nc2nc(c3c(ccnc3)Cl)ccn2)=O)cc1",
     "Cc1c(cc(cc1)NCc1ccc(CN2C#CN(BC2)C)cc1)Nc1nc(c2c(ccnc2)Cl)ccn1"),
    ("Cc1c(cc(cc1)NC(c1ccc(CN2CCN(CC2)C)cc1)=O)Nc1nc(c2cccnc2)ccn1",
     "Cc1c(cc(cc1)SCc1ccc(CN2CCN(CC2)C)cc1)Nc1nc(c2cccnc2)ccn1"),
    ("COc1c(cc2c(Nc3cc(c(cc3)F)Cl)ncnc2c1)OCCCN1CCOCC1",
     "Fc1c(cc(cc1)Nc1c2c(ccc(c2)OCCCN2CCOCC2)ncn1)Cl"),
    ("CCN(CCNC(c1c(C)c(C=C2C(Nc3c2cc(cc3)F)=O)[nH]c1C)=O)CC",
     "CCN(CCNC(c1c(C)c(C=C2C(Nc3c2cc(cc3)F)=O)[n](C)c1C)=O)C"),
    ("CCCN(CCNC(c1c(C)[nH]c(C=C2C(Nc3c2cc(cc3)P)=O)c1)=O)CC",
     "CCCN(CC=NCc1c(C)[nH]c(C=C2C(Nc3c2cc(cc3)P)=O)c1)CC"),
]


class TestExactMcsBitsets:
    def test_golden_pairs_match_the_reference_search(self):
        # the same mapping, tie-break included, on every exact pair of
        # edit_cards.tsv; the reachability bound only prunes, and it takes
        # the count from the reference's 158,164 nodes (3,861 at most on
        # one pair) to 55,556 (231). The total is pinned: a faster node
        # must walk the same tree
        mismatches = []
        total = 0
        for line in EDIT_CARD_GOLDEN.read_text().splitlines():
            if line.startswith("#"):
                continue
            source, child = line.split("\t")[:2]
            g, h = mcs_order(parse(source), parse(child))
            mapping, completed, nodes = skillbank._exact_mcs(g, h)
            want, want_completed, reference_nodes = reference_exact_mcs(g, h)
            if (mapping, completed) != (want, want_completed):
                mismatches.append((source, child))
            assert nodes <= reference_nodes, (source, child)
            total += nodes
        assert mismatches == []
        assert total == 55_556

    @pytest.mark.parametrize("source,child", DRUG_PAIRS)
    def test_drug_sized_pairs_match_the_reference_search(self, source, child):
        g, h = mcs_order(parse(source), parse(child))
        mapping, completed, nodes = skillbank._exact_mcs(g, h)
        want, want_completed, reference_nodes = reference_exact_mcs(g, h)
        assert (mapping, completed) == (want, want_completed)
        assert nodes <= reference_nodes <= 30_000

    @given(labelled_graphs(), labelled_graphs())
    @settings(max_examples=300, deadline=None)
    def test_labelled_graphs_match_the_reference_search(self, g, h):
        mapping, completed, nodes = skillbank._exact_mcs(g, h)
        want, want_completed, reference_nodes = reference_exact_mcs(g, h)
        assert (mapping, completed) == (want, want_completed)
        assert nodes <= reference_nodes

    @given(labelled_graphs(), st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=200, deadline=None)
    def test_reachable_walks_only_through_available_atoms(self, mol, start, avail):
        n = len(mol.atoms)
        start &= (1 << n) - 1
        avail &= (1 << n) - 1
        seen = {i for i in range(n) if start >> i & avail >> i & 1}
        stack = list(seen)
        while stack:
            for j, _ in mol.neighbors(stack.pop()):
                if avail >> j & 1 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        nbrs = [sum(1 << j for j, _ in mol.neighbors(i)) for i in range(n)]
        assert skillbank._reachable(start, avail, nbrs) == sum(1 << i for i in seen)


TEST_MCS_PAIRS = [
    ("CCO", "CCO"), ("CCO", "CCN"), ("c1ccccc1C", "c1ccccc1F"),
    ("CCC(=O)O", "CCC(=O)N"), ("CCCCO", "CCCC"), ("CCCC", "CCC"),
    ("c1ccccc1", "c1ccncc1"), ("CC(=O)O", "CC(=O)N"), ("C1CCCCC1", "C1CCCC1"),
    ("CCOCC", "CCSCC"), ("CC(C)O", "CC(C)(C)O"),
    ("CCc1ccccc1O", "CCc1ccccc1N"),
]

BUDGET_PAIRS = [
    ("COc1ccccc1CC(=O)N", "Fc1ccccc1CC(=O)N"),
    ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "CC(C)Cc1ccc(cc1)C(C)C(=O)N"),
    ("c1ccc2ccccc2c1", "c1ccccc1CC"),
    ("CCn1c(=O)n(CC(=O)NCC(C)C)c2ccccc21", "CCn1c(=O)n(CC(=O)NCC)c2ccccc21"),
    ("Oc1cc2c(cc1)cccc2", "Oc1ccc2c(cccc2)n1"),
]


class TestMcsDeterminism:
    def test_a_slow_clock_changes_nothing(self, monkeypatch):
        want = [mcs_decompose(parse(a), parse(b)) for a, b in TEST_MCS_PAIRS]
        clock = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: 3600.0 * next(clock))
        got = [mcs_decompose(parse(a), parse(b)) for a, b in TEST_MCS_PAIRS]
        assert got == want
        assert not any(res.approximate for res in got)

    def test_a_spent_budget_keeps_the_best_partial_mapping(self, monkeypatch):
        # every pair needs more than 13 nodes to complete; a spent search
        # hands back the largest mapping it found, which only grows with the
        # budget and is a common substructure of the pair
        for a, b in BUDGET_PAIRS:
            before, after = parse(a), parse(b)
            g, h = mcs_order(before, after)
            g_adj, h_adj = neighbor_maps(g), neighbor_maps(h)
            sizes = []
            for budget in (1, 2, 3, 5, 8, 13):
                monkeypatch.setattr(skillbank, "_MCS_NODE_BUDGET", budget)
                partial, completed, nodes = skillbank._exact_mcs(g, h)
                assert not completed and nodes == budget + 1
                for (u, v), (x, y) in itertools.combinations(partial, 2):
                    assert g_adj[u].get(x) == h_adj[v].get(y)
                assert all(skillbank._atom_label(g, u) == skillbank._atom_label(h, v)
                           for u, v in partial)
                sizes.append(len(partial))
                if g is after:
                    partial = [(y, x) for x, y in partial]
                res = mcs_decompose(before, after)
                assert res.approximate
                assert res.mapping == tuple(sorted(partial))
            assert sizes == sorted(sizes) and sizes[-1] > sizes[0]

    def test_a_spent_budget_still_builds_a_card(self, monkeypatch):
        monkeypatch.setattr(skillbank, "_MCS_NODE_BUDGET", 2)
        for a, b in BUDGET_PAIRS:
            card = card_from(a, b, 0.3, 0.6)
            res = mcs_decompose(parse(a), parse(b))
            assert card.approximate_mcs and res.approximate
            assert (card.removed_fragment, card.added_fragment) == (
                res.removed_fragment, res.added_fragment)
            assert make_skill_card(card, "qed").card is card


class TestDrugSizedHarvest:
    LEADS = Path(__file__).parent / "fixtures" / "drug_leads.smi"

    def test_pairs_above_forty_atoms_get_exact_cards(self, tmp_path):
        # a short harvesting run on imatinib, atorvastatin (41 atoms),
        # gefitinib and sunitinib: atorvastatin's children give pairs above
        # 40 atoms, which the one search maps within its budget
        from leadopt.cli import main

        skills = tmp_path / "skills.jsonl"
        assert main([
            "run", "--leads", str(self.LEADS), "--objective", "qed",
            "--policy", "random", "--skill-bank", str(skills), "--harvest-skills",
            "--budget", "40", "--generations", "2", "--rollouts", "8",
            "--seed", "1", "--out", str(tmp_path / "out"),
        ]) == 0
        cards = [json.loads(line) for line in skills.read_text().splitlines()]
        sizes = [max(len(parse(c["before"]).atoms), len(parse(c["after"]).atoms))
                 for c in cards]
        assert max(sizes) > 40
        assert not any(c["approximate_mcs"] for c in cards)
