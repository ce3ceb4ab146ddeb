"""The hot paths leave no cyclic garbage.

With automatic collection off, each path runs, and then `gc.collect()`
must find nothing to free: every object the path made and dropped was freed
by its reference count alone. A path that leaves reference cycles (a
recursive closure that reaches itself through its cell, say) makes the
collector run more often and pause longer while the search runs.
"""

import gc

import pytest

from leadopt.chemfeat import descriptors, detect_functional_groups, morgan_fp
from leadopt.cli import main
from leadopt.exembank import build_bank
from leadopt.harness import SearchConfig, get_policy, optimize_lead
from leadopt.molgraph import EDIT_OPERATORS, SmilesError, _edit, forget_memos, parse
from leadopt.oracles import load_objective
from leadopt.skillbank import SkillBank, harvest, mcs_decompose

from conftest import CORPUS as ROWS


def garbage_left_by(action) -> int:
    """Objects the cyclic collector frees after `action` runs with
    automatic collection off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def edit_all(mols):
    for seed, mol in enumerate(mols):
        for op in EDIT_OPERATORS:
            try:
                _edit(mol, op, seed).canonical
            except SmilesError:
                pass


class TestNoCyclicGarbage:
    @pytest.fixture
    def mols(self):
        forget_memos()
        return [parse(row) for row in ROWS[100:200]]

    def test_parse(self):
        forget_memos()
        assert garbage_left_by(lambda: [parse(row) for row in ROWS[:100]]) == 0

    def test_naming_and_edits(self, mols):
        assert garbage_left_by(lambda: [mol.canonical for mol in mols]) == 0
        assert garbage_left_by(lambda: edit_all(mols)) == 0

    def test_features(self, mols):
        # each detection left about 25 cycles when its matcher was a
        # recursive closure
        assert garbage_left_by(lambda: [detect_functional_groups(m) for m in mols]) == 0
        assert garbage_left_by(lambda: [(morgan_fp(m), descriptors(m)) for m in mols]) == 0

    def test_mcs(self, mols):
        # each pair left one cycle holding the search's class lists
        pairs = list(zip(mols, mols[1:]))
        assert garbage_left_by(lambda: [mcs_decompose(a, b) for a, b in pairs]) == 0

    def test_search_with_both_memories_and_harvest(self):
        objective = load_objective("qed")
        bank = build_bank(ROWS[:80], [term.oracle for term in objective.terms])
        # a low harvest floor, so that the short search makes cards
        cfg = SearchConfig(generations=2, rollouts_per_gen=4, budget=40, max_turns=4,
                           seed=3, harvest_skills=True, harvest_delta=0.005)
        leads = [parse(row) for row in ROWS[:3]]
        skills = SkillBank()
        trajectories = []

        def search():
            for lead in leads:
                _, found = optimize_lead(lead, cfg, get_policy("greedy"), objective,
                                         exemplar_bank=bank, skill_bank=skills)
                trajectories.extend(found)

        assert garbage_left_by(search) == 0
        assert sum(len(skills.cards(task)) for task in skills.tasks()) > 0
        assert garbage_left_by(lambda: [harvest(t, delta=0.005) for t in trajectories]) == 0

    def test_a_second_cli_call(self, capsys):
        # a parser built on every call left 580 objects in cycles
        argv = ["credit", "gae", "--rewards", "1,0", "--values", "0,0,0"]
        assert main(argv) == 0
        assert garbage_left_by(lambda: main(argv)) == 0
