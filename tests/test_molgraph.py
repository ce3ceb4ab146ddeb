import gc
import heapq
import inspect
import random
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from leadopt import chemfeat, molgraph, skillbank
from leadopt.chemfeat import morgan_fp
from leadopt.exembank import build_bank
from leadopt.harness import SearchConfig, get_policy, optimize_lead
from leadopt.molgraph import (
    EDIT_OPERATORS,
    Atom,
    Bond,
    CanonicalizationBudgetError,
    Molecule,
    MultiFragmentError,
    NoApplicableSiteError,
    SmilesError,
    SmilesSyntaxError,
    UnmatchedRingError,
    UnsupportedAtomError,
    ValenceError,
    mutate,
    parse,
    scaffold_of,
)
from leadopt.oracles import load_objective
from leadopt.skillbank import SkillBank

from conftest import ANY_TEXT, CORPUS, DRUG_LEADS, SMILES_ALPHABET, relabel

GOLDEN = Path(__file__).parent / "golden" / "canonical_strings.tsv"


def graph_signature(mol: Molecule):
    """Isomorphism-invariant summary independent of canonicalization."""
    atom_sig = sorted(
        (a.element, a.aromatic, a.formal_charge, a.hcount, a.isotope)
        for a in mol.atoms
    )
    bond_sig = sorted(
        (b.order, tuple(sorted((mol.atoms[b.a].element, mol.atoms[b.b].element))))
        for b in mol.bonds
    )
    degree_sig = sorted(mol.degree(i) for i in range(len(mol.atoms)))
    return (atom_sig, bond_sig, degree_sig)


class TestParse:
    def test_ethanol(self):
        m = parse("CCO")
        assert len(m.atoms) == 3
        assert [a.element for a in m.atoms] == ["C", "C", "O"]
        assert all(b.order == "single" for b in m.bonds)
        assert len(m.bonds) == 2
        assert [a.hcount for a in m.atoms] == [3, 2, 1]

    def test_benzene(self):
        m = parse("c1ccccc1")
        assert len(m.atoms) == 6
        assert all(a.element == "C" and a.aromatic for a in m.atoms)
        assert len(m.bonds) == 6
        assert all(b.order == "aromatic" for b in m.bonds)
        assert all(a.hcount == 1 for a in m.atoms)

    def test_unclosed_ring_digit(self):
        with pytest.raises(UnmatchedRingError):
            parse("C1CC")

    def test_multi_fragment_rejected(self):
        with pytest.raises(MultiFragmentError):
            parse("CCO.CC")

    def test_unsupported_element(self):
        with pytest.raises(UnsupportedAtomError):
            parse("[Se]CC")
        with pytest.raises(UnsupportedAtomError):
            parse("C[*]")

    def test_valence_violation(self):
        with pytest.raises(ValenceError):
            parse("C(C)(C)(C)(C)C")
        with pytest.raises(ValenceError):
            parse("O(C)(C)C")

    def test_syntax_errors(self):
        for bad in ["", "C((C))", "C()C", "(CC)", "C=", "C=#C", "CC)", "cc", "C%1C"]:
            with pytest.raises(SmilesSyntaxError):
                parse(bad)

    def test_bracket_atoms(self):
        m = parse("[NH4+]")
        atom = m.atoms[0]
        assert (atom.element, atom.hcount, atom.formal_charge) == ("N", 4, 1)
        m = parse("[13CH4]")
        assert m.atoms[0].isotope == 13
        m = parse("C[N+](=O)[O-]")
        charges = sorted(a.formal_charge for a in m.atoms)
        assert charges == [-1, 0, 0, 1]

    def test_stereo_marks_discarded(self):
        m = parse("C/C=C/C")
        assert m == parse("CC=CC")
        assert parse("N[C@@H](C)C(=O)O") == parse("NC(C)C(=O)O")

    def test_aromatic_ring_sanity(self):
        with pytest.raises(SmilesSyntaxError):
            parse("cC")

    def test_implicit_hydrogens_aromatic(self):
        pyridine = parse("c1ccncc1")
        n_atom = next(a for a in pyridine.atoms if a.element == "N")
        assert n_atom.hcount == 0
        pyrrole = parse("c1cc[nH]c1")
        n_atom = next(a for a in pyrrole.atoms if a.element == "N")
        assert n_atom.hcount == 1

    def test_ring_bond_order_variants(self):
        assert parse("C=1CCCCC=1") == parse("C1CCCCC=1") == parse("C1=CCCCC1")

    def test_biphenyl_linker_is_single(self):
        m = parse("c1ccccc1c1ccccc1")
        orders = sorted(b.order for b in m.bonds)
        assert orders.count("single") == 1
        assert m == parse("c1ccccc1-c1ccccc1")


class TestCanonical:
    def test_same_graph_same_string(self):
        assert parse("OCC").canonical == parse("CCO").canonical

    def test_idempotent(self):
        for s in ["CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "C[N+](=O)[O-]",
                  "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C1CC2CCC1CC2"]:
            c = parse(s).canonical
            assert parse(c).canonical == c

    def test_permutations_single_canonical(self):
        # 200 random atom-order permutations of a fixed 20-atom molecule
        m = parse("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
        assert len(m.atoms) == 15
        big = parse("CCn1c(=O)n(CC(=O)NCC(C)C)c2ccccc21")
        assert len(big.atoms) == 20
        rng = random.Random(7)
        seen = set()
        for _ in range(200):
            perm = list(range(len(big.atoms)))
            rng.shuffle(perm)
            seen.add(relabel(big, perm).canonical)
        assert len(seen) == 1

    def test_round_trip_graph_isomorphic(self):
        for s in ["CCO", "c1ccccc1", "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
                  "c1ccc2ccccc2c1", "CS(=O)(=O)N", "C#N", "[O-]C(=O)C"]:
            m = parse(s)
            m2 = parse(m.canonical)
            assert graph_signature(m) == graph_signature(m2)
            assert m2.canonical == m.canonical

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_property(self, seed):
        m = parse("CN1CCCC1c1cccnc1")
        rng = random.Random(seed)
        perm = list(range(len(m.atoms)))
        rng.shuffle(perm)
        assert relabel(m, perm).canonical == m.canonical


class TestScaffold:
    def test_side_chain_pruned(self):
        sc = scaffold_of(parse("CCc1ccccc1"))
        assert sc == parse("c1ccccc1").canonical
        assert parse(sc).ring_count() == 1

    def test_acyclic_empty(self):
        assert scaffold_of(parse("CCCCCC")) == ""
        assert scaffold_of(parse("C")) == ""

    def test_linker_retained(self):
        # hand fixed point: both rings plus the 2-carbon linker survive
        sc = scaffold_of(parse("c1ccccc1CCc1ccccc1"))
        assert parse(sc).heavy_atom_count() == 14
        assert parse(sc).ring_count() == 2
        assert sc == parse("c1ccccc1CCc1ccccc1").canonical

    def test_fixed_point(self):
        for s in ["CCc1ccccc1", "c1ccccc1CCc1ccccc1", "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
                  "CN1CCCC1c1cccnc1"]:
            sc = scaffold_of(parse(s))
            assert scaffold_of(parse(sc)) == sc
            assert parse(sc).ring_count() == parse(s).ring_count()

    def test_exocyclic_double_bond_pruned(self):
        sc = scaffold_of(parse("O=C1CCCC1"))
        assert sc == parse("C1CCCC1").canonical

    def test_write_order_twins_share_their_writers_scaffold(self):
        # computed once per molecule: a twin made after its writer's scaffold
        # holds the writer's, one made before computes its own from its own
        # atom order, and both hold the writer's string
        rng = random.Random(11)
        for source in CORPUS[:40]:
            perm = list(range(len(parse(source).atoms)))
            rng.shuffle(perm)
            writer = relabel(parse(source), perm)
            early = twin_of(writer)
            # the scaffold's own search may write the same string (a bare
            # ring system), so the writer's search is kept from before
            written = molgraph._WRITTEN[writer.canonical]
            sc = scaffold_of(writer)
            assert writer._fp_cache["scaffold"] is sc
            late = molgraph._write_order_twin(writer.canonical, written)
            assert late._fp_cache["scaffold"] is sc
            assert "scaffold" not in early._fp_cache
            assert scaffold_of(early) == sc, source


class TestMutate:
    def test_delete_terminal(self):
        outs = {mutate(parse("CCO"), "delete_terminal_atom", seed).canonical
                for seed in range(20)}
        assert outs <= {"CC", "CO"}
        assert "CC" in outs  # some seed picks the oxygen

    def test_append_terminal(self):
        m = mutate(parse("C"), "append_terminal_atom", 3)
        assert len(m.atoms) == 2
        assert m.bonds[0].order == "single"

    def test_change_bond_order(self):
        outs = {mutate(parse("CC"), "change_bond_order", seed).canonical
                for seed in range(10)}
        assert "C=C" in outs

    def test_deterministic(self):
        for op in EDIT_OPERATORS:
            a = mutate(parse("CCO"), op, 42)
            b = mutate(parse("CCO"), op, 42)
            assert a.canonical == b.canonical

    def test_no_applicable_site(self):
        with pytest.raises(NoApplicableSiteError):
            mutate(parse("C"), "delete_terminal_atom", 0)
        with pytest.raises(NoApplicableSiteError):
            mutate(parse("c1ccccc1"), "change_bond_order", 0)

    @given(st.integers(min_value=0, max_value=5000),
           st.sampled_from(EDIT_OPERATORS))
    @settings(max_examples=80, deadline=None)
    def test_outputs_valid(self, seed, op):
        m = parse("CC(C)c1ccc(O)cc1")
        try:
            out = mutate(m, op, seed)
        except (NoApplicableSiteError, ValenceError):
            return
        # output must survive parse-level validation via its own string
        assert parse(out.canonical) == out

    def test_handed_on_ring_flags_equal_a_fresh_ring_search(self):
        # the golden mutate inputs: each edit keeps its parent's ring flags
        mismatches = []
        for line in GOLDEN.read_text().splitlines():
            source, op, seed, want = line.split("\t")
            if line.startswith("#") or op == "parse" or want.startswith("!"):
                continue
            child = mutate(parse(source), op, int(seed))
            fresh = reference_ring_bond_flags(
                len(child.atoms), [(b.a, b.b) for b in child.bonds]
            )
            if child._ring_bonds != fresh:
                mismatches.append((source, op, seed))
        assert mismatches == []


class TestValenceTable:
    def test_shipped_table(self):
        table = molgraph._VALENCE_MAX
        assert (table["C"], table["N"], table["Cl"]) == (4, 5, 1)


class TestMoleculeInvariants:
    def test_disconnected_graph_rejected(self):
        atoms = [Atom("C", hcount=4), Atom("C", hcount=4)]
        with pytest.raises(MultiFragmentError):
            Molecule(atoms, [])

    def test_duplicate_bond_rejected(self):
        atoms = [Atom("C", hcount=2), Atom("C", hcount=2)]
        bonds = [Bond(0, 1, "single"), Bond(1, 0, "single")]
        with pytest.raises(SmilesSyntaxError):
            Molecule(atoms, bonds)

    def test_self_bond_rejected(self):
        with pytest.raises(SmilesSyntaxError):
            Molecule([Atom("C", hcount=4)], [Bond(0, 0, "single")])

    @pytest.mark.parametrize("bonds", [[Bond(0, 5)], [Bond(0, 1), Bond(2, 1)],
                                       [Bond(-1, 0)], [Bond(7, 0)]])
    def test_bond_end_out_of_range_rejected(self, bonds):
        # checked before the build indexes the atoms by the ends
        with pytest.raises(SmilesSyntaxError, match="bond endpoint out of range"):
            Molecule([Atom("C", hcount=3)] * 2, bonds)

    def test_bond_without_atoms_rejected(self):
        with pytest.raises(SmilesSyntaxError, match="bond endpoint out of range"):
            Molecule([], [Bond(0, 1)])

    def test_equality_by_canonical(self):
        assert parse("OCC") == parse("CCO")
        assert hash(parse("OCC")) == hash(parse("CCO"))
        assert parse("CCO") != parse("CCN")


class TestCanonicalHardGraphs:
    def _assert_invariant(self, mol, perms=40, seed=5):
        rng = random.Random(seed)
        seen = {mol.canonical}
        for _ in range(perms):
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            seen.add(relabel(mol, perm).canonical)
        assert len(seen) == 1
        assert parse(mol.canonical).canonical == mol.canonical

    def test_cubane_cage(self):
        # every vertex equivalent: worst case for invariant refinement
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                 (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
        mol = Molecule(
            [Atom("C", hcount=1)] * 8,
            [Bond(a, b, "single") for a, b in edges],
        )
        self._assert_invariant(mol)

    def test_adamantane(self):
        self._assert_invariant(parse("C1C2CC3CC1CC(C2)C3"))

    def test_biphenylene_ring_single_bonds(self):
        # single bonds inside a ring between aromatic atoms must re-parse
        # as single, not default to aromatic
        mol = parse("c1ccc2c(c1)-c1ccccc1-2")
        orders = sorted(b.order for b in mol.bonds)
        assert orders.count("single") == 2
        self._assert_invariant(mol)

    def test_fused_ladder(self):
        bonds = []
        for i in range(7):
            bonds += [Bond(i, i + 1, "single"), Bond(i + 8, i + 9, "single")]
        for i in range(8):
            bonds.append(Bond(i, i + 8, "single"))
        degree = [0] * 16
        for b in bonds:
            degree[b.a] += 1
            degree[b.b] += 1
        atoms = [Atom("C", hcount=4 - degree[i]) for i in range(16)]
        self._assert_invariant(Molecule(atoms, bonds), perms=25)


class TestCanonicalGolden:
    def test_strings_match_golden_and_survive_relabeling(self):
        # every corpus row plus four seeded edits of it, each with the
        # canonical string (or the error) the exhaustive, unpruned search
        # gave; checked again under one random atom order per molecule
        rng = random.Random(2)
        mismatches = []
        rows = [
            line.split("\t")
            for line in GOLDEN.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 2500
        for source, op, seed, want in rows:
            try:
                mol = parse(source)
                if op != "parse":
                    mol = mutate(mol, op, int(seed))
            except SmilesError as exc:
                got = "!" + type(exc).__name__
                if got != want:
                    mismatches.append((source, op, seed, got, want))
                continue
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            for got in (mol.canonical, relabel(mol, perm).canonical):
                if got != want:
                    mismatches.append((source, op, seed, got, want))
        assert mismatches == []


SYMMETRIC = [
    # (name, SMILES, heavy atoms, bonds, canonical string or None)
    ("tetra-tert-butylmethane", "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C", 17, 16,
     "CC(C(C(C)(C)C)(C(C)(C)C)C(C)(C)C)(C)C"),
    ("perfluoro-tetra-tert-butylmethane",
     "C(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)"
     "(C(C(F)(F)F)(C(F)(F)F)C(F)(F)F)C(C(F)(F)F)(C(F)(F)F)C(F)(F)F", 53, 52, None),
    ("cubane", "C12C3C4C1C5C2C3C45", 8, 12, "C12C3C4C1C1C2C3C14"),
    ("dodecahedrane", "C12C3C4C5C1C6C7C2C8C3C9C4C%10C5C6C%11C7C8C9C%10%11", 20, 30,
     "C12C3C4C5C1C1C6C2C2C3C3C4C4C5C1C1C6C2C3C14"),
    ("C60",
     "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9c4"
     "c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41", 60, 90,
     "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9c4"
     "c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c14"),
]


class TestSymmetricGraphs:
    @pytest.mark.parametrize("name,smiles,n_atoms,n_bonds,canonical", SYMMETRIC,
                             ids=[row[0] for row in SYMMETRIC])
    def test_one_string_in_under_a_second(self, name, smiles, n_atoms, n_bonds,
                                          canonical):
        # the unpruned search ran out of its leaf budget on the two
        # tert-butyl graphs; the pinned strings are its results on the others
        # (tetra-tert-butylmethane's with the budget lifted)
        rng = random.Random(len(smiles))
        began = time.perf_counter()
        mol = molgraph._parse_text(smiles)
        strings = {mol.canonical}
        for _ in range(3):
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            strings.add(relabel(mol, perm).canonical)
        elapsed = time.perf_counter() - began
        assert (len(mol.atoms), len(mol.bonds)) == (n_atoms, n_bonds)
        assert len(strings) == 1
        assert elapsed < 1.0
        if canonical is not None:
            assert mol.canonical == canonical
        assert parse(mol.canonical).canonical == mol.canonical

    def test_chain_deeper_than_the_recursion_limit(self):
        # the writer walks the spanning tree with its own stack
        chain = "C" * (sys.getrecursionlimit() + 100)
        assert parse(chain).canonical == chain


class TestCanonicalizationBudget:
    def test_trip_is_a_smiles_error(self, no_canon_leaves):
        with pytest.raises(CanonicalizationBudgetError) as info:
            parse("CC(C)C").canonical
        assert isinstance(info.value, SmilesError)
        # no tie, no search: a single leaf written directly
        assert parse("CCO").canonical == "CCO"

    def test_trip_is_not_cached(self, no_canon_leaves, monkeypatch):
        with pytest.raises(CanonicalizationBudgetError):
            parse("CC(C)C").canonical
        monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 20_000)
        assert parse("CC(C)C").canonical == "CC(C)C"


class TestParseCache:
    def test_repeated_text_returns_same_object(self):
        assert parse("CCOc1ccccc1") is parse("CCOc1ccccc1")
        assert parse("  CCOc1ccccc1\n") is parse("CCOc1ccccc1")

    def test_stays_within_capacity(self):
        first = parse("CCCN")
        for length in range(1, 101):
            parse("C" * length + "N")
        assert len(molgraph._PARSED) == molgraph._PARSED.size == 64
        again = parse("CCCN")
        assert again is not first
        assert again == first

    def test_invalid_text_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(UnmatchedRingError):
                parse("C1CC")
            with pytest.raises(SmilesSyntaxError):
                parse("C²")

    def test_fingerprint_of_cached_molecule_matches_fresh(self):
        text = "CC(=O)Nc1ccc(O)cc1"
        cached = parse(text)
        first = morgan_fp(cached)
        assert parse(text) is cached
        assert morgan_fp(parse(text)) == first
        fresh = molgraph._parse_text(text)
        assert morgan_fp(fresh) == first


def parsed_equal(twin: Molecule, text: str) -> bool:
    """Whether `twin` is, field for field, what parsing `text` builds."""
    fresh = molgraph._parse_text(text)
    return (
        twin.atoms == fresh.atoms
        and twin.bonds == fresh.bonds
        and twin._adj == fresh._adj
        and twin._ring_bonds == fresh._ring_bonds
        and twin._ring_atoms == fresh._ring_atoms
        and twin.canonical == fresh.canonical == text
    )


def twin_of(mol: Molecule) -> Molecule:
    """The write-order twin of `mol`'s canonical string, from `mol` itself."""
    written = molgraph._WRITTEN[mol.canonical]
    assert written[0] is mol
    return molgraph._write_order_twin(mol.canonical, written)


class TestSubgraphMemo:
    def test_a_core_whose_search_trips_is_never_kept(self, monkeypatch):
        mol = molgraph._parse_text("CCC1CCCCC1")  # no scaffold kept yet
        molgraph._SUBGRAPHS.clear()
        molgraph._NAMES.clear()  # the core's graph may have been named before
        monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 0)
        for _ in range(3):
            with pytest.raises(CanonicalizationBudgetError):
                scaffold_of(mol)
            assert len(molgraph._SUBGRAPHS) == 0
        assert "scaffold" not in mol._fp_cache
        monkeypatch.undo()
        assert scaffold_of(mol) == "C1CCCCC1"
        assert list(molgraph._SUBGRAPHS.values()) == ["C1CCCCC1"]

    def test_stays_within_its_bound(self):
        # more subgraphs than the memo keeps: whole corpus graphs and their
        # cores; the one used last is still kept
        memo = molgraph._SUBGRAPHS
        assert memo.size == 512
        for source in CORPUS:
            mol = parse(source)
            whole = molgraph.subgraph_name(mol, set(range(len(mol.atoms))))
            assert whole == mol.canonical
            scaffold_of(mol)
            assert len(memo) <= 512
        assert len(memo) == 512
        last = parse(CORPUS[-1])
        core = scaffold_of(last)
        assert molgraph.subgraph_name(last, molgraph.scaffold_atoms(last)) is core

    def test_holds_strings_only(self):
        molgraph._SUBGRAPHS.clear()
        for source in CORPUS[:100] + DRUG_LEADS:
            mol = molgraph._parse_text(source)
            scaffold_of(mol)
            skillbank._fragment_string(mol, set(range(0, len(mol.atoms), 3)))
            molgraph.subgraph_name(mol, set(range(len(mol.atoms))))
        assert len(molgraph._SUBGRAPHS) > 100
        assert {type(value) for value in molgraph._SUBGRAPHS.values()} == {str}

    def test_keys_hold_the_graph_only(self):
        # a key is the subgraph's atom and bond fields, nothing else: every
        # molecule is validated, so no key says whether its build was
        assert list(inspect.signature(molgraph.subgraph_name).parameters) == ["m", "keep"]
        molgraph._SUBGRAPHS.clear()
        graphs = set()
        for source in CORPUS[:50]:
            mol = molgraph._parse_text(source)
            for keep in (molgraph.scaffold_atoms(mol), set(range(0, len(mol.atoms), 2))):
                graphs.add(molgraph._induced_fields(mol, keep))
                molgraph.subgraph_name(mol, keep)
        assert set(molgraph._SUBGRAPHS.keys()) == graphs

    @given(st.sampled_from(CORPUS), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_strings_do_not_depend_on_atom_order(self, source, rng, cold):
        # a relabelled copy names the same core and fragments, whether the
        # memo is cleared first or already holds its subgraphs
        mol = parse(source)
        n = len(mol.atoms)
        perm = list(range(n))
        rng.shuffle(perm)
        inv = {old: new for new, old in enumerate(perm)}
        outside = {i for i in range(n) if rng.random() < 0.4}
        want = (scaffold_of(mol), skillbank._fragment_string(mol, outside))
        for _ in range(2):  # warm, the second copy finds the first's subgraphs
            if cold:
                molgraph._SUBGRAPHS.clear()
            other = relabel(mol, perm)
            got = (scaffold_of(other),
                   skillbank._fragment_string(other, {inv[i] for i in outside}))
            assert got == want, (source, perm, sorted(outside))
        if not cold:
            again = relabel(mol, perm)
            assert scaffold_of(again) is scaffold_of(other)


@st.composite
def edited_molecules(draw) -> Molecule:
    """A corpus row or drug-sized lead, then up to six random edits."""
    mol = parse(draw(st.sampled_from(CORPUS + DRUG_LEADS)))
    for op, seed in draw(st.lists(st.tuples(st.sampled_from(EDIT_OPERATORS),
                                            st.integers(0, 10**6)), max_size=6)):
        try:
            mol = mutate(mol, op, seed)
        except (NoApplicableSiteError, ValenceError):
            pass
    return mol


class TestScaffoldRingCount:
    def test_every_corpus_row_and_drug_lead(self):
        for source in CORPUS + DRUG_LEADS:
            assert_has_its_cores_ring_count(parse(source))

    @given(edited_molecules())
    @settings(max_examples=200, deadline=None)
    def test_edited_molecules(self, mol):
        assert_has_its_cores_ring_count(mol)


class TestScaffoldCoresAreValid:
    # a core is named by the unchecked build, yet the validating
    # constructor accepts it and writes the same string: pruning removes
    # only non-ring atoms, and hydrogens refill every cut bond
    def test_every_corpus_row_and_drug_lead(self):
        for source in CORPUS + DRUG_LEADS:
            assert_its_core_is_valid(molgraph._parse_text(source))

    @given(edited_molecules())
    @settings(max_examples=200, deadline=None)
    def test_edited_molecules(self, mol):
        assert_its_core_is_valid(mol)


def assert_its_core_is_valid(mol: Molecule) -> None:
    atoms, bonds = molgraph._induced_fields(mol, molgraph.scaffold_atoms(mol))
    core = Molecule([Atom(*f) for f in atoms], [Bond(*f) for f in bonds])
    assert core.canonical == scaffold_of(mol), mol.canonical


def assert_has_its_cores_ring_count(mol: Molecule) -> None:
    # pruning a terminal non-ring atom drops one atom and one bond, so an
    # edit card may compare the whole molecules' ring counts
    core = scaffold_of(mol)
    assert (parse(core).ring_count() if core else 0) == mol.ring_count(), mol.canonical


class TestWriteOrderTwin:
    def test_equals_parse_on_golden_inputs_and_relabelings(self):
        rng = random.Random(4)
        mismatches = []
        rows = [
            line.split("\t")
            for line in GOLDEN.read_text().splitlines()
            if not line.startswith("#")
        ]
        for source, op, seed, want in rows:
            if want.startswith("!"):
                continue
            mol = molgraph._parse_text(source)
            if op != "parse":
                mol = mutate(mol, op, int(seed))
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            for order in (sorted(perm), perm):
                if not parsed_equal(twin_of(relabel(mol, order)), want):
                    mismatches.append((source, op, seed))
        assert mismatches == []

    @given(
        st.sampled_from(CORPUS),
        st.lists(
            st.tuples(st.sampled_from(EDIT_OPERATORS), st.integers(0, 10**6)),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_parse_along_mutate_chains(self, source, edits):
        # a fresh parent: the one parse() caches may hand back a child named
        # long ago, whose string is no longer remembered as its own write
        mol = molgraph._parse_text(source)
        for op, seed in edits:
            try:
                mol = mutate(mol, op, seed)
            except (NoApplicableSiteError, ValenceError):
                continue
            twin = twin_of(mol)
            assert parsed_equal(twin, mol.canonical)
            mol = twin

    def test_twin_never_writes(self, monkeypatch):
        # the twin reads the trace of the write that produced the best
        # string, for tied searches too
        writes = []
        real_write = molgraph._Canonicalizer._write

        def counted_write(canon, *args):
            writes.append(canon)
            return real_write(canon, *args)

        monkeypatch.setattr(molgraph._Canonicalizer, "_write", counted_write)
        # the searches whose refined ranks tied
        visits = []
        real_visit = molgraph._Canonicalizer._visit

        def counted_visit(canon, *args):
            visits.append(canon)
            return real_visit(canon, *args)

        monkeypatch.setattr(molgraph._Canonicalizer, "_visit", counted_visit)
        tied = 0
        for line in GOLDEN.read_text().splitlines()[1::5]:
            source, op, seed, want = line.split("\t")
            if want.startswith("!"):
                continue
            mol = molgraph._parse_text(source)
            if op != "parse":
                mol = mutate(mol, op, int(seed))
            mol.canonical
            tied += any(canon.mol is mol for canon in visits)
            before = len(writes)
            twin = twin_of(mol)
            assert len(writes) == before, (source, op, seed)
            assert twin.canonical == mol.canonical == want
        assert tied

    def test_parse_of_a_written_string_skips_the_parser(self, monkeypatch):
        mol = mutate(parse("CC(C)c1ccccc1O"), "append_terminal_atom", 3)
        fp = morgan_fp(mol)

        def no_parse(*args):
            raise AssertionError("parsed a string the program had just written")

        monkeypatch.setattr(molgraph, "_parse_text", no_parse)
        molgraph._PARSED.clear()
        twin = parse(mol.canonical)
        assert twin is not mol and twin == mol
        assert morgan_fp(twin) is fp  # fingerprints carried over

    def test_subgraph_names_are_not_remembered(self):
        # a skill fragment (aromatic atoms cut out of their ring) and a
        # scaffold core are named from the unchecked build, which parse
        # never sees
        mol = molgraph._parse_text("Cc1ccccc1CC(=O)O")
        molgraph._SUBGRAPHS.clear()
        molgraph._WRITTEN.clear()
        assert skillbank._fragment_string(mol, {1, 2}) == "cc"
        assert scaffold_of(mol) == "c1ccccc1"
        assert len(molgraph._WRITTEN) == 0
        with pytest.raises(SmilesSyntaxError):
            parse("cc")
        # every molecule's own name is remembered
        assert parse(mol.canonical) is not mol
        assert molgraph._WRITTEN[mol.canonical][0] is mol

    def test_budget_trip_survives_an_earlier_write(self, request):
        # methyls tie, so the search needs leaves
        written = Molecule(
            [Atom("C", hcount=3), Atom("C", hcount=1), Atom("C", hcount=3),
             Atom("C", hcount=2), Atom("O", hcount=1)],
            [Bond(0, 1), Bond(1, 2), Bond(1, 3), Bond(3, 4)],
        )
        assert written.canonical in molgraph._WRITTEN
        request.getfixturevalue("no_canon_leaves")
        with pytest.raises(CanonicalizationBudgetError):
            parse(written.canonical).canonical

    def test_remembers_the_last_few_strings(self):
        last = molgraph._WRITTEN.size + 8
        for length in range(1, last + 1):
            Molecule(
                [Atom("C", hcount=3 if k in (0, length) else 2) for k in range(length + 1)],
                [Bond(k, k + 1) for k in range(length)],
            ).canonical
        assert len(molgraph._WRITTEN) == molgraph._WRITTEN.size == 64
        assert "C" * (last + 1) in molgraph._WRITTEN
        assert "CC" not in molgraph._WRITTEN


class TestParseTotality:
    @pytest.mark.parametrize(
        "text", ["C²", "[²C]", "[CH²]", "C١CC١", "C%١٢CC%١٢", "[C+²]", "[C:²]"]
    )
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(SmilesSyntaxError):
            parse(text)

    def test_overlong_bracket_number_rejected(self):
        # more digits than int() converts from text
        with pytest.raises(SmilesSyntaxError):
            parse("[1" + "0" * 5000 + "C]")

    @given(ANY_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_raises_smiles_error(self, text):
        try:
            mol = parse(text)
        except SmilesError:
            return
        assert isinstance(mol, Molecule)
        assert parse(mol.canonical) == mol


# ---------------------------------------------------------------------------
# The reader as it was before it read a text in one pass, kept as the
# reference the reader must match: the grammar's output turned into a
# molecule by the general constructor, with ring flags from a ring search
# over the whole graph (Tarjan's low-link bridge search, also the reference
# for the constructor's ring flags) and every check a constructed molecule
# gets.
# ---------------------------------------------------------------------------


def reference_ring_bond_flags(n: int, edges: Sequence[tuple[int, int]]) -> list[bool]:
    """True for every bond on a cycle, given each bond's (a, b) pair;
    bridges are the only non-ring bonds."""
    if n == 0 or not edges:
        return [False] * len(edges)
    # per atom: (neighbour, bond index)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for b_idx, (a, b) in enumerate(edges):
        adj[a].append((b, b_idx))
        adj[b].append((a, b_idx))
    # back edges always close a cycle; tree edges checked with low-links
    flags = [True] * len(edges)
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # (atom, the tree bond it was reached by, its unread neighbours)
        stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = [
            (root, -1, iter(adj[root]))
        ]
        while stack:
            node, via, it = stack[-1]
            for nbr, b_idx in it:
                if b_idx == via:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    stack.append((nbr, b_idx, iter(adj[nbr])))
                    break
                low[node] = min(low[node], disc[nbr])
            else:
                stack.pop()
                if stack:
                    up = stack[-1][0]
                    low[up] = min(low[up], low[node])
                    if low[node] > disc[up]:
                        flags[via] = False
    return flags


def reference_parse(text: str) -> Molecule:
    tokens, graph, _ = molgraph._smiles_graph(text)
    atoms = [Atom(t.capitalize(), t.islower()) if isinstance(t, str) else t for t in tokens]
    flags = reference_ring_bond_flags(len(atoms), [(a, b) for a, b, _ in graph])
    bonds = []
    for in_ring, (a, b, order) in zip(flags, graph):
        if order is None:
            both = atoms[a].aromatic and atoms[b].aromatic
            order = "aromatic" if both and in_ring else "single"
        bonds.append(Bond(a, b, order))
    spent = [0] * len(atoms)
    for bond in bonds:
        spent[bond.a] += molgraph._ORDER_ELECTRONS[bond.order]
        spent[bond.b] += molgraph._ORDER_ELECTRONS[bond.order]
    for idx, token in enumerate(tokens):
        if isinstance(token, str):
            atom = atoms[idx]
            atoms[idx] = Atom(atom.element, atom.aromatic, hcount=molgraph._implicit_hydrogens(
                atom.element, atom.aromatic, spent[idx]))
    return Molecule(atoms, bonds)


def read_outcome(read, text: str) -> tuple:
    """The graph `read` makes of `text`, bond types and ring flags
    included, or the class and message of the error it raises."""
    try:
        mol = read(text)
    except SmilesError as exc:
        return type(exc), str(exc)
    return (mol.atoms, mol.bonds, [type(b) for b in mol.bonds], mol._ring_bonds,
            mol._ring_atoms, mol._adj)


def golden_texts() -> list[str]:
    """Every SMILES string of the golden tables: each source, each
    canonical string and each edit card's child."""
    texts = set()
    for name, columns in (("canonical_strings", (0, 3)), ("edit_cards", (0, 1)),
                          ("fg_tags", (0,)), ("morgan_bits", (0,))):
        for line in (Path(__file__).parent / "golden" / f"{name}.tsv").read_text().splitlines():
            if not line.startswith("#"):
                fields = line.split("\t")
                texts.update(fields[k] for k in columns if not fields[k].startswith("!"))
    return sorted(texts)


GOLDEN_TEXTS = golden_texts()


@st.composite
def edited_rows(draw) -> str:
    """A corpus row with one character replaced, inserted or deleted, which
    reaches the checks after the grammar far more often than random text."""
    text = list(draw(st.sampled_from(CORPUS)))
    at = draw(st.integers(0, len(text) - 1))
    how = draw(st.sampled_from(("replace", "insert", "delete")))
    if how == "delete":
        del text[at]
    else:
        text[at:at + (how == "replace")] = [draw(st.sampled_from(SMILES_ALPHABET))]
    return "".join(text)


def closure_text(parent: list[int], extra: list[tuple[int, int]]) -> str:
    """SMILES text over 'C' for the tree where atom i > 0 hangs from
    parent[i] < i, written depth first with every child but the last in a
    branch, and the `extra` bonds written as ring closures, digits reused as
    soon as they close. Valence is not checked: only the grammar reads it."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for child in range(1, n):
        children[parent[child]].append(child)
    rings: list[list[int]] = [[] for _ in range(n)]
    for a, b in extra:
        rings[a].append(b)
        rings[b].append(a)
    position, stack = {}, [0]
    while stack:
        atom = stack.pop()
        position[atom] = len(position)
        stack.extend(reversed(children[atom]))
    free, digits, out, stack = list(range(1, 100)), {}, [], [0]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("C")
        for other in sorted(rings[item], key=position.get):
            if position[other] < position[item]:
                digit = digits.pop((other, item))
                heapq.heappush(free, digit)
            else:
                digit = digits[(item, other)] = heapq.heappop(free)
            out.append(str(digit) if digit < 10 else f"%{digit:02d}")
        kids = children[item]
        if kids:
            stack.append(kids[-1])
            for child in reversed(kids[:-1]):
                stack += [")", child, "("]
    return "".join(out)


@st.composite
def closure_texts(draw, max_atoms: int = 80) -> str:
    """Random trees, long paths favoured, with up to 40 ring closures that
    often overlap."""
    n = draw(st.integers(1, max_atoms))
    parent = [0] + [draw(st.sampled_from((i - 1, draw(st.integers(0, i - 1)))))
                    for i in range(1, n)]
    tree = {(parent[i], i) for i in range(1, n)}
    extra = {
        (min(a, b), max(a, b))
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=40))
        if a != b and (min(a, b), max(a, b)) not in tree
    }
    return closure_text(parent, sorted(extra))


def assert_closure_flags_equal_a_ring_search(text: str) -> None:
    tokens, graph, closures = molgraph._smiles_graph(text)
    edges = [(a, b) for a, b, _ in graph]
    assert molgraph._closure_ring_flags(len(tokens), graph, closures) == (
        reference_ring_bond_flags(len(tokens), edges))


class TestReaderMatchesReference:
    def test_corpus_rows_and_golden_texts(self):
        assert len(GOLDEN_TEXTS) > 1000
        for text in CORPUS + GOLDEN_TEXTS:
            assert read_outcome(molgraph._parse_text, text) == read_outcome(reference_parse, text)

    @given(st.one_of(ANY_TEXT, edited_rows()))
    @settings(max_examples=600, deadline=None)
    def test_any_text(self, text):
        assert read_outcome(molgraph._parse_text, text) == read_outcome(reference_parse, text)

    def test_every_bare_atom_is_interned(self):
        # one object per (token, hydrogen count), reused across reads
        first, second = molgraph._parse_text("CCOc1ccccc1"), molgraph._parse_text("c1ccccc1OCC")
        assert first.atoms[0] is second.atoms[-1] and first.atoms[4] is second.atoms[0]

    @pytest.mark.parametrize("text", ["CC:C", "C1CC:1", "c1cccc:c1:c", "C1CCC[cH]:1"])
    def test_an_explicit_aromatic_bond_is_still_checked(self, text):
        want = read_outcome(reference_parse, text)
        assert want[0] is SmilesSyntaxError
        assert read_outcome(molgraph._parse_text, text) == want


class TestClosureRingFlags:
    def test_corpus_rows_and_golden_texts(self):
        for text in CORPUS + GOLDEN_TEXTS:
            assert_closure_flags_equal_a_ring_search(text)

    @given(closure_texts())
    @settings(max_examples=300, deadline=None)
    def test_random_trees_and_closures(self, text):
        assert_closure_flags_equal_a_ring_search(text)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_overlapping_closures(self, seed):
        # a 3,000-atom path with side chains, deeper than the recursion
        # limit, and 45 closures whose paths overlap one another
        rng = random.Random(seed)
        n = 3000
        parent = [0] + [i - 1 if rng.random() < 0.9 else rng.randrange(i) for i in range(1, n)]
        tree = {(parent[i], i) for i in range(1, n)}
        extra = set()
        while len(extra) < 45:
            a = rng.randrange(n - 200)
            pair = (a, a + rng.randrange(2, 200))
            if pair not in tree:
                extra.add(pair)
        text = closure_text(parent, sorted(extra))
        assert_closure_flags_equal_a_ring_search(text)
        tokens, graph, closures = molgraph._smiles_graph(text)
        flags = molgraph._closure_ring_flags(len(tokens), graph, closures)
        assert any(flags) and not all(flags)


@st.composite
def any_graphs(draw, max_atoms: int = 40) -> tuple[int, list[tuple[int, int]]]:
    """Any simple graph on up to `max_atoms` atoms, connected or not: a
    random forest (each atom hangs from an earlier one or starts a tree)
    plus up to 20 more bonds, its atoms then numbered in a random order,
    each bond turned either way and the bonds listed in a random order."""
    n = draw(st.integers(0, max_atoms))
    pairs = set()
    for i in range(1, n):
        parent = draw(st.integers(-1, i - 1))
        if parent >= 0:
            pairs.add((parent, i))
    if n:
        for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=20)):
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    number = draw(st.permutations(range(n)))
    edges = [(number[a], number[b]) if draw(st.booleans()) else (number[b], number[a])
             for a, b in sorted(pairs)]
    return n, draw(st.permutations(edges))


class TestRingBondFlags:
    @given(any_graphs())
    @settings(max_examples=500, deadline=None)
    def test_equal_the_low_link_search(self, graph):
        n, edges = graph
        assert molgraph._ring_bond_flags(n, [Bond(a, b) for a, b in edges]) == (
            reference_ring_bond_flags(n, edges))

    @pytest.mark.parametrize("seed", range(2))
    def test_long_graphs_in_any_order(self, seed):
        # a 3,000-atom path with side chains and 45 closures, its atoms
        # shuffled: deeper than the recursion limit
        rng = random.Random(seed)
        n = 3000
        edges = [(i - 1 if rng.random() < 0.9 else rng.randrange(i), i) for i in range(1, n)]
        edges += [(a, a + rng.randrange(2, 200)) for a in rng.sample(range(n - 200), 45)]
        edges = list(dict.fromkeys(edges))
        number = list(range(n))
        rng.shuffle(number)
        edges = [(number[a], number[b]) for a, b in edges]
        want = reference_ring_bond_flags(n, edges)
        assert any(want) and not all(want)
        assert molgraph._ring_bond_flags(n, [Bond(a, b) for a, b in edges]) == want


class TestEditChildren:
    @given(
        st.sampled_from(CORPUS),
        st.lists(
            st.tuples(st.sampled_from(EDIT_OPERATORS), st.integers(0, 10**6)),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_checking_the_edited_atoms_is_enough(self, source, edits):
        # a chain of deferred children, each checked only where it was
        # edited, against a full validation and an eager construction; a
        # fresh parent, since parse() may hand back one with named children
        mol = molgraph._parse_text(source)
        for op, seed in edits:
            try:
                child = molgraph._edit(mol, op, seed)
            except NoApplicableSiteError:
                continue
            assert child._canonical is None
            child._validate()
            assert child.canonical == Molecule(child.atoms, child.bonds).canonical
            assert parse(child.canonical) == child
            mol = child

    def test_a_parent_that_breaks_a_rule_cannot_be_built(self):
        # an aromatic atom outside a ring: its children would be checked
        # only at the edited atoms, so the constructor must refuse it, and
        # it has no way to skip the checks
        atoms = [Atom("C", hcount=3), Atom("C", aromatic=True), Atom("C", hcount=3)]
        bonds = [Bond(0, 1), Bond(1, 2)]
        with pytest.raises(SmilesSyntaxError, match="not in a ring"):
            Molecule(atoms, bonds)
        with pytest.raises(TypeError):
            Molecule(atoms, bonds, validate=False)
        frag = Molecule._assemble(tuple(atoms), tuple(bonds), [False, False])
        with pytest.raises(SmilesSyntaxError, match="not in a ring"):
            frag._validate()


MORGAN_GOLDEN = Path(__file__).parent / "golden" / "morgan_bits.tsv"


def structure(mol: Molecule) -> tuple:
    return (mol.atoms, mol.bonds, mol._adj, mol._ring_bonds, mol._ring_atoms)


class TestEditMemo:
    def test_repeated_edits_match_fresh_edits_and_goldens(self):
        # every mutate row of the golden file, edited twice on one parent
        # per source: the second edit hands back the first child or fails
        # as the first did, and the child is the one a fresh parent gives,
        # with the golden string and fingerprint bits (the file's first bits
        # column, at the one fingerprint shape)
        bits = {}
        for line in MORGAN_GOLDEN.read_text().splitlines():
            if not line.startswith("#"):
                source, op, seed, default_bits, _ = line.split("\t")
                bits[source, op, seed] = default_bits
        parents: dict[str, Molecule] = {}
        mismatches = []
        checked = 0
        for line in GOLDEN.read_text().splitlines():
            source, op, seed, want = line.split("\t")
            if line.startswith("#") or op == "parse":
                continue
            if source not in parents:
                parents[source] = molgraph._parse_text(source)
            parent = parents[source]
            outcomes = []
            for _ in range(2):
                try:
                    outcomes.append(molgraph._edit(parent, op, int(seed)))
                except SmilesError as exc:
                    outcomes.append((type(exc), str(exc)))
            first, second = outcomes
            if isinstance(first, tuple):
                if second != first or "!" + first[0].__name__ != want:
                    mismatches.append((source, op, seed, first, second))
                continue
            assert second is first, (source, op, seed)
            fresh = molgraph._edit(molgraph._parse_text(source), op, int(seed))
            rebuilt = Molecule(first.atoms, first.bonds)
            if not (
                structure(first) == structure(fresh) == structure(rebuilt)
                and first._canonical is None
                and first.canonical == want
                and f"{morgan_fp(first).bits:x}" == bits[source, op, seed]
            ):
                mismatches.append((source, op, seed))
                continue
            # the memo keeps the edits of the child's write-order twin, not
            # those of the deferred child, and the twin starts with none
            written = molgraph._WRITTEN[first.canonical]
            assert written[0] is first
            twin = molgraph._write_order_twin(first.canonical, written)
            assert twin._keeps_edits and not first._keeps_edits
            assert all(mol is not twin for mol, _ in molgraph._EDIT_MEMO.values())
            assert parsed_equal(twin, want)
            checked += 1
        assert mismatches == []
        assert checked > 1500
        assert len(molgraph._EDIT_MEMO) == molgraph._EDIT_MEMO.size == 128
        for key, (mol, _) in molgraph._EDIT_MEMO.items():
            assert key[0] == id(mol) and mol._keeps_edits

    def test_the_memo_keeps_the_most_recently_used_edits(self):
        # more edit work than the memo keeps: the least recently used goes,
        # what is kept in use stays, and an edit rebuilt after it went equals
        # the one kept before
        source = "CC(C)Cc1ccc(cc1)C(C)C(=O)O"
        cold_parent, warm_parent = (molgraph._parse_text(source) for _ in range(2))
        cold = molgraph._edit(cold_parent, "substitute_atom", 0)
        warm = molgraph._edit(warm_parent, "substitute_atom", 0)
        for _ in range(molgraph._EDIT_MEMO.size):
            # another parent object, so another entry
            molgraph._edit(molgraph._parse_text(source), "substitute_atom", 0)
            assert molgraph._edit(warm_parent, "substitute_atom", 0) is warm
        assert len(molgraph._EDIT_MEMO) == molgraph._EDIT_MEMO.size
        again = molgraph._edit(cold_parent, "substitute_atom", 0)
        assert again is not cold and structure(again) == structure(cold)
        assert molgraph._edit(cold_parent, "substitute_atom", 0) is again

    def test_deferred_children_keep_no_children(self):
        parent = molgraph._parse_text("CCOc1ccccc1")
        child = molgraph._edit(parent, "append_terminal_atom", 5)
        grandchild = molgraph._edit(child, "append_terminal_atom", 5)
        assert not child._keeps_edits
        assert molgraph._edit(child, "append_terminal_atom", 5) is not grandchild
        # a molecule named when it was built keeps them
        named = Molecule(child.atoms, child.bonds)
        assert molgraph._edit(named, "append_terminal_atom", 5) is molgraph._edit(
            named, "append_terminal_atom", 5
        )

    def test_a_kept_child_whose_string_was_forgotten_parses_in_full(self):
        # a memo hit may hand back a child named long ago; once its string
        # has left the remembered writes, parsing it is a full parse, not a
        # write-order twin, and still gives an equal molecule
        source = "CC(C)(C)OC(=O)N1CCC(CC1)C#N"
        parent = parse(source)
        assert parse(source) is parent
        child = molgraph._edit(parent, "substitute_atom", 11)
        text = child.canonical
        assert molgraph._WRITTEN[text][0] is child
        for n in range(1, molgraph._WRITTEN.size + 2):
            molgraph._parse_text("C" * n).canonical
        assert text not in molgraph._WRITTEN
        assert molgraph._edit(parent, "substitute_atom", 11) is child
        reparsed = parse(text)
        assert reparsed == child and reparsed is not child
        assert parsed_equal(reparsed, text)



def golden_graphs() -> list[tuple[Molecule, str]]:
    """Each golden row that builds a molecule, built from a fresh parse and
    left unnamed, with its string."""
    out = []
    for line in GOLDEN.read_text().splitlines():
        source, op, seed, want = line.split("\t")
        if line.startswith("#") or want.startswith("!"):
            continue
        mol = molgraph._parse_text(source)
        if op != "parse":
            mol = molgraph._edit(mol, op, int(seed))
        out.append((mol, want))
    return out


@pytest.fixture
def searches(monkeypatch):
    """The molecules whose canonical search ran, in order."""
    ran = []
    real = molgraph._Canonicalizer.run

    def counted(canon):
        ran.append(canon.mol)
        return real(canon)

    monkeypatch.setattr(molgraph._Canonicalizer, "run", counted)
    return ran


class TestNameMemo:
    def test_golden_strings_cold_warm_and_relabelled(self, searches):
        rng = random.Random(3)
        mismatches = []
        graphs = golden_graphs()
        assert len(graphs) > 2000
        for mol, want in graphs:
            molgraph._NAMES.clear()
            cold = molgraph._canonical_string(mol)
            assert searches[-1] is mol
            warm = molgraph._canonical_string(mol)
            assert searches[-1] is mol and len(searches) == 1
            moved = relabelled(mol, rng)
            # a new atom order is another key, and its search names it alike
            if (cold, warm, molgraph._canonical_string(moved),
                    molgraph._canonical_string(moved)) != (want,) * 4:
                mismatches.append(want)
            searches.clear()
        assert mismatches == []

    def test_a_hit_still_gives_parse_its_write_order_twin(self, searches):
        for mol, want in golden_graphs()[::7]:
            molgraph._NAMES.clear()
            molgraph._canonical_string(mol)
            again = Molecule(mol.atoms, mol.bonds)  # the same graph, validated
            before = len(searches)
            assert again.canonical == want and len(searches) == before
            assert molgraph._WRITTEN[want][0] is again
            molgraph._PARSED.clear()
            twin = parse(want)
            assert twin is not again and len(searches) == before
            assert parsed_equal(twin, want), want

    def test_keys_tell_every_field_apart(self):
        # isopropanol's graph, then one field changed at a time
        atoms = [Atom("C", hcount=3), Atom("C", hcount=1), Atom("C", hcount=3),
                 Atom("O", hcount=1)]
        bonds = [Bond(0, 1), Bond(1, 2), Bond(1, 3)]

        def key(atoms, bonds):
            return molgraph._Canonicalizer(unnamed(atoms, bonds)).key

        def atom_with(idx, **fields):
            changed = list(atoms)
            changed[idx] = Atom(**{**vars(atoms[idx]), **fields})
            return changed

        variants = [
            (atoms, bonds),
            (atom_with(3, hcount=0), bonds),
            (atom_with(3, formal_charge=1), bonds),
            (atom_with(3, formal_charge=-1, hcount=0), bonds),
            (atom_with(0, isotope=13), bonds),
            (atom_with(0, isotope=14), bonds),
            (atoms, [Bond(0, 1), Bond(1, 2), Bond(1, 3, "double")]),
            (atoms, [Bond(0, 1), Bond(1, 2), Bond(2, 3)]),  # another bond end
            (atoms, [Bond(0, 1), Bond(1, 2), Bond(3, 1)]),  # the end turned round
            (atoms, [Bond(0, 1), Bond(1, 2), Bond(1, 3), Bond(0, 2)]),  # one more bond
            (atoms + [Atom("C", hcount=3)], bonds),  # one more atom
        ]
        keys = [key(*variant) for variant in variants]
        assert len(set(keys)) == len(variants)
        assert key(*variants[0]) == keys[0]
        assert all(isinstance(k, bytes) for k in keys)

    def test_threads_share_a_memo(self):
        # more threads than cores keeping and recalling overlapping keys past
        # the bound: no eviction races another, the bound holds, and every
        # value recalled is the one kept for its key
        memo = molgraph._Memo(64)
        errors = []

        def work(offset):
            try:
                for k in range(2000):
                    key = (offset + k) % 200
                    memo.keep(key, key * 3)
                    value = memo.recall((key + 7) % 200)
                    assert value is None or value == (key + 7) % 200 * 3
            except Exception as exc:  # reported below, with the thread's result
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i * 13,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(memo) == 64

    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.booleans(), st.integers(0, 9), st.integers(1, 99)), max_size=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_memo_is_a_least_recently_used_cache(self, size, ops):
        # against a list of (key, value) pairs, least recently used first
        memo, reference = molgraph._Memo(size), []
        for keep, key, value in ops:
            held = [v for k, v in reference if k == key]
            if keep:
                held = [value]
                memo.keep(key, value)
            else:
                assert memo.recall(key) == (held[0] if held else None)
            if held:
                reference = [(k, v) for k, v in reference if k != key] + [(key, held[0])]
                reference = reference[-size:]
            assert list(memo.items()) == reference and len(memo) <= size

    def test_a_search_that_trips_keeps_nothing(self, no_canon_leaves):
        mol = molgraph._parse_text("CC(C)C")  # the methyls tie
        for _ in range(2):
            with pytest.raises(CanonicalizationBudgetError):
                mol.canonical
            assert len(molgraph._NAMES) == 0 and len(molgraph._WRITTEN) == 0


class TestMemoRegistry:
    def test_forget_memos_empties_every_memo_a_search_fills(self):
        memos = {
            "parse": molgraph._PARSED, "write-order twin": molgraph._WRITTEN,
            "name": molgraph._NAMES, "subgraph": molgraph._SUBGRAPHS,
            "edit": molgraph._EDIT_MEMO, "fingerprint": chemfeat._FP_MEMO,
            "env hash": chemfeat._ENV_HASHES,
        }
        gc.collect()
        assert set(molgraph._MEMOS) == set(memos.values())
        molgraph.forget_memos()
        # a small greedy search with both memories and harvest
        objective = load_objective("qed")
        bank = build_bank(CORPUS[:40], [term.oracle for term in objective.terms])
        cfg = SearchConfig(generations=2, rollouts_per_gen=4, budget=40, max_turns=4,
                           seed=3, harvest_skills=True, harvest_delta=0.005)
        for source in CORPUS[:3]:
            optimize_lead(parse(source), cfg, get_policy("greedy"), objective,
                          exemplar_bank=bank, skill_bank=SkillBank())
        assert [name for name, memo in memos.items() if not memo] == []
        molgraph.forget_memos()
        assert {name: len(memo) for name, memo in memos.items()} == dict.fromkeys(memos, 0)

    def test_a_dropped_memo_leaves_the_registry(self):
        gc.collect()
        before = len(molgraph._MEMOS)
        memo = molgraph._Memo(4)
        memo.keep("key", "value")
        assert memo in molgraph._MEMOS and len(molgraph._MEMOS) == before + 1
        molgraph.forget_memos()
        assert len(memo) == 0
        del memo
        gc.collect()
        assert len(molgraph._MEMOS) == before


# ---------------------------------------------------------------------------
# The canonical search as it was before its one-pass setup, touched-cell
# refinement and rank-ordered writer, kept as the reference the search must
# match: every refine call's ranks, the strings, the best write traces, the
# leaf counts and the write-order twins. The reference records its refine
# calls in `refines`; nothing else differs.
# ---------------------------------------------------------------------------


def reference_initial_invariants(mol: Molecule) -> list[tuple]:
    inv = []
    for idx, atom in enumerate(mol.atoms):
        inv.append(
            (
                molgraph._ELEMENT_INDEX[atom.element],
                atom.aromatic,
                atom.formal_charge,
                atom.hcount,
                mol.degree(idx),
                mol.atom_in_ring(idx),
                atom.isotope or 0,
            )
        )
    return inv


def reference_dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def reference_refine(nbrs: list[list[tuple[int, int]]], ranks: list[int]) -> list[int]:
    """Split cells by their atoms' sorted (bond order, neighbour rank) lists
    until no cell splits; `nbrs[i]` holds atom i's (order sort key, neighbour).

    A pass equals dense-ranking every atom's key (rank, neighbour list): the
    rank part keeps cells in place, so only cells of two or more atoms are
    keyed, and the atoms of a cell that does not split keep one rank.
    """
    n = len(ranks)
    while True:
        cells: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for idx, rank in enumerate(ranks):
            cells[rank].append(idx)
        if len(cells) == n:
            return ranks
        new_ranks = [0] * n
        offset = 0
        split = False
        for cell in cells:
            if len(cell) > 1:
                # (order, rank) pairs packed into one int keep their order
                keys = [
                    tuple(sorted([order * n + ranks[j] for order, j in nbrs[i]]))
                    for i in cell
                ]
                distinct = sorted(set(keys))
                if len(distinct) > 1:
                    split = True
                    position = {key: offset + k for k, key in enumerate(distinct)}
                    for idx, key in zip(cell, keys):
                        new_ranks[idx] = position[key]
                    offset += len(distinct)
                    continue
            for idx in cell:
                new_ranks[idx] = offset
            offset += 1
        if not split:
            return ranks
        ranks = new_ranks


def reference_individualize(ranks: list[int], atom: int) -> list[int]:
    """Move `atom` into a cell of its own, just before the rest of its cell."""
    own = ranks[atom]
    return [
        rank + (rank > own or (rank == own and idx != atom))
        for idx, rank in enumerate(ranks)
    ]


class ReferenceCanonicalizer:
    """Canonical SMILES: the smallest leaf string of the individualize-and-
    refine search tree, with per-molecule data computed once.

    A node individualizes each atom of its first tied cell in turn; a leaf
    (every atom ranked apart) writes SMILES in rank order. A molecule whose
    refined ranks have no tie is its own single leaf. Two leaves with equal
    certificates (atom tokens in rank order plus the sorted rank-labelled
    edges) differ by an automorphism and write equal strings, so each
    certificate is written once. That automorphism maps the later leaf's
    path onto the earlier one's, and the later leaf's subtree below the
    deepest node both paths share onto a subtree already searched, so the
    search resumes at that node. A node also skips atoms in the orbit of an
    atom it has explored, under the automorphisms found so far that fix its
    path (McKay & Piperno, J. Symb. Comput. 60, 2014). Pruned leaves write
    the strings of leaves kept, so the smallest string is unchanged.
    """

    def __init__(self, mol: Molecule):
        n = len(mol.atoms)
        self.mol = mol
        # per atom: (order sort key, neighbour) pairs
        self.nbrs = [
            [(molgraph._ORDER_SORT[order], j) for j, order in mol.neighbors(i)]
            for i in range(n)
        ]
        self.tokens = [reference_atom_token(mol, i) for i in range(n)]
        self.bond_chars = {b.key(): reference_bond_char(mol, i) for i, b in enumerate(mol.bonds)}
        self.edges = [(b.a, b.b, molgraph._ORDER_SORT[b.order]) for b in mol.bonds]
        # certificate -> (atom at each rank, path) of its first leaf
        self.leaves: dict[tuple, tuple[list[int], tuple[int, ...]]] = {}
        self.automorphisms: list[list[int]] = []
        self.budget = molgraph._MAX_CANON_LEAVES
        self.best = ""
        # the best string's write trace (see _write), for _write_order_twin
        self.best_trace: list[tuple[int, list[int]]] = []
        # (ranks in, ranks out) of every refine call, in order
        self.refines: list[tuple[list[int], list[int]]] = []

    def _refine(self, ranks: list[int]) -> list[int]:
        refined = reference_refine(self.nbrs, ranks)
        self.refines.append((ranks, refined))
        return refined

    def run(self) -> str:
        ranks = self._refine(reference_dense_ranks(reference_initial_invariants(self.mol)))
        if max(ranks) == len(ranks) - 1:
            return self._write(ranks, self.best_trace)
        self._visit(ranks, ())
        return self.best

    def _visit(self, ranks: list[int], path: tuple[int, ...]) -> int:
        """Search below the node `path` individualizes; returns the depth of
        the node where the search goes on."""
        cells: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for idx, rank in enumerate(ranks):
            cells[rank].append(idx)
        tied = next((cell for cell in cells if len(cell) > 1), None)
        if tied is None:
            return self._leaf(ranks, path)
        depth = len(path)
        explored: list[int] = []
        for atom in tied:
            if explored and self._in_explored_orbit(atom, explored, path):
                continue
            explored.append(atom)
            resume = self._visit(
                self._refine(reference_individualize(ranks, atom)), path + (atom,)
            )
            if resume < depth:
                return resume
        return depth - 1

    def _leaf(self, ranks: list[int], path: tuple[int, ...]) -> int:
        self.budget -= 1
        if self.budget < 0:
            raise molgraph.CanonicalizationBudgetError(
                "canonicalization budget exceeded (graph too symmetric)"
            )
        order = [0] * len(ranks)
        for idx, rank in enumerate(ranks):
            order[rank] = idx
        edges = []
        for a, b, o in self.edges:
            ra, rb = ranks[a], ranks[b]
            edges.append((ra, rb, o) if ra < rb else (rb, ra, o))
        edges.sort()
        certificate = (tuple([self.tokens[idx] for idx in order]), tuple(edges))
        first = self.leaves.get(certificate)
        if first is None:
            self.leaves[certificate] = (order, path)
            trace: list[tuple[int, list[int]]] = []
            smiles = self._write(ranks, trace)
            if not self.best or smiles < self.best:
                self.best = smiles
                self.best_trace = trace
            return len(path) - 1
        first_order, first_path = first
        # maps each atom to the atom holding its rank in the first leaf
        self.automorphisms.append([first_order[rank] for rank in ranks])
        depth = 0
        while path[depth] == first_path[depth]:
            depth += 1
        return depth

    def _in_explored_orbit(
        self, atom: int, explored: list[int], path: tuple[int, ...]
    ) -> bool:
        """Whether automorphisms fixing every atom of `path` map `atom` onto
        an explored atom."""
        generators = [g for g in self.automorphisms if all(g[v] == v for v in path)]
        orbit = {atom}
        stack = [atom]
        while stack:
            idx = stack.pop()
            for g in generators:
                if g[idx] not in orbit:
                    orbit.add(g[idx])
                    stack.append(g[idx])
        return not orbit.isdisjoint(explored)

    def _write(self, ranks: list[int], trace: list[tuple[int, list[int]]]) -> str:
        """SMILES with atoms taken in `ranks` order. The `trace` list receives,
        for each atom in written order, the atom and the neighbours a parser
        bonds it to on reading it: its tree parent, then the partners of the
        ring bonds it closes, in digit order."""
        nbrs, bond_chars = self.nbrs, self.bond_chars
        n = len(ranks)
        # terminal atoms give chain-first strings; both keys are isomorphism
        # invariants, so the choice is still canonical
        root = min(range(n), key=lambda i: (len(nbrs[i]) != 1, ranks[i]))

        # depth-first spanning tree, neighbors taken in canonical-rank order
        children: list[list[int]] = [[] for _ in range(n)]
        closure_set: set[tuple[int, int]] = set()
        visited = [False] * n
        parent = [-1] * n
        visited[root] = True

        def _ordered(idx: int) -> list[int]:
            return sorted([nbr for _, nbr in nbrs[idx]], key=ranks.__getitem__)

        dfs: list[tuple[int, Iterator[int]]] = [(root, iter(_ordered(root)))]
        while dfs:
            node, it = dfs[-1]
            advanced = False
            for nbr in it:
                if not visited[nbr]:
                    visited[nbr] = True
                    parent[nbr] = node
                    children[node].append(nbr)
                    dfs.append((nbr, iter(_ordered(nbr))))
                    advanced = True
                    break
                if nbr != parent[node]:
                    closure_set.add((min(node, nbr), max(node, nbr)))
            if not advanced:
                dfs.pop()

        closure_atoms: dict[int, list[tuple[int, int]]] = {}
        for pair in closure_set:
            closure_atoms.setdefault(pair[0], []).append(pair)
            closure_atoms.setdefault(pair[1], []).append(pair)
        free_digits = list(range(1, 100))  # a heap: sorted, so already one
        open_digits: dict[tuple[int, int], int] = {}

        # atoms in preorder: each atom's token and ring digits, then its
        # children, every child but the last as a branch; the stack holds
        # atoms to write and text to copy, the next item last
        out: list[str] = []
        stack: list = [root]
        while stack:
            idx = stack.pop()
            if isinstance(idx, str):
                out.append(idx)
                continue
            out.append(self.tokens[idx])
            trace.append((idx, [parent[idx]] if idx != root else []))
            pairs = closure_atoms.get(idx)
            if pairs:
                # a pair is open exactly when its other atom came first
                closing = sorted((open_digits[p], p) for p in pairs if p in open_digits)
                # deterministic: open closures toward lower-ranked partners first
                opening = sorted(
                    (ranks[p[0] if p[1] == idx else p[1]], p)
                    for p in pairs
                    if p not in open_digits
                )
                for digit, pair in closing:
                    del open_digits[pair]
                    heapq.heappush(free_digits, digit)
                    out.append(molgraph._digit_token(digit))
                    trace[-1][1].append(pair[0] if pair[1] == idx else pair[1])
                for _, pair in opening:
                    digit = heapq.heappop(free_digits)
                    open_digits[pair] = digit
                    out.append(bond_chars[pair] + molgraph._digit_token(digit))
            kids = children[idx]
            for pos in range(len(kids) - 1, -1, -1):
                kid = kids[pos]
                bond = bond_chars[(idx, kid) if idx < kid else (kid, idx)]
                if pos == len(kids) - 1:
                    stack += (kid, bond)
                else:
                    stack += (")", kid, bond, "(")
        return "".join(out)


def reference_bond_char(mol: Molecule, bond_idx: int) -> str:
    bond = mol.bonds[bond_idx]
    if bond.order == molgraph.DOUBLE:
        return "="
    if bond.order == molgraph.TRIPLE:
        return "#"
    if bond.order == molgraph.AROMATIC:
        return ""
    # single bond: explicit '-' only where re-parsing would otherwise
    # resolve the default order to aromatic (ring bond, both ends aromatic)
    if (
        mol.bond_in_ring(bond_idx)
        and mol.atoms[bond.a].aromatic
        and mol.atoms[bond.b].aromatic
    ):
        return "-"
    return ""


def reference_atom_token(mol: Molecule, idx: int) -> str:
    atom = mol.atoms[idx]
    electrons = molgraph._bond_electrons(mol.neighbors(idx))
    plain_ok = (
        atom.formal_charge == 0
        and atom.isotope is None
        and (not atom.aromatic or atom.element in molgraph._AROMATIC_OK)
        and molgraph._implicit_hydrogens(atom.element, atom.aromatic, electrons) == atom.hcount
    )
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if plain_ok:
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.hcount == 1:
        parts.append("H")
    elif atom.hcount > 1:
        parts.append(f"H{atom.hcount}")
    if atom.formal_charge == 1:
        parts.append("+")
    elif atom.formal_charge == -1:
        parts.append("-")
    elif atom.formal_charge > 1:
        parts.append(f"+{atom.formal_charge}")
    elif atom.formal_charge < -1:
        parts.append(str(atom.formal_charge))
    parts.append("]")
    return "".join(parts)


def reference_write_order_twin(text: str, canon: ReferenceCanonicalizer) -> Molecule:
    """What ``_parse_text(text)`` returns, built from the molecule whose
    search wrote `text`: its atoms in the order the string writes them, its
    bonds in the order and orientation the parser adds them, its ring flags
    permuted, all read off the trace of the write. A canonical string names
    its graph, and the source was validated under the shipped table, so
    tokenizing, validation, the ring search, the canonical search and a
    second write are all skipped."""
    src = canon.mol
    bond_at = {bond.key(): b_idx for b_idx, bond in enumerate(src.bonds)}
    new = [0] * len(src.atoms)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    ring_bonds: list[bool] = []
    for idx, partners in canon.best_trace:
        new[idx] = len(atoms)
        atoms.append(src.atoms[idx])
        for other in partners:
            b_idx = bond_at[(other, idx) if other < idx else (idx, other)]
            bonds.append(Bond(new[other], new[idx], src.bonds[b_idx].order))
            ring_bonds.append(src._ring_bonds[b_idx])
    twin = Molecule._assemble(tuple(atoms), tuple(bonds), ring_bonds)
    twin._canonical = text
    twin._fp_cache.update(src._fp_cache)
    return twin


def unnamed(atoms, bonds) -> Molecule:
    """A graph built without validation or a canonical search."""
    return Molecule._assemble(
        tuple(atoms), tuple(bonds), molgraph._ring_bond_flags(len(atoms), bonds))


def search_matches_reference(mol: Molecule) -> ReferenceCanonicalizer:
    """Run the search and the reference on `mol` and check that they agree,
    call for call; returns the reference."""
    refines = []
    real = molgraph._refine

    def recording(nbrs, ranks):
        refined = real(nbrs, ranks)
        refines.append((list(ranks), refined))
        return refined

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(molgraph, "_refine", recording)
        canon = molgraph._Canonicalizer(mol)
        text = canon.run()
    ref = ReferenceCanonicalizer(mol)
    assert text == ref.run()
    # the search keeps its trace flat: each atom, its partner count, its partners
    assert canon.best_trace == [
        value for idx, partners in ref.best_trace for value in (idx, len(partners), *partners)
    ]
    assert refines == ref.refines
    assert canon.budget == ref.budget  # the same number of leaves
    assert canon.automorphisms == ref.automorphisms
    trace = molgraph._packed(canon.best_trace, len(mol.atoms))
    twin = molgraph._write_order_twin(text, (mol, trace, canon.bond_at))
    want = reference_write_order_twin(text, ref)
    assert (twin.atoms, twin.bonds, twin._ring_bonds) == (
        want.atoms, want.bonds, want._ring_bonds)
    return ref


@st.composite
def canon_graphs(draw, max_atoms=12):
    """A connected, unvalidated graph: a random spanning tree plus up to four
    more bonds, every bond of any order, the atoms aromatic or not, charged
    or not, with an isotope or not. Half the graphs repeat one atom, so ranks
    tie."""
    n = draw(st.integers(1, max_atoms))
    orders = st.sampled_from(["single", "double", "triple", "aromatic"])
    bonds = {}
    for i in range(1, n):
        bonds[(draw(st.integers(0, i - 1)), i)] = draw(orders)
    for a, b, order in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), orders), max_size=4
    )):
        if a != b:
            bonds.setdefault((min(a, b), max(a, b)), order)
    atom = st.builds(
        Atom, st.sampled_from(["C", "N", "O", "S"]), st.booleans(),
        st.sampled_from([0, 0, 1, -1]), st.integers(0, 3), st.sampled_from([None, None, 13]),
    )
    atoms = [draw(atom)] * n if draw(st.booleans()) else draw(
        st.lists(atom, min_size=n, max_size=n))
    return unnamed(atoms, [Bond(a, b, order) for (a, b), order in bonds.items()])


def relabelled(mol: Molecule, rng: random.Random) -> Molecule:
    perm = list(range(len(mol.atoms)))
    rng.shuffle(perm)
    inv = {old: new for new, old in enumerate(perm)}
    return unnamed([mol.atoms[old] for old in perm],
                   [Bond(inv[b.a], inv[b.b], b.order) for b in mol.bonds])


class TestCanonicalSearchMatchesReference:
    @given(canon_graphs())
    @settings(max_examples=400, deadline=None)
    def test_labelled_graphs(self, mol):
        search_matches_reference(mol)

    @pytest.mark.parametrize("smiles", [row[1] for row in SYMMETRIC] + [
        "C1C2CC3CC1CC(C2)C3",  # adamantane
    ], ids=[row[0] for row in SYMMETRIC] + ["adamantane"])
    def test_symmetric_graphs_and_relabellings(self, smiles):
        mol = molgraph._parse_text(smiles)
        rng = random.Random(len(smiles))
        for graph in [unnamed(mol.atoms, mol.bonds)] + [
            relabelled(mol, rng) for _ in range(2)
        ]:
            search_matches_reference(graph)

    def test_cubane_by_hand(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                 (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
        search_matches_reference(
            unnamed([Atom("C", hcount=1)] * 8, [Bond(a, b) for a, b in edges]))

    def test_long_chain(self):
        # one refinement pass per layer of the chain: 550 passes
        n = 1100
        atoms = [Atom("C", hcount=3)] + [Atom("C", hcount=2)] * (n - 2) + [
            Atom("C", hcount=3)]
        ref = search_matches_reference(unnamed(atoms, [Bond(k, k + 1) for k in range(n - 1)]))
        assert ref.best == "C" * n

    def test_corpus_molecules_and_relabellings(self):
        rng = random.Random(12)
        for source in CORPUS[:150]:
            mol = parse(source)
            search_matches_reference(unnamed(mol.atoms, mol.bonds))
            search_matches_reference(relabelled(mol, rng))

    def test_the_leaf_budget_trips_on_the_same_graphs(self, monkeypatch):
        mol = molgraph._parse_text(SYMMETRIC[0][1])
        graph = unnamed(mol.atoms, mol.bonds)
        ref = ReferenceCanonicalizer(graph)
        ref.run()
        leaves = molgraph._MAX_CANON_LEAVES - ref.budget
        assert leaves > 1
        monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", leaves)
        search_matches_reference(graph)
        monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", leaves - 1)
        for search in (molgraph._Canonicalizer, ReferenceCanonicalizer):
            with pytest.raises(CanonicalizationBudgetError):
                search(graph).run()

    @given(canon_graphs())
    @settings(max_examples=200, deadline=None)
    def test_ring_flags_mark_the_bonds_on_a_cycle(self, mol):
        # a bond lies on a cycle exactly when its ends stay connected
        # without it
        for b_idx, bond in enumerate(mol.bonds):
            rest = [b for k, b in enumerate(mol.bonds) if k != b_idx]
            reach = {bond.a}
            grew = True
            while grew:
                grew = False
                for b in rest:
                    if (b.a in reach) != (b.b in reach):
                        reach |= {b.a, b.b}
                        grew = True
            assert mol._ring_bonds[b_idx] == (bond.b in reach)


def naive_adjacency(mol: Molecule) -> list[list[tuple[int, str]]]:
    """(neighbour, order) per atom, in bond order, as two new tuples per bond."""
    adj = [[] for _ in mol.atoms]
    for a, b, order in mol.bonds:
        adj[a].append((b, order))
        adj[b].append((a, order))
    return adj


class TestSharedAdjacencyPairs:
    def test_every_molecule_holds_the_tables_pairs(self):
        # the same (neighbour, order) pair is one object in every molecule
        mols = [parse(source) for source in CORPUS + DRUG_LEADS]
        for mol in mols:
            assert mol._adj == naive_adjacency(mol)
            for nbrs in mol._adj:
                assert all(pair is molgraph._PAIRS[pair[1]][pair[0]] for pair in nbrs)
        first, second = parse("CCO"), parse("OCCN")
        assert first.neighbors(1)[0] is second.neighbors(1)[0] == (0, "single")

    def test_a_chain_longer_than_the_table(self, monkeypatch):
        monkeypatch.setattr(molgraph, "_PAIRS", molgraph._pair_tables(64))
        before = parse("C1CCCCC1O")
        chain = molgraph._parse_text("C" * 299 + "O")
        assert len(molgraph._PAIRS["single"]) >= 300
        assert chain._adj == naive_adjacency(chain)
        assert chain.neighbors(0) == [(1, "single")]
        assert chain.neighbors(150) == [(149, "single"), (151, "single")]
        assert chain.neighbors(299) == [(298, "single")]
        # a molecule built before the tables grew keeps its pairs
        assert before._adj == naive_adjacency(before)
        assert before.neighbors(0)[0] is not molgraph._PAIRS["single"][1]
        assert parse("C1CCCCC1N").neighbors(0)[0] is molgraph._PAIRS["single"][1]

    def test_threads_growing_the_tables_build_the_right_neighbours(self, monkeypatch):
        # threads build chains of rising length from a one-pair table, so
        # that growths race with each other and with reads; every chain must
        # hold its own neighbours
        failures = []

        def build(offset):
            for n in range(1 + offset, 100, 3):
                chain = molgraph._parse_text("C" * n + "O")
                if chain._adj != naive_adjacency(chain):
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                monkeypatch.setattr(molgraph, "_PAIRS", molgraph._pair_tables(1))
                threads = [threading.Thread(target=build, args=(k,)) for k in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
