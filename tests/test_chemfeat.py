import dataclasses
import functools
import gc
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leadopt import chemfeat, molgraph
from leadopt.chemfeat import (
    DescriptorVector,
    Fingerprint,
    FingerprintPlanes,
    FunctionalGroupSet,
    catalog_tags,
    descriptors,
    detect_functional_groups,
    jaccard,
    morgan_fp,
    pack_rows,
    tanimoto,
    tanimoto_rows,
)
from leadopt.chemfeat import RADIUS, WIDTH, _PLAN, _match, _mix_stream
from leadopt.files import data_text, table_rows
from leadopt.molgraph import (
    _ELEMENT_INDEX,
    _ORDER_SORT,
    EDIT_OPERATORS,
    Atom,
    Bond,
    Molecule,
    SmilesError,
    mutate,
    parse,
)

from conftest import fold, forget_texts

MASS_H, MASS_C, MASS_O = 1.008, 12.011, 15.999
FG_GOLDEN = Path(__file__).parent / "golden" / "fg_tags.tsv"
MORGAN_GOLDEN = Path(__file__).parent / "golden" / "morgan_bits.tsv"
CORPUS = Path(__file__).parent / "fixtures" / "corpus_500.smi"
DRUG_LEADS = Path(__file__).parent / "fixtures" / "drug_leads.smi"


def relabel(mol, perm):
    inv = {old: new for new, old in enumerate(perm)}
    atoms = [mol.atoms[old] for old in perm]
    bonds = [Bond(inv[b.a], inv[b.b], b.order) for b in mol.bonds]
    return Molecule(atoms, bonds)


def fp_from_bits(on_bits):
    bits = 0
    for b in on_bits:
        bits |= 1 << b
    return Fingerprint(bits)


class TestMorgan:
    def test_input_order_invariance(self):
        assert morgan_fp(parse("CCO")).bits == morgan_fp(parse("OCC")).bits

    def test_different_heteroatom_differs(self):
        # hand oracle: O and N atom invariants differ at every radius
        assert morgan_fp(parse("CCO")).bits != morgan_fp(parse("CCN")).bits

    def test_popcount_cached_consistent(self):
        fp = morgan_fp(parse("c1ccccc1C(=O)O"))
        assert fp.popcount == bin(fp.bits).count("1")

    def test_words_round_trip(self):
        # the packed form is the bits as little-endian bytes, and its
        # inverse and the words give the fingerprint back
        fp = morgan_fp(parse("CC(C)Cc1ccc(cc1)C(C)C(=O)O"))
        for bits in (0, 1, 1 << WIDTH - 1, (1 << WIDTH) - 1, fp.bits):
            packed = Fingerprint(bits).to_bytes()
            assert packed == bits.to_bytes(WIDTH // 8, "little")
            assert Fingerprint.from_bytes(packed) == Fingerprint(bits)
            words = Fingerprint(bits).to_words()
            assert len(words) == WIDTH // 64
            assert words.tobytes() == packed

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_invariance(self, seed):
        m = parse("CC(=O)Oc1ccccc1C(=O)O")
        rng = random.Random(seed)
        perm = list(range(len(m.atoms)))
        rng.shuffle(perm)
        assert morgan_fp(relabel(m, perm)).bits == morgan_fp(m).bits


@functools.lru_cache(maxsize=1)
def morgan_golden():
    """(molecule, hex bits at width 2048 and radius 2) per golden row: the
    inputs of canonical_strings.tsv that do not raise, with the bits the
    fingerprint loop gave before its environment memo existed. The file's
    last column, bits at width 64 and radius 3, is from when the shape
    could vary; no fingerprint has that shape now."""
    out = []
    for line in MORGAN_GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            continue
        source, op, seed, bits, _ = line.split("\t")
        mol = parse(source)
        if op != "parse":
            mol = mutate(mol, op, int(seed))
        out.append((mol, bits))
    return out


def reference_hashes(m, radius):
    """Environment hashes per iteration from the fingerprint loop with no
    memo: each atom's invariant, then (iteration, own hash, sorted
    (order, neighbour hash) pairs) streamed into _mix_stream."""
    current = [
        _mix_stream((
            _ELEMENT_INDEX[atom.element],
            int(atom.aromatic),
            atom.formal_charge,
            atom.hcount,
            m.degree(idx),
            int(m.atom_in_ring(idx)),
        ))
        for idx, atom in enumerate(m.atoms)
    ]
    layers = [current]
    for iteration in range(1, radius + 1):
        refreshed = []
        for idx in range(len(m.atoms)):
            stream = [iteration, current[idx]]
            for pair in sorted(
                (_ORDER_SORT[order], current[j]) for j, order in m.neighbors(idx)
            ):
                stream.extend(pair)
            refreshed.append(_mix_stream(stream))
        current = refreshed
        layers.append(current)
    return layers


def reference_bits(layers):
    bits = 0
    for layer in layers:
        for h in layer:
            bits |= 1 << (h % WIDTH)
    return bits


def fresh_fp(m):
    # compute again, not from the molecule's cache or the fingerprint memo
    m._fp_cache.clear()
    chemfeat._FP_MEMO.clear()
    return morgan_fp(m)


class TestMorganMemo:
    def test_bits_match_golden(self):
        chemfeat._ENV_HASHES.clear()
        mismatches = [
            mol.canonical
            for mol, bits in morgan_golden()
            if f"{fresh_fp(mol).bits:x}" != bits
        ]
        assert len(morgan_golden()) == 2374
        assert mismatches == []

    @pytest.mark.parametrize("state", ["empty", "warm", "just_cleared"])
    def test_matches_unmemoized_loop(self, state):
        memo = chemfeat._ENV_HASHES
        mols = [mol for mol, _ in morgan_golden()[::8]]
        if state == "warm":
            for mol in mols:
                fresh_fp(mol)
        mismatches = []
        for mol in mols:
            if state == "empty":
                memo.clear()
            elif state == "just_cleared":
                # full with keys no molecule has: the first miss clears it
                memo.clear()
                memo.update(((-1, k), 0) for k in range(chemfeat._ENV_HASHES_MAX))
            if fresh_fp(mol).bits != reference_bits(reference_hashes(mol, RADIUS)):
                mismatches.append(mol.canonical)
            if state == "just_cleared":
                assert (-1, 0) not in memo
        assert mismatches == []

    def test_memo_never_exceeds_its_bound(self):
        memo = chemfeat._ENV_HASHES
        memo.clear()
        sizes = []
        for mol, _ in morgan_golden():
            fresh_fp(mol)
            sizes.append(len(memo))
        assert max(sizes) <= chemfeat._ENV_HASHES_MAX
        # the golden set has more environments than the bound: it was cleared
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_small_bound_holds_inside_one_molecule(self, monkeypatch):
        monkeypatch.setattr(chemfeat, "_ENV_HASHES_MAX", 16)
        chemfeat._ENV_HASHES.clear()
        m = parse("CC(C)Cc1ccc(cc1)C(C)C(=O)OCCN(CC)CCOc1ncccc1Cl")
        assert fresh_fp(m).bits == reference_bits(reference_hashes(m, RADIUS))
        assert len(chemfeat._ENV_HASHES) <= 16

    def test_second_call_returns_the_cached_object(self):
        m = parse("CC(=O)Nc1ccc(O)cc1")
        first = morgan_fp(m)
        chemfeat._ENV_HASHES.clear()
        assert morgan_fp(m) is first
        assert m._fp_cache["fp"] is first


class TestFingerprintMemo:
    def test_a_named_copy_takes_the_golden_bits_from_the_memo(self, monkeypatch):
        # each golden molecule fingerprinted once named, then a copy of its
        # graph in another atom order, named: the copy's bits are looked up
        computed = []
        real = chemfeat._bit_positions
        monkeypatch.setattr(chemfeat, "_bit_positions",
                            lambda m: computed.append(m) or real(m))
        rng = random.Random(4)
        mismatches = []
        for mol, bits in morgan_golden()[::3]:
            mol.canonical
            first = fresh_fp(mol)
            assert computed[-1] is mol and chemfeat._FP_MEMO.recall(mol.canonical)
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            copy = relabel(mol, perm)
            assert copy.canonical == mol.canonical
            before = len(computed)
            if not (morgan_fp(copy) == first and f"{first.bits:x}" == bits):
                mismatches.append(mol.canonical)
            assert len(computed) == before
        assert mismatches == []

    def test_an_unnamed_molecule_stays_unnamed(self):
        child = molgraph._edit(parse("CC(=O)Nc1ccc(O)cc1"), "append_terminal_atom", 2)
        chemfeat._FP_MEMO.clear()
        fp = morgan_fp(child)
        assert child._canonical is None and len(chemfeat._FP_MEMO) == 0
        assert fp.bits == reference_bits(reference_hashes(child, RADIUS))

    def test_a_constructed_molecule_is_looked_up_by_name(self, monkeypatch):
        # the graphs whose strings collide, a single and an aromatic bond
        # between aromatic carbons outside a ring (both write "cc"), cannot
        # be built, so every molecule's name keys the memo, a constructed
        # one's as a parsed one's
        for order in ("single", "aromatic"):
            with pytest.raises(SmilesError, match="aromatic"):
                Molecule([Atom("C", aromatic=True, hcount=2)] * 2, [Bond(0, 1, order)])
        source = parse("CC(=O)Nc1ccc(O)cc1")
        first = Molecule(source.atoms, source.bonds)
        chemfeat._FP_MEMO.clear()
        first.canonical
        fp = morgan_fp(first)
        assert chemfeat._FP_MEMO.recall(first.canonical)
        computed = []
        monkeypatch.setattr(chemfeat, "_bit_positions", computed.append)
        second = Molecule(source.atoms, source.bonds)
        second.canonical
        assert morgan_fp(second) == fp and computed == []

    def test_both_memos_stay_bounded_and_small(self):
        # edit chains on the corpus name and fingerprint more distinct
        # molecules than either memo keeps; at capacity the two hold only
        # bytes and strings, at most 2.5 MB together
        rows = [line for line in CORPUS.read_text().splitlines()
                if line and not line.startswith("#")]
        memos = (molgraph._NAMES, chemfeat._FP_MEMO)
        sizes = [molgraph._NAME_MEMO_MAX, chemfeat._FP_MEMO_MAX]
        assert sizes == [memo.size for memo in memos] == [4096, 2048]
        forget_texts()
        full = 0
        for source in rows:
            mol = molgraph._parse_text(source)
            for seed in range(12):
                try:
                    mol = molgraph._edit(mol, EDIT_OPERATORS[seed % 4], seed)
                    mol.canonical
                except SmilesError:
                    continue
                morgan_fp(mol)
                assert all(len(memo) <= size for memo, size in zip(memos, sizes))
            full += [len(memo) for memo in memos] == sizes
            if full > 20:
                break
        assert [len(memo) for memo in memos] == sizes
        assert all(isinstance(key, bytes) and isinstance(value, bytes)
                   for key, value in molgraph._NAMES.items())
        assert all(isinstance(key, str) and isinstance(value, bytes)
                   for key, value in chemfeat._FP_MEMO.items())
        # the same entries kept again, byte for byte, under tracemalloc (the
        # searches that made them run seven times slower traced)
        entries = [list(memo.items()) for memo in memos]
        for memo in memos:
            memo.clear()
        gc.collect()
        tracemalloc.start()
        try:
            for key, value in entries[0]:
                molgraph._NAMES.keep(bytes(bytearray(key)), bytes(bytearray(value)))
            for key, value in entries[1]:
                chemfeat._FP_MEMO.keep(key.encode().decode(), bytes(bytearray(value)))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [len(memo) for memo in memos] == sizes
        assert 2**20 < held <= 2.5 * 2**20


class TestTanimoto:
    def test_identity(self):
        fp = morgan_fp(parse("CCO"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint(self):
        assert tanimoto(fp_from_bits([1, 2]), fp_from_bits([3])) == 0.0

    def test_half_overlap(self):
        assert tanimoto(fp_from_bits([1, 2, 3]), fp_from_bits([2, 3, 4])) == 0.5

    def test_both_empty_convention(self):
        assert tanimoto(fp_from_bits([]), fp_from_bits([])) == 1.0

    @given(
        st.sets(st.integers(min_value=0, max_value=255), max_size=40),
        st.sets(st.integers(min_value=0, max_value=255), max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_unit_interval(self, xs, ys):
        a, b = fp_from_bits(sorted(xs)), fp_from_bits(sorted(ys))
        s = tanimoto(a, b)
        assert s == tanimoto(b, a)
        assert 0.0 <= s <= 1.0
        if xs or ys:
            assert (s == 1.0) == (a.bits == b.bits)


def brute_tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    inter = bin(a.bits & b.bits).count("1")
    union = bin(a.bits | b.bits).count("1")
    return 1.0 if union == 0 else inter / union


class TestFingerprintIndex:
    """The dense scan: rows packed by `pack_rows`, scored by `tanimoto_rows`."""

    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 512, 2048, 4096])
    def test_matches_brute_force_at_every_width(self, width):
        rng = random.Random(width)
        # all-zero and all-one rows, rows drawn at `width` bits and folded
        # onto the fingerprint (a narrow draw leaves the high words zero, a
        # draw wider than WIDTH gives denser rows), and sparse rows near a
        # molecule's fingerprint
        near = morgan_fp(parse("CC(C)Cc1ccc(cc1)C(C)C(=O)O")).bits
        fps = [Fingerprint(0), Fingerprint((1 << WIDTH) - 1), Fingerprint(near)]
        fps += [
            Fingerprint(fold(rng.getrandbits(width) & rng.getrandbits(width), WIDTH))
            for _ in range(30)
        ]
        fps += [
            Fingerprint(near & rng.getrandbits(WIDTH) | 1 << rng.randrange(WIDTH))
            for _ in range(30)
        ]
        words, pops = pack_rows(fps)
        for query in fps[:4] + fps[-2:] + [Fingerprint(1)]:
            assert tanimoto_rows(words, pops, query).tolist() == [
                brute_tanimoto(query, fp) for fp in fps
            ]

    def test_rows_inside_wider_records_scan_alike(self):
        # rows that are one field of wider records, as the skill bank's
        # stores hold them, scan as the rows `pack_rows` packs alone
        rng = random.Random(5)
        fps = [Fingerprint(rng.getrandbits(WIDTH) & rng.getrandbits(WIDTH))
               for _ in range(12)]
        record = np.dtype([("words", "<u8", (WIDTH // 64,)), ("pops", "<i8"),
                           ("tail", "<u8")])
        table = np.frombuffer(
            b"".join(fp.to_bytes() + struct.pack("<qQ", fp.popcount, i)
                     for i, fp in enumerate(fps)),
            dtype=record,
        )
        words, pops = pack_rows(fps)
        assert np.array_equal(table["words"], words)
        for query in fps[:3] + [Fingerprint(0), Fingerprint(1)]:
            assert tanimoto_rows(table["words"], table["pops"], query).tolist() == [
                tanimoto(query, fp) for fp in fps
            ]

    def test_empty_index(self):
        assert tanimoto_rows(*pack_rows(()), Fingerprint(3)).tolist() == []
        assert tanimoto_rows(*pack_rows(()), Fingerprint(0)).tolist() == []


@st.composite
def fingerprint_sets(draw):
    """Rows (a count that need not be a multiple of 8, spanning more than
    one build step, with all-zero rows and repeats) and queries, the set
    bits of each row drawn from a span of the width."""
    count = draw(st.one_of(st.integers(0, 20), st.integers(500, 1100)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    # few positions give many equal similarities, and a popcount of the
    # whole span gives identical dense rows
    span = draw(st.sampled_from([8, 64, WIDTH]))
    positions = rng.sample(range(WIDTH), span)
    popcount = draw(st.sampled_from([0, 1, span // 4, span]))
    def random_bits():
        return sum(1 << b for b in rng.sample(positions, popcount))
    fps = [Fingerprint(random_bits()) for _ in range(count)]
    if count:
        fps[rng.randrange(count)] = Fingerprint(0)
        fps[rng.randrange(count)] = fps[0]
    queries = [Fingerprint(0), Fingerprint(random_bits())]
    queries += fps[:1]
    return fps, queries


class TestFingerprintPlanes:
    @given(fingerprint_sets())
    @settings(max_examples=40, deadline=None)
    def test_equals_dense_index(self, case):
        fps, queries = case
        planes = FingerprintPlanes(fps)
        words, pops = pack_rows(fps)
        rng = random.Random(len(fps))
        rows = np.array([rng.randrange(len(fps)) for _ in range(9) if fps], dtype=np.int64)
        for query in queries:
            dense = tanimoto_rows(words, pops, query)
            assert np.array_equal(planes.similarities(query), dense)
            assert np.array_equal(planes.similarities(query, rows), dense[rows])

    def test_planes_hold_one_bit_per_row(self):
        fps = [Fingerprint(0b101), Fingerprint(0b100), Fingerprint(1 << WIDTH - 1)]
        planes = FingerprintPlanes(fps)
        assert planes.planes.shape == (WIDTH, 1)
        assert planes.planes[:3, 0].tolist() == [0b001, 0, 0b011]
        assert planes.planes[WIDTH - 1, 0] == 0b100
        assert not planes.planes[3 : WIDTH - 1].any()
        assert planes.pops.tolist() == [2, 1, 1]


@functools.lru_cache(maxsize=1)
def reference_catalog():
    """(tag, pattern atoms, pattern bonds as {neighbour: order} per atom,
    suppressed tags) per catalog line, read by the pattern rules of
    chemfeat._parse_pattern."""
    out = []
    for parts in table_rows(data_text("fg_catalog.tsv")):
        tokens, bonds, _ = molgraph._smiles_graph(parts[1])
        atoms = [molgraph._BARE_ATOMS[t][-1] if isinstance(t, str) else t for t in tokens]
        adj = [{} for _ in atoms]
        for a, b, order in bonds:
            if order is None:
                order = "aromatic" if atoms[a].aromatic and atoms[b].aromatic else "single"
            adj[a][b] = adj[b][a] = order
        suppresses = ()
        if len(parts) > 2 and parts[2].startswith("suppresses:"):
            suppresses = tuple(parts[2][len("suppresses:"):].split(","))
        out.append((parts[0], tuple(atoms), adj, suppresses))
    return out


def reference_pattern_matches(p_atoms, p_adj, mol):
    """All target atom sets hit by the pattern, by the enumerating search
    detection used before its plan: pattern atoms placed in SMILES order
    (each after the first bonds to an earlier one), on a target atom of the
    same element, aromaticity and charge with at least its hydrogens, every
    pattern bond to a placed atom matched by a target bond of its order."""
    mol_adj = chemfeat.neighbor_maps(mol)
    results, mapping, used = set(), {}, set()

    def backtrack(depth):
        if depth == len(p_atoms):
            results.add(frozenset(mapping.values()))
            return
        p = p_atoms[depth]
        placed = [(j, order) for j, order in p_adj[depth].items() if j < depth]
        candidates = mol_adj[mapping[placed[0][0]]] if placed else range(len(mol.atoms))
        for t_idx in candidates:
            atom = mol.atoms[t_idx]
            if t_idx in used or (atom.element, atom.aromatic, atom.formal_charge) != (
                p.element, p.aromatic, p.formal_charge
            ) or atom.hcount < p.hcount:
                continue
            if any(mol_adj[t_idx].get(mapping[j]) != order for j, order in placed):
                continue
            mapping[depth] = t_idx
            used.add(t_idx)
            backtrack(depth + 1)
            del mapping[depth]
            used.discard(t_idx)

    backtrack(0)
    return results


def reference_detect_functional_groups(mol):
    """The tags detection gave before its plan: every match of every
    pattern listed, then each match of a suppressed tag sharing an atom with
    a raw match of its suppressor dropped."""
    raw, suppresses = {}, {}
    for tag, p_atoms, p_adj, targets in reference_catalog():
        found = reference_pattern_matches(p_atoms, p_adj, mol)
        if found:
            raw.setdefault(tag, set()).update(found)
        if targets:
            suppresses.setdefault(tag, set()).update(targets)
    surviving = {tag: set(matches) for tag, matches in raw.items()}
    for sup_tag, targets in suppresses.items():
        for sup_match in raw.get(sup_tag, ()):
            for target in targets:
                if target in surviving:
                    surviving[target] = {
                        match for match in surviving[target] if not match & sup_match
                    }
    return frozenset(tag for tag, matches in surviving.items() if matches)


def target_views(mol):
    """The root candidates and adjacency maps `_match` takes."""
    roots = {}
    for idx, atom in enumerate(mol.atoms):
        roots.setdefault((atom.element, atom.aromatic), []).append(idx)
    return roots, chemfeat.neighbor_maps(mol)


def rows_of(path):
    return [line.split()[0] for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def golden_fg_sources():
    return sorted({line.split("\t")[0] for line in FG_GOLDEN.read_text().splitlines()
                   if not line.startswith("#")})


def fresh_fg(mol):
    mol._fp_cache.pop("fg", None)
    return detect_functional_groups(mol).tags


class TestPatternRoots:
    def test_every_root_finds_the_same_matches(self):
        # each catalog pattern, its search forced to start at each of its
        # atoms, lists the matches of the reference search on every golden
        # molecule; with atoms marked used, it finds a match iff one of the
        # reference's avoids them, and leaves the used set as it was
        sources = golden_fg_sources()[:150]
        sources += ["CC(=O)Oc1ccccc1C(=O)O", "CS(=O)(=O)Nc1ccccc1", "COCCOC"]
        lines = {}
        for tag, p_atoms, p_adj, _ in reference_catalog():
            lines.setdefault(tag, []).append((p_atoms, p_adj))
        rng = random.Random(5)
        checked = 0
        for source in sources:
            mol = parse(source)
            roots, adj = target_views(mol)
            for plan in _PLAN:
                assert len(plan.patterns) == len(lines[plan.tag])
                for pattern, (p_atoms, p_adj) in zip(plan.patterns, lines[plan.tag]):
                    want = reference_pattern_matches(p_atoms, p_adj, mol)
                    labels = {(a.element, a.aromatic) for a in pattern.atoms}
                    if not labels <= roots.keys():
                        assert want == set()
                        continue
                    for root in range(len(pattern.atoms)):
                        found = set()
                        assert not _match(pattern, roots, mol.atoms, adj, set(), found, root)
                        assert found == want
                    used = {idx for idx in range(len(mol.atoms)) if rng.random() < 0.2}
                    before = set(used)
                    hit = _match(pattern, roots, mol.atoms, adj, used)
                    assert hit == any(not match & used for match in want)
                    assert used == before
                    checked += bool(want)
        assert checked > 100


class TestAgainstReference:
    def test_corpus_and_drug_leads(self):
        mismatches = [source for source in rows_of(CORPUS) + rows_of(DRUG_LEADS)
                      if fresh_fg(parse(source)) != reference_detect_functional_groups(parse(source))]
        assert mismatches == []

    def test_golden_inputs(self):
        # the edited molecules of fg_tags.tsv, not only its sources
        mismatches = []
        for mol, _ in morgan_golden():
            if fresh_fg(mol) != reference_detect_functional_groups(mol):
                mismatches.append(mol.canonical)
        assert mismatches == []

    @given(st.sampled_from(rows_of(CORPUS) + rows_of(DRUG_LEADS)),
           st.lists(st.tuples(st.sampled_from(EDIT_OPERATORS), st.integers(0, 10**6)),
                    max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_edited_molecules(self, source, edits):
        mol = parse(source)
        for op, seed in edits:
            try:
                mol = mutate(mol, op, seed)
            except SmilesError:
                pass
        assert fresh_fg(mol) == reference_detect_functional_groups(mol)


class TestFunctionalGroups:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("CCO", {"hydroxyl"}),
            ("CC(=O)N", {"amide"}),
            ("Fc1ccccc1", {"halogen", "aromatic_ring"}),
            ("CC(=O)O", {"carboxylic_acid"}),
            ("COC", {"ether", "methoxy"}),
            ("CC(=O)OC", {"ester", "methoxy"}),
            ("CC(=O)C", {"ketone"}),
            ("CC=O", {"aldehyde"}),
            ("C[N+](=O)[O-]", {"nitro"}),
            ("CS(=O)(=O)N", {"sulfonamide", "amine"}),
            ("CS", {"thiol"}),
            ("COc1ccccc1", {"methoxy", "aromatic_ring"}),
            ("CS(=O)(=O)C", {"sulfone"}),
            ("CCN", {"amine"}),
            ("CC#N", {"nitrile", "amine"}),
        ],
    )
    def test_detection(self, smiles, expected):
        assert set(detect_functional_groups(parse(smiles)).tags) == expected

    def test_amide_suppresses_amine_only_on_shared_atoms(self):
        # a second, free amine elsewhere must survive the amide suppression
        tags = detect_functional_groups(parse("NCCC(=O)N"))
        assert "amide" in tags and "amine" in tags

    def test_tags_subset_of_catalog(self):
        for s in ["CCO", "CC(=O)Oc1ccccc1C(=O)O", "CS(=O)(=O)Nc1ccccc1"]:
            tags = detect_functional_groups(parse(s)).tags
            assert tags <= catalog_tags()

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            FunctionalGroupSet(frozenset({"not_a_tag"}))

    def test_superstructure_keeps_tags(self):
        # appending a far-away plain-carbon fragment never removes a tag
        base = detect_functional_groups(parse("CC(=O)N")).tags
        bigger = detect_functional_groups(parse("CC(=O)NCCCC")).tags
        assert base <= bigger


class TestFunctionalGroupGolden:
    def test_tags_match_golden(self):
        # every corpus row plus four seeded edits of it (the inputs of
        # canonical_strings.tsv), with the tags the per-pattern scan gave
        rows = [
            line.split("\t")
            for line in FG_GOLDEN.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 2500
        mismatches = []
        for source, op, seed, want in rows:
            try:
                mol = parse(source)
                if op != "parse":
                    mol = mutate(mol, op, int(seed))
            except SmilesError as exc:
                got = "!" + type(exc).__name__
            else:
                got = ",".join(detect_functional_groups(mol)) or "-"
            if got != want:
                mismatches.append((source, op, seed, got, want))
        assert mismatches == []


class TestJaccard:
    def test_examples(self):
        a = FunctionalGroupSet(frozenset({"amine", "halogen"}))
        b = FunctionalGroupSet(frozenset({"halogen"}))
        assert jaccard(a, b) == 0.5
        assert jaccard(a, a) == 1.0
        c = FunctionalGroupSet(frozenset({"ester"}))
        assert jaccard(b, c) == 0.0

    def test_both_empty(self):
        empty = FunctionalGroupSet(frozenset())
        assert jaccard(empty, empty) == 1.0

    @given(
        st.sets(st.sampled_from(sorted(catalog_tags())), max_size=6),
        st.sets(st.sampled_from(sorted(catalog_tags())), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_unit_interval(self, xs, ys):
        a, b = FunctionalGroupSet(frozenset(xs)), FunctionalGroupSet(frozenset(ys))
        s = jaccard(a, b)
        assert s == jaccard(b, a)
        assert 0.0 <= s <= 1.0

    @given(
        st.sets(st.sampled_from(sorted(catalog_tags())), max_size=8),
        st.sets(st.sampled_from(sorted(catalog_tags())), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_matches_tag_sets(self, xs, ys):
        a, b = FunctionalGroupSet(frozenset(xs)), FunctionalGroupSet(frozenset(ys))
        assert a.mask.bit_count() == len(xs)
        union = xs | ys
        assert jaccard(a, b) == (len(xs & ys) / len(union) if union else 1.0)


class TestDescriptors:
    def test_water(self):
        d = descriptors(parse("O"))
        assert d.mw == MASS_O + 2 * MASS_H
        assert d.hbd == 1
        assert d.hba == 1

    def test_benzene(self):
        d = descriptors(parse("c1ccccc1"))
        assert (d.ring_count, d.hbd, d.hba) == (1, 0, 0)

    def test_ethanol_rotatable(self):
        # degree->=2 rule applied bond by bond: both bonds have a terminus
        assert descriptors(parse("CCO")).rotatable_bonds == 0
        assert descriptors(parse("CCCC")).rotatable_bonds == 1

    def test_mass_additivity_exact(self):
        assert descriptors(parse("CC")).mw == 2 * MASS_C + 6 * MASS_H

    def test_ring_bond_not_rotatable(self):
        assert descriptors(parse("C1CCCCC1")).rotatable_bonds == 0

    def test_delta(self):
        before = descriptors(parse("COc1ccccc1"))
        after = descriptors(parse("Fc1ccccc1"))
        delta = after.delta(before)
        assert delta.mw == pytest.approx(after.mw - before.mw)
        assert delta.hba == -1

    def test_fused_ring_count(self):
        assert descriptors(parse("c1ccc2ccccc2c1")).ring_count == 2
