from pathlib import Path

import pytest
from hypothesis import strategies as st

from leadopt import molgraph
from leadopt.chemfeat import WIDTH, Fingerprint
from leadopt.molgraph import Bond, Molecule


def rows_of(path: Path) -> list[str]:
    """The SMILES of each row of a fixture file, comment lines skipped."""
    return [line.split()[0] for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


CORPUS = rows_of(Path(__file__).parent / "fixtures" / "corpus_500.smi")
DRUG_LEADS = rows_of(Path(__file__).parent / "fixtures" / "drug_leads.smi")

SMILES_ALPHABET = list("CNOSPFIBcnops()[]=#-+:/\\%@H.*0123456789lr") + [
    "²", "١", "٣", "૪", "Ⅻ", "ß", "é",
]
# any text up to 40 characters, and strings over the SMILES alphabet (with
# non-ASCII digits and letters), which reach far more of the grammar
ANY_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(SMILES_ALPHABET), max_size=40).map("".join),
)


@pytest.fixture
def no_canon_leaves(monkeypatch):
    """A canonical-search leaf budget of zero: parsing or building any graph
    whose refined ranks tie raises CanonicalizationBudgetError. Molecules
    needed intact must be built before the fixture runs."""
    monkeypatch.setattr(molgraph, "_MAX_CANON_LEAVES", 0)
    # a text parsed earlier would come back from the parse memo, a text
    # written earlier as a write-order twin, a subgraph named earlier from
    # the subgraph memo, and a graph named earlier from the name memo,
    # without a search
    molgraph.forget_memos()
    yield
    molgraph.forget_memos()


def relabel(mol: Molecule, perm: list[int]) -> Molecule:
    """Rebuild the same graph with atoms listed in a different order."""
    inv = {old: new for new, old in enumerate(perm)}
    atoms = [mol.atoms[old] for old in perm]
    bonds = [Bond(inv[b.a], inv[b.b], b.order) for b in mol.bonds]
    return Molecule(atoms, bonds)


def brute_tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    inter = bin(a.bits & b.bits).count("1")
    union = bin(a.bits | b.bits).count("1")
    return 1.0 if union == 0 else inter / union


def near_positions(near: int, span: int) -> list[int]:
    """`span` fingerprint bit positions: the set bits of `near`, then the
    lowest positions `near` leaves clear."""
    set_bits = [p for p in range(WIDTH) if near >> p & 1]
    clear_bits = [p for p in range(WIDTH) if not near >> p & 1]
    return (set_bits + clear_bits)[:span]


def scatter(draw: int, positions: list[int]) -> int:
    """Fingerprint bits with `positions[i]` set for each set bit `i` of
    `draw`. A random `span`-bit draw over `near_positions(q, span)` meets
    the molecule whose fingerprint bits are `q` as often as a draw at a
    `span`-bit width would, so its similarities to it spread the same way
    rather than sit near zero."""
    bits = 0
    while draw:
        low = draw & -draw
        bits |= 1 << positions[low.bit_length() - 1]
        draw ^= low
    return bits


def fold(bits: int, width: int) -> int:
    """`bits` with each set bit `b` moved to position `b % width`, as a
    fingerprint of `width` bits folds its hashes."""
    mask = (1 << width) - 1
    out = 0
    while bits:
        out |= bits & mask
        bits >>= width
    return out
