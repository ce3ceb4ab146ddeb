"""SMILES parsing, validation, canonicalization, scaffolds, and local edits.

Molecules are immutable once constructed. One rule names them: every
construction path validates the graph when it builds the molecule, and the
canonical search runs on the first read of ``.canonical``, the one place a
search starts. A molecule whose name is never read (a memory query's query
and lead: retrieval reads fingerprints and functional groups) never pays
for a search, and a scripted policy that edits a molecule several times and
keeps one result pays for one. :func:`mutate` and :func:`scaffold_of` read
the name, so they raise a search that trips (a
:class:`CanonicalizationBudgetError`); a caller that turns outside text
into a molecule and treats a trip as a :class:`SmilesError` reads the name
inside its handler. :func:`parse` interns its last 64 results, so
re-parsing a recent text returns the same object.

Reading a text is one pass from the grammar's output to a validated
molecule. The grammar reports which bonds close rings, and each closure
marks the tree path between its ends, so the ring flags need no ring
search. One loop resolves the bond orders and sums the valence each atom's
bonds spend, and each bare atom comes from a table built once, one
:class:`Atom` per token and hydrogen count. The grammar already rules out
a bond from an atom to itself, a repeated bond and a disconnected graph, so
a parse checks only the explicit aromatic bonds and the atoms, in the order
a full validation checks them, and raises the same error. The constructor
marks rings the same way: it numbers the atoms in the order a search
reaches them, so the bonds that reach new atoms run from lower numbers to
higher ones as a parse's do, and every other bond is a closure.

A canonical string names its graph, so parsing one the program has just
written need not search again. The canonical strings of the last 64
molecules to be named are remembered with the molecule, the trace of the
search's best write and the search's atom pair -> bond index map. On a
miss in its cache, :func:`parse` turns such a string into the writer's
*write-order twin*: the source's atoms in the order the string writes
them, its bonds in the order and orientation the parser adds them, its
ring flags permuted and its fingerprints kept, which is the molecule
parsing would build, minus tokenizing and the checks, and already named.

An edit hands the parent's ring-bond flags to the edited molecule (no edit
changes which bonds lie on a ring). None of the four operators can
disconnect the graph, duplicate a bond or make an aromatic bond, and every
parent is valid, so a child checks only the atoms its edit touched.

Search keeps returning to the same molecules, so an edit memo keeps the
last _EDIT_MEMO_MAX pieces of edit work on molecules not made by an edit
(parsed, constructed or a twin), least recently used first out: an
operator's sorted site list, and the child of a resolved edit (the
operator plus the site, element or bond order the seed drew). A repeated
edit makes the same draws and hands back the child built before, already
checked and perhaps named and fingerprinted. A deferred edit child's own
edits and a failed edit are never kept. The memo is keyed by the molecule
object, never by a canonical string, since sites are atom indices and a
write-order twin lists its atoms in another order. A kept child may have
been named long ago: once its string has left the remembered writes,
parsing that string is a full parse, not a write-order twin.

Harvesting skills names the same scaffold cores and fragments again and
again, so :func:`subgraph_name` keeps the canonical strings of the last
_SUBGRAPH_MEMO_MAX induced subgraphs, least recently used first out, keyed
by plain tuples of the subgraph's atom and bond fields. On a miss it makes
the :class:`Atom` and :class:`Bond` objects and the one molecule the
package builds unchecked: a fragment torn from a ring need not pass the
checks (a core always does). That molecule is named, not remembered for
:func:`parse`, and dropped; only the string is kept. Equal keys are equal
graphs in the same atom order, so a kept string is the one a fresh build
would write. A search that trips is never kept, and functools' cache is
thread-safe. A hit skips the build as well as the name, so this memo still
pays beside the name memo.

The same graph keeps arriving as a new object (a rollout back at a
molecule it built before, an edit repeated on a write-order twin), so a
name memo keeps the canonical strings of the last _NAME_MEMO_MAX graphs
named, least recently used first out. Its key is the graph exactly, in its
atom order (see :class:`_Canonicalizer`); its value is the string and the
trace of the string's write, packed into bytes. A hit runs only the
search's setup, and a molecule it names is remembered for write-order
twins as a searched one is. A search that trips keeps nothing.
The memo holds bytes only, no molecule. A memory query's query and lead
are never named, so they never reach it.

The canonical search sets up in one pass over the bonds and one over the
atoms, refines by keying again only the cells next to a cell that split, and
writes a leaf without sorting. It prunes automorphic branches, so highly
symmetric graphs (tetra-tert-butylmethane, C60) canonicalize in
milliseconds; a graph that still exhausts the leaf budget raises
:class:`CanonicalizationBudgetError`, a :class:`SmilesError`. Refinement
takes one pass per layer of a long chain, so its cost grows with the square
of the chain's length. Parsing accepts ASCII digits only, so every bad text
raises a :class:`SmilesError`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .files import data_text, table_rows

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "SmilesError",
    "SmilesSyntaxError",
    "UnmatchedRingError",
    "ValenceError",
    "MultiFragmentError",
    "UnsupportedAtomError",
    "NoApplicableSiteError",
    "CanonicalizationBudgetError",
    "parse",
    "scaffold_of",
    "scaffold_atoms",
    "subgraph_name",
    "neighbor_maps",
    "mutate",
    "EDIT_OPERATORS",
]


class SmilesError(ValueError):
    """Base class for molecule construction failures."""


class SmilesSyntaxError(SmilesError):
    """Malformed SMILES text (bad token, dangling branch, bad aromaticity)."""


class UnmatchedRingError(SmilesError):
    """A ring-closure digit was opened but never closed."""


class ValenceError(SmilesError):
    """An atom exceeds its maximum allowed valence."""


class MultiFragmentError(SmilesError):
    """Disconnected input (the '.' separator or a disconnected graph)."""


class UnsupportedAtomError(SmilesError):
    """Element outside the supported subset."""


class NoApplicableSiteError(SmilesError):
    """An edit operator has no valid site on the molecule."""


class CanonicalizationBudgetError(SmilesError):
    """The canonical search ran out of leaves (graph too symmetric)."""


SUPPORTED_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
_ELEMENT_INDEX = {el: i for i, el in enumerate(SUPPORTED_ELEMENTS)}
_AROMATIC_OK = frozenset({"B", "C", "N", "O", "P", "S"})

# Normal valences used to infer implicit hydrogens on bare (non-bracket)
# atoms; the shipped valence.tsv only bounds the error check.
_DEFAULT_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

_ORDER_ELECTRONS = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}
_ORDER_SORT = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
# what the writer writes for a bond of each order, a single bond between
# aromatic ring atoms aside
_ORDER_CHAR = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ""}

EDIT_OPERATORS = (
    "substitute_atom",
    "append_terminal_atom",
    "delete_terminal_atom",
    "change_bond_order",
)

# Guard against combinatorial blow-up on pathologically symmetric graphs.
_MAX_CANON_LEAVES = 20_000

# parse() keeps this many recent results.
_PARSE_CACHE_SIZE = 64

# subgraph_name() keeps the strings of this many recent subgraphs.
_SUBGRAPH_MEMO_MAX = 512

# _canonical_string() keeps the strings of this many recent graphs.
_NAME_MEMO_MAX = 4096

_VALENCE_MAX = {element: int(value) for element, value in table_rows(data_text("valence.tsv"))}


class _Memo(OrderedDict):
    """At most `size` entries, the least recently kept or recalled first
    out; rollouts on threads share one, so both run under a lock. An
    OrderedDict evicts its oldest entry in constant time, where a dict
    would first scan the slots its earlier deletions left at the front."""

    __slots__ = ("size", "_lock")

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._lock = threading.Lock()

    def recall(self, key):
        """The value kept for `key`, now the most recently used, or None."""
        with self._lock:
            value = self.get(key)
            if value is not None:
                self.move_to_end(key)
        return value

    def keep(self, key, value) -> None:
        with self._lock:
            self[key] = value
            self.move_to_end(key)
            if len(self) > self.size:
                self.popitem(last=False)


@dataclass(frozen=True)
class Atom:
    """One heavy atom; hcount is the resolved number of attached hydrogens."""

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    hcount: int = 0
    isotope: Optional[int] = None

    def with_hcount(self, hcount: int) -> "Atom":
        return Atom(self.element, self.aromatic, self.formal_charge, hcount, self.isotope)


class Bond(NamedTuple):
    """A bond from atom `a` to atom `b`, in the orientation it was read or
    built. A named tuple, not a dataclass: molecules hold many bonds and
    every build makes them anew, and a tuple builds in half the time and a
    third of the memory, and unpacks as ``a, b, order``."""

    a: int
    b: int
    order: str = SINGLE

    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


class Molecule:
    """Immutable molecular graph named by its canonical SMILES string.

    Every construction path validates the graph when it builds the
    molecule; the canonical search runs on the first read of
    ``.canonical``, which raises :class:`CanonicalizationBudgetError` when
    the search trips.
    """

    __slots__ = (
        "atoms",
        "bonds",
        "_adj",
        "_ring_bonds",
        "_ring_atoms",
        "_canonical",
        "_fp_cache",
        "_keeps_edits",
    )

    def __init__(self, atoms: Sequence[Atom], bonds: Sequence[Bond]):
        atoms, bonds = tuple(atoms), tuple(bonds)
        # before the build, which indexes the atoms by the bond ends
        _check_bond_ends(len(atoms), bonds)
        self._build(atoms, bonds, _ring_bond_flags(len(atoms), bonds))
        self._validate()

    @classmethod
    def _assemble(
        cls,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        ring_bonds: list[bool],
    ) -> "Molecule":
        """A molecule whose bonds' ring flags are already known, built
        unchecked: its caller makes every check that can fail (a parse, an
        edit), needs none (a write-order twin) or only names the graph and
        lets it go (:func:`_subgraph_name`)."""
        mol = cls.__new__(cls)
        mol._build(atoms, bonds, ring_bonds)
        return mol

    def _build(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        ring_bonds: list[bool],
    ) -> None:
        """The graph and its derived structure, unchecked and unnamed."""
        self.atoms: tuple[Atom, ...] = atoms
        self.bonds: tuple[Bond, ...] = bonds
        self._adj = _adjacency(len(atoms), bonds)
        self._ring_bonds = ring_bonds
        self._ring_atoms = ring_atoms = [False] * len(atoms)
        for (a, b, _), in_ring in zip(bonds, ring_bonds):
            if in_ring:
                ring_atoms[a] = ring_atoms[b] = True
        # graph-only values (chemfeat's fingerprints and FG sets, the
        # scaffold), never depending on atom order, so a write-order twin
        # shares them
        self._fp_cache: dict = {}
        self._canonical: Optional[str] = None
        # whether the edit memo keeps this molecule's edits (see _edit):
        # not on a deferred edit child
        self._keeps_edits = True

    # -- derived structure ------------------------------------------------

    @property
    def canonical(self) -> str:
        # the one place a canonical search starts; it is pure, so two
        # threads racing on a first read store the same string, and a
        # search that trips stores nothing and trips again on the next read
        if self._canonical is None:
            self._canonical = _canonical_string(self, True)
        return self._canonical

    def neighbors(self, idx: int) -> list[tuple[int, str]]:
        """(neighbor index, bond order) pairs for one atom."""
        return self._adj[idx]

    def degree(self, idx: int) -> int:
        return len(self._adj[idx])

    def bond_in_ring(self, bond_idx: int) -> bool:
        return self._ring_bonds[bond_idx]

    def atom_in_ring(self, idx: int) -> bool:
        return self._ring_atoms[idx]

    def ring_count(self) -> int:
        """Cyclomatic number: independent cycles in the (connected) graph."""
        if not self.atoms:
            return 0
        return len(self.bonds) - len(self.atoms) + 1

    def heavy_atom_count(self) -> int:
        return len(self.atoms)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Molecule):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def __repr__(self) -> str:
        return f"Molecule({self.canonical!r})"

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        """Every check after :func:`_check_bond_ends`, in order: one
        component, the aromatic bonds, the atoms."""
        n = len(self.atoms)
        if n == 0:
            return
        if _component_size(0, self._adj) != n:
            raise MultiFragmentError("molecule graph is disconnected")
        self._check_bonds(range(len(self.bonds)))
        self._check_atoms(range(n))

    def _check_bonds(self, indices: Iterable[int]) -> None:
        """The aromatic rules of each bond in `indices`, in order: an
        aromatic bond joins two aromatic atoms and lies on a ring."""
        for b_idx in indices:
            a, b, order = self.bonds[b_idx]
            if order == AROMATIC:
                if not (self.atoms[a].aromatic and self.atoms[b].aromatic):
                    raise SmilesSyntaxError("aromatic bond between non-aromatic atoms")
                if not self._ring_bonds[b_idx]:
                    raise SmilesSyntaxError("aromatic bond outside a ring")

    def _check_atoms(self, indices: Iterable[int]) -> None:
        """Element support, the aromatic rules, a non-negative hydrogen
        count and the valence ceiling of each atom in `indices`, in order."""
        for idx in indices:
            atom = self.atoms[idx]
            if atom.element not in _ELEMENT_INDEX:
                raise UnsupportedAtomError(f"unsupported element {atom.element!r}")
            if atom.aromatic:
                if atom.element not in _AROMATIC_OK:
                    raise UnsupportedAtomError(
                        f"element {atom.element!r} cannot be aromatic"
                    )
                if not self._ring_atoms[idx]:
                    raise SmilesSyntaxError(
                        f"aromatic atom at index {idx} is not in a ring"
                    )
            if atom.hcount < 0:
                raise ValenceError(f"atom {idx} has negative hydrogen count")
            ceiling = max(0, _VALENCE_MAX[atom.element] + atom.formal_charge)
            total = atom.hcount
            for _, order in self._adj[idx]:
                total += _ORDER_ELECTRONS[order]
            if total > ceiling:
                raise ValenceError(
                    f"atom {idx} ({atom.element}) valence {total} exceeds {ceiling}"
                )


def _check_bond_ends(n: int, bonds: Sequence[Bond]) -> None:
    """Each bond, in order, joins two distinct atoms among the `n` and no
    other bond joins the same two."""
    seen: set[tuple[int, int]] = set()
    for bond in bonds:
        if bond.a == bond.b:
            raise SmilesSyntaxError("bond endpoints must be distinct")
        if not (0 <= bond.a < n and 0 <= bond.b < n):
            raise SmilesSyntaxError("bond endpoint out of range")
        if bond.key() in seen:
            raise SmilesSyntaxError(f"duplicate bond between {bond.key()}")
        seen.add(bond.key())


def _bond_electrons(nbrs: list[tuple[int, str]]) -> int:
    """Valence one atom spends on its bonds, from its (neighbour, order)
    pairs."""
    return sum(_ORDER_ELECTRONS[order] for _, order in nbrs)


def _pair_tables(size: int) -> dict[str, list[tuple[int, str]]]:
    return {order: [(j, order) for j in range(size)] for order in _ORDER_SORT}


# the (neighbour, order) pairs of every molecule's adjacency lists:
# _PAIRS[order][j] is (j, order). A molecule keeps its adjacency for life, so
# handing out shared pairs rather than two new tuples per bond halves the
# objects each new molecule gives the cyclic garbage collector to track and
# scan. The tables grow to the largest molecule built, and are replaced
# rather than extended, so a thread never reads a pair at the wrong index.
_PAIRS = _pair_tables(64)


def _adjacency(n: int, bonds: Sequence[Bond]) -> list[list[tuple[int, str]]]:
    global _PAIRS
    pairs = _PAIRS
    if len(pairs[SINGLE]) < n:
        pairs = _PAIRS = _pair_tables(max(n, 2 * len(pairs[SINGLE])))
    adj: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for a, b, order in bonds:
        row = pairs[order]
        adj[a].append(row[b])
        adj[b].append(row[a])
    return adj


def neighbor_maps(m: Molecule) -> list[dict[int, str]]:
    """{neighbour: bond order} for each atom, built anew on every call: a
    write-order twin shares its writer's `_fp_cache` but not its atom order,
    so per-index views are never cached there."""
    return [dict(nbrs) for nbrs in m._adj]


def _component_size(start: int, adj: list[list[tuple[int, str]]]) -> int:
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nbr, _ in adj[cur]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen)


def _ring_bond_flags(n: int, bonds: Sequence[tuple[int, int, object]]) -> list[bool]:
    """True for every bond on a cycle, given each bond as (a, b, order), in a
    graph connected or not. The atoms are numbered in the order a search
    reaches them, so each bond that reaches a new atom runs from a lower
    number to a higher one, as a parse's tree bonds do, and the other bonds
    go to :func:`_closure_ring_flags` as its ring closures."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for b_idx, (a, b, _) in enumerate(bonds):
        adj[a].append((b, b_idx))
        adj[b].append((a, b_idx))
    number, tree, counter = [-1] * n, set(), itertools.count()
    for root in range(n):
        if number[root] != -1:
            continue
        number[root] = next(counter)
        stack = [root]
        while stack:
            for nbr, b_idx in adj[stack.pop()]:
                if number[nbr] == -1:
                    number[nbr] = next(counter)
                    tree.add(b_idx)
                    stack.append(nbr)
    numbered = []
    for a, b, _ in bonds:
        a, b = sorted((number[a], number[b]))
        numbered.append((a, b, None))
    closures = [b_idx for b_idx in range(len(bonds)) if b_idx not in tree]
    return _closure_ring_flags(n, numbered, closures)


def _implicit_hydrogens(element: str, aromatic: bool, bond_electrons: int) -> int:
    """Implicit-H rule for a bare SMILES atom whose bonds spend
    `bond_electrons` of its valence.

    Aromatic atoms reserve one valence slot for the ring pi system.
    """
    total = bond_electrons
    if aromatic:
        total += 1
    for valence in _DEFAULT_VALENCES[element]:
        if valence >= total:
            return valence - total
    return 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# ASCII only: str.isdigit() also accepts digits int() rejects, such as '²'
_DIGITS = "0123456789"


def _digit_run(text: str, i: int) -> int:
    """Index just past the digits that start at text[i]."""
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    return i


def _bracket_number(token: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise SmilesSyntaxError(f"number too long in bracket atom {token!r}") from None


def _parse_bracket(token: str) -> Atom:
    body = token[1:-1]
    if not body:
        raise SmilesSyntaxError("empty bracket atom")
    isotope = None
    i = _digit_run(body, 0)
    if i > 0:
        isotope = _bracket_number(token, body[:i])
    if i >= len(body):
        raise SmilesSyntaxError(f"bracket atom {token!r} has no element")
    aromatic = False
    if body[i] == "*":
        raise UnsupportedAtomError("wildcard atoms are not supported")
    if body[i].isupper():
        element = body[i]
        i += 1
        if i < len(body) and body[i].islower():
            element += body[i]
            i += 1
    elif body[i].islower():
        el = body[i]
        i += 1
        if i < len(body) and body[i].islower() and body[i] not in "h":
            el += body[i]
            i += 1
        element = el.capitalize()
        aromatic = True
    else:
        raise SmilesSyntaxError(f"bad element in bracket atom {token!r}")
    if element not in _ELEMENT_INDEX:
        raise UnsupportedAtomError(f"unsupported element {element!r}")
    # chirality marks are accepted and discarded
    while i < len(body) and body[i] == "@":
        i += 1
    hcount = 0
    if i < len(body) and body[i] == "H":
        start = i + 1
        i = _digit_run(body, start)
        hcount = _bracket_number(token, body[start:i]) if i > start else 1
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        ch = body[i]
        i += 1
        if i < len(body) and body[i] in _DIGITS:
            start = i
            i = _digit_run(body, start)
            charge = sign * _bracket_number(token, body[start:i])
        else:
            charge = sign
            while i < len(body) and body[i] == ch:
                charge += sign
                i += 1
    if i < len(body) and body[i] == ":":
        start = i + 1
        i = _digit_run(body, start)
        if i == start:
            raise SmilesSyntaxError(f"bad atom class in {token!r}")
    if i != len(body):
        raise SmilesSyntaxError(f"trailing characters in bracket atom {token!r}")
    return Atom(element, aromatic, charge, hcount, isotope)


def _bare_atoms() -> dict[str, tuple[Atom, ...]]:
    """Every bare (organic-subset) atom, by token and then by the valence its
    bonds spend, up to the valence from which on it takes no hydrogen. Each
    (token, hydrogen count) is one :class:`Atom`, built once."""
    interned: dict[tuple[str, int], Atom] = {}
    table = {}
    for token in SUPPORTED_ELEMENTS + tuple(sorted(el.lower() for el in _AROMATIC_OK)):
        element, aromatic = token.capitalize(), token.islower()
        row = []
        for spent in range(max(_DEFAULT_VALENCES[element]) + 1):
            hcount = _implicit_hydrogens(element, aromatic, spent)
            row.append(interned.setdefault((token, hcount), Atom(element, aromatic, 0, hcount)))
        table[token] = tuple(row)
    return table


# token -> its bare atoms by the valence the bonds spend; the last takes no
# hydrogen, and so does any atom whose bonds spend more
_BARE_ATOMS = _bare_atoms()


def parse(smiles: str) -> Molecule:
    """Parse a SMILES string into a validated :class:`Molecule`, named on
    the first read of ``.canonical``.

    The last few texts parsed map to the same (immutable) Molecule object; a
    text that fails is parsed again. The canonical string of one of the
    last few molecules named is not parsed at all: its write-order twin is
    built from the molecule that wrote it, already named.

    Raises :class:`SmilesSyntaxError`, :class:`UnmatchedRingError`,
    :class:`ValenceError`, :class:`MultiFragmentError` or
    :class:`UnsupportedAtomError`; a search that trips raises
    :class:`CanonicalizationBudgetError` on the first read of the name.
    """
    if not isinstance(smiles, str) or not smiles.strip():
        raise SmilesSyntaxError("empty SMILES string")
    return _parse_interned(smiles.strip())


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parse_interned(smiles: str) -> Molecule:
    canon = _WRITTEN.get(smiles)
    if canon is not None:
        return _write_order_twin(smiles, canon)
    return _parse_text(smiles)


def _smiles_graph(
    smiles: str,
) -> tuple[list[str | Atom], list[tuple[int, int, Optional[str]]], list[int]]:
    """The SMILES grammar, read in one pass over the text: the atoms in text
    order, the bonds between them and the indices of the ring-closure bonds.

    A bare atom stays its token, whose meaning the caller decides; a bracket
    atom is read by :func:`_parse_bracket` where it stands, so every error
    is raised at the first character that causes one. A bond is (a, b,
    order), the order None where the text leaves it unspecified; stereo
    marks are dropped. Every bond that is not a ring closure reaches a new
    atom: `b` is that atom and `a`, an earlier one, its parent, so those
    bonds form a spanning tree. The grammar rejects a bond from an atom to
    itself, a second bond between two atoms and '.', so the graph is
    connected and simple. Raises :class:`SmilesSyntaxError`,
    :class:`UnmatchedRingError`, :class:`MultiFragmentError` or
    :class:`UnsupportedAtomError`.
    """
    atoms: list[str | Atom] = []
    bonds: list[tuple[int, int, Optional[str]]] = []
    closures: list[int] = []
    # (lower atom, higher atom) of every bond; only a closure can repeat one
    bond_keys: set[tuple[int, int]] = set()
    anchor: Optional[int] = None
    pending: Optional[str] = None
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, Optional[str]]] = {}

    just_opened = False
    i, n = 0, len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[" or ch.isalpha():
            if ch == "[":
                end = smiles.find("]", i)
                if end == -1:
                    raise SmilesSyntaxError("unterminated bracket atom")
                atom: str | Atom = _parse_bracket(smiles[i : end + 1])
                i = end + 1
            elif smiles[i : i + 2] in ("Cl", "Br"):
                atom = smiles[i : i + 2]
                i += 2
            elif ch in "BCNOPSFIbcnops":
                atom = ch
                i += 1
            elif ch.isupper():
                raise UnsupportedAtomError(f"unsupported element at {i}: {smiles[i:i+2]!r}")
            else:
                raise SmilesSyntaxError(f"unexpected character {ch!r} at {i}")
            if anchor is not None:
                bond_keys.add((anchor, len(atoms)))
                bonds.append((anchor, len(atoms), pending))
            elif pending is not None:
                raise SmilesSyntaxError("bond symbol before the first atom")
            anchor = len(atoms)
            atoms.append(atom)
            pending = None
            just_opened = False
            continue
        i += 1
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesSyntaxError("two consecutive bond symbols")
            pending = _BOND_CHARS[ch]
        elif ch in "/\\":
            pass  # stereo marks are accepted and discarded
        elif ch == "(":
            if anchor is None:
                raise SmilesSyntaxError("branch before the first atom")
            if just_opened:
                raise SmilesSyntaxError("empty branch")
            branch_stack.append(anchor)
            just_opened = True
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unmatched ')'")
            if pending is not None or just_opened:
                raise SmilesSyntaxError("dangling branch content before ')'")
            anchor = branch_stack.pop()
        elif ch == ".":
            raise MultiFragmentError("multi-fragment SMILES is not supported")
        elif ch == "*":
            raise UnsupportedAtomError("wildcard atoms are not supported")
        elif ch == "%" or ch in _DIGITS:
            if ch == "%":
                if _digit_run(smiles, i) < i + 2:
                    raise SmilesSyntaxError("'%' must be followed by two digits")
                num = int(smiles[i : i + 2])
                i += 2
            else:
                num = int(ch)
            if anchor is None:
                raise SmilesSyntaxError("ring digit before the first atom")
            if num in open_rings:
                other, order_there = open_rings.pop(num)
                if pending is not None and order_there is not None and pending != order_there:
                    raise SmilesSyntaxError(f"conflicting ring-bond orders for digit {num}")
                if other == anchor:
                    raise SmilesSyntaxError(f"ring bond from atom {other} to itself")
                key = (other, anchor) if other < anchor else (anchor, other)
                if key in bond_keys:
                    raise SmilesSyntaxError(f"duplicate bond between atoms {key}")
                bond_keys.add(key)
                closures.append(len(bonds))
                bonds.append((other, anchor, pending if pending is not None else order_there))
            else:
                open_rings[num] = (anchor, pending)
            pending = None
        else:
            raise SmilesSyntaxError(f"unexpected character {ch!r} at {i - 1}")

    if branch_stack:
        raise SmilesSyntaxError("unclosed '('")
    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if open_rings:
        digits = sorted(open_rings)
        raise UnmatchedRingError(f"unmatched ring digit(s): {digits}")
    if not atoms:
        raise SmilesSyntaxError("no atoms in SMILES string")
    return atoms, bonds, closures


def _closure_ring_flags(
    n: int, bonds: Sequence[tuple[int, int, Optional[str]]], closures: Sequence[int]
) -> list[bool]:
    """Ring flags of a graph read by :func:`_smiles_graph`, from its ring
    closures: every closure lies on a ring, and a tree bond does exactly
    when it lies on the tree path between the ends of some closure. Each
    closure marks that path, climbing from the later of its two current
    ends, since a parent comes before its child. A marked atom's skip
    pointer jumps to its parent and each climb halves the pointers it
    follows, so each bond is marked once and the cost stays about linear in
    the atoms and bonds."""
    flags = [False] * len(bonds)
    if not closures:
        return flags
    for b_idx in closures:
        flags[b_idx] = True
    # per atom after the first: the index of the tree bond from its parent
    via = [0] * n
    for b_idx, (_, child, _) in enumerate(bonds):
        if not flags[b_idx]:
            via[child] = b_idx
    skip = list(range(n))
    for b_idx in closures:
        a, b, _ = bonds[b_idx]
        while True:
            while skip[a] != a:
                skip[a] = skip[skip[a]]
                a = skip[a]
            while skip[b] != b:
                skip[b] = skip[skip[b]]
                b = skip[b]
            if a == b:
                break
            if a < b:
                a, b = b, a
            flags[via[a]] = True
            skip[a] = bonds[via[a]][0]
    return flags


def _parse_text(smiles: str) -> Molecule:
    """The validated molecule `smiles` writes, read in one pass from the
    grammar's output: ring flags from the ring closures, then one loop that
    resolves each bond's order and sums the valence each atom's bonds
    spend, then each bare atom from the interned table by that valence.

    An unspecified bond is aromatic between two aromatic atoms on a ring,
    single otherwise. The grammar already rules out a bond from an atom to
    itself, a second bond between two atoms and a disconnected graph, so
    only the aromatic rules of the explicit ':' bonds and the atom checks
    are left, in the order a full validation makes them."""
    tokens, graph, closures = _smiles_graph(smiles)
    n = len(tokens)
    ring_flags = _closure_ring_flags(n, graph, closures)
    aromatic = [t.islower() if t.__class__ is str else t.aromatic for t in tokens]
    bonds: list[Bond] = []
    explicit_aromatic: list[int] = []
    spent = [0] * n
    for b_idx, (a, b, order) in enumerate(graph):
        if order is None:
            order = AROMATIC if aromatic[a] and aromatic[b] and ring_flags[b_idx] else SINGLE
        elif order == AROMATIC:
            explicit_aromatic.append(b_idx)
        bonds.append(Bond(a, b, order))
        electrons = _ORDER_ELECTRONS[order]
        spent[a] += electrons
        spent[b] += electrons
    atoms = []
    for token, electrons in zip(tokens, spent):
        if token.__class__ is str:
            row = _BARE_ATOMS[token]
            token = row[electrons] if electrons < len(row) else row[-1]
        atoms.append(token)
    mol = Molecule._assemble(tuple(atoms), tuple(bonds), ring_flags)
    mol._check_bonds(explicit_aromatic)
    mol._check_atoms(range(n))
    return mol


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(nbrs: list[list[tuple[int, int]]], ranks: list[int]) -> list[int]:
    """Split cells by their atoms' sorted (bond order, neighbour rank) lists
    until no cell splits; `nbrs[i]` holds atom i's (order sort key, neighbour).

    A pass equals dense-ranking every atom's key (rank, neighbour list), each
    key read on the last pass's ranks: the rank part keeps cells in place, so
    a cell that splits leaves its parts where it stood, in key order, and the
    cells after it move up. The cell lists are kept from pass to pass. The
    first pass keys every cell of two or more atoms; a later pass keys only
    the cells holding a neighbour of an atom whose cell split in the pass
    before. That is exact: the atoms of any other cell had equal keys when
    the cell was last keyed (or made), none of their neighbours has changed
    cell since, and renumbering keeps the order of the ranks, so their keys
    are still equal.
    """
    n = len(ranks)
    cells: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for idx, rank in enumerate(ranks):
        cells[rank].append(idx)
    ranks = list(ranks)
    touched: Iterable[int] = range(len(cells))
    while len(cells) < n:
        new_cells: list[list[int]] = []
        copied = first = 0  # cells[:copied] are in new_cells
        moved: list[int] = []  # atoms of the cells that split
        for pos in touched:
            cell = cells[pos]
            if len(cell) < 2:
                continue
            # (order, rank) pairs packed into one int keep their order
            keyed = sorted([
                (sorted([order * n + ranks[j] for order, j in nbrs[i]]), i) for i in cell
            ])
            if keyed[0][0] == keyed[-1][0]:
                continue
            if not moved:
                first = pos
            new_cells += cells[copied:pos]
            copied = pos + 1
            moved += cell
            part = [keyed[0][1]]
            for (last, _), (key, idx) in zip(keyed, keyed[1:]):
                if key != last:
                    new_cells.append(part)
                    part = []
                part.append(idx)
            new_cells.append(part)
        if not moved:
            break
        new_cells += cells[copied:]
        cells = new_cells
        for rank in range(first, len(cells)):
            for idx in cells[rank]:
                ranks[idx] = rank
        touched = sorted({ranks[j] for i in moved for _, j in nbrs[i]})
    return ranks


def _individualize(ranks: list[int], atom: int) -> list[int]:
    """Move `atom` into a cell of its own, just before the rest of its cell."""
    own = ranks[atom]
    return [
        rank + (rank > own or (rank == own and idx != atom))
        for idx, rank in enumerate(ranks)
    ]


# the name memo: the key of a graph (see _Canonicalizer) -> its canonical
# string, a space, and the packed trace of the string's write, for the last
# _NAME_MEMO_MAX graphs named
_NAMES = _Memo(_NAME_MEMO_MAX)


def _canonical_string(mol: Molecule, remember: bool = False) -> str:
    """Canonical SMILES; with `remember` (a molecule's own name), the search
    that wrote it is kept so :func:`parse` can build the string's
    write-order twin. A graph the name memo holds is not searched again:
    only the setup runs."""
    if not mol.atoms:
        return ""
    canon = _Canonicalizer(mol)
    named = _NAMES.recall(canon.key)
    if named is None:
        text = canon.run()  # a search that trips keeps nothing
        trace = _packed(canon.best_trace, len(mol.atoms))
        _NAMES.keep(canon.key, text.encode() + b" " + trace)
    else:
        encoded, _, trace = named.partition(b" ")  # no canonical string has a space
        text = encoded.decode()
    if remember:
        _WRITTEN.keep(text, (mol, trace, canon.bond_at))
    return text


def _packed(values: list[int], n: int) -> bytes:
    """Atom indices, partner counts and bond order keys of an `n`-atom
    graph, one byte each below 256 atoms, else four."""
    return bytes(values) if n < 256 else array("I", values).tobytes()


def _unpacked(packed: bytes, n: int) -> Sequence[int]:
    """The values :func:`_packed` packed."""
    return packed if n < 256 else memoryview(packed).cast("I")


class _Canonicalizer:
    """Canonical SMILES: the smallest leaf string of the individualize-and-
    refine search tree, with per-molecule data computed once.

    One pass over the bonds and one over the atoms build the neighbour rows,
    the bond characters, a lower atom * n + higher atom -> bond index map,
    the atom tokens (only bracket atoms call :func:`_atom_token`), the
    initial invariants and the graph's name-memo key; the edges the
    certificates list are built once the refined ranks tie. The key is the
    graph exactly, in its atom order: the atom and bond counts, each bond's
    (a, b, order) in bond order, then each atom's token. Tokens and bonds fix
    every atom field, as the certificates rely on, so equal keys are equal
    graphs, which the search names alike. A node individualizes each atom
    of its first tied cell in turn; a leaf (every atom ranked apart) writes SMILES in rank
    order. A molecule whose refined ranks have no tie is its own single leaf.
    Two leaves with equal certificates (atom tokens in rank order plus the
    sorted rank-labelled edges) differ by an automorphism and write equal
    strings, so each certificate is written once. That automorphism maps the
    later leaf's path onto the earlier one's, and the later leaf's subtree
    below the deepest node both paths share onto a subtree already searched,
    so the search resumes at that node. A node also skips atoms in the orbit
    of an atom it has explored, under the automorphisms found so far that fix
    its path (McKay & Piperno, J. Symb. Comput. 60, 2014). Pruned leaves
    write the strings of leaves kept, so the smallest string is unchanged.
    """

    def __init__(self, mol: Molecule):
        atoms, ring_bonds, n = mol.atoms, mol._ring_bonds, len(mol.atoms)
        self.mol = mol
        # per atom: (order sort key, neighbour) pairs
        self.nbrs = nbrs = [[] for _ in range(n)]
        electrons = [0] * n
        self.bond_chars = bond_chars = []
        # lower atom * n + higher atom -> bond index
        self.bond_at = bond_at = {}
        edges = []  # a, b, order sort key of each bond, for the key
        for b_idx, bond in enumerate(mol.bonds):
            a, b, order = bond.a, bond.b, bond.order
            sort_key = _ORDER_SORT[order]
            edges += (a, b, sort_key)
            nbrs[a].append((sort_key, b))
            nbrs[b].append((sort_key, a))
            spent = _ORDER_ELECTRONS[order]
            electrons[a] += spent
            electrons[b] += spent
            bond_at[a * n + b if a < b else b * n + a] = b_idx
            # a single bond is written '-' only where re-parsing would
            # resolve the default order to aromatic
            bond_chars.append(
                "-" if order == SINGLE and ring_bonds[b_idx]
                and atoms[a].aromatic and atoms[b].aromatic else _ORDER_CHAR[order]
            )
        self.tokens = tokens = []
        self.invariants = invariants = []
        ring_atoms = mol._ring_atoms
        for idx, atom in enumerate(atoms):
            element, aromatic, charge, hcount, isotope = (
                atom.element, atom.aromatic, atom.formal_charge, atom.hcount, atom.isotope
            )
            symbol = element.lower() if aromatic else element
            if (
                charge == 0
                and isotope is None
                and (not aromatic or element in _AROMATIC_OK)
                and _implicit_hydrogens(element, aromatic, electrons[idx]) == hcount
            ):
                tokens.append(symbol)
            else:
                tokens.append(_atom_token(atom, symbol))
            invariants.append((
                _ELEMENT_INDEX[element], aromatic, charge, hcount,
                len(nbrs[idx]), ring_atoms[idx], isotope or 0,
            ))
        self.key = (b"%d %d|" % (n, len(mol.bonds)) + _packed(edges, n)
                    + " ".join(tokens).encode())
        self.edges: list[tuple[int, int, int]] = []  # built once ranks tie
        # certificate -> (atom at each rank, path) of its first leaf
        self.leaves: dict[tuple, tuple[list[int], tuple[int, ...]]] = {}
        self.automorphisms: list[list[int]] = []
        self.budget = _MAX_CANON_LEAVES
        self.best = ""
        # the best string's write trace (see _write), for _write_order_twin
        self.best_trace: list[int] = []

    def run(self) -> str:
        ranks = _refine(self.nbrs, _dense_ranks(self.invariants))
        if max(ranks) == len(ranks) - 1:
            return self._write(ranks, self.best_trace)
        self.edges = [(b.a, b.b, _ORDER_SORT[b.order]) for b in self.mol.bonds]
        self._visit(ranks, ())
        return self.best

    def _visit(self, ranks: list[int], path: tuple[int, ...]) -> int:
        """Search below the node `path` individualizes; returns the depth of
        the node where the search goes on."""
        if max(ranks) == len(ranks) - 1:
            return self._leaf(ranks, path)
        cells: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for idx, rank in enumerate(ranks):
            cells[rank].append(idx)
        tied = next(cell for cell in cells if len(cell) > 1)
        depth = len(path)
        explored: list[int] = []
        for atom in tied:
            if explored and self._in_explored_orbit(atom, explored, path):
                continue
            explored.append(atom)
            resume = self._visit(
                _refine(self.nbrs, _individualize(ranks, atom)), path + (atom,)
            )
            if resume < depth:
                return resume
        return depth - 1

    def _leaf(self, ranks: list[int], path: tuple[int, ...]) -> int:
        self.budget -= 1
        if self.budget < 0:
            raise CanonicalizationBudgetError(
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
            trace: list[int] = []
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

    def _write(self, ranks: list[int], trace: list[int]) -> str:
        """SMILES with atoms taken in `ranks` order. The `trace` list receives,
        for each atom in written order, the atom, the number of neighbours a
        parser bonds it to on reading it, and those neighbours: its tree
        parent, then the partners of the ring bonds it closes, in digit
        order."""
        n = len(ranks)
        order = [0] * n
        for idx, rank in enumerate(ranks):
            order[rank] = idx
        # each atom's neighbours in rank order, from one pass in rank order
        ordered: list[list[int]] = [[] for _ in range(n)]
        for idx in order:
            for _, nbr in self.nbrs[idx]:
                ordered[nbr].append(idx)
        # terminal atoms give chain-first strings; both keys are isomorphism
        # invariants, so the choice is still canonical
        root = order[0]
        for idx in order:
            if len(ordered[idx]) == 1:
                root = idx
                break

        # a depth-first spanning tree, its preorder the written order: a
        # child with a later sibling is a branch, closed after the last atom
        # of its subtree; every other bond joins an atom to an ancestor
        preorder = [root]
        seen = [-1] * n  # preorder position
        seen[root] = 0
        parent = [-1] * n
        last_child = [-1] * n
        branch = [False] * n
        closes = [0] * n  # branches closed after the atom
        opens: dict[int, list[int]] = {}  # ancestor -> ring partners
        shuts: dict[int, list[int]] = {}  # descendant -> ring partners
        dfs: list[tuple[int, Iterator[int]]] = [(root, iter(ordered[root]))]
        while dfs:
            node, it = dfs[-1]
            for nbr in it:
                if seen[nbr] < 0:
                    if last_child[node] >= 0:
                        branch[last_child[node]] = True
                        closes[preorder[-1]] += 1
                    last_child[node] = nbr
                    parent[nbr] = node
                    seen[nbr] = len(preorder)
                    preorder.append(nbr)
                    dfs.append((nbr, iter(ordered[nbr])))
                    break
                if seen[nbr] < seen[node] and nbr != parent[node]:
                    opens.setdefault(nbr, []).append(node)
                    shuts.setdefault(node, []).append(nbr)
            else:
                dfs.pop()

        tokens, bond_chars, bond_at = self.tokens, self.bond_chars, self.bond_at
        free_digits = list(range(1, 100))  # a heap: sorted, so already one
        open_digits: dict[tuple[int, int], int] = {}  # (ancestor, descendant)
        out: list[str] = []
        emit = out.append
        for idx in preorder:
            up = parent[idx]
            if up < 0:
                partners = []
            else:
                partners = [up]
                if branch[idx]:
                    emit("(")
                emit(bond_chars[bond_at[up * n + idx if up < idx else idx * n + up]])
            emit(tokens[idx])
            if idx in shuts:
                for digit, other in sorted(
                    [(open_digits.pop((other, idx)), other) for other in shuts[idx]]
                ):
                    heapq.heappush(free_digits, digit)
                    emit(_digit_token(digit))
                    partners.append(other)
            if idx in opens:
                # deterministic: open closures toward lower-ranked partners first
                for _, other in sorted([(ranks[other], other) for other in opens[idx]]):
                    digit = heapq.heappop(free_digits)
                    open_digits[(idx, other)] = digit
                    pair = idx * n + other if idx < other else other * n + idx
                    emit(bond_chars[bond_at[pair]] + _digit_token(digit))
            trace += (idx, len(partners), *partners)
            if closes[idx]:
                emit(")" * closes[idx])
        return "".join(out)


def _atom_token(atom: Atom, symbol: str) -> str:
    """The bracket token of an atom that cannot be written bare."""
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


def _digit_token(digit: int) -> str:
    return str(digit) if digit < 10 else f"%{digit:02d}"


# ---------------------------------------------------------------------------
# Write-order twins
# ---------------------------------------------------------------------------

# canonical string -> (molecule, packed best trace, bond map) of the search
# that wrote it, for the last _PARSE_CACHE_SIZE molecules named
_WRITTEN = _Memo(_PARSE_CACHE_SIZE)


def _write_order_twin(text: str, written: tuple) -> Molecule:
    """What ``_parse_text(text)`` returns, built from the molecule whose
    search wrote `text`: its atoms in the order the string writes them, its
    bonds in the order and orientation the parser adds them, its ring flags
    permuted, all read off the trace of the write and the search's bond map.
    A canonical string names its graph, and the source was validated, so
    tokenizing, the ring flags, the checks, the canonical search and a
    second write are all skipped."""
    src, trace, bond_at = written
    n = len(src.atoms)
    new = [0] * n
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    ring_bonds: list[bool] = []
    walk = iter(_unpacked(trace, n))
    for idx in walk:
        new[idx] = len(atoms)
        atoms.append(src.atoms[idx])
        for other in itertools.islice(walk, next(walk)):
            b_idx = bond_at[other * n + idx if other < idx else idx * n + other]
            bonds.append(Bond(new[other], new[idx], src.bonds[b_idx].order))
            ring_bonds.append(src._ring_bonds[b_idx])
    twin = Molecule._assemble(tuple(atoms), tuple(bonds), ring_bonds)
    twin._canonical = text
    twin._fp_cache.update(src._fp_cache)
    return twin


# ---------------------------------------------------------------------------
# Scaffolds
# ---------------------------------------------------------------------------


def scaffold_atoms(m: Molecule) -> set[int]:
    """The atoms left after pruning terminal non-ring atoms until none is
    left: ring systems plus the linkers between them."""
    keep = set(range(len(m.atoms)))
    while True:
        removable = [
            idx
            for idx in keep
            if sum(1 for nbr, _ in m.neighbors(idx) if nbr in keep) <= 1
            and not m.atom_in_ring(idx)
        ]
        if not removable:
            return keep
        keep.difference_update(removable)


def _induced_fields(
    m: Molecule, keep: set[int]
) -> tuple[tuple[tuple, ...], tuple[tuple[int, int, str], ...]]:
    """The atoms in `keep` (in index order, renumbered from 0) as (element,
    aromatic, formal charge, hydrogen count, isotope) and the bonds among
    them as (a, b, order): the fields of their :class:`Atom` and
    :class:`Bond`. Hydrogens refill the valence of every bond cut."""
    remap = {old: new for new, old in enumerate(sorted(keep))}
    atoms = []
    for old in remap:
        atom = m.atoms[old]
        cut = sum(_ORDER_ELECTRONS[order] for nbr, order in m._adj[old] if nbr not in remap)
        atoms.append((atom.element, atom.aromatic, atom.formal_charge,
                      atom.hcount + cut, atom.isotope))
    bonds = tuple(
        (remap[b.a], remap[b.b], b.order) for b in m.bonds if b.a in remap and b.b in remap
    )
    return tuple(atoms), bonds


def subgraph_name(m: Molecule, keep: set[int]) -> str:
    """The canonical string of the graph on the atoms in `keep` and the
    bonds among them, hydrogens refilling the valence of every bond cut;
    searched once while the subgraph memo holds it (see the module
    docstring)."""
    return _subgraph_name(*_induced_fields(m, keep))


@functools.lru_cache(maxsize=_SUBGRAPH_MEMO_MAX)
def _subgraph_name(atoms: tuple[tuple, ...], bonds: tuple[tuple[int, int, str], ...]) -> str:
    # the one graph built unchecked: a fragment torn from a ring need not
    # pass the checks, and the molecule never leaves here, so its name is
    # not remembered for parse
    mol = Molecule._assemble(
        tuple(Atom(*f) for f in atoms),
        tuple(Bond(*f) for f in bonds),
        _ring_bond_flags(len(atoms), bonds),
    )
    return _canonical_string(mol)


def scaffold_of(m: Molecule) -> str:
    """The canonical string of the graph on :func:`scaffold_atoms`, "" for
    an acyclic molecule. The core is a valid molecule: pruning removes only
    non-ring atoms and hydrogens refill every cut bond. Its ring count is
    ``m.ring_count()``, since pruning a terminal atom drops one atom and one
    bond. Computed once per molecule and kept in its `_fp_cache`, which a
    write-order twin shares. The string comes from :func:`subgraph_name`,
    so a core whose search trips is never kept."""
    scaffold = m._fp_cache.get("scaffold")
    if scaffold is None:
        scaffold = m._fp_cache["scaffold"] = subgraph_name(m, scaffold_atoms(m))
    return scaffold


# ---------------------------------------------------------------------------
# Local edits
# ---------------------------------------------------------------------------

# common light elements only; Br/I enter molecules via explicit SMILES
_APPEND_POOL = ("C", "N", "O", "F", "Cl", "S")
_SUBSTITUTE_POOL = ("C", "N", "O", "S", "P", "F", "Cl", "B")
_SUBSTITUTE_AROMATIC_POOL = ("C", "N", "O", "S")

# the last _EDIT_MEMO_MAX pieces of edit work on molecules not made by an
# edit, least recently used first: (id of the molecule, op) -> (the
# molecule, its sites in draw order), and (id of the molecule, op, site[,
# element]) -> (the molecule, the child). An entry holds its molecule, so no
# other molecule can take that id while the entry lives.
_EDIT_MEMO_MAX = 128
_EDIT_MEMO = _Memo(_EDIT_MEMO_MAX)


def mutate(m: Molecule, op: str, seed: int) -> Molecule:
    """Apply one local edit; deterministic for a given seed.

    Raises :class:`NoApplicableSiteError` when the operator has no valid
    site, :class:`ValenceError` when the edit would break valence rules,
    :class:`CanonicalizationBudgetError` when the child's canonical search
    trips.
    """
    child = _edit(m, op, seed)
    child.canonical  # the search runs now, so a trip raises here
    return child


def _edit(m: Molecule, op: str, seed: int) -> Molecule:
    """:func:`mutate` without the canonical search: the child searches for
    its string on the first read of ``.canonical``. Site lists and children
    the edit memo still holds are the ones made before (see the module
    docstring)."""
    if op not in EDIT_OPERATORS:
        raise ValueError(f"unknown edit operator {op!r}")
    find_sites, build, no_site = _OPERATORS[op]
    sites = _edit_work(m, (op,), lambda: find_sites(m))
    if not sites:
        raise NoApplicableSiteError(no_site)
    rng = random.Random(seed)
    key = (op, rng.choice(sites))
    if op == "append_terminal_atom":
        key += (rng.choice(_APPEND_POOL),)
    # no operator changes which bonds lie on a ring: a deleted or appended
    # terminal bond is a bridge, so each edit hands on the parent's flags
    return _edit_work(m, key, lambda: build(m, key))


def _edit_work(m: Molecule, key: tuple, make: Callable[[], object]) -> object:
    """`make()`, or what it gave before for `m` and `key` if the edit memo
    still holds it. A failed `make` is not kept. Threads racing on one key
    may each make the value; the values are equal."""
    if not m._keeps_edits:
        return make()
    key = (id(m),) + key
    entry = _EDIT_MEMO.recall(key)
    if entry is not None:
        return entry[1]
    value = make()
    _EDIT_MEMO.keep(key, (m, value))
    return value


def _edit_child(
    atoms: list[Atom],
    bonds: tuple[Bond, ...],
    ring_bonds: list[bool],
    edited: Sequence[int],
) -> Molecule:
    """An edit's child, its canonical string deferred. Every parent is
    valid, so only the `edited` atoms can break a rule (see the module
    docstring)."""
    child = Molecule._assemble(tuple(atoms), bonds, ring_bonds)
    # index order: the first error is the one a full validation raises
    child._check_atoms(sorted(edited))
    child._keeps_edits = False
    return child


def _terminal_atoms(m: Molecule) -> list[int]:
    return [idx for idx, nbrs in enumerate(m._adj) if len(nbrs) == 1]


def _delete_terminal(m: Molecule, key: tuple) -> Molecule:
    _, target = key
    (nbr, order), = m._adj[target]
    atoms = list(m.atoms)
    atoms[nbr] = atoms[nbr].with_hcount(atoms[nbr].hcount + _ORDER_ELECTRONS[order])
    del atoms[target]
    bonds, ring_bonds = [], []
    for b_idx, bond in enumerate(m.bonds):
        if target == bond.a or target == bond.b:
            continue
        if bond.a > target or bond.b > target:
            bond = Bond(bond.a - (bond.a > target), bond.b - (bond.b > target), bond.order)
        bonds.append(bond)
        ring_bonds.append(m._ring_bonds[b_idx])
    return _edit_child(atoms, tuple(bonds), ring_bonds, (nbr - (nbr > target),))


def _hydrogen_sites(m: Molecule) -> list[int]:
    return [idx for idx, atom in enumerate(m.atoms) if atom.hcount >= 1]


def _append_terminal(m: Molecule, key: tuple) -> Molecule:
    _, site, element = key
    new = len(m.atoms)
    old = m.atoms[site]
    atoms = list(m.atoms)
    atoms[site] = old.with_hcount(old.hcount - 1)
    atoms.append(Atom(element, hcount=_DEFAULT_VALENCES[element][0] - 1))
    return _edit_child(
        atoms, m.bonds + (Bond(site, new, SINGLE),), m._ring_bonds + [False], (site, new)
    )


@functools.lru_cache(maxsize=64)
def _substitutes(aromatic: bool, bond_electrons: int) -> tuple[str, ...]:
    """The pool elements, in pool order, that may replace an atom of this
    aromaticity whose bonds spend `bond_electrons` valence."""
    pool = _SUBSTITUTE_AROMATIC_POOL if aromatic else _SUBSTITUTE_POOL
    return tuple(
        el
        for el in pool
        if bond_electrons + _implicit_hydrogens(el, aromatic, bond_electrons)
        <= _VALENCE_MAX[el]
    )


def _substitutions(m: Molecule) -> list[tuple[int, str]]:
    return sorted(
        (idx, el)
        for idx, atom in enumerate(m.atoms)
        for el in _substitutes(atom.aromatic, _bond_electrons(m._adj[idx]))
        if el != atom.element
    )


def _substitute(m: Molecule, key: tuple) -> Molecule:
    _, (idx, element) = key
    old = m.atoms[idx]
    hcount = _implicit_hydrogens(element, old.aromatic, _bond_electrons(m._adj[idx]))
    atoms = list(m.atoms)
    atoms[idx] = Atom(element, old.aromatic, 0, hcount, None)
    return _edit_child(atoms, m.bonds, m._ring_bonds, (idx,))


def _bond_order_changes(m: Molecule) -> list[tuple[int, str]]:
    candidates: list[tuple[int, str]] = []
    for b_idx, bond in enumerate(m.bonds):
        if bond.order == AROMATIC:
            continue
        a, b = m.atoms[bond.a], m.atoms[bond.b]
        if a.aromatic or b.aromatic:
            continue
        for new_order in (SINGLE, DOUBLE, TRIPLE):
            if new_order == bond.order:
                continue
            delta = _ORDER_ELECTRONS[new_order] - _ORDER_ELECTRONS[bond.order]
            if a.hcount - delta >= 0 and b.hcount - delta >= 0:
                candidates.append((b_idx, new_order))
    candidates.sort()
    return candidates


def _change_bond_order(m: Molecule, key: tuple) -> Molecule:
    _, (b_idx, order) = key
    bond = m.bonds[b_idx]
    delta = _ORDER_ELECTRONS[order] - _ORDER_ELECTRONS[bond.order]
    atoms = list(m.atoms)
    for end in (bond.a, bond.b):
        atoms[end] = atoms[end].with_hcount(atoms[end].hcount - delta)
    bonds = list(m.bonds)
    bonds[b_idx] = Bond(bond.a, bond.b, order)
    return _edit_child(atoms, tuple(bonds), m._ring_bonds, (bond.a, bond.b))


# per operator: its sites in draw order, the child of a resolved edit, and
# the error when there is no site
_OPERATORS = {
    "substitute_atom": (_substitutions, _substitute, "no substitutable atom"),
    "append_terminal_atom": (
        _hydrogen_sites, _append_terminal, "no atom with a spare hydrogen"
    ),
    "delete_terminal_atom": (
        _terminal_atoms, _delete_terminal, "no terminal atom to delete"
    ),
    "change_bond_order": (
        _bond_order_changes, _change_bond_order, "no bond eligible for an order change"
    ),
}
