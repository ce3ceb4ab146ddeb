"""Circular fingerprints, similarity, functional groups, cheap descriptors.

Everything here is a pure function of the molecular graph; fingerprints and
functional-group sets are cached on the molecule instance.

`morgan_fp` hashes each atom environment through a module-level memo of at
most 4,096 environment hashes, cleared when full, shared by all molecules.
Molecules a search visits are one or two edits apart, so almost every
environment was hashed before; the hash is a pure function of the
environment, so fingerprints are bit-identical with or without the memo.
Search also keeps returning to the same molecules, so a fingerprint memo
maps the canonical strings of the last 2,048 named molecules fingerprinted
to their set bit positions, packed into bytes.

Every fingerprint has one shape: `WIDTH` (2,048) bits from atom
environments of radius up to `RADIUS` (2), so any two compare. Only
`Fingerprint.to_bytes` and `from_bytes` turn its bits into their packed
form, `WIDTH // 8` little-endian bytes, or back: words, rows, the skill
bank's records and the exemplar sidecar are all built from that form.

Two bulk Tanimoto kernels return the same `int / int` float64 values as
`tanimoto`. `tanimoto_rows` scans fingerprints that `pack_rows` packed as
rows of 32 uint64 words beside their popcounts, with `np.bitwise_count`;
the skill bank's records hold such rows. `FingerprintPlanes` is a
bit-plane view of a static set, one packed bitset over the rows per bit
position: a scan unpacks and sums only the planes of the query's set bits,
which for sparse fingerprints (about 32 of 2,048 bits set) reads a few
percent of what a dense scan reads. The exemplar bank uses it for recall
and lead similarity. A `FunctionalGroupSet` carries its tags as a bitmask,
one bit per catalog tag, so a set-overlap (Jaccard) scan is a popcount too.

Functional-group detection asks only whether each tag has a surviving
match. At import the catalog becomes a plan: each pattern's (element,
aromatic) labels as one bitmask, and for each tag the tags that suppress
it. A molecule lacking a pattern's label skips the pattern on one AND;
the suppressing tags' matches are listed once, for the atoms they cover,
and every tag is then a search that stops at its first match. The matcher
is a module-level function that takes its state as arguments, so a
detection leaves no reference cycles for the garbage collector.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .files import data_text, table_rows
from .molgraph import (
    Atom,
    Molecule,
    _BARE_ATOMS,
    _ELEMENT_INDEX,
    _ORDER_SORT,
    _Memo,
    _smiles_graph,
    neighbor_maps,
)

__all__ = [
    "Fingerprint",
    "FingerprintPlanes",
    "FunctionalGroupSet",
    "DescriptorVector",
    "DescriptorDelta",
    "morgan_fp",
    "tanimoto",
    "pack_rows",
    "tanimoto_rows",
    "detect_functional_groups",
    "jaccard",
    "descriptors",
    "catalog_tags",
]

# the one fingerprint shape: bits per fingerprint, and the environment radius
WIDTH = 2048
RADIUS = 2

_M64 = (1 << 64) - 1

_MASSES = {key: float(value) for key, value, *_ in table_rows(data_text("atomic_masses.tsv"))}
_PSA = {key: float(value) for key, value, *_ in table_rows(data_text("psa_contrib.tsv"))}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """`WIDTH`-bit vector from hashed circular atom environments."""

    bits: int
    popcount: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "popcount", self.bits.bit_count())

    def to_bytes(self) -> bytes:
        """The packed form: the bits as `WIDTH // 8` little-endian bytes."""
        return self.bits.to_bytes(WIDTH // 8, "little")

    @classmethod
    def from_bytes(cls, packed: bytes) -> "Fingerprint":
        """The fingerprint of a `to_bytes` packed form."""
        return cls(int.from_bytes(packed, "little"))

    def to_words(self) -> np.ndarray:
        """The packed form as `WIDTH // 64` little-endian uint64 words."""
        return np.frombuffer(self.to_bytes(), dtype="<u8")


def _mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _mix_stream(values) -> int:
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = _mix64(h ^ (int(v) & _M64))
    return h


# environment -> its _mix_stream hash, for every molecule (see the module
# docstring): an atom's initial invariant, or (iteration, own hash, sorted
# (order, neighbour hash) pairs...), whose pairs are streamed flat
_ENV_HASHES: dict[tuple, int] = {}
_ENV_HASHES_MAX = 4096


def _env_hash(env: tuple) -> int:
    """`_mix_stream` of an environment missing from the memo, stored."""
    if isinstance(env[-1], tuple):
        h = _mix_stream((env[0], env[1], *[v for pair in env[2:] for v in pair]))
    else:
        h = _mix_stream(env)
    if len(_ENV_HASHES) >= _ENV_HASHES_MAX:
        _ENV_HASHES.clear()
    _ENV_HASHES[env] = h
    return h


# the fingerprint memo: canonical string -> the set bit positions of its
# fingerprint, two bytes each, for the last _FP_MEMO_MAX molecules
# fingerprinted once named. 4,096 entries raised its hits on the search
# workloads from about 22 % to 32 % of lookups, but its share of the peak
# resident memory from about 0.7 to 1.8 MB.
_FP_MEMO_MAX = 2048
_FP_MEMO = _Memo(_FP_MEMO_MAX)


def morgan_fp(m: Molecule) -> Fingerprint:
    """Hash every atom environment at iterations 0..RADIUS into WIDTH bits.

    Depends only on the molecular graph, never on input atom order. Each
    environment's hash is looked up in a bounded memo first. A molecule
    already named is first looked up by its string in the fingerprint memo:
    every molecule is valid, and a valid molecule's string names its graph,
    so every molecule with it has the same bits. The name is never read
    just for the memo, so a molecule not yet named (a greedy policy's
    candidate) stays unnamed.
    """
    cached = m._fp_cache.get("fp")
    if cached is not None:
        return cached
    name = m._canonical
    packed = None if name is None else _FP_MEMO.recall(name)
    if packed is None:
        positions = _bit_positions(m)
        if name is not None:
            _FP_MEMO.keep(name, array("H", positions).tobytes())
    else:
        positions = memoryview(packed).cast("H")
    bits = 0
    for position in positions:
        bits |= 1 << position
    fp = Fingerprint(bits)
    m._fp_cache["fp"] = fp
    return fp


def _bit_positions(m: Molecule) -> set[int]:
    """The positions `morgan_fp` sets: every environment's hash mod WIDTH."""
    memo = _ENV_HASHES
    current = []
    for idx, atom in enumerate(m.atoms):
        env = (
            _ELEMENT_INDEX[atom.element],
            int(atom.aromatic),
            atom.formal_charge,
            atom.hcount,
            m.degree(idx),
            int(m.atom_in_ring(idx)),
        )
        h = memo.get(env)
        current.append(_env_hash(env) if h is None else h)
    positions = {h % WIDTH for h in current}
    nbrs = [
        [(_ORDER_SORT[order], j) for j, order in m.neighbors(idx)]
        for idx in range(len(m.atoms))
    ]
    for iteration in range(1, RADIUS + 1):
        refreshed = []
        for idx, pairs in enumerate(nbrs):
            env = (iteration, current[idx], *sorted([(o, current[j]) for o, j in pairs]))
            h = memo.get(env)
            refreshed.append(_env_hash(env) if h is None else h)
        current = refreshed
        positions.update([h % WIDTH for h in current])
    return positions


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; 1.0 when both vectors are all-zero."""
    inter = (a.bits & b.bits).bit_count()
    union = a.popcount + b.popcount - inter
    if union == 0:
        return 1.0
    return inter / union


def pack_rows(fps: Sequence[Fingerprint]) -> tuple[np.ndarray, np.ndarray]:
    """The fingerprints as rows of `WIDTH // 64` little-endian uint64 words,
    and their popcounts."""
    words = np.frombuffer(b"".join(fp.to_bytes() for fp in fps), dtype="<u8")
    pops = np.fromiter((fp.popcount for fp in fps), np.int64, len(fps))
    return words.reshape(len(fps), WIDTH // 64), pops


def _set_bits(fp: Fingerprint) -> np.ndarray:
    """Positions of the fingerprint's set bits, ascending."""
    return np.flatnonzero(np.unpackbits(fp.to_words().view(np.uint8), bitorder="little"))


def tanimoto_rows(words: np.ndarray, pops: np.ndarray, query: Fingerprint) -> np.ndarray:
    """Tanimoto of the query against every row of `pack_rows` output, in
    one popcount scan."""
    if query.popcount == 0:
        # the union is empty only where the row is all-zero as well
        return (pops == 0).astype(np.float64)
    inter = np.bitwise_count(words & query.to_words()).sum(axis=1, dtype=np.int64)
    return inter / (pops + (query.popcount - inter))


# rows packed into planes per step of a `FingerprintPlanes` build: the
# unpacked step is WIDTH x rows bytes, 1 MB
_PLANE_CHUNK = 512


class FingerprintPlanes:
    """A static set of fingerprints as bit planes.

    `planes[b]` packs bit `b` of every row, eight rows per byte (row `r` is
    bit `r % 8` of byte `r // 8`). `similarities` unpacks and sums only the
    planes of the query's set bits, so its cost grows with the query's
    popcount rather than `WIDTH`; each value is the `int / int` float64
    that `tanimoto` and `tanimoto_rows` return, 1.0 where both vectors are
    all-zero. The planes are built `_PLANE_CHUNK` rows at a time, so the
    build never holds the whole set unpacked.
    """

    def __init__(self, fps: Sequence[Fingerprint]):
        self.count = len(fps)
        self.planes = np.zeros((WIDTH, -(-self.count // 8)), dtype=np.uint8)
        for start in range(0, self.count, _PLANE_CHUNK):
            words, _ = pack_rows(fps[start : start + _PLANE_CHUNK])
            bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
            packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
            self.planes[:, start // 8 : start // 8 + packed.shape[1]] = packed
        self.pops = np.fromiter((fp.popcount for fp in fps), np.int64, self.count)

    def similarities(
        self, query: Fingerprint, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Tanimoto of the query against every row, or against `rows` (an
        integer array)."""
        pops = self.pops if rows is None else self.pops[rows]
        if query.popcount == 0:
            return (pops == 0).astype(np.float64)
        planes = self.planes[_set_bits(query)]
        if rows is None:
            hits = np.unpackbits(planes, axis=1, count=self.count, bitorder="little")
        else:
            hits = (planes[:, rows >> 3] >> (rows & 7).astype(np.uint8)) & 1
        # an intersection is at most WIDTH bits, so a uint16 sum is exact
        inter = hits.sum(axis=0, dtype=np.uint16).astype(np.int64)
        return inter / (pops + (query.popcount - inter))


# ---------------------------------------------------------------------------
# Functional-group detection
# ---------------------------------------------------------------------------


# a bit for each (element, aromatic) label some catalog pattern holds, in
# the order the catalog first names them
_LABEL_BITS: dict[tuple[str, bool], int] = {}

# one search step: the pattern atom placed, the placed neighbour whose target
# neighbours are its candidates (None for the root), and its bonds, as
# (pattern atom, order), to the atoms placed before it
_Step = tuple[int, Optional[int], tuple[tuple[int, str], ...]]


@dataclass(frozen=True)
class _Pattern:
    atoms: tuple[Atom, ...]  # hcount is a lower bound
    # (element, aromatic) label of each distinct kind of atom, with the first
    # pattern atom that carries it: the candidate roots of a search
    labels: tuple[tuple[tuple[str, bool], int], ...]
    # the search steps from each root atom: the root, then always an atom
    # next to a placed one
    orders: tuple[tuple[_Step, ...], ...]
    # the labels' bits: a target lacking one cannot match
    mask: int


def _search_order(adj: Sequence[Sequence[tuple[int, str]]], root: int) -> tuple[_Step, ...]:
    order: list[_Step] = [(root, None, ())]
    placed = {root}
    while len(order) < len(adj):
        for p_idx in range(len(adj)):
            if p_idx in placed:
                continue
            bonds = tuple((j, bond) for j, bond in adj[p_idx] if j in placed)
            if bonds:
                order.append((p_idx, bonds[0][0], bonds))
                placed.add(p_idx)
                break
        else:
            raise ValueError("pattern graph must be connected")
    return tuple(order)


def _parse_pattern(smiles: str) -> _Pattern:
    """Pattern SMILES in the molecule grammar, read by pattern rules: no
    implicit hydrogens, bracket H is a lower bound, and an unspecified bond
    is aromatic between two aromatic atoms, single otherwise."""
    tokens, bonds, _ = _smiles_graph(smiles)
    # a bare atom's last interned form takes no hydrogen
    atoms = [_BARE_ATOMS[t][-1] if isinstance(t, str) else t for t in tokens]
    adj: list[list[tuple[int, str]]] = [[] for _ in atoms]
    for a, b, order in bonds:
        if order is None:
            order = "aromatic" if atoms[a].aromatic and atoms[b].aromatic else "single"
        adj[a].append((b, order))
        adj[b].append((a, order))
    labels: dict[tuple[str, bool], int] = {}
    mask = 0
    for idx, atom in enumerate(atoms):
        label = (atom.element, atom.aromatic)
        labels.setdefault(label, idx)
        mask |= _LABEL_BITS.setdefault(label, 1 << len(_LABEL_BITS))
    return _Pattern(
        tuple(atoms),
        tuple(labels.items()),
        tuple(_search_order(adj, root) for root in range(len(atoms))),
        mask,
    )


@dataclass(frozen=True)
class _TagPlan:
    """One catalog tag: the patterns of its lines, and the tags whose lines
    suppress it."""

    tag: str
    patterns: tuple[_Pattern, ...]
    suppressed_by: tuple[str, ...]


def _load_plan() -> tuple[_TagPlan, ...]:
    """A plan per catalog tag, in the order the catalog first names them."""
    patterns: dict[str, list[_Pattern]] = {}
    suppressed_by: dict[str, list[str]] = {}
    for parts in table_rows(data_text("fg_catalog.tsv")):
        tag, pattern = parts[0], parts[1]
        patterns.setdefault(tag, []).append(_parse_pattern(pattern))
        if len(parts) > 2 and parts[2].startswith("suppresses:"):
            for target in parts[2][len("suppresses:"):].split(","):
                if tag not in suppressed_by.setdefault(target, []):
                    suppressed_by[target].append(tag)
    return tuple(
        _TagPlan(tag, tuple(found), tuple(suppressed_by.get(tag, ())))
        for tag, found in patterns.items()
    )


_PLAN = _load_plan()
_CATALOG_TAGS = frozenset(plan.tag for plan in _PLAN)
# the plans of the tags that suppress some tag: their raw matches are listed
_SUPPRESSING = tuple(
    plan for plan in _PLAN if any(plan.tag in other.suppressed_by for other in _PLAN)
)
# one bit per catalog tag, for FunctionalGroupSet.mask
_TAG_BITS = {tag: 1 << bit for bit, tag in enumerate(sorted(_CATALOG_TAGS))}


def catalog_tags() -> frozenset[str]:
    return _CATALOG_TAGS


@dataclass(frozen=True)
class FunctionalGroupSet:
    """Set of functional-group tags drawn from the shipped catalog.

    `mask` holds the same set as a bitmask over the catalog tags, so the
    overlap of two sets is a popcount.
    """

    tags: frozenset[str]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = 0
        for tag in self.tags:
            bit = _TAG_BITS.get(tag)
            if bit is None:
                unknown = sorted(self.tags - _CATALOG_TAGS)
                raise ValueError(f"tags not in catalog: {unknown}")
            mask |= bit
        object.__setattr__(self, "mask", mask)

    def __iter__(self):
        return iter(sorted(self.tags))

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    def __len__(self) -> int:
        return len(self.tags)


def _extend(
    order: Sequence[_Step],
    depth: int,
    pattern: _Pattern,
    starts: Sequence[int],
    atoms: Sequence[Atom],
    adj: Sequence[dict[int, str]],
    mapping: list[int],
    used: set[int],
    found: Optional[set[frozenset[int]]],
) -> bool:
    """Place the pattern atoms of `order[depth:]` on target atoms outside
    `used`, every way the target allows.

    `mapping` holds the target atom of each pattern atom placed so far,
    and `used` holds them too; `used` is as it was on return. With `found`
    None, the search stops at its first complete match and returns True;
    otherwise it adds every match's atom set to `found` and returns False.
    A pattern atom matches a target atom of its element, aromaticity and
    charge with at least its hydrogens, and every pattern bond to a placed
    atom needs a target bond of the same order.
    """
    p_idx, anchor, bonds = order[depth]
    p = pattern.atoms[p_idx]
    last = depth + 1 == len(order)
    for t_idx in starts if anchor is None else adj[mapping[anchor]]:
        if t_idx in used:
            continue
        atom = atoms[t_idx]
        if (
            atom.element != p.element
            or atom.aromatic != p.aromatic
            or atom.formal_charge != p.formal_charge
            or atom.hcount < p.hcount
        ):
            continue
        t_adj = adj[t_idx]
        for p_nbr, bond in bonds:
            if t_adj.get(mapping[p_nbr]) != bond:
                break
        else:
            mapping[p_idx] = t_idx
            if last:
                if found is None:
                    return True
                found.add(frozenset(mapping))
                continue
            used.add(t_idx)
            hit = _extend(order, depth + 1, pattern, starts, atoms, adj, mapping, used, found)
            used.discard(t_idx)
            if hit:
                return True
    return False


def _match(
    pattern: _Pattern,
    roots: dict[tuple[str, bool], list[int]],
    atoms: Sequence[Atom],
    adj: Sequence[dict[int, str]],
    used: set[int],
    found: Optional[set[frozenset[int]]] = None,
    root: Optional[int] = None,
) -> bool:
    """Search the pattern in a target holding every one of its labels, as
    :func:`_extend` does from depth 0. `roots` lists the target atoms of
    each (element, aromatic) label. The search starts at pattern atom
    `root`, by default at the one whose label has the fewest target atoms;
    what it finds does not depend on where it starts."""
    if root is None:
        fewest = -1
        for label, p_idx in pattern.labels:
            if fewest < 0 or len(roots[label]) < fewest:
                root, fewest = p_idx, len(roots[label])
    p = pattern.atoms[root]
    mapping = [0] * len(pattern.atoms)
    return _extend(pattern.orders[root], 0, pattern, roots[(p.element, p.aromatic)],
                   atoms, adj, mapping, used, found)


def detect_functional_groups(m: Molecule) -> FunctionalGroupSet:
    """Tags for every catalog pattern with a match, after suppression rules.

    A match of a tag is dropped when it shares an atom with a raw
    (pre-suppression) match of a tag that suppresses it, so it survives
    iff it avoids the union of those matches' atoms. Those unions are
    listed once; then each tag is one search with them marked used, which
    stops at the tag's first surviving match. A pattern with a label the
    target lacks is skipped on one AND of label masks. The target's
    adjacency maps and root candidates are built once and shared by every
    pattern, and the search holds no reference to itself, so a detection
    leaves nothing for the cyclic garbage collector.
    """
    cached = m._fp_cache.get("fg")
    if cached is not None:
        return cached

    atoms = m.atoms
    roots: dict[tuple[str, bool], list[int]] = defaultdict(list)
    for idx, atom in enumerate(atoms):
        roots[(atom.element, atom.aromatic)].append(idx)
    present = 0
    for label in roots:
        present |= _LABEL_BITS.get(label, 0)
    adj = neighbor_maps(m)

    blocked: dict[str, set[int]] = {}
    for plan in _SUPPRESSING:
        matches: set[frozenset[int]] = set()
        for pattern in plan.patterns:
            if not pattern.mask & ~present:
                _match(pattern, roots, atoms, adj, set(), matches)
        blocked[plan.tag] = set().union(*matches)

    tags = []
    free: set[int] = set()  # every search leaves it empty again
    for plan in _PLAN:
        used = free
        if plan.suppressed_by:
            used = set().union(*[blocked[tag] for tag in plan.suppressed_by])
        for pattern in plan.patterns:
            if not pattern.mask & ~present and _match(pattern, roots, atoms, adj, used):
                tags.append(plan.tag)
                break
    result = FunctionalGroupSet(frozenset(tags))
    m._fp_cache["fg"] = result
    return result


def jaccard(a: FunctionalGroupSet, b: FunctionalGroupSet) -> float:
    """|intersection| / |union| over tags; 1.0 when both sets are empty."""
    union = (a.mask | b.mask).bit_count()
    if not union:
        return 1.0
    return (a.mask & b.mask).bit_count() / union


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescriptorVector:
    mw: float
    ring_count: int
    hbd: int
    hba: int
    psa_lite: float
    rotatable_bonds: int

    def delta(self, earlier: "DescriptorVector") -> "DescriptorDelta":
        """Signed change from `earlier` to this vector."""
        return DescriptorDelta(
            mw=self.mw - earlier.mw,
            ring_count=self.ring_count - earlier.ring_count,
            hbd=self.hbd - earlier.hbd,
            hba=self.hba - earlier.hba,
            psa_lite=self.psa_lite - earlier.psa_lite,
            rotatable_bonds=self.rotatable_bonds - earlier.rotatable_bonds,
        )


@dataclass(frozen=True)
class DescriptorDelta:
    mw: float
    ring_count: int
    hbd: int
    hba: int
    psa_lite: float
    rotatable_bonds: int


def descriptors(m: Molecule) -> DescriptorVector:
    heavy_mass = 0.0
    total_h = 0
    hbd = 0
    hba = 0
    psa = 0.0
    for idx, atom in enumerate(m.atoms):
        heavy_mass += _MASSES[atom.element]
        total_h += atom.hcount
        if atom.element in ("N", "O"):
            hba += 1
            if atom.hcount >= 1:
                hbd += 1
            key = atom.element.lower() if atom.aromatic else atom.element
            if atom.hcount >= 1:
                key += "_H"
            psa += _PSA.get(key, 0.0)
    rotatable = 0
    for b_idx, bond in enumerate(m.bonds):
        if (
            bond.order == "single"
            and not m.bond_in_ring(b_idx)
            and m.degree(bond.a) >= 2
            and m.degree(bond.b) >= 2
        ):
            rotatable += 1
    return DescriptorVector(
        mw=heavy_mass + total_h * _MASSES["H"],
        ring_count=m.ring_count(),
        hbd=hbd,
        hba=hba,
        psa_lite=psa,
        rotatable_bonds=rotatable,
    )
