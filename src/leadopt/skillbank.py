"""Evolving skill memory: edit-card extraction from improving transitions,
strategy-sentence rendering, and a capacity-controlled per-task skill bank
with dual (fingerprint / functional-group) retrieval.

An edit card's atom mapping is the maximum common connected substructure of
its pair, found by one exact branch and bound over atom bitsets for pairs of
any size. The search stops after a fixed number of search nodes, never at a
clock, and then keeps the best mapping it found and flags the card
approximate: a card depends only on its two molecules. A card's scaffold
cores and removed and added fragments are strings named through molgraph's
subgraph memo (:func:`subgraph_name`), so a graph harvest has met lately
is neither built nor searched again; a core's ring count is its molecule's.

The bank keeps one store per task. Its cards are kept once, as rows in
capacity order (the largest improvement first, the newer card first among
ties); a key -> card map, oldest card first, serves merging and the listing
order. A card entering a store packs its retrieval columns (fingerprint
words, popcount, functional-group bitmask, improvement) into one fixed
record, and every insert builds the store's arrays in one pass over the
joined records of its rows. A card's retrieval keys are computed in one
place, whether it was just harvested or read from a skill-bank file.
Retrieval scores both channels over all rows with a few numpy operations and
sorts in Python only the threshold passers that can reach the top k.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left, insort
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import lineproto
from .chemfeat import (
    WIDTH,
    DescriptorDelta,
    Fingerprint,
    FunctionalGroupSet,
    descriptors,
    detect_functional_groups,
    morgan_fp,
    tanimoto_rows,
)
from .files import data_text, write_jsonl
from .molgraph import (
    Molecule,
    parse,
    scaffold_atoms,
    scaffold_of,
    subgraph_name,
)

__all__ = [
    "McsResult",
    "EditCard",
    "SkillCard",
    "SkillBank",
    "EvictionReport",
    "mcs_decompose",
    "build_edit_card",
    "harvest",
    "summarize_template",
    "summarize_external",
    "render_summarizer_prompt",
    "make_skill_card",
    "render_skill_block",
    "save_skills",
    "load_skills",
    "SKILL_HEADER_TEMPLATE",
]

log = logging.getLogger(__name__)

SKILL_HEADER_TEMPLATE = "=== Potential Useful Strategies for {task} ==="

MODIFICATION_TYPES = ("addition", "removal", "replacement", "scaffold_hop")
SCAFFOLD_TYPES = (
    "unchanged",
    "ring_removal",
    "ring_addition",
    "scaffold_replacement",
    "scaffold_hop",
)

# nodes an MCS search may visit before it stops with the best mapping found
# so far: the one bound on its worst case. At most 517 on the benchmark's
# harvests; a pair above 40 atoms pays about 20 us a node
_MCS_NODE_BUDGET = 5_000
DEFAULT_HARVEST_DELTA = 0.05
DEFAULT_CAPACITY = 1000


# ---------------------------------------------------------------------------
# Maximum common connected substructure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McsResult:
    """Atom mapping (before index -> after index) plus complement fragments;
    `approximate` when the search spent its node budget."""

    mapping: tuple[tuple[int, int], ...]
    removed_fragment: str
    added_fragment: str
    approximate: bool

    def mapping_dict(self) -> dict[int, int]:
        return dict(self.mapping)


class _SearchStop(Exception):
    """The mapping cannot grow any more, or the node budget is spent."""


def _atom_label(mol: Molecule, idx: int) -> tuple:
    atom = mol.atoms[idx]
    return (atom.element, atom.aromatic, atom.formal_charge)


def _neighbour_masks(
    mol: Molecule, orders: Sequence[str]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per atom, the bitmask of its neighbours by each bond order in
    `orders`, and the bitmask of all its neighbours."""
    by_order, every = [], []
    for i in range(len(mol.atoms)):
        masks = dict.fromkeys(orders, 0)
        union = 0
        for j, order in mol.neighbors(i):
            union |= 1 << j
            if order in masks:
                masks[order] |= 1 << j
        by_order.append(tuple(masks.values()))
        every.append(union)
    return by_order, every


def _reachable(start: int, avail: int, nbrs: list[int]) -> int:
    """The atoms of `avail` joined to `start` by paths through `avail`."""
    reach = frontier = start & avail
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & avail & ~reach
        reach |= frontier
    return reach


def _exact_mcs(g: Molecule, h: Molecule) -> tuple[list[tuple[int, int]], bool, int]:
    """McSplit-style branch and bound for the maximum common connected
    induced subgraph with matching atom labels and bond orders (McCreesh,
    Prosser & Trimble, IJCAI 2017) on label classes of atom bitmasks.

    A class is (g atoms, h atoms, adjacent to the mapping, the smaller of
    its two sides), its size counted once when the class is made. Below the
    best mapping, a node also bounds by the atoms joined to the mapping
    through atoms still in some class: only those can extend a connected
    mapping. Returns (best mapping, completed, nodes visited); completed is
    False once _MCS_NODE_BUDGET nodes are spent.
    """
    orders = sorted({b.order for b in g.bonds} & {b.order for b in h.bonds})
    g_by_order, g_every = _neighbour_masks(g, orders)
    h_by_order, h_every = _neighbour_masks(h, orders)
    g_degree = [nbrs.bit_count() for nbrs in g_every]
    g_all = (1 << len(g.atoms)) - 1
    h_all = (1 << len(h.atoms)) - 1
    # atoms neither the branching atom nor one of its neighbours
    g_other = [g_all & ~(nbrs | 1 << i) for i, nbrs in enumerate(g_every)]
    h_other = [h_all & ~(nbrs | 1 << j) for j, nbrs in enumerate(h_every)]
    target = min(len(g.atoms), len(h.atoms))

    labels: dict[tuple, list[int]] = {}
    for i in range(len(g.atoms)):
        labels.setdefault(_atom_label(g, i), [0, 0])[0] |= 1 << i
    for j in range(len(h.atoms)):
        labels.setdefault(_atom_label(h, j), [0, 0])[1] |= 1 << j
    initial = [
        (gs, hs, False, min(gs.bit_count(), hs.bit_count()))
        for gs, hs in labels.values()
        if gs and hs
    ]

    mapping: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []
    nodes = 0

    def refine(
        classes: list[tuple[int, int, bool, int]], v: int, w: int
    ) -> list[tuple[int, int, bool, int]]:
        g_off, h_off = g_other[v], h_other[w]
        bonded = [
            (gm, hm) for gm, hm in zip(g_by_order[v], h_by_order[w]) if gm and hm
        ]
        out = []
        for gs, hs, adj, _ in classes:
            sub_g, sub_h = gs & g_off, hs & h_off
            if sub_g and sub_h:
                out.append((sub_g, sub_h, adj, min(sub_g.bit_count(), sub_h.bit_count())))
            for gm, hm in bonded:
                sub_g, sub_h = gs & gm, hs & hm
                if sub_g and sub_h:
                    out.append(
                        (sub_g, sub_h, True, min(sub_g.bit_count(), sub_h.bit_count()))
                    )
        return out

    def search(classes: list[tuple[int, int, bool, int]]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > _MCS_NODE_BUDGET:
            raise _SearchStop
        depth = len(mapping)
        if depth > len(best):
            best = list(mapping)
            if depth == target:
                raise _SearchStop  # cannot do better; the search is complete
        bound = depth
        for c in classes:
            bound += c[3]
        if bound <= len(best):
            return
        # branch on the usable class of largest min side, then on its atom
        # of highest degree; ties go to the lowest g index, so the tree and
        # the mapping found do not depend on the order of the classes
        pick, pick_size, pick_low = -1, -1, 0
        for k, (gs, _, adj, size) in enumerate(classes):
            if (adj or not depth) and (
                size > pick_size or size == pick_size and gs & -gs < pick_low
            ):
                pick, pick_size, pick_low = k, size, gs & -gs
        if pick < 0:
            return
        if depth and len(best) > depth:
            avail_g = avail_h = start_g = start_h = 0
            for gs, hs, adj, _ in classes:
                avail_g |= gs
                avail_h |= hs
                if adj:
                    start_g |= gs
                    start_h |= hs
            reach_g = _reachable(start_g, avail_g, g_every)
            reach_h = _reachable(start_h, avail_h, h_every)
            bound = depth
            for gs, hs, _, _ in classes:
                bound += min((gs & reach_g).bit_count(), (hs & reach_h).bit_count())
            if bound <= len(best):
                return
        gs, hs, adj, _ = classes[pick]
        # the atom of highest degree, the lowest index among ties
        v, v_degree, rest = -1, -1, gs
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if g_degree[u] > v_degree:
                v, v_degree = u, g_degree[u]
            rest ^= low
        rest = hs
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            mapping.append((v, w))
            search(refine(classes, v, w))
            mapping.pop()
            rest ^= low
        # branch with v left unmatched
        left = classes[:pick] + classes[pick + 1:]
        gs &= ~(1 << v)
        if gs:
            left.append((gs, hs, adj, min(gs.bit_count(), hs.bit_count())))
        search(left)

    try:
        search(initial)
    except _SearchStop:
        pass
    # `search` reaches itself through its closure cell, a cycle that would
    # hold the search's class lists until the cyclic collector ran; drop it
    del search
    return best, nodes <= _MCS_NODE_BUDGET, nodes


def _fragment_string(mol: Molecule, outside: set[int]) -> str:
    """Canonical string of the atoms outside the mapping, components joined.

    Each component is named by :func:`subgraph_name`, which builds it
    unchecked: the string is descriptive (fragments torn from rings need
    not re-parse as molecules).
    """
    unvisited = set(outside)
    fragments = []
    while unvisited:
        start = min(unvisited)
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for nbr, _ in mol.neighbors(cur):
                if nbr in unvisited and nbr not in comp:
                    comp.add(nbr)
                    queue.append(nbr)
        unvisited -= comp
        fragments.append(subgraph_name(mol, comp))
    return ".".join(sorted(fragments))


def mcs_decompose(before: Molecule, after: Molecule) -> McsResult:
    """Maximum common connected substructure split into kept/removed/added.

    One exact branch and bound within a budget of search nodes, so the
    result depends only on the pair; a search that spends the budget keeps
    the best mapping it found and is flagged approximate. The pair is
    ordered internally by canonical string, so swapping the arguments
    exactly swaps the removed/added fragments.
    """
    swapped = after.canonical < before.canonical
    g, h = (after, before) if swapped else (before, after)
    pairs, completed, _ = _exact_mcs(g, h)

    if swapped:
        pairs = [(b, a) for a, b in pairs]
    mapping = tuple(sorted(pairs))
    mapped_before = {a for a, _ in mapping}
    mapped_after = {b for _, b in mapping}
    removed = _fragment_string(before, set(range(len(before.atoms))) - mapped_before)
    added = _fragment_string(after, set(range(len(after.atoms))) - mapped_after)
    return McsResult(mapping, removed, added, not completed)


# ---------------------------------------------------------------------------
# Edit cards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EditCard:
    """Structured decomposition of one molecular transition."""

    before: str
    after: str
    modification_type: str
    removed_fragment: str
    added_fragment: str
    scaffold_before: str
    scaffold_after: str
    scaffold_type: str
    fg_removed: FunctionalGroupSet
    fg_added: FunctionalGroupSet
    deltas: DescriptorDelta
    score_before: float
    score_after: float
    aromatic_attachment: bool = False
    approximate_mcs: bool = False

    def __post_init__(self):
        if self.modification_type not in MODIFICATION_TYPES:
            raise ValueError(f"bad modification_type {self.modification_type!r}")
        if self.scaffold_type not in SCAFFOLD_TYPES:
            raise ValueError(f"bad scaffold_type {self.scaffold_type!r}")
        if self.modification_type == "addition" and (
            self.removed_fragment or not self.added_fragment
        ):
            raise ValueError("addition cards need an added fragment only")
        if self.modification_type == "removal" and (
            self.added_fragment or not self.removed_fragment
        ):
            raise ValueError("removal cards need a removed fragment only")
        if self.modification_type == "replacement" and not (
            self.removed_fragment and self.added_fragment
        ):
            raise ValueError("replacement cards need both fragments")

    @property
    def delta_r(self) -> float:
        return self.score_after - self.score_before

    @property
    def key(self) -> str:
        return f"{self.before}>>{self.after}"


def _aromatic_attachment(mol: Molecule, mapped: set[int]) -> bool:
    """Whether an atom outside the mapping is bonded to a mapped aromatic atom."""
    return any(
        nbr in mapped and mol.atoms[nbr].aromatic
        for idx in range(len(mol.atoms))
        if idx not in mapped
        for nbr, _ in mol.neighbors(idx)
    )


def build_edit_card(
    before: Molecule, after: Molecule, score_before: float, score_after: float
) -> EditCard:
    """Full edit decomposition: MCS diff, scaffold change, FG flux, deltas."""
    if before.canonical == after.canonical:
        raise ValueError("identical molecules leave nothing to decompose")
    mcs = mcs_decompose(before, after)
    mapping = mcs.mapping_dict()

    scaffold_before = scaffold_of(before)
    scaffold_after = scaffold_of(after)
    if scaffold_before == scaffold_after:
        scaffold_type = "unchanged"
    elif after.ring_count() < before.ring_count():
        scaffold_type = "ring_removal"
    elif after.ring_count() > before.ring_count():
        scaffold_type = "ring_addition"
    elif not scaffold_atoms(before) <= set(mapping):
        scaffold_type = "scaffold_hop"
    else:
        scaffold_type = "scaffold_replacement"

    if scaffold_type == "scaffold_hop":
        modification_type = "scaffold_hop"
    elif mcs.removed_fragment and mcs.added_fragment:
        modification_type = "replacement"
    elif mcs.added_fragment:
        modification_type = "addition"
    elif mcs.removed_fragment:
        modification_type = "removal"
    else:
        modification_type = "replacement"

    fg_before = detect_functional_groups(before)
    fg_after = detect_functional_groups(after)
    fg_removed = FunctionalGroupSet(fg_before.tags - fg_after.tags)
    fg_added = FunctionalGroupSet(fg_after.tags - fg_before.tags)

    attach = _aromatic_attachment(before, set(mapping)) or _aromatic_attachment(
        after, set(mapping.values())
    )

    return EditCard(
        before=before.canonical,
        after=after.canonical,
        modification_type=modification_type,
        removed_fragment=mcs.removed_fragment,
        added_fragment=mcs.added_fragment,
        scaffold_before=scaffold_before,
        scaffold_after=scaffold_after,
        scaffold_type=scaffold_type,
        fg_removed=fg_removed,
        fg_added=fg_added,
        deltas=descriptors(after).delta(descriptors(before)),
        score_before=score_before,
        score_after=score_after,
        aromatic_attachment=attach,
        approximate_mcs=mcs.approximate,
    )


def harvest(
    trajectory,
    obj=None,
    delta: float = DEFAULT_HARVEST_DELTA,
) -> list[EditCard]:
    """One card per consecutive evaluated pair improving by more than delta.

    The trajectory supplies the evaluated chain: `lead`/`lead_score` plus
    steps with `action`, `score`, and `valid` fields (only valid, scored
    steps advance the chain). Duplicate (before, after) cards merge keeping
    the larger improvement. `obj` is accepted for callers that pass an
    objective, by position too, and never read: a card depends only on the
    trajectory's molecules and scores.
    """
    if not math.isfinite(delta):  # a NaN delta would harvest nothing, unwarned
        raise ValueError(f"delta must be finite, not {delta}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    cards: dict[str, EditCard] = {}
    prev_smiles = trajectory.lead
    prev_score = trajectory.lead_score
    for step in trajectory.steps:
        if not step.valid or step.score is None:
            continue
        if step.score - prev_score > delta:
            card = build_edit_card(
                parse(prev_smiles), parse(step.action), prev_score, step.score
            )
            existing = cards.get(card.key)
            if existing is None or card.delta_r > existing.delta_r:
                cards[card.key] = card
        prev_smiles, prev_score = step.action, step.score
    return list(cards.values())


# ---------------------------------------------------------------------------
# Strategy sentences
# ---------------------------------------------------------------------------

_FG_PRIORITY = (
    "sulfonamide",
    "nitro",
    "carboxylic_acid",
    "ester",
    "amide",
    "sulfone",
    "nitrile",
    "methoxy",
    "aldehyde",
    "ketone",
    "thiol",
    "hydroxyl",
    "amine",
    "ether",
    "halogen",
    "aromatic_ring",
)

_FG_DISPLAY = {
    "sulfonamide": "sulfonamide",
    "nitro": "nitro (-NO2)",
    "carboxylic_acid": "carboxylic acid (-COOH)",
    "ester": "ester (-C(=O)O-)",
    "amide": "amide (-C(=O)N)",
    "sulfone": "sulfone",
    "nitrile": "nitrile (-C#N)",
    "methoxy": "methoxy (-OCH3)",
    "aldehyde": "aldehyde (-CHO)",
    "ketone": "ketone (C=O)",
    "thiol": "thiol (-SH)",
    "hydroxyl": "hydroxyl (-OH)",
    "amine": "amine (-NH2)",
    "ether": "ether (-O-)",
    "halogen": "halogen",
    "aromatic_ring": "aromatic ring",
}

_HALOGEN_NAMES = {
    "F": "fluorine (-F)",
    "Cl": "chlorine (-Cl)",
    "Br": "bromine (-Br)",
    "I": "iodine (-I)",
}

_FRAGMENT_NAMES = {
    "C": "methyl (-CH3)",
    "CC": "ethyl (-C2H5)",
    "O": "hydroxyl (-OH)",
    "N": "amino (-NH2)",
    "S": "thiol (-SH)",
    "CO": "methoxy (-OCH3)",
    "OC": "methoxy (-OCH3)",
    **_HALOGEN_NAMES,
}


def _describe(fg_set: FunctionalGroupSet, fragment: str) -> str:
    for tag in _FG_PRIORITY:
        if tag in fg_set:
            if tag == "halogen" and fragment in _HALOGEN_NAMES:
                return _HALOGEN_NAMES[fragment]
            return _FG_DISPLAY[tag]
    if fragment in _FRAGMENT_NAMES:
        return _FRAGMENT_NAMES[fragment]
    if fragment:
        return f"the fragment {fragment}"
    return "the modified group"


def summarize_template(card: EditCard, task: str) -> str:
    """Deterministic Action-What-Where-Effect sentence for one edit card."""
    removed = _describe(card.fg_removed, card.removed_fragment)
    added = _describe(card.fg_added, card.added_fragment)
    on_ring = " on the aromatic ring" if card.aromatic_attachment else ""
    from_ring = " from the aromatic ring" if card.aromatic_attachment else ""
    effect = "to improve the target score."
    if card.modification_type == "scaffold_hop":
        return f"Replace the {removed} core with {added} {effect}"
    if card.modification_type == "replacement":
        return f"Replace {removed} with {added}{on_ring} {effect}"
    if card.modification_type == "addition":
        return f"Add {added}{on_ring} {effect}"
    return f"Remove {removed}{from_ring} {effect}"


def render_summarizer_prompt(card: EditCard, task: str) -> str:
    """The external-summarizer prompt, byte-exact placeholders filled in."""
    template = data_text("summarizer_prompt.txt")
    delta_r = card.delta_r
    result = f"Score {'improved' if delta_r > 0 else 'worsened'} by {abs(delta_r):.3f}"
    return template.format(
        task=task,
        before_smiles=card.before,
        after_smiles=card.after,
        score_before=card.score_before,
        score_after=card.score_after,
        score_delta=delta_r,
        modification_type=card.modification_type,
        removed_fragment=card.removed_fragment or "none",
        added_fragment=card.added_fragment or "none",
        before_scaffold=card.scaffold_before or "none",
        after_scaffold=card.scaffold_after or "none",
        scaffold_type=card.scaffold_type,
        fg_removed=", ".join(card.fg_removed) or "none",
        fg_added=", ".join(card.fg_added) or "none",
        mw_change=card.deltas.mw,
        ring_changes=card.deltas.ring_count,
        psa_change=card.deltas.psa_lite,
        hbd_change=card.deltas.hbd,
        hba_change=card.deltas.hba,
        result=result,
    )


def summarize_external(
    card: EditCard, task: str, transport: lineproto.LineTransport
) -> str:
    """Ask the external summarizer on `transport` for the sentence; falls
    back to the template on any transport or protocol failure (a sentence
    is always returned). Multi-sentence replies are cut at the first period.
    """
    payload = json.dumps(
        {
            "task": task,
            "prompt": render_summarizer_prompt(card, task),
            "before": card.before,
            "after": card.after,
            "delta_r": card.delta_r,
        },
        sort_keys=True,
    )
    try:
        reply = transport.request(f"SUMMARIZE {payload}")
        if not reply.startswith("OK "):
            raise lineproto.ProtocolError(f"malformed summarizer reply {reply!r}")
        sentence = reply[3:].strip()
        if "." in sentence:
            sentence = sentence[: sentence.index(".") + 1]
        if not sentence:
            raise lineproto.ProtocolError("empty summarizer reply")
        if not sentence.endswith("."):
            sentence += "."
        return sentence
    except lineproto.ProtocolError as exc:
        log.warning("external summarizer failed (%s); using template", exc)
        return summarize_template(card, task)


# ---------------------------------------------------------------------------
# Skill cards and the bank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkillCard:
    """One distilled strategy: a sentence plus its supporting edit card."""

    text: str
    card: EditCard
    delta_r: float
    fp_key: Fingerprint
    fg_tags: FunctionalGroupSet
    task: str

    def __post_init__(self):
        if not self.text.strip() or not self.text.strip().endswith("."):
            raise ValueError("skill text must be one sentence ending with a period")
        if self.delta_r != self.card.score_after - self.card.score_before:
            raise ValueError("delta_r must equal the card score difference")

    @property
    def key(self) -> str:
        return self.card.key


def make_skill_card(
    card: EditCard,
    task: str,
    transport: Optional[lineproto.LineTransport] = None,
) -> SkillCard:
    """The skill of a card: its sentence comes from the external summarizer
    on `transport` when one is given, else from the template."""
    if transport is None:
        text = summarize_template(card, task)
    else:
        text = summarize_external(card, task, transport)
    return _skill_card(text, card, task)


def _skill_card(text: str, card: EditCard, task: str) -> SkillCard:
    """The skill of a sentence and its card, keyed by the fingerprint and
    functional groups of the card's `before` molecule."""
    source = parse(card.before)
    return SkillCard(
        text=text,
        card=card,
        delta_r=card.delta_r,
        fp_key=morgan_fp(source),
        fg_tags=detect_functional_groups(source),
        task=task,
    )


@dataclass(frozen=True)
class EvictionReport:
    inserted: int
    merged: int
    evicted_keys: tuple[str, ...]
    retained: int


# A stored card is its rank item (-delta_r, -seq, key, skill, record); items
# sort in capacity order, and `seq` is unique, so no two items compare beyond
# it. `record` is the card's _RECORD row, packed once.
_Item = tuple[float, int, str, SkillCard, bytes]

_RECORD = np.dtype([("words", "<u8", (WIDTH // 64,)), ("pops", "<i8"), ("fg", "<u8"),
                    ("delta", "<f8")])


def _record(skill: SkillCard) -> bytes:
    """The skill's fingerprint words, popcount, FG bitmask and delta_r."""
    fp = skill.fp_key
    row = (fp.to_words(), fp.popcount, skill.fg_tags.mask, skill.delta_r)
    return np.array(row, dtype=_RECORD).tobytes()


class _TaskStore:
    """One task's cards: `items` maps key -> item, oldest first (the
    `SkillBank.cards` order), and `rows` holds the same items in capacity
    order. `words` and `pops` (as `chemfeat.pack_rows` packs them), `fg` and
    `delta` are the fields of one read-only array of the rows' records. A
    store is never changed once built."""

    def __init__(self, items: dict[str, _Item], rows: list[_Item]):
        self.items = items
        self.rows = rows
        table = np.frombuffer(b"".join(item[4] for item in rows), dtype=_RECORD)
        self.words, self.pops, self.fg, self.delta = (table[name] for name in _RECORD.names)

    def fg_similarities(self, query: FunctionalGroupSet) -> np.ndarray:
        """`chemfeat.jaccard` of the query against every row."""
        mask = np.uint64(query.mask)
        if not query.mask:
            # the union is empty only where the row's set is empty as well
            return (self.fg == 0).astype(np.float64)
        return np.bitwise_count(self.fg & mask) / np.bitwise_count(self.fg | mask)

    def top(self, sims: np.ndarray, threshold: float, k: int) -> list[SkillCard]:
        """The first k rows with sims >= threshold, ranked by (-delta_r,
        -sim, key)."""
        passed = np.flatnonzero(sims >= threshold)
        if k == 0 or not len(passed):
            return []
        if len(passed) > k:
            # rows run in non-increasing delta_r, which the ranking refines
            # only among equal delta_r: keep every passer tied with the k-th
            deltas = self.delta[passed]
            passed = passed[: np.count_nonzero(deltas >= deltas[k - 1])]
        rows = self.rows
        # keys are unique, so the row never decides
        ranked = sorted(
            (rows[row][0], -sim, rows[row][2], row)
            for row, sim in zip(passed.tolist(), sims[passed].tolist())
        )
        return [rows[row][3] for *_, row in ranked[:k]]


_EMPTY = _TaskStore({}, [])


class SkillBank:
    """Per-task skill store capped at `capacity` by improvement magnitude."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._tasks: dict[str, _TaskStore] = {}
        self._seq = 0

    def tasks(self) -> list[str]:
        return sorted(self._tasks)

    def cards(self, task: str) -> list[SkillCard]:
        return [item[3] for item in self._tasks.get(task, _EMPTY).items.values()]

    def size(self, task: str) -> int:
        return len(self._tasks.get(task, _EMPTY).items)

    def store(self, task: str) -> object:
        """The task's store, for holding only: a store never changes, and
        every insert into the task replaces it, so while this is the same
        object every retrieval for the task gives the same answer."""
        return self._tasks.get(task, _EMPTY)

    def insert(self, skills: Sequence[SkillCard]) -> EvictionReport:
        """Dedup-merge a batch for one task, then enforce capacity.

        Duplicates (same before/after pair) keep the larger improvement;
        when over capacity the smallest-delta cards go, newer cards win
        ties. `cards` lists a task's cards oldest first: a new or merged
        card joins the end and an evicted one leaves, so a bank saved and
        reloaded gives its cards the same ages. A reader sees the task's
        old store or its new one, never a mix: the new one is built aside
        and replaces the old in one assignment.
        """
        if not skills:
            return EvictionReport(0, 0, (), 0)
        task_names = {skill.task for skill in skills}
        if len(task_names) > 1:
            raise ValueError("one insert batch must target a single task")
        task = task_names.pop()
        old = self._tasks.get(task, _EMPTY)
        items, rows = dict(old.items), list(old.rows)

        inserted = merged = 0
        for skill in skills:
            existing = items.get(skill.key)
            if existing is None:
                inserted += 1
            elif skill.delta_r > existing[3].delta_r:
                merged += 1
                # it joins the end as the newest card, in its new row
                del items[skill.key]
                del rows[bisect_left(rows, existing)]
            else:
                continue
            self._seq += 1
            item = (-skill.delta_r, -self._seq, skill.key, skill, _record(skill))
            items[skill.key] = item
            insort(rows, item)

        cut = rows[self.capacity:]
        del rows[self.capacity:]
        for item in cut:
            del items[item[2]]
        self._tasks[task] = _TaskStore(items, rows)
        return EvictionReport(inserted, merged, tuple(sorted(item[2] for item in cut)),
                              len(items))


def retrieve_skills(
    bank: SkillBank,
    current: Molecule,
    task: str,
    k_fp: int = 3,
    k_fg: int = 3,
    gamma_fp: float = 0.4,
    gamma_fg: float = 0.5,
) -> list[SkillCard]:
    """Dual retrieval: fingerprint channel then functional-group channel.

    Each channel keeps threshold passers ranked by improvement (ties by
    channel similarity, then key); the union preserves fp-channel order
    first and drops duplicates.
    """
    for threshold in (gamma_fp, gamma_fg):
        if not (0.0 <= threshold <= 1.0):
            raise ValueError("thresholds must lie in [0, 1]")
    if k_fp < 0 or k_fg < 0:
        raise ValueError("k_fp and k_fg must be non-negative")
    store = bank._tasks.get(task)
    if store is None:
        return []
    query_fp = morgan_fp(current)
    query_fg = detect_functional_groups(current)

    fp_top = store.top(tanimoto_rows(store.words, store.pops, query_fp), gamma_fp, k_fp)
    fg_top = store.top(store.fg_similarities(query_fg), gamma_fg, k_fg)
    # a key names one card of the store, so a repeat is the same card
    return list({skill.key: skill for skill in fp_top + fg_top}.values())


def render_skill_block(skills: Sequence[SkillCard], task: str) -> str:
    """The strategy block injected into the agent's working memory."""
    if not skills:
        raise ValueError("cannot render an empty skill block")
    lines = [SKILL_HEADER_TEMPLATE.format(task=task)]
    for pos, skill in enumerate(skills, start=1):
        lines.append(f"{pos}. {skill.text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _field_to_json(value):
    if isinstance(value, FunctionalGroupSet):
        return sorted(value)
    if isinstance(value, DescriptorDelta):
        return vars(value)
    return value


def _field_from_json(name: str, value):
    if name in ("fg_removed", "fg_added"):
        return FunctionalGroupSet(frozenset(value))
    if name == "deltas":
        return DescriptorDelta(**value)
    return value


def save_skills(bank: SkillBank, path: str | Path) -> Path:
    """One JSON line per card: the task, the sentence, delta_r and every
    `EditCard` field; written atomically (temp file, then rename)."""
    return write_jsonl(path, (
        {
            "task": skill.task,
            "text": skill.text,
            "delta_r": skill.delta_r,
            **{f.name: _field_to_json(getattr(skill.card, f.name)) for f in fields(EditCard)},
        }
        for task in bank.tasks()
        for skill in bank.cards(task)
    ))


def _skill_from_json(line: str) -> SkillCard:
    payload = json.loads(line)
    for name in ("task", "text", "before", "after"):
        if not isinstance(payload[name], str):
            raise TypeError(f"{name} is not a string")
    # a field with a default (aromatic_attachment, approximate_mcs) may be
    # missing from cards written before it existed
    card = EditCard(**{
        f.name: _field_from_json(
            f.name, payload[f.name] if f.default is MISSING else payload.get(f.name, f.default)
        )
        for f in fields(EditCard)
    })
    if payload["delta_r"] != card.delta_r:
        raise ValueError("delta_r is not score_after - score_before")
    return _skill_card(payload["text"], card, payload["task"])


def load_skills(path: str | Path, capacity: int = DEFAULT_CAPACITY) -> SkillBank:
    """Read a `save_skills` file into a bank of the given capacity.

    A line that is no card (bad JSON, a missing or mistyped field, a
    `before` that does not parse, a `delta_r` other than score_after -
    score_before) is skipped with a log line.
    """
    bank = SkillBank(capacity)
    batches: dict[str, list[SkillCard]] = {}
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                skill = _skill_from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                skipped += 1
                log.warning("skipping skill-bank line %d: %s", lineno, exc)
                continue
            batches.setdefault(skill.task, []).append(skill)
    if skipped:
        log.warning("skill-bank load skipped %d bad lines", skipped)
    for task in sorted(batches):
        bank.insert(batches[task])
    return bank
