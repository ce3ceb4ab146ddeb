"""Static exemplar memory: property-annotated molecule bank with two-stage
retrieval (broad fingerprint recall, then lead-constrained objective ranking).

The bank is immutable after build/load; queries are read-only. Both stages
work on row ids and arrays the bank builds on first use: a
`chemfeat.FingerprintPlanes` view of the fingerprints, each record's rank in
canonical-string order, and per objective a float64 score column with a mask
of the records that have every term property. Recall is one plane scan, a
partition and a lexsort; ranking gathers the pool's lead similarities from
the same planes and lexsorts the rows that pass the threshold.

A bank on disk is a JSONL file of records and a fingerprint sidecar: a
header (magic, version, width, radius, count), then per record the
`Fingerprint.to_bytes` packed form of its fingerprint. Loading checks the
sidecar against the one fingerprint shape and the record count, and names
the file when it does not match.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .chemfeat import RADIUS, WIDTH, Fingerprint, FingerprintPlanes, morgan_fp, tanimoto
from .files import write_atomic, write_jsonl
from .molgraph import Molecule, SmilesError, parse
from .oracles import Objective, Oracle

__all__ = [
    "ExemplarRecord",
    "ExemplarBank",
    "EmptyBankError",
    "build_bank",
    "candidate_recall",
    "retrieve_exemplars",
    "render_exemplar_block",
    "save_bank",
    "load_bank",
    "format_score",
]

log = logging.getLogger(__name__)

EXEMPLAR_HEADER = "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
EXEMPLAR_FOOTER = "Learn from structural patterns, but do not copy directly."
DEFAULT_K = 3  # exemplars a retrieval returns
DEFAULT_POOL = 200  # rows of the broad recall they are ranked from

_FP_MAGIC = b"LOFP"
_FP_VERSION = 1
# magic, version, width, radius, record count
_FP_HEADER = struct.Struct("<4sHIHQ")


class EmptyBankError(RuntimeError):
    """Retrieval was attempted on a bank with no records."""


def format_score(value: float) -> str:
    """Three decimals, round half up: 0.8915 renders as '0.892'."""
    return str(Decimal(str(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ExemplarRecord:
    canonical: str
    fp: Fingerprint
    props: dict[str, float]


class ExemplarBank:
    """Deduplicated exemplar records plus the arrays retrieval reads."""

    def __init__(self, records: Sequence[ExemplarRecord]):
        unique: dict[str, ExemplarRecord] = {}  # the first record of each name
        for record in records:
            unique.setdefault(record.canonical, record)
        self.records: tuple[ExemplarRecord, ...] = tuple(unique.values())
        self._planes: Optional[FingerprintPlanes] = None
        self._canon_rank: Optional[np.ndarray] = None
        self._scores: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def planes(self) -> FingerprintPlanes:
        """The records' fingerprints in record order, built on first use."""
        if self._planes is None:
            self._planes = FingerprintPlanes([r.fp for r in self.records])
        return self._planes

    @property
    def canon_rank(self) -> np.ndarray:
        """Each record's rank in canonical-string order (the tie-break)."""
        if self._canon_rank is None:
            import numpy as np
            records = self.records
            order = sorted(range(len(records)), key=lambda i: records[i].canonical)
            # filled before it is published: a reader on another thread sees
            # None or the whole ranking
            rank = np.empty(len(records), dtype=np.int64)
            rank[order] = np.arange(len(records))
            self._canon_rank = rank
        return self._canon_rank

    def scores(self, obj: Objective) -> tuple[np.ndarray, np.ndarray]:
        """`obj.aggregate` of every record as float64, and a mask of the
        records that have every term property (0.0 where one is missing)."""
        key = tuple((t.oracle.name, t.oracle.direction, t.weight) for t in obj.terms)
        column = self._scores.get(key)
        if column is None:
            import numpy as np
            values = np.zeros(len(self.records), dtype=np.float64)
            known = np.zeros(len(self.records), dtype=bool)
            for row, record in enumerate(self.records):
                try:
                    values[row] = obj.aggregate(record.props)
                except KeyError:
                    continue
                known[row] = True
            column = self._scores[key] = (values, known)
        return column


def build_bank(
    source: str | Path | Iterable[str],
    oracles: Sequence[Oracle] = (),
) -> ExemplarBank:
    """Ingest a corpus into a deduplicated, fingerprinted bank.

    Rows are either TSV (`smiles<TAB>prop=value;prop=value`) or JSON objects
    (`{"smiles": ..., "props": {...}}`); bad rows, and rows with a property
    that is not finite, are skipped with a log line. Missing properties are
    filled offline with the given oracles — bank construction never touches
    an optimization budget.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    records: list[ExemplarRecord] = []
    seen: set[str] = set()
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            smiles, props = _parse_row(line)
            molecule = parse(smiles)
            molecule.canonical  # a search that trips skips the row
        except (SmilesError, ValueError, KeyError, OverflowError) as exc:
            skipped += 1
            log.warning("skipping corpus row %d: %s", lineno, exc)
            continue
        if molecule.canonical in seen:
            continue
        for oracle in oracles:
            if oracle.name not in props:
                props[oracle.name] = oracle(molecule)
        problem = _non_finite(props)
        if problem:
            skipped += 1
            log.warning("skipping corpus row %d: %s", lineno, problem)
            continue
        seen.add(molecule.canonical)
        records.append(ExemplarRecord(molecule.canonical, morgan_fp(molecule), props))
    if skipped:
        log.warning("bank build skipped %d bad rows", skipped)
    return ExemplarBank(records)


def _json_row(line: str) -> tuple[str, dict[str, float]]:
    """The SMILES and properties of a JSON row; ValueError unless it is an
    object with a string `smiles` and a `props` object (or none) of numbers,
    OverflowError for an integer past the float range."""
    row = json.loads(line)
    if not isinstance(row, dict) or not isinstance(row.get("smiles"), str):
        raise ValueError("row has no 'smiles' string")
    props = {} if row.get("props") is None else row["props"]
    if not isinstance(props, dict):
        raise ValueError(f"'props' is a {type(props).__name__}, not an object")
    bad = sorted(name for name, v in props.items() if type(v) not in (int, float))
    if bad:
        raise ValueError(f"property {', '.join(bad)} is not a number")
    return row["smiles"], {name: float(value) for name, value in props.items()}


def _parse_row(line: str) -> tuple[str, dict[str, float]]:
    if line.startswith("{"):
        return _json_row(line)
    parts = line.split("\t")
    smiles = parts[0]
    props: dict[str, float] = {}
    if len(parts) > 1 and parts[1]:
        for item in parts[1].split(";"):
            if not item:
                continue
            key, value = item.split("=")
            props[key] = float(value)
    return smiles, props


def _non_finite(props: dict[str, float]) -> str:
    """A reason to skip a record whose properties are not all finite (a NaN
    would rank ahead of every score), or '' when they are."""
    bad = sorted(name for name, value in props.items() if not math.isfinite(value))
    return f"non-finite property {', '.join(bad)}" if bad else ""


def _recall_rows(bank: ExemplarBank, query: Molecule, pool_size: int) -> np.ndarray:
    """Rows of the top `pool_size` records by Tanimoto to the query, best
    first, ties broken by canonical-string order."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if len(bank) == 0:
        raise EmptyBankError("exemplar bank is empty")
    import numpy as np
    sims = bank.planes.similarities(morgan_fp(query))
    k = min(pool_size, len(sims))
    boundary = np.partition(sims, len(sims) - k)[len(sims) - k]
    ids = np.flatnonzero(sims >= boundary)
    return ids[np.lexsort((bank.canon_rank[ids], -sims[ids]))[:k]]


def candidate_recall(
    bank: ExemplarBank,
    query: Molecule,
    pool_size: int,
) -> list[ExemplarRecord]:
    """Top `pool_size` records by Tanimoto to the query molecule.

    Scans the whole bank and returns the true top set; ties break by
    canonical-string order.
    """
    records = bank.records
    return [records[i] for i in _recall_rows(bank, query, pool_size).tolist()]


def retrieve_exemplars(
    bank: ExemplarBank,
    current: Molecule,
    lead: Molecule,
    obj: Objective,
    k: int = DEFAULT_K,
    gamma_ex: Optional[float] = None,
    pool_size: int = DEFAULT_POOL,
) -> list[ExemplarRecord]:
    """Two-stage retrieval: broad recall around the current molecule, then
    lead-similarity filtering and objective-score ranking.

    Ranking ties break by higher lead similarity, then canonical order.
    Records missing a term property are dropped with a log line, in pool
    order, on every retrieval.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be >= 1")
    threshold = obj.gamma if gamma_ex is None else gamma_ex
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("gamma_ex must lie in [0, 1]")
    rows = _recall_rows(bank, current, pool_size)
    lead_sims = bank.planes.similarities(morgan_fp(lead), rows)
    scores, known = bank.scores(obj)
    passed = lead_sims >= threshold
    records = bank.records
    for row in rows[passed & ~known[rows]].tolist():
        log.warning(
            "exemplar %s lacks a property for objective %s; dropped",
            records[row].canonical,
            obj.name,
        )
    passed &= known[rows]
    rows, lead_sims = rows[passed], lead_sims[passed]
    best = np.lexsort((bank.canon_rank[rows], -lead_sims, -scores[rows]))[:k]
    return [records[i] for i in rows[best].tolist()]


def render_exemplar_block(
    exemplars: Sequence[ExemplarRecord], obj: Objective, lead: Molecule
) -> str:
    """The reference block injected into the agent's working memory."""
    if not exemplars:
        raise ValueError("cannot render an empty exemplar block")
    lead_fp = morgan_fp(lead)
    lines = [
        EXEMPLAR_HEADER,
        f"Here are {len(exemplars)} similar molecules with high target scores"
        " (higher is better):",
        "",
    ]
    for pos, record in enumerate(exemplars, start=1):
        score = obj.aggregate(record.props)
        sim = tanimoto(record.fp, lead_fp)
        lines.append(f"{pos}. SMILES: {record.canonical}")
        lines.append(f"   target score: {format_score(score)}")
        lines.append(f"   Similarity to original lead: {format_score(sim)}")
        lines.append("")
    lines.append(EXEMPLAR_FOOTER)
    return "\n".join(lines) + "\n"


def _bank_paths(base: str | Path) -> tuple[Path, Path]:
    """The records file and the fingerprint sidecar of a bank at `base`."""
    base = Path(base)
    return base.with_name(base.name + ".bank.jsonl"), base.with_name(base.name + ".fp.bin")


def save_bank(bank: ExemplarBank, base: str | Path) -> tuple[Path, Path]:
    """Write `<base>.bank.jsonl` plus the `<base>.fp.bin` sidecar.

    Both files land atomically (temp file, then rename).
    """
    jsonl_path, fp_path = _bank_paths(base)

    write_jsonl(jsonl_path, ({"smiles": r.canonical, "props": r.props} for r in bank.records))

    blob = [_FP_HEADER.pack(_FP_MAGIC, _FP_VERSION, WIDTH, RADIUS, len(bank))]
    for record in bank.records:
        blob.append(record.fp.to_bytes())
    write_atomic(fp_path, b"".join(blob))
    return jsonl_path, fp_path


def load_bank(base: str | Path) -> ExemplarBank:
    """Read a `save_bank` pair. A sidecar with a short header, another
    magic, version, width or radius, or a body that is not `count` whole
    blocks raises ValueError naming the file; so does a records line that
    is not a JSON row of a SMILES string and numeric properties, with its
    line number."""
    jsonl_path, fp_path = _bank_paths(base)

    blob = fp_path.read_bytes()
    if len(blob) < _FP_HEADER.size:
        raise ValueError(f"{fp_path} is too short for a fingerprint sidecar header")
    magic, version, width, radius, count = _FP_HEADER.unpack_from(blob)
    if magic != _FP_MAGIC:
        raise ValueError(f"{fp_path} is not a fingerprint sidecar")
    if version != _FP_VERSION:
        raise ValueError(f"{fp_path} has unsupported sidecar version {version}")
    if (width, radius) != (WIDTH, RADIUS):
        raise ValueError(
            f"{fp_path} holds fingerprints of width {width} and radius {radius},"
            f" not {WIDTH} and {RADIUS}"
        )
    block = WIDTH // 8
    if len(blob) != _FP_HEADER.size + count * block:
        raise ValueError(
            f"{fp_path} holds {len(blob) - _FP_HEADER.size} fingerprint bytes,"
            f" not {count} blocks of {block}"
        )

    records: list[ExemplarRecord] = []
    lines = 0
    with open(jsonl_path, "r", encoding="utf-8") as fh:
        for idx, line in enumerate(fh):
            if idx >= count:
                raise ValueError("more records than fingerprints in sidecar")
            lines += 1
            try:
                smiles, props = _json_row(line)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{jsonl_path} line {idx + 1}: {exc}") from None
            problem = _non_finite(props)
            if problem:
                log.warning("skipping corpus row %d: %s", idx + 1, problem)
                continue
            start = _FP_HEADER.size + idx * block
            fp = Fingerprint.from_bytes(blob[start : start + block])
            records.append(ExemplarRecord(smiles, fp, props))
    if lines != count:
        raise ValueError("fingerprint sidecar count does not match records")
    return ExemplarBank(records)
