"""Property oracles, task objectives, success criteria, and the call budget.

Oracle values are memoized by canonical SMILES inside the budget ledger;
only cache misses consume budget (one unit per evaluated candidate by
default, one per term with ``unit="per_term"``).
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

import yaml

from . import lineproto
from .chemfeat import descriptors, morgan_fp, tanimoto
from .files import data_text, table_rows
from .molgraph import Molecule, parse

__all__ = [
    "Oracle",
    "Objective",
    "ObjectiveTerm",
    "SuccessCriterion",
    "BudgetLedger",
    "BudgetExhaustedError",
    "MissingEntryError",
    "check_success",
    "builtin_mw",
    "builtin_ring",
    "builtin_hbd",
    "builtin_hba",
    "builtin_logp_lite",
    "builtin_qed_lite",
    "builtin_sa_lite",
    "builtin_oracle",
    "table_oracle",
    "external_oracle",
    "load_objective",
]

log = logging.getLogger(__name__)


class BudgetExhaustedError(RuntimeError):
    """The oracle-call budget is spent; evaluation refused."""


class MissingEntryError(KeyError):
    """A table oracle has no row for the requested molecule."""


_LOGP = {key: float(value) for key, value, *_ in table_rows(data_text("logp_contrib.tsv"))}
_QED_PARAMS = {
    field: (float(center), float(steepness))
    for field, center, steepness in table_rows(data_text("qed_params.tsv"))
}


# ---------------------------------------------------------------------------
# Built-in property evaluators
# ---------------------------------------------------------------------------


def builtin_mw(m: Molecule) -> float:
    return descriptors(m).mw


def builtin_ring(m: Molecule) -> float:
    return float(descriptors(m).ring_count)


def builtin_hbd(m: Molecule) -> float:
    return float(descriptors(m).hbd)


def builtin_hba(m: Molecule) -> float:
    return float(descriptors(m).hba)


def builtin_logp_lite(m: Molecule) -> float:
    """Sum of per-atom-class contributions; higher means more lipophilic."""
    total = 0.0
    for atom in m.atoms:
        key = atom.element.lower() if atom.aromatic else atom.element
        total += _LOGP[key]
    return total


def builtin_qed_lite(m: Molecule) -> float:
    """Geometric mean of logistic desirabilities over the descriptor vector."""
    vec = descriptors(m)
    values = {
        "mw": vec.mw,
        "ring_count": vec.ring_count,
        "hbd": vec.hbd,
        "hba": vec.hba,
        "psa_lite": vec.psa_lite,
        "rotatable_bonds": vec.rotatable_bonds,
    }
    log_sum = 0.0
    for field, (center, steepness) in _QED_PARAMS.items():
        x = steepness * (values[field] - center)
        try:
            log_sum += math.log(1.0 / (1.0 + math.exp(x)))
        except OverflowError:
            # exp(x) past the largest float: log(1 / (1 + e^x)) is -x less
            # log(1 + e^-x), which vanishes
            log_sum -= x
    return math.exp(log_sum / len(_QED_PARAMS))


def builtin_sa_lite(m: Molecule) -> float:
    """Negated synthesis-difficulty proxy: higher (less negative) is better."""
    heavy = m.heavy_atom_count()
    if heavy == 0:
        return 0.0
    ring_bond_count = [0] * heavy
    for b_idx, bond in enumerate(m.bonds):
        if m.bond_in_ring(b_idx):
            ring_bond_count[bond.a] += 1
            ring_bond_count[bond.b] += 1
    fused_atoms = sum(1 for c in ring_bond_count if c >= 3)
    return -(0.3 * m.ring_count() + 0.1 * heavy + 1.0 * fused_atoms / heavy)


@dataclass(frozen=True)
class Oracle:
    """A named black-box property with an optimization direction.

    direction +1 means larger values are better; -1 marks minimized
    properties (negated-SA style) so that `direction * delta > 0` is
    always "improved".
    """

    name: str
    fn: Callable[[Molecule], float]
    direction: int = 1
    kind: str = "builtin"

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        if self.kind not in ("builtin", "table", "external"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")

    def __call__(self, m: Molecule) -> float:
        return self.fn(m)


_BUILTIN_FNS: dict[str, tuple[Callable[[Molecule], float], int]] = {
    "mw": (builtin_mw, -1),
    "ring": (builtin_ring, -1),
    "hbd": (builtin_hbd, -1),
    "hba": (builtin_hba, -1),
    "logp_lite": (builtin_logp_lite, 1),
    "qed_lite": (builtin_qed_lite, 1),
    "sa_lite": (builtin_sa_lite, -1),
}

_DESCRIPTIONS = {
    "qed_lite": "increase drug-likeness (QED)",
    "logp_lite": "increase lipophilicity (LogP)",
    "sa_lite": "decrease synthetic accessibility score (lower is better)",
    "drd2": "increase inhibition probability",
    "jnk3": "increase inhibition probability",
}


def builtin_oracle(name: str, direction: Optional[int] = None) -> Oracle:
    if name not in _BUILTIN_FNS:
        raise KeyError(f"no builtin oracle named {name!r}")
    fn, default_dir = _BUILTIN_FNS[name]
    return Oracle(name, fn, direction if direction is not None else default_dir)


def table_oracle(
    path: str | Path,
    name: Optional[str] = None,
    direction: int = 1,
    default: Optional[float] = None,
) -> Oracle:
    """Exact lookup by canonical SMILES from a `smiles<TAB>value` file.

    A row that is no entry (a header line, a SMILES that does not parse, a
    missing or non-numeric value) is skipped with a log line.
    """
    path = Path(path)
    table: dict[str, float] = {}
    skipped = 0
    for fields in table_rows(path.read_text(encoding="utf-8")):
        try:
            if len(fields) < 2:
                raise ValueError("row has no value")
            table[parse(fields[0]).canonical] = float(fields[1])
        except ValueError as exc:  # SmilesError is a ValueError
            skipped += 1
            log.warning("skipping %s row %r: %s", path, "\t".join(fields), exc)
    if skipped:
        log.warning("table oracle %s skipped %d bad rows", path, skipped)

    oracle_name = name or path.stem

    def lookup(m: Molecule) -> float:
        try:
            return table[m.canonical]
        except KeyError:
            if default is not None:
                return default
            raise MissingEntryError(
                f"oracle {oracle_name!r} has no entry for {m.canonical!r}"
            ) from None

    return Oracle(oracle_name, lookup, direction, kind="table")


def external_oracle(
    endpoint: str,
    name: str,
    direction: int = 1,
    timeout: float = 10.0,
) -> Oracle:
    """One `EVAL <name> <smiles>` request per molecule over a line stream
    (see `lineproto` for when the connection opens, drops and reopens); an
    `ERR` or malformed reply raises ProtocolError and keeps the connection.
    A malformed endpoint raises ValueError at once. The oracle's `fn.close`
    ends its connection."""
    transport = lineproto.connect(endpoint, timeout)

    def ask(m: Molecule) -> float:
        reply = transport.request(f"EVAL {name} {m.canonical}")
        if reply.startswith("OK "):
            try:
                return float(reply[3:])
            except ValueError as exc:
                raise lineproto.ProtocolError(f"bad float in reply {reply!r}") from exc
        if reply.startswith("ERR "):
            raise lineproto.ProtocolError(f"oracle error: {reply[4:]}")
        raise lineproto.ProtocolError(f"malformed reply {reply!r}")

    ask.close = transport.close
    return Oracle(name, ask, direction, kind="external")


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuccessCriterion:
    mode: str  # "absolute" | "delta"
    comparator: str  # "ge" | "le"
    threshold: float

    def __post_init__(self):
        # a NaN threshold never holds, so every lead would fail unwarned
        if not math.isfinite(self.threshold):
            raise ValueError(f"criterion threshold must be finite, not {self.threshold}")
        if self.mode not in ("absolute", "delta"):
            raise ValueError(f"bad criterion mode {self.mode!r}")
        if self.comparator not in ("ge", "le"):
            raise ValueError(f"bad comparator {self.comparator!r}")

    def holds(self, value: float) -> bool:
        return value >= self.threshold if self.comparator == "ge" else value <= self.threshold


@dataclass(frozen=True)
class ObjectiveTerm:
    oracle: Oracle
    weight: float
    criterion: SuccessCriterion

    def __post_init__(self):
        # a NaN weight makes every score NaN, which JSON cannot carry
        if not math.isfinite(self.weight):
            raise ValueError(f"term weight must be finite, not {self.weight}")
        if self.weight <= 0:
            raise ValueError("term weights must be positive")
        agrees = (self.oracle.direction == 1) == (self.criterion.comparator == "ge")
        if not agrees:
            raise ValueError(
                f"criterion comparator disagrees with direction for "
                f"oracle {self.oracle.name!r}"
            )


@dataclass(frozen=True)
class Objective:
    """Weighted multi-property target with a similarity constraint."""

    name: str
    terms: tuple[ObjectiveTerm, ...]
    gamma: float = 0.4
    budget: int = 500
    description: Optional[str] = None

    def __post_init__(self):
        if not self.terms:
            raise ValueError("objective needs at least one term")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        total = sum(t.weight for t in self.terms)
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(
                self,
                "terms",
                tuple(
                    ObjectiveTerm(t.oracle, t.weight / total, t.criterion)
                    for t in self.terms
                ),
            )
        names = [t.oracle.name for t in self.terms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate oracle names in objective terms")

    def oracle_names(self) -> list[str]:
        return [t.oracle.name for t in self.terms]

    def aggregate(self, values: Mapping[str, float]) -> float:
        """Normalized direction-signed weighted sum of term values."""
        return sum(
            t.weight * t.oracle.direction * values[t.oracle.name] for t in self.terms
        )

    def property_description(self) -> str:
        if self.description:
            return self.description
        parts = []
        for t in self.terms:
            text = _DESCRIPTIONS.get(t.oracle.name)
            if text is None:
                verb = "increase" if t.oracle.direction == 1 else "decrease"
                text = f"{verb} {t.oracle.name}"
            parts.append(text)
        return "; ".join(parts)


class BudgetLedger:
    """Budgeted, memoized oracle accounting shared across rollouts.

    Consume-and-record is atomic: with one unit left, two concurrent
    cache-miss evaluations can never both succeed.
    """

    def __init__(
        self,
        budget: int,
        *,
        unit: str = "per_candidate",
        cache_enabled: bool = True,
    ):
        if budget <= 0:
            raise ValueError("budget must be positive")
        if unit not in ("per_candidate", "per_term"):
            raise ValueError(f"unknown budget unit {unit!r}")
        self.budget = budget
        self.unit = unit
        self.cache_enabled = cache_enabled
        self.consumed = 0
        self.cache: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()

    @property
    def exhausted(self) -> bool:
        return self.consumed >= self.budget

    def peek(self, canonical: str) -> Optional[dict[str, float]]:
        cached = self.cache.get(canonical)
        return dict(cached) if cached is not None else None

    def evaluate(self, m: Molecule, obj: Objective) -> dict[str, float]:
        """All term values for a molecule; one budget unit on a cache miss."""
        key = m.canonical
        with self._lock:
            cached = self.cache.get(key) if self.cache_enabled else None
            if cached is not None and all(
                name in cached for name in obj.oracle_names()
            ):
                return {name: cached[name] for name in obj.oracle_names()}
            cost = 1 if self.unit == "per_candidate" else len(obj.terms)
            if self.consumed + cost > self.budget:
                raise BudgetExhaustedError(
                    f"budget {self.budget} exhausted (consumed {self.consumed})"
                )
            values = {t.oracle.name: t.oracle(m) for t in obj.terms}
            self.consumed += cost
            if self.cache_enabled:
                merged = dict(self.cache.get(key, {}))
                merged.update(values)
                self.cache[key] = merged
        return values


def check_success(
    lead: Molecule,
    cand: Molecule,
    obj: Objective,
    values: Mapping[str, float],
    lead_values: Mapping[str, float],
) -> bool:
    """Similarity >= gamma and every per-term criterion satisfied."""
    sim = tanimoto(morgan_fp(lead), morgan_fp(cand))
    if sim < obj.gamma:
        return False
    for term in obj.terms:
        value = values[term.oracle.name]
        if term.criterion.mode == "delta":
            value = value - lead_values[term.oracle.name]
        if not term.criterion.holds(value):
            return False
    return True


# ---------------------------------------------------------------------------
# Objective configuration files
# ---------------------------------------------------------------------------

_COMPARATORS = {">=": "ge", "<=": "le", "ge": "ge", "le": "le"}


def _mapping(value, what: str, source) -> dict:
    """`value`, if it is a mapping; else the objective file is malformed."""
    if not isinstance(value, dict):
        raise ValueError(
            f"objective {source}: {what} must be a mapping, not {type(value).__name__}"
        )
    return value


def load_objective(source: str | Path) -> Objective:
    """Load an objective from YAML; bare names resolve to shipped presets.
    A file of the wrong shape raises a ValueError that names it."""
    path = Path(source)
    if not path.suffix and not path.exists():
        raw = yaml.safe_load(data_text(f"objectives/{source}.yaml"))
        base_dir = Path.cwd()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        base_dir = path.parent
    raw = _mapping(raw, "the file", source)
    term_specs = raw.get("terms")
    if not isinstance(term_specs, list):
        raise ValueError(f"objective {source}: needs a list of terms")

    extra_oracles: dict[str, Oracle] = {}
    for spec in raw.get("oracles", []) or []:
        spec = _mapping(spec, "each oracle", source)
        kind = spec.get("kind", "table")
        direction = int(spec.get("direction", 1))
        if kind == "table":
            table_path = Path(spec["path"])
            if not table_path.is_absolute():
                table_path = base_dir / table_path
            default = spec.get("default")
            oracle = table_oracle(
                table_path,
                name=spec["name"],
                direction=direction,
                default=None if default is None else float(default),
            )
        elif kind == "external":
            oracle = external_oracle(
                spec["endpoint"],
                name=spec["name"],
                direction=direction,
                timeout=float(spec.get("timeout", 10.0)),
            )
        else:
            raise ValueError(f"unknown oracle kind {kind!r} in {source}")
        extra_oracles[oracle.name] = oracle

    terms = []
    for term_spec in term_specs:
        term_spec = _mapping(term_spec, "each term", source)
        oracle_name = term_spec["oracle"]
        if oracle_name in extra_oracles:
            oracle = extra_oracles[oracle_name]
        else:
            oracle = builtin_oracle(oracle_name)
        if "direction" in term_spec:
            oracle = Oracle(
                oracle.name, oracle.fn, int(term_spec["direction"]), oracle.kind
            )
        crit = _mapping(term_spec.get("success"), "each term's success", source)
        criterion = SuccessCriterion(
            mode=crit.get("mode", "absolute"),
            comparator=_COMPARATORS[str(crit.get("comparator", ">="))],
            threshold=float(crit["threshold"]),
        )
        terms.append(
            ObjectiveTerm(oracle, float(term_spec.get("weight", 1.0)), criterion)
        )

    return Objective(
        name=str(raw.get("name", Path(str(source)).stem)),
        terms=tuple(terms),
        gamma=float(raw.get("gamma", 0.4)),
        budget=int(raw.get("budget", 500)),
        description=raw.get("description"),
    )
