"""Command-line interface tying banks, environment, search, and metrics
together. Outputs are written atomically (temp file, then rename); errors
leave a machine-readable JSON object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from . import exembank, lineproto, skillbank
from .credit import AdvantageInput, gae
from .env import read_trajectories, write_trajectories
from .files import write_atomic
from .harness import (
    SearchConfig,
    aggregate_records,
    get_policy,
    metrics,
    optimize_lead,
    report_to_json,
    report_to_tsv,
)
from .molgraph import parse
from .oracles import BudgetLedger, Objective, builtin_oracle, load_objective

__all__ = ["main"]


class _Setting(NamedTuple):
    key: str  # the run-config key; the flag is --key with dashes for underscores
    field: Optional[str]  # the SearchConfig field it sets, if any
    type: type  # int, float or str
    help: str  # "{}" marks where the field's SearchConfig default goes
    choices: tuple[str, ...] = ()


_DEFAULT_POLICY = "random"
_EVERY_CARD = 10**9  # a capacity above any skill file's card count

# Every setting `leadopt run` takes. A flag wins over the run config, and
# either over the objective's budget and gamma; what none sets keeps its
# SearchConfig default.
_RUN_SETTINGS = (
    _Setting("policy", None, str,
             f"random | greedy | wire:<endpoint> (default: {_DEFAULT_POLICY})"),
    _Setting("budget", "budget", int, "oracle-call budget per lead (default: the run "
             "config's, else the objective's, which is {} unless it sets one)"),
    _Setting("budget_unit", "budget_unit", str, "budget accounting unit (default: {})",
             BudgetLedger.UNITS),
    _Setting("gamma_sim", None, float, "similarity threshold (default: the run config's, "
             f"else the objective's gamma, which is {Objective.gamma} unless it sets one)"),
    _Setting("turns", "max_turns", int, "max turns per rollout (default: {})"),
    _Setting("generations", "generations", int, "search generations (default: {})"),
    _Setting("rollouts", "rollouts_per_gen", int, "rollouts per generation (default: {})"),
    _Setting("temp0", "temp0", float, "base temperature (default: {})"),
    _Setting("temp_step", "temp_step", float,
             "temperature increment per generation (default: {})"),
    _Setting("temp_max", "temp_max", float, "temperature ceiling (default: {})"),
    _Setting("plateau", "plateau_patience", int,
             "stalled turns before memory injection (default: {})"),
    _Setting("seed", "seed", int, "seed (default: {})"),
)
_TYPE_NAMES = {int: "an int", float: "a number", str: "a string"}


def _print_json(payload, file=None) -> None:
    """One JSON object with sorted keys on a line (stdout by default)."""
    print(json.dumps(payload, sort_keys=True), file=file)


def _load_config(path: Optional[str]) -> dict:
    """The run settings the run config at `path` gives, by key. Each key
    must name a setting, and each value have its type: an int passes as a
    number, a bool never as an int."""
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"run config {path}: the file must be a mapping, "
                         f"not {type(data).__name__}")
    settings = {setting.key: setting for setting in _RUN_SETTINGS}
    config = {}
    for key, value in data.items():
        setting = settings.get(key)
        if setting is None:
            raise ValueError(f"run config {path}: unknown key {key!r}; "
                             f"the keys are {', '.join(settings)}")
        if setting.type is float and type(value) is int:
            value = float(value)  # as the flag would parse it
        if type(value) is not setting.type or setting.choices and value not in setting.choices:
            kind = " or ".join(setting.choices) or _TYPE_NAMES[setting.type]
            raise ValueError(f"run config {path}: {key} must be {kind}, not {value!r}")
        config[key] = value
    return config


def _finite(value) -> bool:
    """Whether `value` is a finite JSON number (an int or a float, not a bool)."""
    return type(value) in (int, float) and math.isfinite(value)


def _read_leads(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        leads = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    if not leads:
        raise ValueError(f"no leads in {path}")
    return leads


def _skill_bank(path: str, capacity: int) -> skillbank.SkillBank:
    """The skill bank stored at `path`, or an empty one if there is no file."""
    if Path(path).exists():
        return skillbank.load_skills(path, capacity)
    return skillbank.SkillBank(capacity)


def _close_wires(oracles, policy=None) -> None:
    """End the connections of a command's external oracles and wire policy;
    the other oracles and policies hold none."""
    for oracle in oracles:
        if oracle.kind == "external":
            oracle.fn.close()
    if hasattr(policy, "close"):
        policy.close()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_bank(args) -> int:
    oracles = [builtin_oracle(name) for name in (args.oracle or [])]
    if args.objective:
        obj = load_objective(args.objective)
        known = {oracle.name for oracle in oracles}
        oracles.extend(
            term.oracle for term in obj.terms if term.oracle.name not in known
        )
    try:
        bank = exembank.build_bank(args.corpus, oracles=oracles)
    finally:
        _close_wires(oracles)
    jsonl_path, fp_path = exembank.save_bank(bank, args.out)
    _print_json({"records": len(bank), "files": [str(jsonl_path), str(fp_path)]})
    return 0


def cmd_retrieve(args) -> int:
    bank = exembank.load_bank(args.bank)
    obj = load_objective(args.objective)
    query = parse(args.query)
    lead = parse(args.lead)
    exemplars = exembank.retrieve_exemplars(
        bank, query, lead, obj,
        k=args.k, gamma_ex=args.gamma_ex, pool_size=args.pool,
    )
    if not exemplars:
        _print_json({"error": "NoExemplars",
                     "message": "no exemplar passed the lead filter"}, sys.stderr)
        return 1
    sys.stdout.write(exembank.render_exemplar_block(exemplars, obj, lead))
    return 0


def cmd_skills(args) -> int:
    if args.skills_command == "harvest":
        summarizer = (lineproto.connect(args.summarizer[len("external:"):])
                      if args.summarizer.startswith("external:")
                      else contextlib.nullcontext())
        obj = load_objective(args.objective)
        bank = _skill_bank(args.bank, args.capacity)
        trajectories = read_trajectories(args.trajectories)
        cards = []
        for trajectory in trajectories:
            cards.extend(skillbank.harvest(trajectory, obj, args.delta))
        with summarizer as transport:
            skills = [skillbank.make_skill_card(card, obj.name, transport)
                      for card in cards]
        report = bank.insert(skills)
        skillbank.save_skills(bank, args.bank)
        _print_json({
            "trajectories": len(trajectories),
            "cards": len(cards),
            "inserted": report.inserted,
            "merged": report.merged,
            "evicted": list(report.evicted_keys),
            "bank_size": bank.size(obj.name),
        })
        return 0
    if args.skills_command == "list":
        bank = skillbank.load_skills(args.bank, _EVERY_CARD)
        for task in bank.tasks():
            if args.task and task != args.task:
                continue
            for skill in bank.cards(task):
                _print_json({"task": task, "delta_r": skill.delta_r,
                             "before": skill.card.before, "after": skill.card.after,
                             "text": skill.text})
        return 0
    if args.skills_command == "insert":
        bank = _skill_bank(args.bank, args.capacity)
        incoming = skillbank.load_skills(args.cards, args.capacity)
        reports = {}
        for task in incoming.tasks():
            report = bank.insert(incoming.cards(task))
            reports[task] = {
                "inserted": report.inserted,
                "merged": report.merged,
                "evicted": list(report.evicted_keys),
                "retained": report.retained,
            }
        skillbank.save_skills(bank, args.bank)
        _print_json(reports)
        return 0
    # evict-report: show what a capacity bound would remove, don't write
    loose = skillbank.load_skills(args.bank, _EVERY_CARD)
    bounded = skillbank.SkillBank(args.capacity)
    summary = {}
    for task in loose.tasks():
        report = bounded.insert(loose.cards(task))
        summary[task] = {
            "cards": loose.size(task),
            "capacity": args.capacity,
            "evicted": list(report.evicted_keys),
            "retained": report.retained,
        }
    _print_json(summary)
    return 0


def cmd_run(args) -> int:
    if args.skill_capacity < 1:  # checked without --skill-bank too
        raise ValueError("--skill-capacity must be at least 1")
    given = _load_config(args.config)
    given.update({setting.key: getattr(args, setting.key) for setting in _RUN_SETTINGS
                  if getattr(args, setting.key) is not None})
    obj = load_objective(args.objective)
    if given.get("gamma_sim", obj.gamma) != obj.gamma:
        obj = dataclasses.replace(obj, gamma=given["gamma_sim"])
    search = {setting.field: given[setting.key] for setting in _RUN_SETTINGS
              if setting.field and setting.key in given}
    search.setdefault("budget", obj.budget)
    cfg = SearchConfig(
        **search,
        warm_start_incumbent=bool(args.warm_start_incumbent),
        harvest_skills=bool(args.harvest_skills),
    )
    policy = get_policy(given.get("policy", _DEFAULT_POLICY), timeout=args.wire_timeout)

    exemplar_bank = exembank.load_bank(args.exemplar_bank) if args.exemplar_bank else None
    skill_bank = _skill_bank(args.skill_bank, args.skill_capacity) if args.skill_bank else None

    out_dir = Path(args.out)
    results = []
    all_trajectories = []
    try:  # the transports open on first use, so nothing is open before the leads
        for lead_smiles in _read_leads(args.leads):
            lead = parse(lead_smiles)
            result, trajectories = optimize_lead(
                lead, cfg, policy, obj,
                exemplar_bank=exemplar_bank, skill_bank=skill_bank,
            )
            results.append(result)
            all_trajectories.extend(trajectories)
    finally:
        _close_wires([term.oracle for term in obj.terms], policy)

    report = metrics(results, obj)
    write_atomic(out_dir / "report.json", report_to_json(report))
    write_atomic(out_dir / "report.tsv", report_to_tsv(report))
    write_trajectories(all_trajectories, out_dir / "trajectories.jsonl")
    if skill_bank is not None and args.skill_bank:
        skillbank.save_skills(skill_bank, args.skill_bank)
    print(report_to_tsv(report), end="")
    return 0


def cmd_eval(args) -> int:
    report_path = Path(args.report)
    if report_path.is_dir():
        report_path = report_path / "report.json"
    with open(report_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)

    def check(ok: bool, what: str) -> None:  # each field as report_to_json writes it
        if not ok:
            raise ValueError(f"report {report_path}: {what}")

    check(isinstance(payload, dict), "the file must be a mapping")
    leads, stored = payload.get("leads", []), payload.get("aggregates", {})
    check(isinstance(leads, list), "'leads' must be a list")
    check(isinstance(stored, dict), "'aggregates' must be a mapping")
    for lead in leads:
        check(isinstance(lead, dict), "each lead must be a mapping")
        check(isinstance(lead.get("success"), bool), "each lead's 'success' must be true or false")
        for key in ("sim", "ri"):
            check(_finite(lead.get(key)), f"each lead's {key!r} must be a finite number")
    for key in ("SR", "Sim", "RI"):
        check(_finite(stored.get(key, 0.0)), f"the stored {key!r} must be a finite number")
    aggregates = aggregate_records(leads)
    drift = {key: abs(value - stored.get(key, value)) for key, value in aggregates.items()}
    _print_json({"task": payload.get("task", ""), "aggregates": aggregates,
                 "recomputation_drift": drift, "leads": len(leads)})
    return 0


def cmd_credit(args) -> int:
    rewards = tuple(float(x) for x in args.rewards.split(",") if x != "")
    values = tuple(float(x) for x in args.values.split(",") if x != "")
    advantages = gae(AdvantageInput(rewards, values, args.gamma, args.lam))
    print(",".join(repr(float(a)) for a in advantages))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadopt",
        description="Budgeted, memory-augmented lead-molecule optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-bank", help="ingest a corpus into an exemplar bank")
    p.add_argument("--corpus", required=True, help="SMILES/TSV/JSONL corpus file")
    p.add_argument("--out", required=True, help="output base path (no extension)")
    p.add_argument("--oracle", action="append",
                   help="builtin oracle to precompute (repeatable)")
    p.add_argument("--objective", help="objective file/preset whose term "
                                       "oracles fill missing properties")
    p.set_defaults(fn=cmd_build_bank)

    p = sub.add_parser("retrieve", help="print the exemplar reference block")
    p.add_argument("--bank", required=True, help="bank base path")
    p.add_argument("--query", required=True, help="current molecule SMILES")
    p.add_argument("--lead", required=True, help="lead molecule SMILES")
    p.add_argument("--objective", required=True, help="objective file or preset")
    p.add_argument("-K", "--k", type=int, default=exembank.DEFAULT_K,
                   help="exemplars to return (default: %(default)s)")
    p.add_argument("--gamma-ex", type=float, default=None,
                   help="lead-similarity filter (default: the objective's gamma)")
    p.add_argument("--pool", type=int, default=exembank.DEFAULT_POOL,
                   help="broad-recall pool size (default: %(default)s)")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("skills", help="skill-bank operations")
    p.set_defaults(fn=cmd_skills)
    skills_sub = p.add_subparsers(dest="skills_command", required=True)
    sp = skills_sub.add_parser("harvest", help="extract skills from trajectories")
    sp.add_argument("--trajectories", required=True, help="trajectory JSONL")
    sp.add_argument("--objective", required=True)
    sp.add_argument("--bank", required=True, help="skill bank JSONL to update")
    sp.add_argument("--delta", type=float, default=skillbank.DEFAULT_HARVEST_DELTA,
                    help="minimum improvement to harvest (default: %(default)s)")
    capacity = dict(type=int, default=skillbank.DEFAULT_CAPACITY,
                    help="skill bank capacity (default: %(default)s)")
    sp.add_argument("--capacity", **capacity)
    sp.add_argument("--summarizer", default="template",
                    help="'template' or 'external:<endpoint>' (default: %(default)s)")
    sp = skills_sub.add_parser("list", help="print every stored skill")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--task", default=None, help="filter by task name")
    sp = skills_sub.add_parser("insert", help="merge a card file into a bank")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--cards", required=True, help="skill JSONL to merge in")
    sp.add_argument("--capacity", **capacity)
    sp = skills_sub.add_parser("evict-report", help="preview capacity-bound evictions")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--capacity", **capacity)

    p = sub.add_parser("run", help="optimize a file of leads and write a report")
    p.add_argument("--leads", required=True, help="one SMILES per line")
    p.add_argument("--objective", required=True, help="objective file or preset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None,
                   help="YAML run config: the settings below, each keyed by its "
                        "option's name (temp_step for --temp-step); a flag wins")
    defaults = SearchConfig()
    for setting in _RUN_SETTINGS:
        p.add_argument("--" + setting.key.replace("_", "-"), type=setting.type,
                       choices=setting.choices or None,
                       help=setting.help.format(getattr(defaults, setting.field))
                       if setting.field else setting.help)
    p.add_argument("--exemplar-bank", default=None, help="bank base path")
    p.add_argument("--skill-bank", default=None, help="skill JSONL path")
    p.add_argument("--skill-capacity", type=int, default=skillbank.DEFAULT_CAPACITY,
                   help="capacity of the skill bank given by --skill-bank "
                        "(default: %(default)s)")
    p.add_argument("--warm-start-incumbent", action="store_true",
                   help="start rollouts from the incumbent instead of the lead")
    p.add_argument("--harvest-skills", action="store_true",
                   help="harvest skills between generations")
    p.add_argument("--wire-timeout", type=float, default=lineproto.DEFAULT_TIMEOUT,
                   help="wire policy timeout in seconds (default: %(default)s)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eval", help="recompute SR/Sim/RI from a report")
    p.add_argument("--report", required=True,
                   help="report.json path or a run output directory")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("credit", help="credit-assignment numerics")
    credit_sub = p.add_subparsers(dest="credit_command", required=True)
    cp = credit_sub.add_parser("gae", help="advantages from rewards/values")
    cp.add_argument("--rewards", required=True, help="comma-separated rewards")
    cp.add_argument("--values", required=True,
                    help="comma-separated values (one more than rewards)")
    cp.add_argument("--gamma", type=float, default=AdvantageInput.gamma,
                    help="discount factor (default: %(default)s)")
    cp.add_argument("--lambda", dest="lam", type=float, default=AdvantageInput.lam,
                    help="GAE lambda (default: %(default)s)")
    cp.set_defaults(fn=cmd_credit)

    return parser


# built by the first main(), not at import nor per call: a parser is
# hundreds of objects in reference cycles
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surfaced as machine-readable JSON
        _print_json({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
