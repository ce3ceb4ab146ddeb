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
from typing import Optional

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
from .oracles import Objective, builtin_oracle, load_objective

__all__ = ["main"]


def _resolve(cli_value, config: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


# `leadopt run` option (and YAML config key) -> SearchConfig field
_SEARCH_FIELDS = {
    "generations": "generations",
    "rollouts": "rollouts_per_gen",
    "temp0": "temp0",
    "temp_step": "temp_step",
    "temp_max": "temp_max",
    "budget": "budget",
    "budget_unit": "budget_unit",
    "seed": "seed",
    "turns": "max_turns",
    "plateau": "plateau_patience",
}


def _print_json(payload, file=None) -> None:
    """One JSON object with sorted keys on a line (stdout by default)."""
    print(json.dumps(payload, sort_keys=True), file=file)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError("run config must be a mapping")
    return data


def _objective_with_gamma(obj: Objective, gamma: Optional[float]) -> Objective:
    if gamma is None or gamma == obj.gamma:
        return obj
    return dataclasses.replace(obj, gamma=gamma)


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
    obj = _objective_with_gamma(load_objective(args.objective), args.gamma_sim)
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
    capacity = args.capacity
    if args.skills_command == "harvest":
        summarizer = (lineproto.connect(args.summarizer[len("external:"):])
                      if args.summarizer.startswith("external:")
                      else contextlib.nullcontext())
        obj = load_objective(args.objective)
        bank = _skill_bank(args.bank, capacity)
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
        bank = skillbank.load_skills(args.bank, capacity)
        for task in bank.tasks():
            if args.task and task != args.task:
                continue
            for skill in bank.cards(task):
                _print_json({"task": task, "delta_r": skill.delta_r,
                             "before": skill.card.before, "after": skill.card.after,
                             "text": skill.text})
        return 0
    if args.skills_command == "insert":
        bank = _skill_bank(args.bank, capacity)
        incoming = skillbank.load_skills(args.cards, capacity)
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
    loose = skillbank.load_skills(args.bank, capacity=10**9)
    bounded = skillbank.SkillBank(capacity)
    summary = {}
    for task in loose.tasks():
        report = bounded.insert(loose.cards(task))
        summary[task] = {
            "cards": loose.size(task),
            "capacity": capacity,
            "evicted": list(report.evicted_keys),
            "retained": report.retained,
        }
    _print_json(summary)
    return 0


def cmd_run(args) -> int:
    if args.skill_capacity < 1:  # checked without --skill-bank too
        raise ValueError("--skill-capacity must be at least 1")
    config = _load_config(args.config)
    obj = _objective_with_gamma(
        load_objective(args.objective),
        _resolve(args.gamma_sim, config, "gamma_sim", None),
    )
    # an option given on the command line wins over the config file, and
    # the budget of either over the objective's; what none sets keeps its
    # SearchConfig default
    settings = {field: config[key] for key, field in _SEARCH_FIELDS.items() if key in config}
    for key, field in _SEARCH_FIELDS.items():
        if getattr(args, key) is not None:
            settings[field] = getattr(args, key)
    settings.setdefault("budget", obj.budget)
    cfg = SearchConfig(
        **settings,
        warm_start_incumbent=bool(args.warm_start_incumbent),
        harvest_skills=bool(args.harvest_skills),
    )
    policy_spec = _resolve(args.policy, config, "policy", "random")
    policy = get_policy(policy_spec, timeout=args.wire_timeout)

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
    p.add_argument("-K", "--k", type=int, default=3,
                   help="exemplars to return (default: 3)")
    p.add_argument("--gamma-ex", type=float, default=None,
                   help="lead-similarity filter (default: objective gamma)")
    p.add_argument("--gamma-sim", type=float, default=None,
                   help="override the objective similarity threshold "
                        "(default: 0.4)")
    p.add_argument("--pool", type=int, default=200,
                   help="broad-recall pool size (default: 200)")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("skills", help="skill-bank operations")
    p.set_defaults(fn=cmd_skills)
    skills_sub = p.add_subparsers(dest="skills_command", required=True)
    sp = skills_sub.add_parser("harvest", help="extract skills from trajectories")
    sp.add_argument("--trajectories", required=True, help="trajectory JSONL")
    sp.add_argument("--objective", required=True)
    sp.add_argument("--bank", required=True, help="skill bank JSONL to update")
    sp.add_argument("--delta", type=float, default=0.05,
                    help="minimum improvement to harvest (default: 0.05)")
    sp.add_argument("--capacity", type=int, default=skillbank.DEFAULT_CAPACITY,
                    help="skill bank capacity (default: 1000)")
    sp.add_argument("--summarizer", default="template",
                    help="'template' or 'external:<endpoint>' "
                         "(default: template)")
    sp = skills_sub.add_parser("list", help="print stored skills")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--task", default=None, help="filter by task name")
    sp.add_argument("--capacity", type=int, default=skillbank.DEFAULT_CAPACITY)
    sp = skills_sub.add_parser("insert", help="merge a card file into a bank")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--cards", required=True, help="skill JSONL to merge in")
    sp.add_argument("--capacity", type=int, default=skillbank.DEFAULT_CAPACITY,
                    help="skill bank capacity (default: 1000)")
    sp = skills_sub.add_parser("evict-report",
                               help="preview capacity-bound evictions")
    sp.add_argument("--bank", required=True)
    sp.add_argument("--capacity", type=int, default=skillbank.DEFAULT_CAPACITY,
                    help="capacity to apply (default: 1000)")

    p = sub.add_parser("run", help="optimize a file of leads and write a report")
    p.add_argument("--leads", required=True, help="one SMILES per line")
    p.add_argument("--objective", required=True, help="objective file or preset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--policy", default=None,
                   help="random | greedy | wire:<endpoint> (default: random)")
    p.add_argument("--config", default=None,
                   help="YAML run config merged under CLI overrides")
    p.add_argument("--budget", type=int, default=None,
                   help="oracle-call budget per lead (default: the run config's, "
                        "else the objective's, which is 500 unless it sets one)")
    p.add_argument("--budget-unit", default=None,
                   choices=["per_candidate", "per_term"],
                   help="budget accounting unit (default: per_candidate)")
    p.add_argument("--gamma-sim", type=float, default=None,
                   help="similarity threshold (default: 0.4)")
    p.add_argument("--turns", type=int, default=None,
                   help="max turns per rollout (default: 5)")
    p.add_argument("--generations", type=int, default=None,
                   help="search generations (default: 20)")
    p.add_argument("--rollouts", type=int, default=None,
                   help="rollouts per generation (default: 32)")
    p.add_argument("--temp0", type=float, default=None,
                   help="base temperature (default: 0.9)")
    p.add_argument("--temp-step", type=float, default=None,
                   help="temperature increment per generation (default: 0.1)")
    p.add_argument("--temp-max", type=float, default=None,
                   help="temperature ceiling (default: 2.0)")
    p.add_argument("--plateau", type=int, default=None,
                   help="stalled turns before memory injection (default: 2)")
    p.add_argument("--seed", type=int, default=None, help="seed (default: 0)")
    p.add_argument("--exemplar-bank", default=None, help="bank base path")
    p.add_argument("--skill-bank", default=None, help="skill JSONL path")
    p.add_argument("--skill-capacity", type=int, default=skillbank.DEFAULT_CAPACITY,
                   help="capacity of the skill bank given by --skill-bank "
                        "(default: 1000)")
    p.add_argument("--warm-start-incumbent", action="store_true",
                   help="start rollouts from the incumbent instead of the lead")
    p.add_argument("--harvest-skills", action="store_true",
                   help="harvest skills between generations")
    p.add_argument("--wire-timeout", type=float, default=10.0,
                   help="wire policy timeout in seconds (default: 10)")
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
    cp.add_argument("--gamma", type=float, default=0.99,
                    help="discount factor (default: 0.99)")
    cp.add_argument("--lambda", dest="lam", type=float, default=0.95,
                    help="GAE lambda (default: 0.95)")
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
