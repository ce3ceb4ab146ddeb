"""Runs a workload's passes and turns them into the result line.

The metric names and units come from BENCHMARK.json. Every workload reports
every end-to-end metric; what an "op" and a "batch" are depends on the
workload:

    metric        search-memory / search-bare        memory-serve
    ops_per_s     env steps per second, median      query requests and write
                  over generations                  batches per busy second,
                                                    median over rounds
    op_ms_*       one rollout, first policy call    one query request
                  to the next rollout's
    batch_ms_p50  one generation: its rollouts      one write batch, the fill's
                  plus the harvest that closes it   included: harvest plus insert
    sr            share of leads meeting the        share of queries answered
                  objective                         with an exemplar block

The mean relative improvement (ri) is printed with the run's record but is
not an end-to-end metric: over the leads a run can afford, its quartile
spread across seeds was 20 to 45 % of its median, too wide to bound.
Timings are scaled to a reference machine speed (see speed.py); the
unscaled figures are printed with the run's record under "raw".
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

from . import common, inputs, memserve, search
from .instrument import Instrument


def run(workload, args, setup_samples: tuple[list, list], root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    env_record = common.environment(root, args.seed)
    registry = common.DigestRegistry(root, _registry_source(root, env_record),
                                     args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": env_record,
            "setup_samples_s": setup_samples[0], "setup_wall_samples_s": setup_samples[1],
            "marks": []}
    if isinstance(workload, memserve.MemoryServe):
        passes, values = _memory_serve(workload, args, info, registry)
    else:
        passes, values = _search(workload, args, info, registry)
    values["setup_s"] = statistics.median(setup_samples[0])
    info["raw"]["setup_s"] = statistics.median(setup_samples[1])

    problems = [p for one in passes for p in one.problems]
    problems += [f"non-deterministic output: {key}" for key in registry.conflicts]
    registry.save()
    approx = sum(one.instrument.counts["skillbank.mcs.approx"] for one in passes)
    info["mcs_approx"] = approx
    if approx:
        info["marks"].append(f"skillbank.mcs.approx={approx}: MCS hit its wall-clock "
                             "cap, so harvested cards may depend on machine load")
    info["problems"] = problems
    info["errors"] = dict(sum((Counter(one.errors) for one in passes), Counter()))

    if not args.trace:
        values["peak_rss_mb"] = common.peak_rss_mb()
    if isinstance(workload, memserve.MemoryServe) and passes[0].bank is not None:
        # after peak_rss_mb is read, so the probe cannot raise it
        info["known_defect"] = workload.defect_probe(
            passes[0].bank, inputs.SYMMETRIC if args.trace else inputs.SYMMETRIC_EVERY_RUN)
    if args.trace:
        traced = passes[-1]
        # the workload's own figures (overheads, ingest rate) take precedence
        values = {**_layer_values(traced.instrument, traced,
                                  [metric["name"] for metric in reported]), **values}
        path = root / common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        path.parent.mkdir(parents=True, exist_ok=True)
        traced.instrument.write_spans(path)
        info["trace_file"] = str(path.relative_to(root))
    result = {
        "correct": not problems,
        "attempted": sum(one.attempted for one in passes),
        "failed": sum(one.failed for one in passes),
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in reported},
    }
    return info, result


def _registry_source(root: Path, env_record: dict) -> str:
    bench = sorted((root / "perfbench").rglob("*.py"))
    return common.sha256_text([env_record["source_sha256"], common.sha256_files(bench)])


def _search(workload: search.SearchWorkload, args, info, registry):
    if args.trace:
        base = workload.run_pass("untraced", False, seconds=args.seconds / 2)
        traced = workload.run_pass("traced", True, invocations=base.invocations)
        passes = [base, traced]
        mismatched = [i for i in base.digests if base.digests[i] != traced.digests.get(i)]
        if mismatched:
            traced.problems.append(f"traced output differs in invocations {mismatched}")
    else:
        base = workload.run_pass("main", False, seconds=args.seconds)
        passes = [base]
    workload.record_digests(registry, base)
    values, info["raw"] = _search_values(workload, base)
    info["ri"] = values.pop("ri")
    info["reference"] = base.instrument.reference.summary()
    rollouts, generations = base.instrument.search_timings(search.ROLLOUTS_PER_GENERATION)
    info["samples"] = {"invocations": base.invocations, "leads": base.attempted,
                       "steps": sum(base.steps), "rollouts": len(rollouts),
                       "generations": len(generations)}
    info["digests"] = {"bank": workload.bank_digest,
                       "invocations": [base.digests.get(i) for i in range(base.invocations)]}
    info["skill_cards"] = base.skill_cards
    if args.trace:
        traced_values, _raw = _search_values(workload, passes[1])
        values["trace.overhead.ops_per_s"] = traced_values["ops_per_s"] - values["ops_per_s"]
        values["trace.overhead.op_ms_p50"] = traced_values["op_ms_p50"] - values["op_ms_p50"]
        values["oracles.exhausted_leads"] = sum(
            lead["calls_used"] >= search.BUDGET
            for report in passes[1].reports for lead in report["leads"])
    return passes, values


def _search_values(workload, one) -> tuple[dict, dict]:
    """Metrics at the reference speed, and the same timings unscaled."""
    rollouts, generations = one.instrument.search_timings(search.ROLLOUTS_PER_GENERATION)
    sr, ri = workload.quality(one)
    values = {"sr": sr, "ri": ri}
    raw = {}
    for target, pick in ((values, 1), (raw, 0)):
        rollout_ms = [times[pick] * 1e3 for times in rollouts]
        generation_ms = [(times[pick] * 1e3, times[2]) for times in generations]
        target.update({
            "ops_per_s": statistics.median(steps / (ms / 1e3) for ms, steps in generation_ms),
            "op_ms_p50": common.percentile(rollout_ms, 50),
            "op_ms_p99": common.percentile(rollout_ms, 99),
            "batch_ms_p50": common.percentile([ms for ms, _steps in generation_ms], 50),
        })
    return values, raw


def _memory_serve(workload: memserve.MemoryServe, args, info, registry):
    if args.trace:
        base = workload.run_pass("untraced", False, seconds=args.seconds / 2)
        traced = workload.run_pass("traced", True, rounds=base.rounds)
        passes = [base, traced]
        if workload.digest(base) != workload.digest(traced):
            traced.problems.append("traced output differs from untraced output")
    else:
        base = workload.run_pass("main", False, seconds=args.seconds)
        passes = [base]
    registry.record("bank", base.bank_digest)
    registry.record("stream", workload.digest(base))
    values, info["raw"] = _memory_serve_values(workload, base)
    info["ri"] = values.pop("ri")
    info["reference"] = base.instrument.reference.summary()
    info["samples"] = {"queries": len(base.queries), "writes": len(base.writes),
                       "fill_writes": len(base.fill), "rounds": base.rounds,
                       "ingest_rows": base.ingest_rows}
    info["ingest"] = {"rows": base.ingest_rows, "bank_rows": base.bank_rows,
                      "seconds": base.ingest_s,
                      "rows_per_s": base.ingest_rows / base.ingest_s if base.ingest_s else None}
    info["skills"] = {"cards_harvested": base.cards, "evicted": base.evicted}
    info["digests"] = {"bank": base.bank_digest, "stream": workload.digest(base)}
    if args.trace:
        traced_values, _raw = _memory_serve_values(workload, passes[1])
        values["trace.overhead.ops_per_s"] = traced_values["ops_per_s"] - values["ops_per_s"]
        values["trace.overhead.op_ms_p50"] = traced_values["op_ms_p50"] - values["op_ms_p50"]
        values["exembank.ingest_rows_per_s"] = (
            passes[1].ingest_rows / passes[1].ingest_s if passes[1].ingest_s else 0)
    return passes, values


def _memory_serve_values(workload, one) -> tuple[dict, dict]:
    """Metrics at the reference speed, and the same timings unscaled."""
    sr, ri = workload.quality(one)
    values = {"sr": sr, "ri": ri}
    raw = {}
    for target, times in ((values, one.scaled_s), (raw, lambda ops: [s for _, s in ops])):
        query_ms = [s * 1e3 for s in times(one.queries)]
        target.update({
            "ops_per_s": statistics.median(len(ops) / sum(times(ops)) for ops in one.round_ops),
            "op_ms_p50": common.percentile(query_ms, 50),
            "op_ms_p99": common.percentile(query_ms, 99),
            "batch_ms_p50": common.percentile(
                [s * 1e3 for s in times(one.fill + one.writes)], 50),
        })
    return values, raw


def _layer_values(probe: Instrument, traced, names: list[str]) -> dict:
    """Per-layer metrics: calls and self time of each wrapped function, the
    instrument's counters, and the shares derived from them."""
    calls, counts = probe.calls, probe.counts

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[layer]
        elif kind == "self_s":
            values[name] = probe.self_s[layer]
        else:
            values[name] = counts[name]
    values["molgraph.parse.repeat_frac"] = share(counts["molgraph.parse.repeat"],
                                                 calls["molgraph.parse"])
    values["molgraph.molecule_init.distinct_frac"] = share(
        counts["molgraph.molecule_init.distinct"], calls["molgraph.molecule_init"])
    values["molgraph.mutate.noop_frac"] = share(counts["molgraph.mutate.noop"],
                                                calls["molgraph.mutate"])
    values["oracles.ledger_evaluate.hit_frac"] = share(
        counts["oracles.ledger_evaluate.hits"], calls["oracles.ledger_evaluate"])
    for layer in ("exembank.retrieve_exemplars", "exembank.candidate_recall"):
        values[layer + ".empty_frac"] = share(counts[layer + ".empty"], calls[layer])
    values["harness.rollouts"] = len(probe.rollout_firsts)
    values["trace.spans"] = len(probe.spans)
    program_s = traced.program_s
    attributed = sum(probe.self_s.values())
    values["trace.program_s"] = program_s
    values["trace.unattributed_s"] = program_s - attributed
    values["trace.unattributed_frac"] = share(program_s - attributed, program_s)
    return values
