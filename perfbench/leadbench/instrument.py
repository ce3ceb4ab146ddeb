"""Wrappers around leadopt's public functions, installed at every import site.

A wrapped function is replaced in each ``leadopt`` module that holds it, so
``leadopt.env.parse`` and ``leadopt.harness.parse`` are both covered; class
attributes such as ``Molecule.__init__`` are replaced on the class. Nothing
under ``src/`` is edited, and ``close()`` puts every original back.

Untraced runs install only the counters the output checks need: reward
branches, MCS fallbacks, and the reference ticks at policy calls and lead
ends behind the latency metrics (see speed.py). Traced runs also record a
span (name, start, end, parent) per call, keep the spans in memory and
report each layer's self time: the span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
from bisect import bisect_left
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

import leadopt.cli
from leadopt import chemfeat, env, exembank, molgraph, oracles, skillbank

from .speed import Reference

# Branch label for a step whose oracle call found the budget spent; the env
# logs such a step without a reward branch.
EXHAUSTED = "exhausted"


class Instrument:
    def __init__(self, trace: bool):
        self.trace = trace
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list = []
        # one reference tick per policy call, which is one env step, and the
        # indices of the steps that open a rollout
        self.reference = Reference()
        self.step_ticks: list[int] = []
        self.rollout_firsts: list[int] = []
        # per lead: its first and one past its last step, and the tick that
        # closes it
        self.leads: list[tuple[int, int, int]] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._parsed: set[str] = set()
        self._built: set[str] = set()
        self._t0 = perf_counter()

    def tick(self) -> int:
        """A reference tick; its loops count towards no span's self time."""
        k = self.reference.tick()
        if self._stack:
            self._stack[-1][0] += self.reference.tick_s(k)
        return k

    # -- installation -----------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        error: Optional[Callable] = None,
        span: bool = True,
    ) -> Callable:
        calls = self.calls
        if not (self.trace and span):
            def counted(*args, **kwargs):
                token = before(args) if before else None
                calls[name] += 1
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if error:
                        error(args, exc)
                    raise
                if after:
                    after(args, result, token)
                return result
            return counted

        stack, spans, self_s = self._stack, self.spans, self.self_s

        def traced(*args, **kwargs):
            token = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            frame = [0.0, idx]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error:
                    error(args, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                spans[idx] = (name, start, end, parent)
            if after:
                after(args, result, token)
            return result
        return traced

    def _patch_function(self, original: Callable, name: str, **hooks) -> None:
        wrapper = self._wrap(name, original, **hooks)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("leadopt") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, **hooks))
        self._patches.append((cls, attr, original))

    def install(self) -> "Instrument":
        counts = self.counts

        def branch(args, outcome, _token):
            counts["env.branch." + outcome.branch] += 1

        def branch_error(args, exc):
            if isinstance(exc, oracles.BudgetExhaustedError):
                counts["env.branch." + EXHAUSTED] += 1

        def mcs(args, result, _token):
            counts["skillbank.mcs.approx"] += int(result.approximate)

        def lead_before(args):
            return len(self.step_ticks)

        def lead_after(args, result, first):
            self.leads.append((first, len(self.step_ticks), self.tick()))

        original_get_policy = leadopt.cli.get_policy

        def get_policy(spec, timeout=10.0):
            return self._policy_shim(original_get_policy(spec, timeout))

        self._patch_function(env.reward_outcome, "env.reward_outcome",
                             after=branch, error=branch_error)
        self._patch_function(skillbank.mcs_decompose, "skillbank.mcs_decompose",
                             after=mcs)
        self._patch_function(leadopt.cli.optimize_lead, "harness.optimize_lead",
                             before=lead_before, after=lead_after)
        self._patches.append((leadopt.cli, "get_policy", original_get_policy))
        leadopt.cli.get_policy = get_policy
        if self.trace:
            self._install_trace()
        return self

    def _policy_shim(self, policy: Callable) -> Callable:
        steps, firsts = self.step_ticks, self.rollout_firsts
        timed = self._wrap("harness.policy", policy)

        def shim(observation, view, temp, rng):
            if view.turn == 0:
                firsts.append(len(steps))
            steps.append(self.tick())
            return timed(observation, view, temp, rng)
        return shim

    def _install_trace(self) -> None:
        counts = self.counts

        def parse_before(args):
            text = args[0]
            if text in self._parsed:
                counts["molgraph.parse.repeat"] += 1
            else:
                self._parsed.add(text)

        def parse_error(args, exc):
            counts["molgraph.parse.errors"] += 1

        def molecule_after(args, _result, _token):
            canonical = args[0].canonical
            if canonical not in self._built:
                self._built.add(canonical)
                counts["molgraph.molecule_init.distinct"] += 1

        def mutate_after(args, result, _token):
            counts["molgraph.mutate.noop"] += int(result.canonical == args[0].canonical)

        def ledger_before(args):
            return args[0].consumed

        def ledger_after(args, _result, consumed):
            spent = args[0].consumed - consumed
            counts["oracles.budget_units"] += spent
            counts["oracles.ledger_evaluate.hits"] += int(spent == 0)

        def empty_after(name):
            def after(args, result, _token):
                counts[name + ".empty"] += int(not result)
            return after

        def bank_rows(args, result, _token):
            counts["exembank.rows"] = max(counts["exembank.rows"], len(result))

        def cards_before(args):
            counts["skillbank.retrieve_skills.cards_scanned"] += args[0].size(args[2])

        def evicted(args, result, _token):
            counts["skillbank.insert.evicted"] += len(result.evicted_keys)

        def injected(args, _result, _token):
            state = args[1]
            source = state.injected.source if state.injected else "none"
            counts["env.inject." + source] += 1

        fn = self._patch_function
        fn(molgraph.parse, "molgraph.parse", before=parse_before, error=parse_error)
        self._patch_method(molgraph.Molecule, "__init__", "molgraph.molecule_init",
                           after=molecule_after)
        fn(molgraph.mutate, "molgraph.mutate", after=mutate_after)
        fn(molgraph.scaffold_of, "molgraph.scaffold_of")
        fn(chemfeat.morgan_fp, "chemfeat.morgan_fp")
        fn(chemfeat.detect_functional_groups, "chemfeat.detect_functional_groups")
        fn(chemfeat.descriptors, "chemfeat.descriptors")
        fn(chemfeat.tanimoto, "chemfeat.tanimoto", span=False)
        self._patch_method(oracles.BudgetLedger, "evaluate", "oracles.ledger_evaluate",
                           before=ledger_before, after=ledger_after)
        fn(exembank.retrieve_exemplars, "exembank.retrieve_exemplars",
           after=empty_after("exembank.retrieve_exemplars"))
        fn(exembank.candidate_recall, "exembank.candidate_recall",
           after=empty_after("exembank.candidate_recall"))
        fn(exembank.build_bank, "exembank.build_bank")
        fn(exembank.save_bank, "exembank.save_bank")
        fn(exembank.load_bank, "exembank.load_bank", after=bank_rows)
        fn(skillbank.retrieve_skills, "skillbank.retrieve_skills", before=cards_before)
        fn(skillbank.harvest, "skillbank.harvest")
        self._patch_method(skillbank.SkillBank, "insert", "skillbank.insert",
                           after=evicted)
        self._patch_method(env.MolEnv, "step", "env.step")
        self._patch_method(env.MolEnv, "maybe_inject_memory", "env.maybe_inject_memory",
                           after=injected)
        self._patch_method(env.MolEnv, "observation", "env.observation")

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def search_timings(self, per_generation: int) -> tuple[list, list]:
        """(wall s, scaled s) per rollout and (wall s, scaled s, steps) per
        generation.

        A rollout runs from its first policy call to the next rollout's, the
        lead's last one to the end of the lead; a generation is
        `per_generation` consecutive rollouts of one lead.
        """
        ticks, firsts, span = self.step_ticks, self.rollout_firsts, self.reference.span
        rollouts, generations = [], []
        for first, last, end in self.leads:
            opens = firsts[bisect_left(firsts, first):bisect_left(firsts, last)]
            bounds = [ticks[i] for i in opens] + [end]
            rollouts.extend(span(a, b) for a, b in zip(bounds, bounds[1:]))
            for g in range(0, len(opens), per_generation):
                stop = min(g + per_generation, len(opens))
                steps = (opens[stop] if stop < len(opens) else last) - opens[g]
                generations.append((*span(bounds[g], bounds[stop]), steps))
        return rollouts, generations

    def write_spans(self, path) -> None:
        names = sorted({span[0] for span in self.spans if span})
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[name], round(start - self._t0, 7), round(end - self._t0, 7), parent]
            for name, start, end, parent in (s for s in self.spans if s)
        ]
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
