"""Traced pass: per-layer spans and counts for one workload.

Run as ``python3 perfbench/spans.py --workload NAME --seed N`` (``run.py
--trace 1`` starts it). It replays the workload's fixed rounds twice with a
span recorded at every layer boundary, keeps the second (warm) pass and
prints one JSON object: the layer metrics, the traced wall time, the report
digest and any gate mismatches.
The spans themselves are written to ``.bench_trace/<workload>.tsv``.

Spans come only from this file, wrapping the program's public seams:

* wrappers over the ``intramorph.cases.*`` programs and relations and over
  ``SeededSource.unit_block``, installed before the registry is built, so
  every table and closure the registry builds holds the wrapped functions;
* a copy of each registered ``Campaign`` made with ``dataclasses.replace``
  over ``generate``, ``build_evaluator`` and ``shrink_payload``, passed to
  ``run_campaign(registry=...)``.

A span is (name, start, end, parent span id); its self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter
from typing import Any, Callable

from program import ROOT, use_checkout_source

# (module, span name, function names). Programs first, then relations.
PROGRAMS = (
    ("sorting", "cases.sorting", (
        "bubble_sort", "insertion_sort", "merge_sort", "bubble_sort_reverse",
        "bubble_sort_swap_index", "bubble_sort_reverse_swap_index",
        "bubble_sort_reverse_not_flipped")),
    ("ast_printing", "cases.ast_printing", (
        "as_string_infix", "as_string_prefix", "as_string_postfix",
        "infix_paren_left_as_right", "infix_drop_right_operand", "infix_paren_missing")),
    ("knapsack", "cases.knapsack.exhaustive", (
        "knapsack_exhaustive", "knapsack_exhaustive_skip_include")),
    ("knapsack", "cases.knapsack.greedy", (
        "knapsack_greedy", "knapsack_greedy_sorted_ascending",
        "knapsack_greedy_capacity_off_by_one")),
    ("montecarlo", "cases.montecarlo", (
        "pi_approximation", "pi_wrong_scale", "pi_boundary_strict", "pi_one_coordinate")),
)
RELATIONS = (
    ("sorting", "core.relation", ("reverse_relation",)),
    ("ast_printing", "core.relation", ("token_texts_match",)),
    ("knapsack", "core.relation", ("optimality_relation",)),
    ("montecarlo", "core.relation", ("error_from_pi",)),
)
PROGRAM_SPANS = frozenset(span for _, span, _ in PROGRAMS)

# Per-layer metric -> span name whose self time it totals.
SELF_TIMES = {
    "harness.self_s": "harness",
    "generators.generate_s": "generators.generate",
    "core.evaluate_self_s": "core.evaluate",
    "baselines_s": "baselines",
    "core.relation_s": "core.relation",
    "cases.sorting_s": "cases.sorting",
    "cases.ast_printing_s": "cases.ast_printing",
    "cases.knapsack.exhaustive_s": "cases.knapsack.exhaustive",
    "cases.knapsack.greedy_s": "cases.knapsack.greedy",
    "cases.montecarlo_s": "cases.montecarlo",
    "seeds.unit_block_s": "seeds.unit_block",
    "generators.shrink_s": "generators.shrink",
    "report.serialize_s": "report.serialize",
}


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        # span id -> (name, start_ns, end_ns, parent id); None while open
        self.spans: list[Any] = []
        self._open = [-1]
        self.counts: Counter = Counter()
        self.shrinking = False

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per outermost call; recursive calls
        through the wrapper run untraced inside the open span."""
        spans, open_ids, clock = self.spans, self._open, time.perf_counter_ns
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            span_id = len(spans)
            spans.append(None)
            parent = open_ids[-1]
            open_ids.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                spans[span_id] = (name, start, end, parent)
                active = False

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """(self nanoseconds, span count) per span name."""
        self_ns = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        totals: Counter = Counter()
        calls: Counter = Counter()
        for (name, _, _, _), own in zip(self.spans, self_ns):
            totals[name] += own
            calls[name] += 1
        return totals, calls

    def write(self, path) -> None:
        """One tab-separated line per span: id, parent id, name, start, end (ns)."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span_id, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{span_id}\t{parent}\t{name}\t{start}\t{end}\n")


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the case-study programs, relations and the unit-block draw.

    Must run before ``default_registry()`` builds the campaigns. Besides the
    module attributes, the mutant tables and the registry's relation
    constants hold direct references to these functions, so those are
    rebound to the wrappers too. Names a later version no longer has are
    skipped; their layer then reads zero.
    """
    import intramorph.registry as registry
    from intramorph.cases import ast_printing, knapsack, montecarlo, sorting
    from intramorph.core import IntramorphicRelation
    from intramorph.seeds import SeededSource

    modules = {"sorting": sorting, "ast_printing": ast_printing,
               "knapsack": knapsack, "montecarlo": montecarlo}
    wrapped: dict[Callable, Callable] = {}
    for module_name, span, names in PROGRAMS + RELATIONS:
        module = modules[module_name]
        for name in names:
            original = getattr(module, name, None)
            if original is not None:
                wrapped[original] = tracer.wrap(span, original)
                setattr(module, name, wrapped[original])
    for module in modules.values():
        for name, table in vars(module).items():
            if isinstance(table, dict) and not name.startswith("__"):
                for key, value in list(table.items()):
                    if callable(value) and value in wrapped:
                        table[key] = wrapped[value]
    for name, value in list(vars(registry).items()):
        if isinstance(value, IntramorphicRelation) and value.check in wrapped:
            setattr(registry, name, dataclasses.replace(value, check=wrapped[value.check]))

    counts = tracer.counts
    unit_block = tracer.wrap("seeds.unit_block", SeededSource.unit_block)
    init = SeededSource.__init__

    def counted_unit_block(self, count):
        counts["seeds.unit_block_samples"] += count
        return unit_block(self, count)

    def counted_init(self, seed):
        counts["seeds.derive_calls"] += 1
        init(self, seed)

    SeededSource.unit_block = counted_unit_block
    SeededSource.__init__ = counted_init


def instrument_campaign(tracer: Tracer, campaign):
    """Copy of ``campaign`` whose generator, evaluator and shrinker record
    spans, evaluation outcomes and shrink work."""
    counts = tracer.counts
    evaluate_span = "core.evaluate" if campaign.oracle_style == "intramorphic" else "baselines"

    def build_evaluator(mutant, repetitions, budget):
        evaluator = tracer.wrap(evaluate_span,
                                campaign.build_evaluator(mutant, repetitions, budget))

        def evaluate(case):
            outcome = evaluator(case)
            status = outcome.status.value
            if status == "execution-error":
                counts["core.execution_errors"] += 1
            if tracer.shrinking:
                counts["harness.shrink_evals"] += 1
                if status == "violated":
                    counts["harness.shrink_steps"] += 1
            return outcome

        return evaluate

    shrink = tracer.wrap("generators.shrink", campaign.shrink_payload)

    def shrink_payload(payload):
        tracer.shrinking = True
        candidates = shrink(payload)
        counts["generators.shrink_candidates"] += len(candidates)
        return candidates

    return dataclasses.replace(
        campaign, generate=tracer.wrap("generators.generate", campaign.generate),
        build_evaluator=build_evaluator, shrink_payload=shrink_payload)


def layer_metrics(tracer: Tracer, registry_build_s: float) -> dict:
    self_ns, calls = tracer.self_times()
    counts = tracer.counts
    metrics = {metric: self_ns[span] / 1e9 for metric, span in SELF_TIMES.items()}
    metrics["registry.build_s"] = registry_build_s
    metrics["core.evaluations"] = calls["core.evaluate"] + calls["baselines"]
    metrics["core.program_calls"] = sum(calls[span] for span in PROGRAM_SPANS)
    metrics["core.execution_errors"] = counts["core.execution_errors"]
    metrics["cases.knapsack.exhaustive_calls"] = calls["cases.knapsack.exhaustive"]
    for name in ("seeds.derive_calls", "seeds.unit_block_samples", "harness.shrink_evals",
                 "harness.shrink_steps", "generators.shrink_candidates"):
        metrics[name] = counts[name]
    evals = counts["harness.shrink_evals"]
    metrics["harness.shrink_useful_ratio"] = (
        counts["harness.shrink_steps"] / evals if evals else 0.0)
    metrics["trace.self_total_s"] = sum(self_ns.values()) / 1e9
    return metrics


def traced_pass(workload_name: str, seed: int) -> dict:
    from intramorph.harness import run_campaign
    from intramorph.registry import default_registry
    from workloads import WORKLOADS, RoundRunner, serialize_report

    workload = WORKLOADS[workload_name]
    tracer = Tracer()
    install_program_wrappers(tracer)
    started = time.perf_counter()
    registry = default_registry()
    registry_build_s = time.perf_counter() - started
    traced_registry = {name: instrument_campaign(tracer, campaign)
                       for name, campaign in registry.items()}
    harness = tracer.wrap("harness", run_campaign)

    def run(config, registry):
        tracer.shrinking = False
        return harness(config, registry=registry)

    serialize = tracer.wrap("report.serialize", serialize_report)

    def traced_rounds():
        runner = RoundRunner(workload, seed, traced_registry, run=run, serialize=serialize)
        wall_s = sum(sample.latency_s for round_index in range(workload.fixed_rounds)
                     for sample in runner.run_round(round_index))
        return runner, wall_s

    warm, _ = traced_rounds()   # unmeasured: warms the process up
    tracer.spans.clear()
    tracer.counts.clear()
    runner, wall_s = traced_rounds()
    tracer.write(ROOT / ".bench_trace" / f"{workload_name}.tsv")
    mismatches = warm.mismatches + runner.mismatches
    if warm.digest() != runner.digest():
        mismatches.append(f"workload={workload_name} seed={seed}: repeated traced reports "
                          f"differ ({warm.digest()} != {runner.digest()})")
    return {"wall_s": wall_s, "digest": runner.digest(), "mismatches": mismatches,
            "layers": layer_metrics(tracer, registry_build_s)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    use_checkout_source()
    print(json.dumps(traced_pass(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
