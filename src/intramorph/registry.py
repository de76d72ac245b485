"""The default campaign registry: four case studies, eight runnable oracles.

Each campaign is one row of a declarative table: its default components,
an oracle over the resolved components, a generator, renderers, a shrinker
and the mutant catalog. Every mutant is one record naming the components it
replaces and the buggy programs it puts in their place, so every campaign
shares one evaluator builder, which guards every evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional

from .baselines import (UnitCase, differential_oracle, metamorphic_removal_oracle,
                        unit_oracle)
from .campaign import Campaign, Evaluator, Mutant
from .cases import ast_printing, knapsack, montecarlo, sorting
from .core import (ApplicationMode, Automation, Granularity, IntramorphicRelation,
                   ProgramPair, RelationOutcome, TransformationDescriptor,
                   UnknownCampaignError, equivalence_relation, guarded_evaluation,
                   pair_evaluation, picker_source)
from .generators import (random_array, random_knapsack_instance, random_tree,
                         shrink_array, shrink_knapsack, shrink_tree)

# oracle(programs, statistical_repetitions) -> unguarded evaluation body
Oracle = Callable[[Mapping[str, Callable], Optional[int]], Evaluator]
Side = Callable[[Mapping[str, Callable]], Callable]

UNIT_CASE = UnitCase(values=(3, 1, 2), expected=(1, 2, 3))


def _added_alongside(granularity: Granularity) -> TransformationDescriptor:
    """A manual, complete transformation without false alarms whose variant
    runs beside the original."""
    return TransformationDescriptor(
        granularity=granularity, application_mode=ApplicationMode.ADDED_ALONGSIDE,
        automation=Automation.MANUAL, relation_complete=True, false_alarm_possible=False)


DEFAULT_BUDGETS = montecarlo.SampleBudgetPair()


def _campaign(oracle: Oracle, **fields) -> Campaign:
    """One table row as a Campaign. Its evaluator builder, the same for every
    campaign, guards every evaluation of the body the row's oracle returns
    for the programs the harness resolved."""
    def build_evaluator(programs, repetitions, budget):
        body = oracle(programs, repetitions)
        return lambda case: guarded_evaluation(body, case, budget)

    return Campaign(build_evaluator=build_evaluator, **fields)


def _pair_campaign(relation: IntramorphicRelation, original: Side, variant: Side,
                   descriptor: TransformationDescriptor, **fields) -> Campaign:
    """A campaign whose oracle judges ``relation`` on a program pair under
    ``descriptor``; ``original`` and ``variant`` turn the resolved programs
    into the two (payload, source) programs."""
    def oracle(programs, repetitions):
        pair = ProgramPair(original(programs), variant(programs), descriptor)
        return pair_evaluation(pair, relation)

    return _campaign(oracle, descriptor=descriptor, **fields)


def _sorts(name: str) -> Side:
    """Side that sorts a private copy of the payload with the named component."""
    def side(programs):
        sort = programs[name]
        return lambda payload, src: sort(list(payload))

    return side


def _applies(name: str) -> Side:
    """Side that applies the named component to the payload."""
    def side(programs):
        program = programs[name]
        return lambda payload, src: program(payload)

    return side


def _prefix_and_postfix(programs):
    prefix, postfix = programs["prefix"], programs["postfix"]
    return lambda tree, src: (prefix(tree), postfix(tree))


def _unit_oracle(programs, repetitions):
    sort_fn = programs["ascending"]
    return lambda case: unit_oracle(sort_fn, case.payload)


def _differential_oracle(programs, repetitions):
    algorithms = {f"{name} sort": programs[name] for name in ("ascending", "merge", "insertion")}
    return lambda case: differential_oracle(algorithms, case.payload)


def _metamorphic_oracle(programs, repetitions):
    sort_fn = programs["ascending"]

    def evaluate(case):
        if len(case.payload) == 0:
            # removal is undefined on empty input; vacuously holds
            return RelationOutcome.from_check(True, [], [])
        return metamorphic_removal_oracle(sort_fn, case.payload,
                                          picker_source(case.provenance))

    return evaluate


def _convergence_oracle(programs, repetitions):
    return pair_evaluation(montecarlo.make_estimator_pair(programs["small"], programs["large"]),
                           montecarlo.make_convergence_relation(repetitions))


def _render_array(payload) -> str:
    return str(list(payload))


def _knapsack_check(greedy_solution, exhaustive_solution) -> bool:
    # feasibility is folded in so capacity overruns surface as violations
    return (greedy_solution.feasible and exhaustive_solution.feasible
            and knapsack.optimality_relation(exhaustive_solution, greedy_solution))


def _campaign_table() -> tuple[Campaign, ...]:
    """The eight campaigns. Their default components and mutant programs are
    read from the case-study modules when the registry is built, never when
    this module is imported."""
    swap_index = Mutant("swap-index-i",
                        "ascending sort's swap reads the outer index i instead of j",
                        {"ascending": sorting.bubble_sort_swap_index})
    array_fields = dict(case_study="sorting",
                        generate=random_array,
                        render_payload=_render_array, shrink_payload=shrink_array)
    return (
        _campaign(
            _unit_oracle, name="sorting-unit", case_study="sorting", oracle_style="unit",
            components={"ascending": sorting.bubble_sort},
            generate=lambda src: UNIT_CASE,   # a unit test re-checks its fixed case
            render_payload=lambda case: (f"sort({list(case.values)}) "
                                         f"== {list(case.expected)}"),
            shrink_payload=lambda payload: [],
            mutants=(swap_index,)),
        _campaign(
            _differential_oracle, name="sorting-differential", oracle_style="differential",
            components={"ascending": sorting.bubble_sort, "merge": sorting.merge_sort,
                        "insertion": sorting.insertion_sort},
            mutants=(swap_index,), **array_fields),
        _campaign(
            _metamorphic_oracle, name="sorting-metamorphic", oracle_style="metamorphic",
            components={"ascending": sorting.bubble_sort},
            mutants=(swap_index,), **array_fields),
        _pair_campaign(
            IntramorphicRelation("reverse-order", sorting.reverse_relation),
            _sorts("ascending"), _sorts("descending"),
            name="sorting-intramorphic", oracle_style="intramorphic",
            components={"ascending": sorting.bubble_sort,
                        "descending": sorting.bubble_sort_reverse},
            # cases.derive builds the descending twin from the ascending sort
            # by flipping its comparison
            descriptor=dataclasses.replace(_added_alongside(Granularity.OPERATOR),
                                           automation=Automation.MECHANICAL),
            mutants=(
                swap_index,
                # derive makes the swap-index edit in both sorts, and also flips
                # the descending one's comparison, so BOTH sides are buggy
                Mutant("comparison-flip-reverse",
                       "descending twin inherits the swap-index bug (both sides buggy)",
                       {"ascending": sorting.bubble_sort_swap_index,
                        "descending": sorting.bubble_sort_reverse_swap_index}),
                Mutant("sort-ascending-in-reverse",
                       "descending twin forgot to flip the comparison",
                       {"descending": sorting.bubble_sort}),
            ), **array_fields),
        _pair_campaign(
            equivalence_relation(), _sorts("ascending"), _sorts("merge"),
            name="sorting-equivalence", oracle_style="intramorphic",
            components={"ascending": sorting.bubble_sort, "merge": sorting.merge_sort},
            descriptor=_added_alongside(Granularity.ALGORITHM_REPLACED),
            mutants=(swap_index,), **array_fields),
        _pair_campaign(
            IntramorphicRelation("token-multiset", lambda infix_text, pp: (
                ast_printing.token_texts_match(infix_text, pp[0], pp[1]))),
            _applies("infix"), _prefix_and_postfix,
            name="ast-token-multiset", case_study="ast", oracle_style="intramorphic",
            components={"infix": ast_printing.as_string_infix,
                        "prefix": ast_printing.as_string_prefix,
                        "postfix": ast_printing.as_string_postfix},
            generate=random_tree,
            render_payload=ast_printing.render_tree, shrink_payload=shrink_tree,
            descriptor=_added_alongside(Granularity.FUNCTION_ADDED),
            mutants=(
                Mutant("paren-left-as-right",
                       "right operand's parentheses wrap the left operand's text",
                       {"infix": ast_printing.infix_paren_left_as_right}),
                Mutant("drop-right-operand", "infix omits the right operand",
                       {"infix": ast_printing.infix_drop_right_operand}),
                Mutant("paren-missing", "parentheses never added",
                       {"infix": ast_printing.infix_paren_missing},
                       expected_detected=False,
                       note="blind spot: the relation strips parentheses before comparing"),
            )),
        _campaign(
            _convergence_oracle, name="montecarlo-convergence", case_study="montecarlo",
            oracle_style="intramorphic",
            # mutants replace the large-budget side only: mutating both sides
            # would shift both error distributions together and mask the bug
            components={"small": montecarlo.pi_approximation,
                        "large": montecarlo.pi_approximation},
            generate=lambda src: DEFAULT_BUDGETS,   # entropy comes from provenance
            render_payload=lambda budgets: (f"n_small={budgets.n_small}, "
                                            f"n_large={budgets.n_large}"),
            shrink_payload=lambda payload: [],
            descriptor=montecarlo.MONTECARLO_DESCRIPTOR,
            default_repetitions=montecarlo.DEFAULT_REPETITIONS,
            mutants=(
                Mutant("wrong-scale", "estimator returns 2*hits/n and converges to pi/2",
                       {"large": montecarlo.pi_wrong_scale}),
                Mutant("boundary-strict", "circle test uses < instead of <=",
                       {"large": montecarlo.pi_boundary_strict},
                       expected_detected=False,
                       note="blind spot: the boundary has probability zero"),
                Mutant("one-coordinate", "only x is tested, estimate pegs at 4",
                       {"large": montecarlo.pi_one_coordinate}),
            )),
        _pair_campaign(
            IntramorphicRelation("replacement-at-least-as-good", _knapsack_check),
            _applies("greedy"), _applies("exhaustive"),
            name="knapsack-optimality", case_study="knapsack", oracle_style="intramorphic",
            components={"greedy": knapsack.knapsack_greedy,
                        "exhaustive": knapsack.knapsack_exhaustive},
            generate=random_knapsack_instance,
            render_payload=knapsack.render_instance, shrink_payload=shrink_knapsack,
            render_output=knapsack.render_solution,
            descriptor=_added_alongside(Granularity.ALGORITHM_REPLACED),
            mutants=(
                Mutant("exhaustive-skip-include",
                       "exhaustive search never takes the include branch, packs nothing",
                       {"exhaustive": knapsack.knapsack_exhaustive_skip_include}),
                Mutant("greedy-capacity-off-by-one",
                       "greedy fill admits one weight unit beyond the capacity",
                       {"greedy": knapsack.knapsack_greedy_capacity_off_by_one}),
                Mutant("greedy-sort-ascending",
                       "greedy considers the worst value density first",
                       {"greedy": knapsack.knapsack_greedy_sorted_ascending},
                       expected_detected=False, in_matrix=False,
                       note="per-input relation still holds (greedy only loses value); "
                            "surfaces only as a higher strictly-better rate"),
            )),
    )


_REGISTRY: Optional[dict[str, Campaign]] = None


def default_registry() -> dict[str, Campaign]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = {campaign.name: campaign for campaign in _campaign_table()}
    return _REGISTRY


def all_campaigns() -> tuple[Campaign, ...]:
    return tuple(default_registry().values())


def get_campaign(name: str, registry: Optional[Mapping[str, Campaign]] = None) -> Campaign:
    """The named campaign of ``registry``, by default the default registry."""
    if registry is None:
        registry = default_registry()
    if name not in registry:
        raise UnknownCampaignError(
            f"unknown campaign {name!r}; known: {sorted(registry)}")
    return registry[name]
