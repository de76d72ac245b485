"""The default campaign registry: four case studies, eight runnable oracles.

Each campaign is one row of a declarative table: its default components,
an evaluator builder, a generator, renderers, a shrinker and the mutant
catalog. Every mutant is one record naming the components it replaces and
the buggy programs it puts in their place. Every row builds its run's
evaluator through this module's global ``guarded_evaluator``.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .baselines import (UnitCase, differential_oracle, metamorphic_removal_oracle,
                        sort_copy, unit_oracle)
from .campaign import Campaign, Mutant
from .cases import ast_printing, knapsack, montecarlo, sorting
from .core import (ApplicationMode, Automation, Granularity, IntramorphicRelation,
                   ProgramPair, TransformationDescriptor, UnknownCampaignError,
                   equivalence_relation, guarded_evaluator, picker_source)
from .generators import (random_array, random_knapsack_instance, random_tree,
                         shrink_array, shrink_knapsack, shrink_tree)

# operator.itemgetter(name) is the side that runs the named component as it is
Side = Callable[[Mapping[str, Callable]], Callable]

UNIT_CASE = UnitCase(values=(3, 1, 2), expected=(1, 2, 3))


def _added_alongside(granularity: Granularity) -> TransformationDescriptor:
    """A manual, complete transformation without false alarms whose variant
    runs beside the original."""
    return TransformationDescriptor(
        granularity=granularity, application_mode=ApplicationMode.ADDED_ALONGSIDE,
        automation=Automation.MANUAL, relation_complete=True, false_alarm_possible=False)


DEFAULT_BUDGETS = montecarlo.SampleBudgetPair()


def _pair_campaign(relation: IntramorphicRelation, original: Side, variant: Side,
                   **fields) -> Campaign:
    """A campaign that judges ``relation`` on a program pair; ``original``
    and ``variant`` turn the resolved programs into the pair's two programs,
    each called on the payload alone, or on the payload and a trial's source
    when the relation has a k. The relation's k is the campaign's default,
    and a run with another k judges a copy that has it."""
    def build_evaluator(programs, repetitions, budget):
        pair = ProgramPair(original(programs), variant(programs))
        judged = (relation if repetitions == relation.repetitions
                  else dataclasses.replace(relation, repetitions=repetitions))
        return guarded_evaluator(budget, pair=pair, relation=judged)

    return Campaign(build_evaluator=build_evaluator,
                    default_repetitions=relation.repetitions, **fields)


def _sorts(name: str) -> Side:
    """Side that runs the named component through the baselines' ``sort_copy``,
    the one rule for running a sort."""
    return lambda programs: functools.partial(sort_copy, programs[name])


def _prefix_and_postfix(programs):
    prefix, postfix = programs["prefix"], programs["postfix"]
    return lambda tree: (prefix(tree), postfix(tree))


def _distance_from_pi(name: str, sample_count: str) -> Side:
    """Side that runs the named estimator at the budget pair's
    ``sample_count`` and returns its estimate's distance from pi."""
    distance, count = montecarlo.error_from_pi, operator.attrgetter(sample_count)

    def side(programs):
        estimate = programs[name]
        return lambda budgets, src: distance(estimate(count(budgets), src))

    return side


def _unit_evaluator(programs, repetitions, budget):
    sort_fn = programs["ascending"]
    return guarded_evaluator(budget, lambda case: unit_oracle(sort_fn, case.payload))


def _differential_evaluator(programs, repetitions, budget):
    algorithms = {f"{name} sort": programs[name] for name in ("ascending", "merge", "insertion")}
    return guarded_evaluator(budget, lambda case: differential_oracle(algorithms, case.payload))


def _metamorphic_evaluator(programs, repetitions, budget):
    sort_fn = programs["ascending"]
    return guarded_evaluator(budget, lambda case: metamorphic_removal_oracle(
        sort_fn, case.payload, picker_source(case.provenance)))


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
        Campaign(
            name="sorting-unit", case_study="sorting", oracle_style="unit",
            build_evaluator=_unit_evaluator,
            components={"ascending": sorting.bubble_sort},
            generate=lambda src: UNIT_CASE,   # a unit test re-checks its fixed case
            render_payload=lambda case: (f"sort({list(case.values)}) "
                                         f"== {list(case.expected)}"),
            shrink_payload=lambda payload: [],
            mutants=(swap_index,)),
        Campaign(
            name="sorting-differential", oracle_style="differential",
            build_evaluator=_differential_evaluator,
            components={"ascending": sorting.bubble_sort, "merge": sorting.merge_sort,
                        "insertion": sorting.insertion_sort},
            mutants=(swap_index,), **array_fields),
        Campaign(
            name="sorting-metamorphic", oracle_style="metamorphic",
            build_evaluator=_metamorphic_evaluator, components={"ascending": sorting.bubble_sort},
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
            operator.itemgetter("infix"), _prefix_and_postfix,
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
        _pair_campaign(
            # a single trial can flip the comparison, so each side runs k times
            # and the relation judges their median distances
            IntramorphicRelation("more-samples-at-least-as-close", operator.ge, repetitions=5),
            _distance_from_pi("small", "n_small"), _distance_from_pi("large", "n_large"),
            name="montecarlo-convergence", case_study="montecarlo", oracle_style="intramorphic",
            # mutants replace the large-budget side only. With both sides mutated
            # (seeds 42, 7, 1234; 100 iterations each) wrong-scale is still caught at
            # iteration 1 and one-coordinate on none; boundary-strict is blind either way
            components={"small": montecarlo.pi_approximation,
                        "large": montecarlo.pi_approximation},
            generate=lambda src: DEFAULT_BUDGETS,   # entropy comes from provenance
            render_payload=lambda budgets: (f"n_small={budgets.n_small}, "
                                            f"n_large={budgets.n_large}"),
            shrink_payload=lambda payload: [],
            # the estimator gained a sample-count parameter, and single trials
            # can give false alarms
            descriptor=TransformationDescriptor(
                Granularity.PARAMETER_ADDED, ApplicationMode.IN_PLACE_MODIFIED, Automation.MANUAL,
                relation_complete=True, false_alarm_possible=True),
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
            operator.itemgetter("greedy"), operator.itemgetter("exhaustive"),
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


_REGISTRY: Optional[Mapping[str, Campaign]] = None


def default_registry() -> Mapping[str, Campaign]:
    """The campaigns by name, built once and read-only: every later run shares it."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MappingProxyType({campaign.name: campaign for campaign in _campaign_table()})
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
