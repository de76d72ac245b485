"""Knapsack solvers cross-checked against an independent enumeration oracle
and against the plain (unmemoized) recursive search."""

import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.cases.knapsack import (BudgetExceededError, KnapsackInstance,
                                       KnapsackItem, KnapsackSolution, knapsack_exhaustive,
                                       knapsack_exhaustive_skip_include,
                                       knapsack_greedy,
                                       knapsack_greedy_capacity_off_by_one,
                                       knapsack_greedy_sorted_ascending,
                                       optimality_relation)
from intramorph.core import UnknownMutantError, generation_source
from intramorph.generators import random_knapsack_instance
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign
from intramorph.seeds import SeededSource


def make_instance(triples, capacity):
    """Instance from (name, value, weight) triples."""
    return KnapsackInstance(tuple(KnapsackItem(*t) for t in triples), capacity)

# the instance where greedy is provably suboptimal: density picks A first,
# leaving dead capacity, while two Bs fit exactly
AB_INSTANCE = make_instance([("A", 7, 4), ("B", 4, 3)], capacity=6)


def best_value_by_enumeration(instance):
    """Independent oracle: enumerate every multiset of item copies that fits."""
    best = 0
    items = instance.items
    if not items:
        return 0
    bounds = [range(instance.capacity // item.weight + 1) for item in items]
    for counts in itertools.product(*bounds):
        weight = sum(c * item.weight for c, item in zip(counts, items))
        if weight <= instance.capacity:
            value = sum(c * item.value for c, item in zip(counts, items))
            best = max(best, value)
    return best


def dp_reference(instance):
    """Independent oracle: the classic dynamic program, where best[c] is the
    max over fitting items of value + best[c - weight]."""
    best = [0] * (instance.capacity + 1)
    for cap in range(1, instance.capacity + 1):
        top = 0
        for _, value, weight in instance.items:
            if weight <= cap:
                candidate = value + best[cap - weight]
                if candidate > top:
                    top = candidate
        best[cap] = top
    return best[instance.capacity]


def plain_exhaustive(instance):
    """Reference search: the same include-or-move-past recursion without a
    memo, exponential in the capacity. Exclusion wins ties."""
    items = instance.items
    count = len(items)

    def explore(capacity, index, cum_value, cum_weight, packed):
        # packed is a cons chain (name, parent) to avoid per-branch copies
        if capacity <= 0 or index >= count:
            return cum_value, cum_weight, packed
        name, value, weight = items[index]
        fits = weight <= capacity
        if fits:
            included = explore(capacity - weight, index,
                               cum_value + value, cum_weight + weight, (name, packed))
        excluded = explore(capacity, index + 1, cum_value, cum_weight, packed)
        if fits and included[0] > excluded[0]:
            return included
        return excluded

    cum_value, cum_weight, chain = explore(instance.capacity, 0, 0, 0, None)
    names = []
    while chain is not None:
        names.append(chain[0])
        chain = chain[1]
    names.reverse()
    return KnapsackSolution(tuple(names), cum_value, cum_weight, instance.capacity)


def test_enumeration_oracle_on_ab_instance():
    # two copies of B (weight 6, value 8) beat one A (weight 4, value 7)
    assert best_value_by_enumeration(AB_INSTANCE) == 8


def test_greedy_on_ab_instance():
    solution = knapsack_greedy(AB_INSTANCE)
    assert solution.packed == ("A",)
    assert solution.cum_value == 7
    assert solution.cum_weight == 4
    assert solution.feasible


def test_exhaustive_on_ab_instance():
    solution = knapsack_exhaustive(AB_INSTANCE)
    assert solution.cum_value == 8
    assert sorted(solution.packed) == ["B", "B"]
    assert solution.feasible


def test_dp_on_ab_instance():
    assert dp_reference(AB_INSTANCE) == 8


def test_empty_and_zero_capacity_instances():
    empty = make_instance([], capacity=9)
    assert knapsack_greedy(empty).cum_value == 0
    assert knapsack_exhaustive(empty).cum_value == 0
    assert dp_reference(empty) == 0
    zero_cap = make_instance([("A", 5, 2)], capacity=0)
    assert knapsack_greedy(zero_cap).cum_value == 0
    assert knapsack_exhaustive(zero_cap).cum_value == 0


def test_single_item_unbounded_copies():
    instance = make_instance([("A", 5, 2)], capacity=7)
    solution = knapsack_exhaustive(instance)
    assert solution.cum_value == 15   # three copies
    assert solution.packed == ("A", "A", "A")
    assert dp_reference(instance) == 15


def test_greedy_tie_break_is_stable():
    # equal densities: the earlier item wins
    instance = make_instance([("A", 2, 1), ("B", 4, 2)], capacity=2)
    assert knapsack_greedy(instance).packed == ("A", "A")


small_items = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.integers(min_value=1, max_value=6)),
    min_size=0, max_size=3)


@given(small_items, st.integers(min_value=0, max_value=12))
@settings(max_examples=150)
def test_solvers_against_enumeration_oracle(value_weight_pairs, capacity):
    instance = make_instance(
        [(f"I{i}", v, w) for i, (v, w) in enumerate(value_weight_pairs)], capacity)
    oracle_best = best_value_by_enumeration(instance)
    exhaustive = knapsack_exhaustive(instance)
    greedy = knapsack_greedy(instance)
    assert exhaustive.cum_value == oracle_best
    assert exhaustive == plain_exhaustive(instance)
    assert dp_reference(instance) == oracle_best
    assert optimality_relation(exhaustive, greedy)
    assert exhaustive.feasible and greedy.feasible


seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(seeds)
@settings(max_examples=100)
def test_solution_sums_are_consistent(seed):
    instance = random_knapsack_instance(SeededSource(seed))
    by_name = {item.name: item for item in instance.items}
    for solution in (knapsack_greedy(instance), knapsack_exhaustive(instance)):
        assert solution.cum_value == sum(by_name[n].value for n in solution.packed)
        assert solution.cum_weight == sum(by_name[n].weight for n in solution.packed)
        assert solution.feasible


def test_memoized_search_matches_plain_recursion_on_generated_instances():
    # exact equality: same packed order and the same tie-break, not just value
    for seed in range(2000):
        instance = random_knapsack_instance(SeededSource(seed))
        assert knapsack_exhaustive(instance) == plain_exhaustive(instance), seed


def small_instances(count):
    """Every instance of ``count`` items with values and weights 1..5."""
    triples = [[(name, value, weight) for value in range(1, 6) for weight in range(1, 6)]
               for name in "ABC"[:count]]
    return itertools.product(*triples)


# of the 15,625 3-item instances, each capacity checks the same fixed sample
THREE_ITEM_SAMPLE = random.Random(13).sample(list(small_instances(3)), 150)


@pytest.mark.parametrize("capacity", range(13))
def test_table_search_matches_plain_recursion_on_every_small_instance(capacity):
    # ties, items heavier than the capacity and capacity 0 all occur here
    for triples in [*small_instances(1), *small_instances(2), *THREE_ITEM_SAMPLE]:
        instance = make_instance(triples, capacity)
        assert knapsack_exhaustive(instance) == plain_exhaustive(instance), triples


def test_table_search_does_not_recurse():
    # 850 copies of A: a search that recursed per copy would need 850 frames
    instance = make_instance([("A", 2, 1)], capacity=850)
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    sys.setrecursionlimit(depth + 50)
    try:
        solution = knapsack_exhaustive(instance)
    finally:
        sys.setrecursionlimit(limit)
    assert solution == KnapsackSolution(("A",) * 850, 1700, 850, 850)


def test_tie_break_prefers_exclusion():
    # A and B are worth the same per unit of capacity: moving past A wins the tie
    instance = make_instance([("A", 3, 1), ("B", 6, 2)], capacity=4)
    assert knapsack_exhaustive(instance).packed == ("B", "B")


# Iteration 25 of this campaign seed draws six weight-1 items at capacity 48,
# which the plain recursion cannot search within the 5 s execution budget.
HEAVY_CAMPAIGN_SEED = 13990579191218416818


def test_heavy_generated_instance_agrees_with_dp():
    instance = random_knapsack_instance(generation_source(HEAVY_CAMPAIGN_SEED, 25))
    assert instance.capacity == 48
    assert [item.weight for item in instance.items] == [1] * 6
    solution = knapsack_exhaustive(instance)
    assert solution.cum_value == dp_reference(instance)
    assert solution.feasible


def test_heavy_campaign_seed_runs_without_execution_errors():
    report = run_campaign(CampaignConfig("knapsack-optimality", seed=HEAVY_CAMPAIGN_SEED,
                                         iterations=30))
    assert report.iterations_run == 30
    assert report.execution_errors == 0
    assert report.violations == 0


def test_optimality_relation_reads():
    assert optimality_relation(knapsack_exhaustive(AB_INSTANCE),
                               knapsack_greedy(AB_INSTANCE)) is True
    # equal values satisfy the relation
    single = make_instance([("A", 5, 2)], capacity=4)
    assert optimality_relation(knapsack_exhaustive(single), knapsack_greedy(single))
    # an exhaustive value below greedy signals a broken replacement
    assert optimality_relation(knapsack_exhaustive_skip_include(AB_INSTANCE),
                               knapsack_greedy(AB_INSTANCE)) is False


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([("A", 5, 0)], capacity=3)
    with pytest.raises(ValueError):
        make_instance([("A", 5, 1), ("A", 2, 2)], capacity=3)
    with pytest.raises(ValueError):
        make_instance([("A", 5, 1)], capacity=-1)


def test_search_budget_guards_oversized_instances():
    wide = make_instance([(f"I{i}", 1, 1) for i in range(30)], capacity=100_000)
    with pytest.raises(BudgetExceededError, match=r"^search bound exceeds 1000000 nodes "
                                                  r"for 30 items at capacity 100000$"):
        knapsack_exhaustive(wide)
    deep = make_instance([("A", 1, 1)], capacity=5000)
    with pytest.raises(BudgetExceededError, match=r"^search size exceeds 900: up to 5000 "
                                                  r"copies in one packing plus 1 items$"):
        knapsack_exhaustive(deep)


# --- mutants -----------------------------------------------------------------

def test_skip_include_mutant_packs_nothing():
    solution = knapsack_exhaustive_skip_include(AB_INSTANCE)
    assert solution.cum_value == 0
    assert solution.packed == ()


def test_capacity_off_by_one_overpacks():
    instance = make_instance([("A", 1, 3)], capacity=5)
    solution = knapsack_greedy_capacity_off_by_one(instance)
    assert solution.cum_weight == 6
    assert not solution.feasible


def test_sorted_ascending_mutant_keeps_the_relation():
    # worst density first loses value but stays feasible, so the optimality
    # check cannot see it
    instance = make_instance([("A", 10, 1), ("B", 1, 1)], capacity=2)
    mutated = knapsack_greedy_sorted_ascending(instance)
    correct = knapsack_greedy(instance)
    assert mutated.cum_value == 2
    assert correct.cum_value == 20
    assert mutated.feasible
    assert optimality_relation(knapsack_exhaustive(instance), mutated)


def test_sorted_ascending_surfaces_as_strictness_shift():
    # fraction of instances where the exhaustive value is strictly better
    # must jump under the mutant; that statistic is its only signature
    strict_correct = 0
    strict_mutated = 0
    checked = 0
    for seed in range(300):
        instance = random_knapsack_instance(SeededSource(seed))
        best = knapsack_exhaustive(instance).cum_value
        strict_correct += best > knapsack_greedy(instance).cum_value
        strict_mutated += best > knapsack_greedy_sorted_ascending(instance).cum_value
        checked += 1
    assert checked == 300
    assert strict_mutated > strict_correct


def test_inject_knapsack_mutant_lookup():
    campaign = get_campaign("knapsack-optimality")
    assert campaign.mutant("exhaustive-skip-include").replaces == {
        "exhaustive": knapsack_exhaustive_skip_include}
    assert campaign.mutant("greedy-capacity-off-by-one").replaces == {
        "greedy": knapsack_greedy_capacity_off_by_one}
    with pytest.raises(UnknownMutantError):
        campaign.mutant("nope")
