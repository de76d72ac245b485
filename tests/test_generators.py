"""Generator determinism, range discipline, and shrink well-foundedness."""

import dataclasses
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph import generators
from intramorph.cases.ast_printing import Constant, Operation, Variable
from intramorph.cases.knapsack import KnapsackInstance, KnapsackItem
from intramorph.core import Provenance
from intramorph.generators import (random_array, random_knapsack_instance, random_tree,
                                   shrink_array, shrink_knapsack, shrink_tree)
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign
from intramorph.seeds import PREMIXED_DRAWS, SeededSource

seeds = st.integers(min_value=0, max_value=2**64 - 1)


# size measures each shrinker must strictly decrease
def array_measure(payload):
    return len(payload), sum(abs(v) for v in payload)


def tree_measure(payload):
    if isinstance(payload, Operation):
        return 1 + tree_measure(payload.left) + tree_measure(payload.right)
    return 1


def knapsack_measure(payload):
    return len(payload.items), payload.capacity


# --- arrays -----------------------------------------------------------------

def test_array_golden_seed_42():
    assert random_array(SeededSource(42)) == (1,)


@given(seeds)
def test_array_determinism(seed):
    assert random_array(SeededSource(seed)) == random_array(SeededSource(seed))


@given(seeds)
def test_array_within_config_bounds(seed):
    values = random_array(SeededSource(seed))
    assert len(values) <= generators.ARRAY_MAX_LENGTH
    assert all(generators.ARRAY_VALUE_MIN <= v <= generators.ARRAY_VALUE_MAX for v in values)


def test_array_coverage_smoke():
    # over many draws both extremes of the length range must occur,
    # and trees over the same budget must use both operators
    lengths = set()
    operators = set()

    def collect(node):
        if isinstance(node, Operation):
            operators.add(node.operator)
            collect(node.left)
            collect(node.right)

    for i in range(10_000):
        lengths.add(len(random_array(SeededSource(i))))
        collect(random_tree(SeededSource(i)))
    assert 0 in lengths and generators.ARRAY_MAX_LENGTH in lengths
    assert operators == {"+", "*"}


# --- trees ------------------------------------------------------------------

def test_tree_golden_seed_42():
    assert random_tree(SeededSource(42)) == Constant(8)


def _depth(node):
    if isinstance(node, Operation):
        return 1 + max(_depth(node.left), _depth(node.right))
    return 0


def _operators(node):
    if isinstance(node, Operation):
        return {node.operator} | _operators(node.left) | _operators(node.right)
    return set()


def _leaves(node):
    if isinstance(node, Operation):
        return _leaves(node.left) + _leaves(node.right)
    return [node]


@given(seeds)
def test_tree_respects_depth_and_operator_set(seed):
    tree = random_tree(SeededSource(seed))
    assert _depth(tree) <= generators.TREE_MAX_DEPTH
    assert _operators(tree) <= {"+", "*"}
    for leaf in _leaves(tree):
        if isinstance(leaf, Variable):
            assert leaf.name in generators.TREE_VARIABLES
        else:
            assert isinstance(leaf, Constant)
            assert generators.TREE_CONSTANT_MIN <= leaf.value <= generators.TREE_CONSTANT_MAX


@given(seeds)
def test_tree_determinism(seed):
    assert random_tree(SeededSource(seed)) == random_tree(SeededSource(seed))


# --- knapsack instances -------------------------------------------------------

def test_knapsack_golden_seed_42():
    instance = random_knapsack_instance(SeededSource(42))
    assert instance == KnapsackInstance(
        items=(KnapsackItem("A", 12, 9), KnapsackItem("B", 5, 1),
               KnapsackItem("C", 3, 6), KnapsackItem("D", 9, 6),
               KnapsackItem("E", 15, 8)),
        capacity=47)


@given(seeds)
def test_knapsack_instance_within_bounds(seed):
    instance = random_knapsack_instance(SeededSource(seed))
    assert len(instance.items) <= generators.KNAPSACK_MAX_ITEMS
    names = [item.name for item in instance.items]
    assert len(set(names)) == len(names)
    for item in instance.items:
        assert generators.KNAPSACK_VALUE_MIN <= item.value <= generators.KNAPSACK_VALUE_MAX
        assert generators.KNAPSACK_WEIGHT_MIN <= item.weight <= generators.KNAPSACK_WEIGHT_MAX
        assert item.weight >= 1
    assert (generators.KNAPSACK_CAPACITY_MIN <= instance.capacity
            <= generators.KNAPSACK_CAPACITY_MAX)


@given(seeds)
def test_knapsack_determinism(seed):
    assert (random_knapsack_instance(SeededSource(seed))
            == random_knapsack_instance(SeededSource(seed)))


# --- draws per input ------------------------------------------------------------

class CountingSource:
    """Answers every draw with ``answer(bound)`` and counts the draws."""

    def __init__(self, answer):
        self.answer = answer
        self.draws = 0

    def below(self, bound):
        self.draws += 1
        return self.answer(bound)

    def choice(self, items):
        return items[self.below(len(items))]


def draws_taken(generate, answer):
    source = CountingSource(answer)
    generate(source)
    return source.draws


def test_no_generator_reads_past_the_premixed_prefix():
    # 0 takes every branch down to TREE_MAX_DEPTH; bound - 1 gives the longest
    # array and the most knapsack items
    full_tree = draws_taken(random_tree, lambda bound: 0)
    assert full_tree == 2 * (2 ** (generators.TREE_MAX_DEPTH + 1) - 1)
    longest = {"array": draws_taken(random_array, lambda bound: bound - 1),
               "tree": full_tree,
               "knapsack": draws_taken(random_knapsack_instance, lambda bound: bound - 1)}
    for name, count in longest.items():
        assert count <= PREMIXED_DRAWS, (
            f"the longest {name} input takes {count} draws, more than "
            f"seeds.PREMIXED_DRAWS = {PREMIXED_DRAWS}: every draw of a generated input "
            "must come from a block's premixed prefix")


# --- shrinking ----------------------------------------------------------------

def test_shrink_empty_array_is_minimal():
    assert shrink_array(()) == []


def test_shrink_array_includes_deletion_lattice():
    candidates = shrink_array((3, 1, 2))
    assert (1, 2) in candidates
    assert (3, 2) in candidates
    assert (3, 1) in candidates


def test_shrink_tree_offers_direct_subtrees():
    tree = Operation("+", Operation("*", Variable("a"), Constant(1)), Constant(2))
    candidates = shrink_tree(tree)
    assert tree.left in candidates
    assert tree.right in candidates


def test_shrink_knapsack_drops_single_items():
    instance = KnapsackInstance((KnapsackItem("A", 2, 1), KnapsackItem("B", 3, 2)), 10)
    candidates = shrink_knapsack(instance)
    assert KnapsackInstance((KnapsackItem("B", 3, 2),), 10) in candidates
    assert KnapsackInstance((KnapsackItem("A", 2, 1),), 10) in candidates


def quadratic_shrink_array(payload):
    """Reference: the same candidates in the same order, deduplicated by
    scanning every candidate built so far."""
    candidates = []
    for index in range(len(payload)):
        candidates.append(payload[:index] + payload[index + 1:])
    for index, value in enumerate(payload):
        if value == 0:
            continue
        step_down = value - 1 if value > 0 else value + 1
        for replacement in (0, value // 2, step_down):
            if abs(replacement) >= abs(value):
                continue
            candidate = payload[:index] + (replacement,) + payload[index + 1:]
            if candidate not in candidates:
                candidates.append(candidate)
    return candidates


def test_shrink_array_matches_the_quadratic_reference():
    short = [payload for length in range(5)
             for payload in itertools.product(range(-3, 10), repeat=length)]
    rng = random.Random(20020201)
    long = [tuple(rng.randint(-5, 20) for _ in range(rng.randint(5, 8)))
            for _ in range(20_000)]
    for payload in short + long:
        assert shrink_array(payload) == quadratic_shrink_array(payload), payload


def scanning_shrink_knapsack(payload):
    """Reference: the same candidates in the same order, deduplicated by
    scanning every candidate built so far."""
    candidates = []
    for index in range(len(payload.items)):
        candidates.append(KnapsackInstance(
            payload.items[:index] + payload.items[index + 1:], payload.capacity))
    if payload.capacity > 0:
        for smaller in (0, payload.capacity // 2, payload.capacity - 1):
            if smaller < payload.capacity:
                candidate = KnapsackInstance(payload.items, smaller)
                if candidate not in candidates:
                    candidates.append(candidate)
    return candidates


def test_shrink_knapsack_matches_the_scanning_reference():
    # at capacities 1 to 4 the three cuts collide in every way they can
    for seed in range(500):
        generated = random_knapsack_instance(SeededSource(seed))
        for payload in [generated, *(dataclasses.replace(generated, capacity=capacity)
                                     for capacity in range(5))]:
            assert shrink_knapsack(payload) == scanning_shrink_knapsack(payload), payload


def per_cut_shrink_array(payload):
    """Reference: the shrinker's earlier body, which slices the payload again
    for every cut and computes each position's cuts afresh."""
    candidates = []
    for index in range(len(payload)):
        candidates.append(payload[:index] + payload[index + 1:])
    for index, value in enumerate(payload):
        if value == 0:
            continue
        step_down = value - 1 if value > 0 else value + 1
        for replacement in dict.fromkeys((0, value // 2, step_down)):
            if abs(replacement) >= abs(value):
                continue
            candidates.append(payload[:index] + (replacement,) + payload[index + 1:])
    return candidates


def validating_shrink_knapsack(payload):
    """Reference: the shrinker's earlier body, which builds every candidate
    through the validating constructor."""
    candidates = []
    for index in range(len(payload.items)):
        candidates.append(KnapsackInstance(
            payload.items[:index] + payload.items[index + 1:], payload.capacity))
    if payload.capacity > 0:
        for smaller in dict.fromkeys((0, payload.capacity // 2, payload.capacity - 1)):
            candidates.append(KnapsackInstance(payload.items, smaller))
    return candidates


arrays = st.lists(st.integers(min_value=-30, max_value=30), max_size=10).map(tuple)
knapsack_instances = st.builds(
    lambda rows, capacity: KnapsackInstance(tuple(KnapsackItem(*row) for row in rows), capacity),
    st.lists(st.tuples(st.text(min_size=1, max_size=2), st.integers(min_value=1, max_value=30),
                       st.integers(min_value=1, max_value=12)),
             max_size=7, unique_by=lambda row: row[0]),
    st.integers(min_value=0, max_value=100))


def same_candidates(candidates, reference):
    return (candidates == reference
            and [type(candidate) for candidate in candidates]
            == [type(candidate) for candidate in reference])


@given(arrays)
def test_shrink_array_matches_its_per_cut_reference(payload):
    candidates = shrink_array(payload)
    assert same_candidates(candidates, per_cut_shrink_array(payload))
    assert all(type(value) is int for candidate in candidates for value in candidate)


@given(knapsack_instances)
def test_shrink_knapsack_matches_its_validating_reference(payload):
    assert same_candidates(shrink_knapsack(payload), validating_shrink_knapsack(payload))


@given(knapsack_instances)
def test_every_knapsack_shrink_candidate_passes_validation(payload):
    for candidate in shrink_knapsack(payload):
        KnapsackInstance(candidate.items, candidate.capacity)   # raises if invalid


@given(seeds)
def test_shrink_array_measure_strictly_decreases(seed):
    payload = random_array(SeededSource(seed))
    for candidate in shrink_array(payload):
        assert array_measure(candidate) < array_measure(payload)


@given(seeds)
def test_shrink_tree_measure_strictly_decreases(seed):
    payload = random_tree(SeededSource(seed))
    for candidate in shrink_tree(payload):
        assert tree_measure(candidate) < tree_measure(payload)


@given(seeds)
def test_shrink_knapsack_measure_strictly_decreases(seed):
    payload = random_knapsack_instance(SeededSource(seed))
    for candidate in shrink_knapsack(payload):
        assert knapsack_measure(candidate) < knapsack_measure(payload)


@given(seeds)
@settings(max_examples=50)
def test_shrink_chains_terminate(seed):
    # walking first candidates must bottom out (strictly decreasing measure)
    payload = random_array(SeededSource(seed))
    steps = 0
    while True:
        candidates = shrink_array(payload)
        if not candidates:
            break
        payload = candidates[0]
        steps += 1
        assert steps < 1000


def test_shrink_preserves_provenance():
    # every candidate the harness evaluates while shrinking keeps the
    # violating input's provenance, so embedded randomness stays fixed
    campaign = get_campaign("sorting-metamorphic")
    seen = []

    def build_evaluator(*args):
        evaluate = campaign.build_evaluator(*args)

        def recording(case):
            seen.append(case.provenance)
            return evaluate(case)

        return recording

    recorded = dataclasses.replace(campaign, build_evaluator=build_evaluator)
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=9, iterations=100,
                                         mutant="swap-index-i"),
                          registry={campaign.name: recorded})
    violating = Provenance(9, report.first_violation_iteration)
    shrink_evaluations = seen[report.first_violation_iteration:]
    assert shrink_evaluations
    assert all(provenance == violating for provenance in shrink_evaluations)
