"""Pi estimator, the convergence relation, and the estimator bug catalog."""

import dataclasses
import math
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.cases.montecarlo import (SampleBudgetPair, error_from_pi, pi_approximation,
                                         pi_boundary_strict, pi_one_coordinate,
                                         pi_wrong_scale)
import intramorph.core as core
import intramorph.registry as registry
from intramorph.core import (DEFAULT_BUDGET_SECONDS, ConfigurationError, InputCase,
                             Provenance, RelationOutcome, RelationStatus, UnknownMutantError,
                             generation_source)
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign
from intramorph.seeds import UNIT_BLOCK_CHUNK, SeededSource, derive_seed

seeds = st.integers(min_value=0, max_value=2**64 - 1)


def convergence_evaluator(repetitions, mutant=None, **components):
    """The campaign's evaluator at k = ``repetitions``, with ``components``
    in place of its estimators of the same names."""
    campaign = get_campaign("montecarlo-convergence")
    campaign = dataclasses.replace(campaign, components={**campaign.components, **components})
    return campaign.build_evaluator(campaign.programs(mutant), repetitions,
                                    DEFAULT_BUDGET_SECONDS)


def convergence_relation(budgets, source, repetitions):
    """One median-of-k convergence check, with entropy drawn from ``source``."""
    case = InputCase(budgets, Provenance(seed=source.next_u64(), iteration=0))
    return convergence_evaluator(repetitions)(case)


class ZeroSource:
    """Every draw is 0.0, so every sample lands at the origin (inside)."""

    def unit_block(self, count):
        return np.zeros(count)


def test_all_hits_give_four():
    for n in (1, 10, 1000, UNIT_BLOCK_CHUNK + 1):
        assert pi_approximation(n, ZeroSource()) == 4.0


def test_single_sample_is_zero_or_four():
    for seed in range(50):
        assert pi_approximation(1, SeededSource(seed)) in (0.0, 4.0)


def test_rejects_nonpositive_sample_count():
    with pytest.raises(ValueError):
        pi_approximation(0, SeededSource(1))


@given(seeds, st.integers(min_value=1, max_value=500))
@settings(max_examples=50)
def test_estimate_is_exactly_four_hits_over_n(seed, n):
    estimate = pi_approximation(n, SeededSource(seed))
    assert 0.0 <= estimate <= 4.0
    hits = round(estimate * n / 4)
    assert 0 <= hits <= n
    assert estimate == 4 * hits / n


def test_large_sample_estimate_close_to_pi():
    # standard error at n=100k is about 0.0052; 0.02 is roughly 4 sigma
    estimate = pi_approximation(100_000, SeededSource(42))
    assert abs(estimate - math.pi) < 0.02


def test_million_sample_estimate_close_to_pi():
    # standard error at n=1e6 is about 0.0016; 0.01 is roughly 6 sigma
    estimate = pi_approximation(1_000_000, SeededSource(42))
    assert abs(estimate - math.pi) < 0.01


def test_estimator_is_deterministic():
    assert (pi_approximation(10_000, SeededSource(7))
            == pi_approximation(10_000, SeededSource(7)))


# --- chunked draws against the whole-block reference -------------------------

def reference_draw_points(n, source):
    """The points as one ``unit_block(2 * n)`` block: the layout the chunked
    estimators must reproduce."""
    block = source.unit_block(2 * n)
    return block[0::2], block[1::2]


def reference_pi_approximation(n, source):
    x, y = reference_draw_points(n, source)
    return 4 * int(np.count_nonzero(x * x + y * y <= 1.0)) / n


def reference_pi_wrong_scale(n, source):
    x, y = reference_draw_points(n, source)
    return 2 * int(np.count_nonzero(x * x + y * y <= 1.0)) / n


def reference_pi_boundary_strict(n, source):
    x, y = reference_draw_points(n, source)
    return 4 * int(np.count_nonzero(x * x + y * y < 1.0)) / n


def reference_pi_one_coordinate(n, source):
    x, _ = reference_draw_points(n, source)
    return 4 * int(np.count_nonzero(x * x <= 1.0)) / n


POINTS_PER_CHUNK = UNIT_BLOCK_CHUNK // 2


@pytest.mark.parametrize("estimator, reference", [
    (pi_approximation, reference_pi_approximation),
    (pi_wrong_scale, reference_pi_wrong_scale),
    (pi_boundary_strict, reference_pi_boundary_strict),
    (pi_one_coordinate, reference_pi_one_coordinate),
])
def test_chunked_estimator_matches_the_whole_block_reference(estimator, reference):
    p = POINTS_PER_CHUNK
    for n in (1, 2, 10, p - 1, p, p + 1, 2 * p + 3, 100_000, 100_001):
        for seed in range(20):
            chunked, whole = SeededSource(seed), SeededSource(seed)
            estimate, expected = estimator(n, chunked), reference(n, whole)
            assert estimate.hex() == expected.hex(), (n, seed)
            # the estimator drew exactly 2 * n values from the stream
            assert chunked.next_u64() == whole.next_u64(), (n, seed)


# --- mutants -----------------------------------------------------------------

def test_wrong_scale_converges_to_half_pi():
    estimate = pi_wrong_scale(100_000, SeededSource(42))
    assert abs(estimate - math.pi / 2) < 0.01


def test_one_coordinate_pegs_at_four():
    assert pi_one_coordinate(1000, SeededSource(3)) == 4.0


def test_boundary_strict_indistinguishable_at_scale():
    # the boundary set has probability zero up to float granularity
    assert (pi_boundary_strict(100_000, SeededSource(42))
            == pi_approximation(100_000, SeededSource(42)))


def test_inject_montecarlo_mutant_lookup():
    campaign = get_campaign("montecarlo-convergence")
    # mutants replace the large-budget side only
    assert campaign.mutant("wrong-scale").replaces == {"large": pi_wrong_scale}
    with pytest.raises(UnknownMutantError):
        campaign.mutant("nope")


# --- budgets and the relation ---------------------------------------------------

def test_budget_pair_validation():
    with pytest.raises(ConfigurationError):
        SampleBudgetPair(n_small=100, n_large=100)
    with pytest.raises(ConfigurationError):
        SampleBudgetPair(n_small=0)


def test_relation_check_is_reflexive_on_equal_outputs():
    # both sides estimate 3.2, so their distances from pi are equal
    evaluate = convergence_evaluator(5, small=lambda n, src: 3.2, large=lambda n, src: 3.2)
    outcome = evaluate(InputCase(SampleBudgetPair(), Provenance(1, 1)))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == error_from_pi(3.2)


def test_estimator_sides_return_their_distance_from_pi():
    budgets = SampleBudgetPair(n_small=10, n_large=1000)
    provenance = Provenance(3, 1)
    # at k=1 the medians are the single trials' outputs; wrong-scale's
    # distance (about pi/2) exceeds the small side's, so both are reported
    outcome = convergence_evaluator(1, "wrong-scale")(InputCase(budgets, provenance))
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.original_output == error_from_pi(
        pi_approximation(10, SeededSource(derive_seed(*provenance, core._SALT_ORIGINAL, 0))))
    assert outcome.variant_output == error_from_pi(
        pi_wrong_scale(1000, SeededSource(derive_seed(*provenance, core._SALT_VARIANT, 0))))


def test_estimator_that_returns_no_number_fails_its_labelled_trial():
    evaluate = convergence_evaluator(3, small=lambda n, src: None)
    outcome = evaluate(InputCase(SampleBudgetPair(), Provenance(1, 1)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail.startswith("original trial 0: TypeError: ")


def test_convergence_relation_holds_over_small_run():
    budgets = SampleBudgetPair(n_small=10, n_large=20_000)
    source = SeededSource(42)
    for _ in range(10):
        assert convergence_relation(budgets, source, 5).status is RelationStatus.HOLDS


def test_convergence_outcome_carries_median_errors():
    budgets = SampleBudgetPair(n_small=10, n_large=20_000)
    outcome = convergence_relation(budgets, SeededSource(5), 3)
    assert outcome.original_output >= 0.0
    # a holding outcome stops its variant trials early and carries no median
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.variant_output is None


# --- early-stopping median-of-k against the all-trials reference -------------

def run_trial(label, program, case, salt, trial):
    """``program`` on its trial's source, with a failure labelled ``label``."""
    source = SeededSource(derive_seed(case.provenance.seed, case.provenance.iteration, salt,
                                      trial))
    try:
        return program(case.payload, source)
    except core.EXECUTION_FAILURES as exc:
        raise core.ProgramFailed(label) from exc


def all_trials_statistical(pair, relation, case):
    """Reference for the median-of-k evaluation: every trial of both sides
    runs, interleaved, and the verdict checks the two full medians."""
    original_outputs = []
    variant_outputs = []
    for trial in range(relation.repetitions):
        original_outputs.append(run_trial(f"original trial {trial}", pair.original, case,
                                          core._SALT_ORIGINAL, trial))
        variant_outputs.append(run_trial(f"variant trial {trial}", pair.variant, case,
                                         core._SALT_VARIANT, trial))

    original_median = statistics.median(original_outputs)
    variant_median = statistics.median(variant_outputs)
    return RelationOutcome.from_check(relation.check(original_median, variant_median),
                                      original_median, variant_median)


@pytest.mark.parametrize("repetitions", [1, 3, 7])
@pytest.mark.parametrize("mutant", [None, "wrong-scale", "boundary-strict", "one-coordinate"])
def test_early_stop_matches_the_all_trials_reference(mutant, repetitions):
    campaign = get_campaign("montecarlo-convergence")
    programs = campaign.programs(mutant)
    evaluator = campaign.build_evaluator(programs, repetitions, None)

    def all_trials_evaluator(budget, *, pair, relation):
        return core.guarded_evaluator(
            budget, lambda case: all_trials_statistical(pair, relation, case))

    with mock.patch.object(registry, "guarded_evaluator", all_trials_evaluator):
        reference = campaign.build_evaluator(programs, repetitions, None)
    seed = 2024
    for iteration in range(1, 31):
        case = InputCase(campaign.generate(generation_source(seed, iteration)),
                         Provenance(seed, iteration))
        outcome = evaluator(case)
        expected = reference(case)
        assert outcome.status is expected.status, iteration
        assert outcome.original_output == expected.original_output, iteration
        if outcome.status is RelationStatus.VIOLATED:
            assert outcome.variant_output == expected.variant_output, iteration


# --- campaign-level detection ------------------------------------------------

@pytest.mark.parametrize("mutant", ["wrong-scale", "one-coordinate"])
def test_mutant_violates_in_at_least_95_of_100_iterations(mutant):
    # stochastic detection bar: >= 95/100 violating iterations at the pinned seed
    report = run_campaign(CampaignConfig(
        campaign="montecarlo-convergence", seed=42, iterations=100, mutant=mutant,
        stop_on_first_violation=False))
    assert report.violations >= 95


def test_boundary_strict_campaign_never_violates():
    report = run_campaign(CampaignConfig(
        campaign="montecarlo-convergence", seed=42, iterations=100,
        mutant="boundary-strict", stop_on_first_violation=False))
    assert report.violations == 0
