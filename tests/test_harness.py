"""Campaign loop: replay, shrinking, stop/continue modes, the detection matrix."""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.cases import montecarlo, sorting
from intramorph.core import (ConfigurationError, InputCase, Provenance, RelationStatus,
                             UnknownCampaignError, UnknownMutantError,
                             generation_source)
from intramorph.harness import (CampaignConfig, run_campaign, run_detection_matrix)
from intramorph.registry import get_campaign


def test_clean_sorting_campaign_has_no_violations():
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                         iterations=1000))
    assert report.violations == 0
    assert report.iterations_run == 1000
    assert report.first_violation_iteration is None
    assert report.counterexample is None
    assert report.execution_errors == 0


def test_mutant_campaign_finds_and_shrinks_a_counterexample():
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                         iterations=1000, mutant="swap-index-i"))
    assert report.violations >= 1
    assert report.first_violation_iteration is not None
    # the swap-index bug needs at least three elements to fire
    assert len(report.counterexample.payload) <= 3


def test_single_iteration_report_shape():
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                         iterations=1))
    assert report.iterations_run == 1
    assert report.violations == 0


def test_stop_on_first_violation_is_default():
    report = run_campaign(CampaignConfig(campaign="sorting-unit", seed=1,
                                         iterations=50, mutant="swap-index-i"))
    assert report.violations == 1
    assert report.iterations_run == report.first_violation_iteration == 1


def test_continue_mode_counts_all_violations():
    report = run_campaign(CampaignConfig(campaign="sorting-unit", seed=1, iterations=50,
                                         mutant="swap-index-i",
                                         stop_on_first_violation=False))
    # the unit oracle re-checks its fixed case, so every iteration violates
    assert report.violations == 50
    assert report.iterations_run == 50
    assert report.first_violation_iteration == 1


def test_unknown_campaign_and_mutant_are_rejected():
    with pytest.raises(UnknownCampaignError):
        run_campaign(CampaignConfig(campaign="nonexistent", seed=1, iterations=1))
    with pytest.raises(UnknownMutantError):
        run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=1,
                                    iterations=1, mutant="nope"))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=1,
                                    iterations=0))
    with pytest.raises(ConfigurationError):
        run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=-1,
                                    iterations=1))
    # statistical repetitions only apply to stochastic campaigns
    with pytest.raises(ConfigurationError):
        run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=1,
                                    iterations=1, statistical_repetitions=3))
    with pytest.raises(ConfigurationError,
                       match="statistical repetitions must be a positive odd integer, got 4"):
        run_campaign(CampaignConfig(campaign="montecarlo-convergence", seed=1,
                                    iterations=1, statistical_repetitions=4))


def test_replay_reproduces_the_report():
    config = CampaignConfig(campaign="sorting-intramorphic", seed=99, iterations=500,
                            mutant="swap-index-i")
    first = run_campaign(config)
    second = run_campaign(config)
    assert (dataclasses.replace(first, wall_time_ms=0)
            == dataclasses.replace(second, wall_time_ms=0))


def test_generated_payloads_are_reproducible_from_provenance():
    campaign = get_campaign("sorting-differential")
    for iteration in (1, 5, 77):
        once = campaign.generate(generation_source(31337, iteration))
        again = campaign.generate(generation_source(31337, iteration))
        assert once == again


def test_shrunk_counterexample_still_violates_and_is_minimal():
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=7,
                                         iterations=1000, mutant="swap-index-i"))
    campaign = get_campaign("sorting-intramorphic")
    evaluator = campaign.build_evaluator("swap-index-i", None, 5.0)
    provenance = Provenance(7, report.first_violation_iteration)
    shrunk = InputCase(report.counterexample.payload, provenance)
    assert evaluator(shrunk).status is RelationStatus.VIOLATED
    for candidate_payload in campaign.shrink_payload(report.counterexample.payload):
        candidate = InputCase(candidate_payload, provenance)
        assert evaluator(candidate).status is not RelationStatus.VIOLATED


def test_statistical_default_repetitions_recorded():
    report = run_campaign(CampaignConfig(campaign="montecarlo-convergence", seed=42,
                                         iterations=2))
    assert report.statistical_repetitions == 5
    deterministic = run_campaign(CampaignConfig(campaign="sorting-unit", seed=42,
                                                iterations=1))
    assert deterministic.statistical_repetitions is None


def test_statistical_repetitions_override():
    report = run_campaign(CampaignConfig(campaign="montecarlo-convergence", seed=42,
                                         iterations=2, statistical_repetitions=1))
    assert report.statistical_repetitions == 1


# --- detection matrix -----------------------------------------------------------

def test_matrix_sorting_oracles_all_detect_the_swap_bug():
    matrix = run_detection_matrix(
        ["sorting-unit", "sorting-differential", "sorting-metamorphic",
         "sorting-intramorphic"],
        seed=42, iterations=200, mutants=["swap-index-i"])
    mutant_cells = [cell for cell in matrix.cells if cell.mutant == "swap-index-i"]
    assert len(mutant_cells) == 4
    assert all(cell.detected for cell in mutant_cells)
    control_cells = [cell for cell in matrix.cells if cell.mutant is None]
    assert len(control_cells) == 4
    assert not any(cell.detected for cell in control_cells)


def test_matrix_with_no_mutants_keeps_only_controls():
    matrix = run_detection_matrix(["sorting-intramorphic"], seed=42, iterations=10,
                                  mutants=[])
    assert [cell.mutant for cell in matrix.cells] == [None]


def test_matrix_rejects_unknown_campaign():
    with pytest.raises(UnknownCampaignError):
        run_detection_matrix(["nope"], seed=1, iterations=1)


def test_matrix_cells_follow_catalog_order():
    matrix = run_detection_matrix(["sorting-intramorphic"], seed=42, iterations=50)
    assert [cell.mutant for cell in matrix.cells] == [
        None, "swap-index-i", "comparison-flip-reverse", "sort-ascending-in-reverse"]


def test_outside_matrix_mutants_contribute_no_cell():
    matrix = run_detection_matrix(["knapsack-optimality"], seed=42, iterations=30)
    assert "greedy-sort-ascending" not in [cell.mutant for cell in matrix.cells]
    # it stays runnable as a campaign mutant even though it has no cell
    report = run_campaign(CampaignConfig(campaign="knapsack-optimality", seed=42,
                                         iterations=200, mutant="greedy-sort-ascending"))
    assert report.violations == 0


# One campaign per oracle style, with the module program its default
# components read when an evaluator is built.
ONE_CAMPAIGN_PER_STYLE = (
    ("sorting-unit", sorting, "bubble_sort"),
    ("sorting-differential", sorting, "bubble_sort"),
    ("sorting-metamorphic", sorting, "bubble_sort"),
    ("sorting-intramorphic", sorting, "bubble_sort"),
    ("montecarlo-convergence", montecarlo, "pi_approximation"),
)


def raising(*args):
    raise RuntimeError("patched program failed")


def returning_none(*args):
    return None


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ONE_CAMPAIGN_PER_STYLE), st.sampled_from([raising, returning_none]),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_failing_program_is_a_counted_execution_error_in_every_style(target, broken, seed):
    name, module, program = target
    iterations = 3
    with mock.patch.object(module, program, broken):
        campaign = get_campaign(name)
        evaluate = campaign.build_evaluator(None, None, 5.0)
        cases = [InputCase(campaign.generate(generation_source(seed, iteration)),
                           Provenance(seed, iteration))
                 for iteration in range(1, iterations + 1)]
        outcomes = [evaluate(case) for case in cases]
        report = run_campaign(CampaignConfig(campaign=name, seed=seed, iterations=iterations))
    for case, outcome in zip(cases, outcomes):
        if name == "sorting-metamorphic" and not case.payload:
            # removal is undefined on an empty array, which holds vacuously
            assert outcome.status is RelationStatus.HOLDS
        else:
            assert outcome.status is RelationStatus.EXECUTION_ERROR
            assert outcome.error_detail
    assert report.iterations_run == iterations
    assert report.violations == 0
    assert report.execution_errors == sum(
        outcome.status is RelationStatus.EXECUTION_ERROR for outcome in outcomes)
