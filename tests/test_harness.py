"""Campaign loop: replay, shrinking, stop/continue modes, the detection matrix."""

import dataclasses
import math
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intramorph.campaign import Mutant
from intramorph.cases import sorting
from intramorph.core import (DEFAULT_BUDGET_SECONDS, ConfigurationError, InputCase,
                             Provenance, RelationStatus, UnknownCampaignError,
                             UnknownMutantError, generation_source)
from intramorph.harness import (CampaignConfig, Counterexample, run_campaign,
                                run_detection_matrix)
from intramorph.registry import default_registry, get_campaign


def replacing(name, **programs):
    """A copy of the named campaign that runs ``programs`` in place of its
    components of the same names."""
    campaign = get_campaign(name)
    return dataclasses.replace(campaign, components={**campaign.components, **programs})


def test_campaign_copy_runs_its_own_components_and_mutants():
    campaign = get_campaign("sorting-equivalence")
    calls = []

    def spy(arr):
        calls.append(list(arr))
        return sorting.merge_sort(arr)

    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=5),
                          registry={campaign.name: replacing(campaign.name, merge=spy)})
    assert (report.iterations_run, report.violations, report.execution_errors) == (5, 0, 0)
    assert len(calls) == 5

    descending = Mutant("merge-descending", "merge sort returns the reverse order",
                        {"merge": lambda arr: sorted(arr, reverse=True)})
    with_mutant = dataclasses.replace(campaign, mutants=campaign.mutants + (descending,))
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=100,
                                         mutant=descending.name),
                          registry={campaign.name: with_mutant})
    assert report.violations == 1
    shrunk = report.counterexample
    assert shrunk.variant_output == sorted(shrunk.payload, reverse=True) != shrunk.original_output


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


@pytest.mark.parametrize("repetitions", [3.0, True])
def test_non_integer_repetitions_are_rejected_before_any_iteration(repetitions):
    calls = []

    def recording(n, source):
        calls.append(n)
        return 3.0

    campaign = replacing("montecarlo-convergence", small=recording, large=recording)
    with pytest.raises(ConfigurationError, match=f"positive odd integer, got {repetitions}$"):
        run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=3,
                                    statistical_repetitions=repetitions),
                     registry={campaign.name: campaign})
    assert calls == []


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True),
                                          ("iterations", 3.0), ("iterations", True)])
def test_non_integer_seed_and_iterations_are_rejected_before_any_iteration(field, value):
    # a float used to crash the run with a raw TypeError; True ran as 1
    calls = []
    fields = {"seed": 1, "iterations": 2, field: value}
    campaign = replacing("sorting-unit", ascending=lambda arr: calls.append(arr) or arr)
    with pytest.raises(ConfigurationError, match=f"^{field} must be .*, got {value}$"):
        run_campaign(CampaignConfig(campaign=campaign.name, **fields),
                     registry={campaign.name: campaign})
    assert calls == []


@pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf, True, "5"])
def test_budget_must_be_positive_and_finite(budget):
    calls = []
    campaign = replacing("sorting-unit", ascending=lambda arr: calls.append(arr) or arr)
    with pytest.raises(ConfigurationError, match=f"got {budget!r}$"):
        run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=2,
                                    budget_seconds=budget),
                     registry={campaign.name: campaign})
    assert calls == []   # rejected before any evaluation ran


def test_no_budget_still_runs():
    report = run_campaign(CampaignConfig(campaign="sorting-unit", seed=1, iterations=2,
                                         budget_seconds=None))
    assert (report.iterations_run, report.execution_errors) == (2, 0)


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
    evaluator = campaign.build_evaluator(campaign.programs("swap-index-i"), None, 5.0)
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


# One campaign per oracle style, with the components a broken program
# replaces and the label the first failing call's detail carries.
ONE_CAMPAIGN_PER_STYLE = (
    ("sorting-unit", ("ascending",), "sort"),
    ("sorting-differential", ("ascending",), "ascending sort"),
    ("sorting-metamorphic", ("ascending",), "sort of the full input"),
    ("sorting-intramorphic", ("ascending",), "original"),
    ("montecarlo-convergence", ("small", "large"), "original trial 0"),
)


def raising(*args):
    raise RuntimeError("patched program failed")


def returning_none(*args):
    return None


def sleeping_past_the_budget(*args):
    time.sleep(1)
    return None


def exiting(*args):
    sys.exit(3)


# each broken program with the budget it runs under: the sleeper's is short,
# so every evaluation of it is an overrun on the main thread
BROKEN_PROGRAMS = ((raising, 5.0), (returning_none, 5.0), (sleeping_past_the_budget, 0.05),
                   (exiting, 5.0))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ONE_CAMPAIGN_PER_STYLE), st.sampled_from(BROKEN_PROGRAMS),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_failing_program_is_a_counted_execution_error_in_every_style(target, broken_program,
                                                                    seed):
    name, components, label = target
    broken, budget = broken_program
    iterations = 3
    campaign = replacing(name, **dict.fromkeys(components, broken))
    evaluate = campaign.build_evaluator(campaign.programs(None), campaign.default_repetitions,
                                        budget)
    cases = [InputCase(campaign.generate(generation_source(seed, iteration)),
                       Provenance(seed, iteration))
             for iteration in range(1, iterations + 1)]
    outcomes = [evaluate(case) for case in cases]
    report = run_campaign(CampaignConfig(campaign=name, seed=seed, iterations=iterations,
                                         budget_seconds=budget),
                          registry={name: campaign})
    for case, outcome in zip(cases, outcomes):
        if name == "sorting-metamorphic" and not case.payload:
            # removal is undefined on an empty array, which holds vacuously
            assert outcome.status is RelationStatus.HOLDS
        else:
            assert outcome.status is RelationStatus.EXECUTION_ERROR
            assert outcome.error_detail
            if broken is not returning_none:   # the failure is raised inside the call
                assert outcome.error_detail.startswith(f"{label}: ")
            if broken is sleeping_past_the_budget:
                assert outcome.error_detail.endswith(f"budget of {budget}s exceeded")
            if broken is exiting:
                assert outcome.error_detail.endswith("SystemExit: 3")
    assert report.iterations_run == iterations
    assert report.violations == 0
    assert report.execution_errors == sum(
        outcome.status is RelationStatus.EXECUTION_ERROR for outcome in outcomes)


def test_keyboard_interrupt_in_a_program_stops_the_run():
    def interrupted(*args):
        raise KeyboardInterrupt

    campaign = replacing("sorting-intramorphic", ascending=interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=3),
                     registry={campaign.name: campaign})
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- the budget's alarm handler is a per-run resource --------------------------

def counting_signal_calls(monkeypatch):
    """Record every ``signal.signal`` / ``signal.getsignal`` call from now on."""
    calls = []
    real_signal, real_getsignal = signal.signal, signal.getsignal
    monkeypatch.setattr(signal, "signal",
                        lambda *args: calls.append(("signal", args)) or real_signal(*args))
    monkeypatch.setattr(signal, "getsignal",
                        lambda *args: calls.append(("getsignal", args)) or real_getsignal(*args))
    return calls


@pytest.mark.parametrize("mutant, iterations", [
    ("swap-index-i", 1000),   # detected at iteration 1, then shrinks
    (None, 50),
    (None, 500),
])
def test_one_handler_install_and_restore_per_run(mutant, iterations, monkeypatch):
    before = signal.getsignal(signal.SIGALRM)
    calls = counting_signal_calls(monkeypatch)
    report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                         iterations=iterations, mutant=mutant))
    assert (report.counterexample is not None) == (mutant is not None)
    assert [name for name, _ in calls] == ["signal", "signal"]
    (_, (_, installed)), (_, (_, restored)) = calls
    assert installed is not before and restored is before
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("iterations", [30, 300])
def test_alarm_timer_is_set_twice_per_run_whatever_its_length(iterations, monkeypatch):
    # armed by the first evaluation, whose 5 s alarm no later one outlasts,
    # and disarmed when the run ends
    calls = []
    real_setitimer = signal.setitimer
    monkeypatch.setattr(signal, "setitimer",
                        lambda *args: calls.append(args) or real_setitimer(*args))
    report = run_campaign(CampaignConfig(campaign="sorting-equivalence", seed=1,
                                         iterations=iterations))
    assert (report.iterations_run, report.violations) == (iterations, 0)
    assert calls == [(signal.ITIMER_REAL, DEFAULT_BUDGET_SECONDS), (signal.ITIMER_REAL, 0.0)]


def test_run_stops_a_late_overrun_after_alarms_fired_mid_run():
    # 100 iterations of about 2 ms each under a 0.05 s budget: alarms due for
    # earlier evaluations fire during later ones, which must still hold
    descending = sorting.bubble_sort_reverse
    calls = []

    def slow_descending(arr):
        calls.append(arr)
        time.sleep(5 if len(calls) == 80 else 0.002)
        return descending(arr)

    campaign = replacing("sorting-intramorphic", descending=slow_descending)
    started = time.monotonic()
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=100,
                                         budget_seconds=0.05),
                          registry={campaign.name: campaign})
    assert time.monotonic() - started < 2.0
    assert (report.iterations_run, report.violations, report.execution_errors) == (100, 0, 1)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_handler_is_restored_when_generate_raises():
    def previous(signum, frame):
        pass

    def failing_generate(src):
        generated.append(src)
        if len(generated) == 3:
            raise RuntimeError("generator failed")
        return campaign.generate(src)

    campaign = get_campaign("sorting-intramorphic")
    generated = []
    registry = {campaign.name: dataclasses.replace(campaign, generate=failing_generate)}
    original = signal.signal(signal.SIGALRM, previous)
    try:
        with pytest.raises(RuntimeError, match="generator failed"):
            run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=10),
                         registry=registry)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, original)


def recording(campaign, evaluations):
    """The campaign with every case its evaluators see, and the outcome they
    return, appended to ``evaluations`` as a ``(case, outcome)`` pair."""
    def build_evaluator(*args):
        evaluate = campaign.build_evaluator(*args)
        return lambda case: evaluations.append((case, evaluate(case))) or evaluations[-1][1]

    return dataclasses.replace(campaign, build_evaluator=build_evaluator)


def test_shrink_candidate_that_overruns_is_an_error_within_the_budget():
    config = CampaignConfig(campaign="sorting-intramorphic", seed=42, iterations=1000,
                            mutant="swap-index-i", budget_seconds=0.05)
    first = run_campaign(config).first_violation_iteration
    descending = sorting.bubble_sort_reverse
    calls = []

    def slow_on_first_shrink_candidate(arr):
        calls.append(arr)
        if len(calls) == first + 1:   # every later call evaluates a shrink candidate
            time.sleep(1)
        return descending(arr)

    evaluations = []
    campaign = replacing(config.campaign, descending=slow_on_first_shrink_candidate)
    started = time.monotonic()
    report = run_campaign(config, registry={campaign.name: recording(campaign, evaluations)})
    assert time.monotonic() - started < 0.8
    outcomes = [outcome for _, outcome in evaluations]
    errors = [outcome for outcome in outcomes if outcome.status is RelationStatus.EXECUTION_ERROR]
    assert [outcome.error_detail for outcome in errors] == [
        "variant: execution budget of 0.05s exceeded"]
    assert outcomes.index(errors[0]) == first
    assert report.first_violation_iteration == first
    assert report.counterexample is not None


@pytest.mark.parametrize("mutant", [None, "swap-index-i"])
def test_stray_alarm_between_evaluations_leaves_the_report_unchanged(mutant):
    campaign = get_campaign("sorting-intramorphic")

    def alarming_generate(src):
        signal.raise_signal(signal.SIGALRM)
        return campaign.generate(src)

    config = CampaignConfig(campaign=campaign.name, seed=42, iterations=200, mutant=mutant)
    expected = run_campaign(config)
    report = run_campaign(config, registry={
        campaign.name: dataclasses.replace(campaign, generate=alarming_generate)})
    assert (dataclasses.replace(report, wall_time_ms=0)
            == dataclasses.replace(expected, wall_time_ms=0))


def test_run_off_the_main_thread_is_still_bounded(monkeypatch):
    calls = counting_signal_calls(monkeypatch)
    campaign = replacing("sorting-unit", ascending=lambda arr: time.sleep(0.3) or arr)
    box = {}

    def run():
        started = time.monotonic()
        box["report"] = run_campaign(CampaignConfig(campaign=campaign.name, seed=1,
                                                    iterations=1, budget_seconds=0.05),
                                     registry={campaign.name: campaign})
        box["elapsed"] = time.monotonic() - started

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(5)
    assert not runner.is_alive()
    assert box["report"].execution_errors == 1
    assert box["elapsed"] < 0.25
    assert calls == []   # no handler is touched off the main thread


# --- shrinking evaluates each distinct candidate once ----------------------------

# every expected-detected mutant of the deterministic campaigns: the cells of
# the benchmark's detect workload
DETECT_CELLS = tuple((campaign.name, mutant.name)
                     for campaign in default_registry().values() if not campaign.stochastic
                     for mutant in campaign.matrix_mutants() if mutant.expected_detected)
SHRINK_SEEDS = (0, 1, 7, 42, 2**64 - 1)


def reference_shrink(campaign, evaluate, case, outcome):
    """Greedy first-improvement shrink without a memo: every candidate the
    shrinker offers is evaluated, however often it was offered before."""
    improved = True
    while improved:
        improved = False
        for payload in campaign.shrink_payload(case.payload):
            candidate = InputCase(payload, case.provenance)
            candidate_outcome = evaluate(candidate)
            if candidate_outcome.status is RelationStatus.VIOLATED:
                case, outcome = candidate, candidate_outcome
                improved = True
                break
    return case, outcome


def shrink_evaluations(campaign, mutant, seed):
    """The report of one stopping run of ``campaign`` and the cases it
    evaluated while shrinking, in order."""
    evaluations = []
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=seed, iterations=1000,
                                         mutant=mutant),
                          registry={campaign.name: recording(campaign, evaluations)})
    # one evaluation per iteration up to the first violation, then the shrink
    return report, [case for case, _ in evaluations[report.first_violation_iteration:]]


@pytest.mark.parametrize("campaign_name, mutant", DETECT_CELLS)
def test_shrink_evaluates_no_payload_twice(campaign_name, mutant):
    campaign = get_campaign(campaign_name)
    for seed in SHRINK_SEEDS:
        report, cases = shrink_evaluations(campaign, mutant, seed)
        assert report.counterexample is not None
        payloads = [case.payload for case in cases]
        assert len(set(payloads)) == len(payloads), seed


@pytest.mark.parametrize("campaign_name, mutant", DETECT_CELLS)
def test_shrink_finds_the_memo_free_counterexample(campaign_name, mutant):
    campaign = get_campaign(campaign_name)
    for seed in SHRINK_SEEDS:
        report = run_campaign(CampaignConfig(campaign=campaign_name, seed=seed,
                                             iterations=1000, mutant=mutant))
        first = report.first_violation_iteration
        evaluate = campaign.build_evaluator(campaign.programs(mutant), None,
                                            DEFAULT_BUDGET_SECONDS)
        violating = InputCase(campaign.generate(generation_source(seed, first)),
                              Provenance(seed, first))
        outcome = evaluate(violating)
        assert outcome.status is RelationStatus.VIOLATED
        shrunk, shrunk_outcome = reference_shrink(campaign, evaluate, violating, outcome)
        assert report.counterexample == Counterexample(
            shrunk.payload, shrunk_outcome.original_output, shrunk_outcome.variant_output), seed


def test_unhashable_payloads_still_shrink():
    campaign = get_campaign("sorting-intramorphic")
    as_lists = dataclasses.replace(
        campaign, generate=lambda src: list(campaign.generate(src)),
        shrink_payload=lambda payload: [list(c) for c in campaign.shrink_payload(tuple(payload))])
    expected, _ = shrink_evaluations(campaign, "swap-index-i", 7)
    report, cases = shrink_evaluations(as_lists, "swap-index-i", 7)
    assert report.counterexample.payload == list(expected.counterexample.payload)
    assert report.counterexample.original_output == expected.counterexample.original_output
    assert report.counterexample.variant_output == expected.counterexample.variant_output
    # a list cannot be remembered, so a list offered again is evaluated again
    payloads = [tuple(case.payload) for case in cases]
    assert len(set(payloads)) < len(payloads)
