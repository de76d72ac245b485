"""Campaign loop: replay, shrinking, stop/continue modes, the detection matrix."""

import _signal
import contextlib
import dataclasses
import math
import signal
import statistics
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intramorph.campaign import Mutant
from intramorph.cases import montecarlo, sorting
import intramorph.core as core
import intramorph.registry as registry
from intramorph.core import (DEFAULT_BUDGET_SECONDS, ConfigurationError, InputCase,
                             Provenance, RelationOutcome, RelationStatus,
                             UnknownCampaignError, UnknownMutantError, generation_source)
from intramorph.harness import (CampaignConfig, Counterexample, run_campaign,
                                run_detection_matrix)
from intramorph.registry import default_registry, get_campaign
from intramorph.report import campaign_report_csv, campaign_report_document, to_json
from intramorph.seeds import SeededSource, derive_seed
from test_core import REJECTED_BUDGETS, on_and_off_the_main_thread


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


@pytest.mark.parametrize("budget", REJECTED_BUDGETS)
@on_and_off_the_main_thread
def test_budget_must_be_positive_and_finite(budget, run_on):
    calls = []
    campaign = replacing("sorting-unit", ascending=lambda arr: calls.append(arr) or arr)
    with pytest.raises(ConfigurationError, match=f"got {budget!r}$"):
        run_on(lambda: run_campaign(CampaignConfig(campaign=campaign.name, seed=1,
                                                   iterations=2, budget_seconds=budget),
                                    registry={campaign.name: campaign}))
    assert calls == []   # rejected before any evaluation ran
    assert core._deadline is None


# one campaign of each oracle style, the stochastic pair campaign included
EVALUATOR_STYLES = ("sorting-unit", "sorting-differential", "sorting-metamorphic",
                    "sorting-intramorphic", "montecarlo-convergence")


@pytest.mark.parametrize("name", EVALUATOR_STYLES)
def test_an_evaluator_built_with_a_rejected_budget_raises_and_leaves_no_alarm(name):
    # build_evaluator is the guarded path's own entry, so it checks the
    # budget whether or not run_campaign called it
    def previous(signum, frame):
        pass

    campaign = get_campaign(name)
    programs = campaign.programs(None)
    original = signal.signal(signal.SIGALRM, previous)
    try:
        for budget in REJECTED_BUDGETS:
            with pytest.raises(ConfigurationError, match=f"got {budget!r}$"):
                campaign.build_evaluator(programs, campaign.default_repetitions, budget)
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is previous
            assert core._deadline is None
    finally:
        signal.signal(signal.SIGALRM, original)


@on_and_off_the_main_thread
def test_largest_accepted_budget_still_runs(run_on):
    largest = math.nextafter(threading.TIMEOUT_MAX, 0)
    report = run_on(lambda: run_campaign(CampaignConfig(
        campaign="sorting-intramorphic", seed=1, iterations=20, budget_seconds=largest)))
    assert (report.iterations_run, report.violations, report.execution_errors) == (20, 0, 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert core._deadline is None


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


@pytest.mark.parametrize("name", [campaign.name for campaign in default_registry().values()])
def test_a_copy_without_a_block_form_gives_the_same_report(name):
    # the copy generates every iteration from its own source, the original
    # each block past the first iterations from its block form
    campaign = get_campaign(name)
    config = CampaignConfig(campaign=name, seed=2718, iterations=600)
    scalar = run_campaign(config, registry={name: dataclasses.replace(campaign,
                                                                      generate_block=None)})
    assert (dataclasses.replace(run_campaign(config), wall_time_ms=0)
            == dataclasses.replace(scalar, wall_time_ms=0))
    assert scalar.iterations_run == 600


@pytest.mark.parametrize("name", [campaign.name for campaign in default_registry().values()])
@pytest.mark.parametrize("seed", [0, 2718])
def test_each_campaigns_block_form_generates_its_scalar_payloads(name, seed):
    # 600 iterations cover the scalar ones, every block size up to the
    # largest and a last partial block; a report alone could not show a
    # payload that differs but still holds
    campaign = get_campaign(name)
    blocks = list(core.generated_payloads(campaign.generate, campaign.generate_block, seed, 600))
    scalar = list(core.generated_payloads(campaign.generate, None, seed, 600))
    # equal reprs too: an int that numpy left as a numpy integer would compare equal
    assert repr(blocks) == repr(scalar)
    assert blocks == scalar


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


@pytest.mark.parametrize("repetitions, trials", [(3, 3), (None, 5)])
def test_run_k_sets_the_trials_of_each_side(repetitions, trials):
    # every original trial runs the small estimator once; the large one stops
    # as soon as a majority of its trials hold
    calls = []

    def recording(side):
        def estimate(n, src):
            calls.append(side)
            return montecarlo.pi_approximation(n, src)
        return estimate

    campaign = replacing("montecarlo-convergence", small=recording("small"),
                         large=recording("large"))
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=42, iterations=4,
                                         statistical_repetitions=repetitions),
                          registry={campaign.name: campaign})
    assert (report.iterations_run, report.violations) == (4, 0)
    assert report.statistical_repetitions == trials
    assert calls.count("small") == 4 * trials
    assert 4 * (trials + 1) // 2 <= calls.count("large") <= 4 * trials


# --- detection matrix -----------------------------------------------------------

def matrix_registry(names, mutants=None):
    """Registry copies of the named campaigns, each keeping only the named
    mutants (all by default), in catalog order."""
    registry = {}
    for name in names:
        campaign = get_campaign(name)
        if mutants is not None:
            campaign = dataclasses.replace(campaign, mutants=tuple(
                mutant for mutant in campaign.mutants if mutant.name in mutants))
        registry[name] = campaign
    return registry


def test_matrix_sorting_oracles_all_detect_the_swap_bug():
    matrix = run_detection_matrix(
        seed=42, iterations=200,
        registry=matrix_registry(["sorting-unit", "sorting-differential",
                                  "sorting-metamorphic", "sorting-intramorphic"],
                                 mutants=["swap-index-i"]))
    mutant_cells = [cell for cell in matrix.cells if cell.mutant == "swap-index-i"]
    assert len(mutant_cells) == 4
    assert all(cell.detected for cell in mutant_cells)
    control_cells = [cell for cell in matrix.cells if cell.mutant is None]
    assert len(control_cells) == 4
    assert not any(cell.detected for cell in control_cells)


def test_matrix_with_no_mutants_keeps_only_controls():
    matrix = run_detection_matrix(
        seed=42, iterations=10, registry=matrix_registry(["sorting-intramorphic"], mutants=[]))
    assert [cell.mutant for cell in matrix.cells] == [None]


def test_matrix_cells_follow_catalog_order():
    matrix = run_detection_matrix(seed=42, iterations=50,
                                  registry=matrix_registry(["sorting-intramorphic"]))
    assert [cell.mutant for cell in matrix.cells] == [
        None, "swap-index-i", "comparison-flip-reverse", "sort-ascending-in-reverse"]


def test_outside_matrix_mutants_contribute_no_cell():
    matrix = run_detection_matrix(seed=42, iterations=30,
                                  registry=matrix_registry(["knapsack-optimality"]))
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


def recursing(*args):
    return recursing(*args)


def correct_answer(*args):
    """What a correct component returns: a sort's sorted copy, or for an
    estimator's (sample count, source) the exact value of pi."""
    return sorted(args[0]) if len(args) == 1 else math.pi


def swallowing_the_alarm(*args):
    """Sleeps 0.012 s, past its 0.01 s budget, catching the budget's own
    exception, and then answers correctly."""
    until = time.monotonic() + 0.012
    while time.monotonic() < until:
        try:
            time.sleep(max(0.0, until - time.monotonic()))
        except BaseException:   # the budget's own exception included
            pass
    return correct_answer(*args)


def ignoring_the_alarm(*args):
    """Sleeps past its budget with SIGALRM ignored, then restores the
    disposition, so later examples keep their budget, and answers correctly."""
    previous = signal.signal(signal.SIGALRM, signal.SIG_IGN)
    try:
        time.sleep(0.012)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return correct_answer(*args)


class Unrenderable(list):
    def __repr__(self):
        raise RuntimeError("no repr")


def returning_unrenderable(*args):
    """A list equal to no sort's output, whose repr raises: a baseline or a
    relation that compares it finds a violation, and its report must still
    render."""
    return Unrenderable([None])


# each broken program with the budget it runs under: the three that sleep
# have a short one, so every evaluation of them is an overrun on the main
# thread, even when their program swallows or ignores the alarm
BROKEN_PROGRAMS = ((raising, 5.0), (returning_none, 5.0), (sleeping_past_the_budget, 0.05),
                   (exiting, 5.0), (recursing, 5.0), (swallowing_the_alarm, 0.01),
                   (ignoring_the_alarm, 0.01), (returning_unrenderable, 5.0))
# the failure is raised inside the broken program's call, which labels it; a
# None answer fails where its side checks for a list or takes pi's distance
RAISED_INSIDE_THE_CALL = (raising, returning_none, exiting, recursing)
# the program overruns its budget, whether the alarm stops it or it hides the
# alarm and answers correctly; its cause is the budget, so no side labels it
OVERRUNS = (sleeping_past_the_budget, swallowing_the_alarm, ignoring_the_alarm)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(ONE_CAMPAIGN_PER_STYLE), st.sampled_from(BROKEN_PROGRAMS),
       st.integers(min_value=0, max_value=2**64 - 1))
@example(ONE_CAMPAIGN_PER_STYLE[0], (returning_none, 5.0), 1)
@example(ONE_CAMPAIGN_PER_STYLE[0], (recursing, 5.0), 2)
@example(ONE_CAMPAIGN_PER_STYLE[1], (returning_unrenderable, 5.0), 3)
@example(ONE_CAMPAIGN_PER_STYLE[3], (swallowing_the_alarm, 0.01), 4)
@example(ONE_CAMPAIGN_PER_STYLE[4], (ignoring_the_alarm, 0.01), 5)
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
                                         budget_seconds=budget, stop_on_first_violation=False),
                          registry={name: campaign})
    for case, outcome in zip(cases, outcomes):
        if name == "sorting-metamorphic" and not case.payload:
            # removal is undefined on an empty array, which holds vacuously
            assert outcome.status is RelationStatus.HOLDS
        elif broken is returning_unrenderable:
            # a violation, or an error where the output is used as a number or
            # its element is looked for in the input
            assert outcome.status is not RelationStatus.HOLDS
            assert outcome.error_detail or outcome.status is RelationStatus.VIOLATED
        else:
            assert outcome.status is RelationStatus.EXECUTION_ERROR
            assert outcome.error_detail
            if broken in RAISED_INSIDE_THE_CALL:
                assert outcome.error_detail.startswith(f"{label}: ")
            if broken is returning_none and campaign.case_study == "sorting":
                # every oracle style checks a sort's answer for a list
                assert outcome.error_detail == (
                    f"{label}: TypeError: sort returned NoneType, not a list")
            if broken in OVERRUNS:
                assert outcome.error_detail == f"execution budget of {budget}s exceeded"
            if broken is exiting:
                assert outcome.error_detail.endswith("SystemExit: 3")
            if broken is recursing:
                assert "RecursionError: " in outcome.error_detail
    assert report.iterations_run == iterations
    assert report.violations == sum(
        outcome.status is RelationStatus.VIOLATED for outcome in outcomes)
    assert report.execution_errors == sum(
        outcome.status is RelationStatus.EXECUTION_ERROR for outcome in outcomes)
    document = campaign_report_document(report, campaign)
    text = to_json(document) + campaign_report_csv(document)
    if report.counterexample is not None:
        assert "<unrenderable output: RuntimeError: no repr>" in text
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- the flat evaluator against the layered composition it replaced ---------
#
# Until guarded_evaluator built one closure per run, every evaluation went
# through six layers: the registry's lambda, guarded_evaluation, _timed, the
# pair body, _evaluate_single (or the median-of-k _evaluate_statistical) and
# _run_program per side. That composition is kept here as the reference,
# installed through the registry's module global guarded_evaluator, and the
# two must give the same outcomes, error details byte for byte. Both call a
# single run's programs on the payload alone, and give each median-of-k trial
# its own source. Both keep the one overrun rule: a side's label wraps only
# what its program raises (core.EXECUTION_FAILURES), and an overrun, caught
# by the guard or found past the deadline, is layered_overrun's unlabelled
# detail. The comparisons run on the main thread, so the reference leaves
# out the daemon-worker path.

def layered_run_program(label, fn, *args):
    try:
        return fn(*args)
    except core.EXECUTION_FAILURES as exc:
        raise core.ProgramFailed(label) from exc


def layered_describe(exc):
    if isinstance(exc, core.ProgramFailed):
        return f"{exc}: {layered_describe(exc.__cause__)}"
    return f"{type(exc).__name__}: {exc}"


def layered_overrun(budget):
    return RelationOutcome.execution_error(f"execution budget of {budget}s exceeded")


def layered_timed(body, case, budget):
    core._budget = budget
    try:
        now = time.monotonic()
        core._deadline = deadline = now + budget
        if not now < core._alarm_due <= deadline:
            signal.setitimer(signal.ITIMER_REAL, budget)
            core._alarm_due = deadline
        outcome = body(case)
    finally:
        core._deadline = None
    if time.monotonic() >= deadline:
        return layered_overrun(budget)
    return outcome


def layered_guarded_evaluation(body, case, budget):
    try:
        if budget is None:
            return body(case)
        if threading.get_ident() == core._scope_thread:
            return layered_timed(body, case, budget)
        with core.alarm_scope():
            return layered_timed(body, case, budget)
    except core._BudgetExpired:
        return layered_overrun(budget)
    except core.EXECUTION_FAILURES as exc:
        return RelationOutcome.execution_error(layered_describe(exc))


def trial_source(case, salt, trial):
    return SeededSource(derive_seed(case.provenance.seed, case.provenance.iteration, salt, trial))


def layered_evaluate_single(pair, relation, case):
    original_out = layered_run_program("original", pair.original, case.payload)
    variant_out = layered_run_program("variant", pair.variant, case.payload)
    return RelationOutcome.from_check(relation.check(original_out, variant_out),
                                      original_out, variant_out)


def layered_evaluate_statistical(pair, relation, case):
    """The k original trials, their median, then the variant trials until
    (k+1)/2 of them pass against it."""
    k, check = relation.repetitions, relation.check
    original_median = statistics.median(
        layered_run_program(f"original trial {trial}", pair.original, case.payload,
                            trial_source(case, core._SALT_ORIGINAL, trial))
        for trial in range(k))
    passes_needed = (k + 1) // 2
    variant_outputs = []
    for trial in range(k):
        out = layered_run_program(f"variant trial {trial}", pair.variant, case.payload,
                                  trial_source(case, core._SALT_VARIANT, trial))
        variant_outputs.append(out)
        if check(original_median, out):
            passes_needed -= 1
            if passes_needed == 0:
                return RelationOutcome(RelationStatus.HOLDS, original_median)
    return RelationOutcome(RelationStatus.VIOLATED, original_median,
                           statistics.median(variant_outputs))


def layered_evaluator(budget, body=None, *, pair=None, relation=None):
    """Reference for ``registry.guarded_evaluator``, with its signature."""
    if pair is not None:
        if relation.repetitions is None:
            body = lambda case: layered_evaluate_single(pair, relation, case)
        else:
            body = lambda case: layered_evaluate_statistical(pair, relation, case)
    return lambda case: layered_guarded_evaluation(body, case, budget)


def assert_flat_equals_layered(campaign, budget, iterations, seed=11, scoped=True):
    """Both evaluators of ``campaign``'s run under ``budget`` judge the same
    generated cases alike, inside the run's alarm scope or each in its own."""
    programs = campaign.programs(None)
    flat = campaign.build_evaluator(programs, campaign.default_repetitions, budget)
    with mock.patch.object(registry, "guarded_evaluator", layered_evaluator):
        layered = campaign.build_evaluator(programs, campaign.default_repetitions, budget)
    cases = [InputCase(campaign.generate(generation_source(seed, iteration)),
                       Provenance(seed, iteration))
             for iteration in range(1, iterations + 1)]
    with core.alarm_scope() if scoped else contextlib.nullcontext():
        pairs = [(flat(case), layered(case)) for case in cases]
    for iteration, (got, expected) in enumerate(pairs, start=1):
        assert tuple(got) == tuple(expected), iteration
        assert type(got) is RelationOutcome and type(got.status) is RelationStatus
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def campaign_cells():
    for campaign in default_registry().values():
        for mutant in (None, *(mutant.name for mutant in campaign.mutants)):
            yield pytest.param(campaign.name, mutant, id=f"{campaign.name}-{mutant}")


@pytest.mark.parametrize("name, mutant", campaign_cells())
def test_flat_evaluator_matches_the_layered_one_on_every_cell(name, mutant):
    campaign = get_campaign(name)
    if mutant is not None:
        campaign = dataclasses.replace(
            campaign, components=campaign.programs(mutant), mutants=())
    iterations = 3 if campaign.stochastic else 20
    for budget in (None, 5.0):
        for scoped in (True, False):
            assert_flat_equals_layered(campaign, budget, iterations, scoped=scoped)


# the property's broken originals, and a broken variant
BROKEN_SIDES = (*((name, components) for name, components, _ in ONE_CAMPAIGN_PER_STYLE),
                ("sorting-intramorphic", ("descending",)))


@pytest.mark.parametrize("broken, budget", BROKEN_PROGRAMS,
                         ids=[broken.__name__ for broken, _ in BROKEN_PROGRAMS])
@pytest.mark.parametrize("name, components", BROKEN_SIDES,
                         ids=[f"{name}-{components[0]}" for name, components in BROKEN_SIDES])
def test_flat_evaluator_matches_the_layered_one_on_broken_programs(name, components, broken,
                                                                  budget):
    campaign = replacing(name, **dict.fromkeys(components, broken))
    # a program that sleeps runs only under its own short budget
    budgets = (budget,) if budget < 1 else (None, budget)
    for run_budget in budgets:
        assert_flat_equals_layered(campaign, run_budget, 2)


@on_and_off_the_main_thread
def test_keyboard_interrupt_in_a_program_stops_the_run(run_on):
    # off the main thread the program runs in the budget's worker, which
    # hands the interrupt back to the thread that called the evaluator
    calls = []

    def interrupted(*args):
        calls.append(args)
        raise KeyboardInterrupt

    campaign = replacing("sorting-intramorphic", ascending=interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_on(lambda: run_campaign(CampaignConfig(campaign=campaign.name, seed=1, iterations=3),
                                    registry={campaign.name: campaign}))
    assert len(calls) == 1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- the budget's alarm handler is a per-run resource --------------------------

def counting_signal_calls(monkeypatch):
    """Record every ``signal`` / ``getsignal`` call from now on, at the C
    layer that ``alarm_scope`` calls and ``signal.signal`` wraps."""
    calls = []
    real_signal, real_getsignal = _signal.signal, _signal.getsignal
    monkeypatch.setattr(_signal, "signal",
                        lambda *args: calls.append(("signal", args)) or real_signal(*args))
    monkeypatch.setattr(_signal, "getsignal",
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
    # the C layer hands SIG_DFL back as a plain int, equal to the enum member
    assert installed is not before and restored == before
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
    registry = {campaign.name: dataclasses.replace(campaign, generate=failing_generate,
                                                   generate_block=None)}
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
        "execution budget of 0.05s exceeded"]
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
        campaign.name: dataclasses.replace(campaign, generate=alarming_generate,
                                           generate_block=None)})
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
        campaign, generate=lambda src: list(campaign.generate(src)), generate_block=None,
        shrink_payload=lambda payload: [list(c) for c in campaign.shrink_payload(tuple(payload))])
    expected, _ = shrink_evaluations(campaign, "swap-index-i", 7)
    report, cases = shrink_evaluations(as_lists, "swap-index-i", 7)
    assert report.counterexample.payload == list(expected.counterexample.payload)
    assert report.counterexample.original_output == expected.counterexample.original_output
    assert report.counterexample.variant_output == expected.counterexample.variant_output
    # a list cannot be remembered, so a list offered again is evaluated again
    payloads = [tuple(case.payload) for case in cases]
    assert len(set(payloads)) < len(payloads)
