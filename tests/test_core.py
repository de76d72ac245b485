"""Pair evaluation semantics: verdicts, determinism, budgets, aggregation."""

import _signal
import dataclasses
import gc
import math
import operator
import signal
import statistics
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import intramorph.core as core
import intramorph.seeds as seeds
from intramorph.baselines import differential_oracle
from intramorph.cases import sorting
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.registry import get_campaign
from intramorph.core import (ApplicationMode, Automation, ConfigurationError,
                             InputCase, IntramorphicRelation, ProgramPair,
                             Provenance, RelationStatus, TransformationDescriptor,
                             alarm_scope, equivalence_relation, evaluate_pair)


REVERSE = IntramorphicRelation("reverse-order", sorting.reverse_relation)


def sort_pair(forward=sorting.bubble_sort, reverse=sorting.bubble_sort_reverse):
    return ProgramPair(
        original=lambda payload: forward(list(payload)),
        variant=lambda payload: reverse(list(payload)))


def case_for(payload, seed=0, iteration=1):
    return InputCase(payload, Provenance(seed, iteration))


# an overrun reads alike on both threads: the alarm stops the program on the
# main thread, and off it the worker running the program is abandoned
OVERRUN = "execution budget of 0.05s exceeded"


def on_main_thread(evaluate):
    return evaluate()


def off_main_thread(evaluate):
    """``evaluate()`` on a runner thread; what it raises is raised here."""
    box = {}

    def run():
        try:
            box["outcome"] = evaluate()
        except BaseException as exc:
            box["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(10)
    if "error" in box:
        raise box["error"]
    return box["outcome"]


on_and_off_the_main_thread = pytest.mark.parametrize(
    "run_on", [on_main_thread, off_main_thread], ids=["main-thread", "off-main-thread"])

# budgets that check_budget rejects; 1e10 is past what setitimer (a platform
# time_t) and the worker's join accept, and threading.TIMEOUT_MAX is the bound
REJECTED_BUDGETS = [0.0, -1.0, math.nan, math.inf, True, "5", 1e10, threading.TIMEOUT_MAX]


def test_reverse_pair_holds_on_example():
    outcome = evaluate_pair(sort_pair(), REVERSE, case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == [1, 2, 3]
    assert outcome.variant_output == [3, 2, 1]


def test_reverse_pair_holds_on_empty_input():
    outcome = evaluate_pair(sort_pair(), REVERSE, case_for(()))
    assert outcome.status is RelationStatus.HOLDS


def test_buggy_original_violates_reverse_relation():
    pair = sort_pair(forward=sorting.bubble_sort_swap_index)
    outcome = evaluate_pair(pair, REVERSE, case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.original_output == [1, 2, 1]


def test_equivalence_holds_for_interchangeable_sorts():
    pair = ProgramPair(
        original=lambda payload: sorting.bubble_sort(list(payload)),
        variant=lambda payload: sorting.merge_sort(list(payload)))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == outcome.variant_output == [1, 2, 3]


def test_equivalence_flags_buggy_side():
    pair = ProgramPair(
        original=lambda payload: sorting.bubble_sort_swap_index(list(payload)),
        variant=lambda payload: sorting.merge_sort(list(payload)))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.VIOLATED
    assert outcome.original_output == [1, 2, 1]
    assert outcome.variant_output == [1, 2, 3]


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=8))
def test_variant_equal_to_original_always_holds(values):
    pair = ProgramPair(
        original=lambda payload: sorting.bubble_sort(list(payload)),
        variant=lambda payload: sorting.bubble_sort(list(payload)))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for(tuple(values)))
    assert outcome.status is RelationStatus.HOLDS


def test_evaluation_is_deterministic():
    pair = sort_pair()
    case = case_for((5, 2, 9, 2), seed=123, iteration=17)
    assert evaluate_pair(pair, REVERSE, case) == evaluate_pair(pair, REVERSE, case)


def test_evaluation_does_not_mutate_the_case():
    payload = (3, 1, 2)
    case = case_for(payload)
    evaluate_pair(sort_pair(), REVERSE, case)
    assert case.payload == (3, 1, 2)


def test_violated_outputs_are_self_certifying():
    pair = sort_pair(forward=sorting.bubble_sort_swap_index)
    outcome = evaluate_pair(pair, REVERSE, case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.VIOLATED
    assert REVERSE.check(outcome.original_output, outcome.variant_output) is False


def test_crash_becomes_execution_error():
    def exploding(payload):
        raise RuntimeError("boom")

    pair = ProgramPair(original=exploding,
                       variant=lambda payload: list(payload))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for((1,)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert "RuntimeError" in outcome.error_detail
    assert outcome.original_output is None


def test_program_that_wants_a_source_without_k_is_a_counted_execution_error():
    # judged without k, a program is called on its payload alone
    def wanting_a_source(payload, source):
        return list(payload)

    pair = ProgramPair(original=wanting_a_source, variant=lambda payload: list(payload))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for((1,)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    # the rest of the message differs between Python versions
    assert outcome.error_detail.startswith("original: TypeError")

    campaign = get_campaign("knapsack-optimality")
    broken = dataclasses.replace(
        campaign, components={**campaign.components, "greedy": wanting_a_source})
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=3, iterations=5),
                          registry={campaign.name: broken})
    assert (report.execution_errors, report.violations, report.iterations_run) == (5, 0, 5)


@on_and_off_the_main_thread
def test_divergence_hits_the_budget(run_on):
    def sleepy(payload):
        time.sleep(5)
        return []

    pair = ProgramPair(original=sleepy,
                       variant=lambda payload: list(payload))
    started = time.monotonic()
    outcome = run_on(lambda: evaluate_pair(pair, equivalence_relation(), case_for((1,)),
                                           budget=0.05))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail == OVERRUN
    assert time.monotonic() - started < 2.0


def test_relation_failure_becomes_execution_error():
    pair = sort_pair(reverse=lambda arr: None)
    outcome = evaluate_pair(pair, REVERSE, case_for((3, 1, 2)))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail.startswith("TypeError: ")

    # the same pair inside a campaign: the run completes and counts each error
    campaign = get_campaign("sorting-intramorphic")
    broken = dataclasses.replace(
        campaign, components={**campaign.components, "descending": lambda arr: None})
    report = run_campaign(CampaignConfig(campaign=campaign.name, seed=3, iterations=5),
                          registry={campaign.name: broken})
    assert (report.execution_errors, report.violations, report.iterations_run) == (5, 0, 5)


def sleeping(seconds):
    """A program that sleeps, at a k or, since its source has a default, without."""
    def program(payload, source=None):
        time.sleep(seconds)
        return []

    return program


def test_budget_covers_both_programs_together():
    # each side alone fits the budget; the evaluation as a whole does not
    pair = ProgramPair(original=sleeping(0.03), variant=sleeping(0.03))
    outcome = evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.05)
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert "budget" in outcome.error_detail


def test_budget_covers_the_relation():
    def slow_check(original_output, variant_output):
        time.sleep(5)
        return True

    slow = IntramorphicRelation("slow", slow_check)
    started = time.monotonic()
    outcome = evaluate_pair(sort_pair(), slow, case_for((2, 1)), budget=0.05)
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail == OVERRUN
    assert time.monotonic() - started < 2.0


def test_guard_restores_the_alarm_handler(monkeypatch):
    before = signal.getsignal(signal.SIGALRM)
    evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)), budget=0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    real_setitimer = signal.setitimer

    def failing_to_arm(which, seconds, interval=0.0):
        if seconds:
            raise OSError("setitimer failed")
        return real_setitimer(which, seconds, interval)

    monkeypatch.setattr(signal, "setitimer", failing_to_arm)
    outcome = evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)), budget=0.05)
    assert outcome.error_detail == "OSError: setitimer failed"
    assert signal.getsignal(signal.SIGALRM) is before
    # the deadline is set inside the try that clears it, so none is left behind
    assert core._deadline is None


@pytest.mark.parametrize("budget", REJECTED_BUDGETS)
@on_and_off_the_main_thread
def test_evaluate_pair_rejects_a_budget_that_is_not_positive_and_finite(budget, run_on):
    calls = []
    pair = ProgramPair(original=lambda payload: calls.append(payload) or [],
                       variant=lambda payload: [])
    with pytest.raises(ConfigurationError, match=f"got {budget!r}$"):
        run_on(lambda: evaluate_pair(pair, equivalence_relation(), case_for(()),
                                     budget=budget))
    assert calls == []


def test_alarm_scope_installs_once_and_nested_scopes_do_not_restore():
    before = signal.getsignal(signal.SIGALRM)
    with alarm_scope():
        installed = signal.getsignal(signal.SIGALRM)
        assert installed is not before
        with alarm_scope():
            pass
        # the inner scope left the outer scope's handler in place
        assert signal.getsignal(signal.SIGALRM) is installed
        pair = ProgramPair(original=sleeping(5), variant=sleeping(0))
        outcome = evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.05)
        assert outcome.error_detail == OVERRUN
        assert signal.getsignal(signal.SIGALRM) is installed
    assert signal.getsignal(signal.SIGALRM) is before


def test_evaluations_inside_a_scope_only_rearm_the_timer(monkeypatch):
    calls = []
    real_signal = _signal.signal
    monkeypatch.setattr(_signal, "signal", lambda *args: calls.append(args) or real_signal(*args))
    monkeypatch.setattr(_signal, "getsignal", lambda *args: calls.append(args))
    # outside a scope each evaluation opens its own: install and restore
    evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)), budget=0.05)
    assert len(calls) == 2
    calls.clear()
    with alarm_scope():
        for _ in range(20):
            assert evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)),
                                 budget=0.05).status is RelationStatus.HOLDS
    assert len(calls) == 2


def ignoring_alarms(signum, frame):
    pass


@pytest.mark.parametrize("previous", [signal.SIG_DFL, signal.SIG_IGN, ignoring_alarms])
def test_previous_alarm_disposition_is_back_after_a_run_and_a_lone_evaluation(previous):
    original = signal.signal(signal.SIGALRM, previous)
    try:
        report = run_campaign(CampaignConfig(campaign="sorting-intramorphic", seed=42,
                                             iterations=100, mutant="swap-index-i"))
        assert report.counterexample is not None
        assert signal.getsignal(signal.SIGALRM) is previous
        outcome = evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)), budget=0.05)
        assert outcome.status is RelationStatus.HOLDS
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, original)


def test_stray_alarm_inside_a_scope_is_ignored():
    with alarm_scope():
        signal.raise_signal(signal.SIGALRM)
        # a timer left over from elsewhere expires between evaluations
        signal.setitimer(signal.ITIMER_REAL, 0.01)
        time.sleep(0.05)
        outcome = evaluate_pair(sort_pair(), REVERSE, case_for((2, 1)), budget=0.05)
    assert outcome.status is RelationStatus.HOLDS


def test_program_cannot_swallow_the_budget():
    def stubborn(payload):
        for _ in range(3):
            try:
                time.sleep(1)
            except Exception:
                pass
        return []

    pair = ProgramPair(original=stubborn, variant=lambda payload: [])
    started = time.monotonic()
    outcome = evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.05)
    assert outcome.error_detail == OVERRUN
    assert time.monotonic() - started < 0.9


def test_overrun_that_a_program_swallows_as_a_base_exception_is_still_counted():
    def swallowing(payload):
        try:
            time.sleep(1)
        except BaseException:   # catches the budget's own exception too
            pass
        return []

    pair = ProgramPair(original=swallowing, variant=lambda payload: [])
    started = time.monotonic()
    outcome = evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.05)
    assert outcome.error_detail == OVERRUN
    assert time.monotonic() - started < 0.9


def test_overrun_of_a_program_that_ignores_the_alarm_is_still_counted():
    def ignoring(payload):
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(0.1)
        return []

    before = signal.getsignal(signal.SIGALRM)
    pair = ProgramPair(original=ignoring, variant=lambda payload: [])
    outcome = evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.05)
    assert outcome.error_detail == OVERRUN
    assert signal.getsignal(signal.SIGALRM) is before


def test_alarm_lost_in_a_gc_callback_fires_again(monkeypatch):
    swallowed = []
    monkeypatch.setattr(sys, "unraisablehook",
                        lambda unraisable: swallowed.append(unraisable.exc_type))

    def slow_callback(phase, info):
        if phase == "start":
            time.sleep(1)   # the first alarm lands here and the collector swallows it

    def descending(arr):
        gc.callbacks.append(slow_callback)
        try:
            gc.collect()
        finally:
            gc.callbacks.remove(slow_callback)
        time.sleep(1)
        return sorted(arr, reverse=True)

    started = time.monotonic()
    outcome = evaluate_pair(sort_pair(reverse=descending), REVERSE, case_for((2, 1)),
                            budget=0.05)
    elapsed = time.monotonic() - started
    # the collector swallowed the first alarm (and any that hit another callback)
    assert swallowed and set(swallowed) == {core._BudgetExpired}
    assert outcome.error_detail == OVERRUN
    assert elapsed < 0.5


# --- inside a scope the budget is a deadline, and the timer is armed rarely ----

def recording_setitimer(monkeypatch):
    """Record the delay of every ``signal.setitimer`` call from now on."""
    delays = []
    real_setitimer = signal.setitimer

    def setitimer(which, seconds, interval=0.0):
        delays.append(seconds)
        return real_setitimer(which, seconds, interval)

    monkeypatch.setattr(signal, "setitimer", setitimer)
    return delays


def test_alarm_due_for_an_earlier_evaluation_does_not_cut_a_later_one_short(monkeypatch):
    pair = ProgramPair(original=sleeping(0.005), variant=sleeping(0))
    with alarm_scope():
        delays = recording_setitimer(monkeypatch)
        outcomes = [evaluate_pair(pair, equivalence_relation(), case_for(()), budget=0.1)
                    for _ in range(40)]
        assert [outcome.status for outcome in outcomes] == [RelationStatus.HOLDS] * 40
    # armed once for the first evaluation; its alarm fired during a later one,
    # which re-armed it for that evaluation's time left; then the scope disarmed
    assert delays[0] == 0.1 and delays[-1] == 0.0
    assert len(delays) >= 3 and all(0 < delay < 0.1 for delay in delays[1:-1])


@pytest.mark.parametrize("gap", [0.0, 0.2])
def test_later_evaluation_over_budget_is_stopped(gap):
    # with no gap the first evaluation's alarm is still pending; after the gap
    # it has fired with nothing running and left the timer unarmed
    quick = ProgramPair(original=sleeping(0), variant=sleeping(0))
    slow = ProgramPair(original=sleeping(0), variant=sleeping(5))
    with alarm_scope():
        for _ in range(5):
            evaluate_pair(quick, equivalence_relation(), case_for(()), budget=0.05)
        time.sleep(gap)
        started = time.monotonic()
        outcome = evaluate_pair(slow, equivalence_relation(), case_for(()), budget=0.05)
        elapsed = time.monotonic() - started
    assert outcome.error_detail == OVERRUN
    assert elapsed < 1.0


def test_shorter_budget_after_a_longer_one_is_stopped_at_its_own_deadline():
    quick = ProgramPair(original=sleeping(0), variant=sleeping(0))
    slow = ProgramPair(original=sleeping(5), variant=sleeping(0))
    with alarm_scope():
        evaluate_pair(quick, equivalence_relation(), case_for(()), budget=5.0)
        started = time.monotonic()
        outcome = evaluate_pair(slow, equivalence_relation(), case_for(()), budget=0.05)
        elapsed = time.monotonic() - started
    assert outcome.error_detail == OVERRUN
    assert elapsed < 1.0


def test_program_that_disarms_the_alarm_loses_the_budget_until_it_was_due():
    def disarming(payload):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return []

    disarm = ProgramPair(original=disarming, variant=sleeping(0))
    with alarm_scope():
        evaluate_pair(disarm, equivalence_relation(), case_for(()), budget=0.1)
        # the documented limit: this evaluation starts before the lost alarm
        # was due, so nothing stops it at its own deadline; it is counted as
        # an overrun once it returns
        late = ProgramPair(original=sleeping(0.3), variant=sleeping(0))
        started = time.monotonic()
        outcome = evaluate_pair(late, equivalence_relation(), case_for(()), budget=0.1)
        assert time.monotonic() - started >= 0.3
        assert outcome.error_detail == "execution budget of 0.1s exceeded"
        # this one starts after the lost alarm was due, and arms the timer again
        slow = ProgramPair(original=sleeping(5), variant=sleeping(0))
        started = time.monotonic()
        outcome = evaluate_pair(slow, equivalence_relation(), case_for(()), budget=0.1)
        elapsed = time.monotonic() - started
    assert outcome.error_detail == "execution budget of 0.1s exceeded"
    assert elapsed < 1.0


def test_evaluation_records_are_immutable_tuples_with_the_same_fields():
    provenance = Provenance(7, 3)
    case = InputCase((2, 1), provenance)
    outcome = core.RelationOutcome.from_check(True, [1, 2], [2, 1])
    assert Provenance._fields == ("seed", "iteration")
    assert InputCase._fields == ("payload", "provenance")
    assert core.RelationOutcome._fields == ("status", "original_output", "variant_output",
                                            "error_detail")
    assert outcome == core.RelationOutcome(RelationStatus.HOLDS, [1, 2], [2, 1], None)
    assert core.RelationOutcome.execution_error("boom") == core.RelationOutcome(
        RelationStatus.EXECUTION_ERROR, None, None, "boom")
    for record in (provenance, case, outcome):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


@pytest.mark.parametrize("name", ["sorting-intramorphic", "ast-token-multiset",
                                  "knapsack-optimality"])
def test_sorting_pair_derives_only_the_generation_source(name, monkeypatch):
    calls = []
    real = seeds.derive_seed

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, "derive_seed", counting)
    monkeypatch.setattr(seeds, "derive_seed", counting)
    campaign = get_campaign(name)
    evaluate = campaign.build_evaluator(campaign.programs(None), None, 5.0)
    payload = campaign.generate(core.generation_source(7, 3))
    assert evaluate(case_for(payload, seed=7, iteration=3)).status is RelationStatus.HOLDS
    assert calls == [(7, 3, 0)]

    # a whole run derives only generation sources: no original, variant or
    # picker source (salts 1, 2, 3) is derived. The recording copy replaces
    # generate and drops the block form, so every iteration's input is drawn
    # from its own source, derive_seed(7, iteration, 0).
    calls.clear()
    generated = []

    def recording(source):
        generated.append(source.seed)
        return campaign.generate(source)

    recorded = dataclasses.replace(campaign, generate=recording, generate_block=None)
    report = run_campaign(CampaignConfig(campaign=name, seed=7, iterations=20),
                          registry={campaign.name: recorded})
    assert report.violations == 0 and report.iterations_run == 20
    assert calls == [(7, iteration, 0) for iteration in range(1, 21)]
    assert generated == [real(7, iteration, 0) for iteration in range(1, 21)]


# --- statistical aggregation ---------------------------------------------------

class Replay:
    """Program stub that replays scripted outputs in call order, at a k or,
    since its source has a default, without."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self, payload, source=None):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value


def scripted_pair(original_values, variant_values):
    return ProgramPair(original=Replay(original_values), variant=Replay(variant_values))


def at_most(a, b):
    return a <= b


def median_relation(k, compare=at_most):
    return IntramorphicRelation("median-compare", compare, repetitions=k)


def test_statistical_uses_medians_per_side():
    pair = scripted_pair([1.0, 9.0, 2.0], [5.0, 4.0, 6.0])
    outcome = evaluate_pair(pair, median_relation(3), case_for(None))
    assert outcome.status is RelationStatus.HOLDS
    assert outcome.original_output == 2.0   # median of 1, 9, 2
    # 5 and 4 already settle the median of 5, 4, 6, so no full median exists
    assert outcome.variant_output is None


def test_statistical_failures_name_the_trial_or_become_errors():
    def failing_on_second_call():
        calls = []

        def program(payload, src):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("second trial")
            return 1.0

        return program

    pair = ProgramPair(original=failing_on_second_call(), variant=Replay([2.0]))
    outcome = evaluate_pair(pair, median_relation(3), case_for(None))
    assert outcome.error_detail == "original trial 1: RuntimeError: second trial"


def test_statistical_check_that_raises_is_an_unlabelled_execution_error():
    def refusing(original_median, variant_output):
        raise TypeError("no comparison")

    outcome = evaluate_pair(scripted_pair([1.0], [2.0]), median_relation(3, refusing),
                            case_for(None))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail == "TypeError: no comparison"


def never_none(original_median, variant_output):
    return variant_output is not None and original_median <= variant_output


@pytest.mark.parametrize("original, variant", [
    ([1.0, None], [2.0]),   # the original median cannot order its trials
    ([1.0], [None]),        # every variant trial fails, so the variant median runs
], ids=["original-median", "variant-median"])
def test_statistical_median_that_raises_is_an_unlabelled_execution_error(original, variant):
    outcome = evaluate_pair(scripted_pair(original, variant), median_relation(3, never_none),
                            case_for(None))
    assert outcome.status is RelationStatus.EXECUTION_ERROR
    assert outcome.error_detail.startswith("TypeError: '<' not supported between instances")


def test_statistical_violation_carries_medians():
    # the variant's first trial passes against the original median 5 and the
    # other two fail, so every trial runs and the variant median is 4
    pair = scripted_pair([9.0, 1.0, 5.0], [7.0, 4.0, 2.0])
    relation = median_relation(3)
    outcome = evaluate_pair(pair, relation, case_for(None))
    assert outcome.status is RelationStatus.VIOLATED
    assert (outcome.original_output, outcome.variant_output) == (5.0, 4.0)
    assert relation.check(outcome.original_output, outcome.variant_output) is False


def raising_on_call(failing_call):
    """A program that returns 2.0, except on call ``failing_call`` (from 1)."""
    calls = []

    def program(payload, src):
        calls.append(None)
        if len(calls) == failing_call:
            raise RuntimeError("trial failed")
        return 2.0

    return program


@pytest.mark.parametrize("make_pair, expected", [
    (lambda: scripted_pair([1.0, 9.0, 2.0], [5.0, 4.0, 6.0]),
     (RelationStatus.HOLDS, 2.0, None, None)),
    (lambda: scripted_pair([9.0, 1.0, 5.0], [7.0, 4.0, 2.0]),
     (RelationStatus.VIOLATED, 5.0, 4.0, None)),
    # variant trial 0 passes, so trial 1 runs and raises
    (lambda: ProgramPair(original=Replay([1.0]), variant=raising_on_call(2)),
     (RelationStatus.EXECUTION_ERROR, None, None, "variant trial 1: RuntimeError: trial failed")),
], ids=["holds", "violated", "variant-trial-raises"])
def test_median_of_k_under_a_budget_judges_alike_on_and_off_the_main_thread(make_pair,
                                                                            expected):
    def evaluate():
        return evaluate_pair(make_pair(), median_relation(3), case_for(None), budget=5.0)

    assert tuple(evaluate()) == expected
    assert tuple(off_main_thread(evaluate)) == expected


@on_and_off_the_main_thread
def test_median_of_k_trial_past_the_budget_is_an_overrun_on_and_off_the_main_thread(run_on):
    def evaluate():
        pair = ProgramPair(original=Replay([1.0]), variant=sleeping(1))
        return evaluate_pair(pair, median_relation(3), case_for(None), budget=0.05)

    assert run_on(evaluate).error_detail == OVERRUN


def scripted_trials(k):
    # few distinct values, so that ties with the original median are common
    summaries = st.lists(st.integers(0, 6), min_size=k, max_size=k)
    return st.tuples(summaries, summaries)


# operator.ge passes a down-set of variant summaries, at_most an up-set
@given(st.sampled_from([1, 3, 5, 7]).flatmap(scripted_trials),
       st.sampled_from([operator.ge, at_most]))
def test_statistical_verdict_equals_the_all_trials_median_verdict(trials, compare):
    original, variant = trials
    outcome = evaluate_pair(scripted_pair(original, variant),
                            median_relation(len(original), compare), case_for(None))
    holds = compare(statistics.median(original), statistics.median(variant))
    assert outcome.status is (RelationStatus.HOLDS if holds else RelationStatus.VIOLATED)
    assert outcome.original_output == statistics.median(original)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_statistical_program_calls(k):
    # every variant trial passes: the verdict is settled after (k+1)/2 of them
    pair = scripted_pair([1.0], [2.0])
    outcome = evaluate_pair(pair, median_relation(k), case_for(None))
    assert outcome.status is RelationStatus.HOLDS
    assert (pair.original.calls, pair.variant.calls) == (k, (k + 1) // 2)

    # a violation runs every trial on both sides
    pair = scripted_pair([2.0], [1.0])
    outcome = evaluate_pair(pair, median_relation(k), case_for(None))
    assert outcome.status is RelationStatus.VIOLATED
    assert (pair.original.calls, pair.variant.calls) == (k, k)


@given(st.floats(0, 10), st.floats(0, 10))
def test_statistical_k1_matches_single_run_verdict(first, second):
    aggregated = evaluate_pair(scripted_pair([first], [second]),
                               median_relation(1), case_for(None))
    plain = evaluate_pair(scripted_pair([first], [second]),
                          IntramorphicRelation("le", lambda o, v: o <= v),
                          case_for(None))
    assert aggregated.status is plain.status


def test_statistical_rejects_even_k():
    # k lives in the relation, which refuses an even value, so no
    # statistical evaluation can run with one
    with pytest.raises(ConfigurationError,
                       match="statistical repetitions must be a positive odd integer, got 4"):
        median_relation(4)


def test_relation_validates_repetitions():
    for repetitions in (2, 0, -1, 3.0, True):
        with pytest.raises(ConfigurationError,
                           match=f"positive odd integer, got {repetitions!r}$"):
            IntramorphicRelation("le", lambda a, b: a <= b, repetitions=repetitions)


def test_descriptor_requires_all_fields():
    with pytest.raises(ValueError):
        TransformationDescriptor(
            granularity=None,
            application_mode=ApplicationMode.ADDED_ALONGSIDE,
            automation=Automation.MANUAL,
            relation_complete=True,
            false_alarm_possible=False)


# --- an overrun is never labelled, wherever its alarm lands -------------------

def swallowing_once_then_spinning(*args):
    """Swallows the budget's first alarm in a 0.2 s sleep, then spins until
    0.5 s have passed outside any ``try``, where the alarm that the handler
    re-armed escapes; returns its first argument if nothing stops it."""
    until = time.monotonic() + 0.5
    try:
        time.sleep(0.2)
    except BaseException:   # the budget's own exception included
        pass
    while time.monotonic() < until:
        pass
    return args[0]


def single_run_original():
    pair = ProgramPair(original=swallowing_once_then_spinning, variant=sleeping(0))
    return evaluate_pair(pair, equivalence_relation(), case_for((2, 1)), budget=0.05)


def median_of_k_variant_trial():
    pair = ProgramPair(original=Replay([1.0]), variant=swallowing_once_then_spinning)
    return evaluate_pair(pair, median_relation(3), case_for(None), budget=0.05)


def differential_baseline_sort():
    algorithms = {"ascending sort": swallowing_once_then_spinning,
                  "merge sort": sorting.merge_sort}
    evaluate = core.guarded_evaluator(
        0.05, lambda case: differential_oracle(algorithms, case.payload))
    return evaluate(case_for((2, 1)))


@pytest.mark.parametrize("evaluate", [single_run_original, median_of_k_variant_trial,
                                      differential_baseline_sort],
                         ids=["single-run-original", "median-of-k-variant-trial",
                              "differential-baseline-sort"])
@on_and_off_the_main_thread
def test_overrun_whose_rearmed_alarm_escapes_the_program_is_unlabelled(evaluate, run_on):
    outcome = run_on(evaluate)
    assert tuple(outcome) == (RelationStatus.EXECUTION_ERROR, None, None, OVERRUN)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
