"""Core vocabulary: program pairs, relations, outcomes, and their evaluation.

A variant program is derived from an original by swapping one component; the
declared relation between the two outputs on a shared input is the oracle.
Everything here is pure given the input's provenance, so any outcome can be
reproduced from (seed, iteration) alone.
"""

from __future__ import annotations

import _signal
import math
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .seeds import SeededSource, derive_seed, premixed_sources

DEFAULT_BUDGET_SECONDS = 5.0

# Salt layout under (seed, iteration): keeps generation, the programs'
# median-of-k trials (the only readers of the two program salts), and
# auxiliary picks on disjoint substreams.
_SALT_GENERATE = 0
_SALT_ORIGINAL = 1
_SALT_VARIANT = 2
_SALT_PICKER = 3

# generation_sources: the first iterations of a run derive their sources one
# by one, and the rest come in vectorized blocks that double from the first
# size up to the largest. A block has a fixed cost of about 25 us, plus 0.6
# us per source and 0.13 us per premixed draw served, where the scalar path
# spends about 1.45 us deriving a seed and 0.55 us per draw (Python 3.11,
# numpy 2.4, one core of a 2-CPU Xeon VM). Every draw of a generated input
# is premixed (seeds.PREMIXED_DRAWS covers the longest). Most runs that
# find their bug stop within 8 iterations (all but 29 of the 1,100 runs of
# the benchmark's detect workload at one seed), before the first block is
# built.
_SCALAR_ITERATIONS = 8
_FIRST_BLOCK = 8
_LARGEST_BLOCK = 256


class IntramorphError(Exception):
    """Base class for framework errors."""


class ConfigurationError(IntramorphError):
    """Invalid campaign configuration; no partial results are produced."""


class UnknownCampaignError(ConfigurationError):
    pass


class UnknownMutantError(ConfigurationError):
    pass


class BudgetExceededError(IntramorphError):
    """A program refused an input past its size bound, as the knapsack search
    does past its table's cells; an overrun of the time budget is not this."""


class RelationStatus(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    EXECUTION_ERROR = "execution-error"


class Granularity(str, Enum):
    OPERATOR = "operator"
    FUNCTION_ADDED = "function-added"
    PARAMETER_ADDED = "parameter-added"
    ALGORITHM_REPLACED = "algorithm-replaced"


class ApplicationMode(str, Enum):
    ADDED_ALONGSIDE = "added-alongside"
    IN_PLACE_MODIFIED = "in-place-modified"


class Automation(str, Enum):
    MANUAL = "manual"
    MECHANICAL = "mechanical"


@dataclass(frozen=True)
class TransformationDescriptor:
    """How the variant was derived from the original, for cataloguing."""

    granularity: Granularity
    application_mode: ApplicationMode
    automation: Automation
    relation_complete: bool
    false_alarm_possible: bool

    def __post_init__(self) -> None:
        for field_name in ("granularity", "application_mode", "automation",
                           "relation_complete", "false_alarm_possible"):
            if getattr(self, field_name) is None:
                raise ValueError(f"descriptor field {field_name} must be populated")

    def summary(self) -> str:
        return (f"granularity={self.granularity.value} "
                f"application={self.application_mode.value} "
                f"automation={self.automation.value} "
                f"complete={'yes' if self.relation_complete else 'no'} "
                f"false-alarms={'possible' if self.false_alarm_possible else 'no'}")


# Provenance, InputCase and RelationOutcome are built on every evaluation,
# shrink candidates included, so they are NamedTuples: immutable like a
# frozen dataclass, at about half its construction cost. The hot paths call
# tuple.__new__, which skips the generated __new__'s frame: 0.15 us, not 0.35.
class Provenance(NamedTuple):
    """Root seed plus iteration index; regenerates the payload exactly."""

    seed: int
    iteration: int


class InputCase(NamedTuple):
    payload: Any
    provenance: Provenance


@dataclass(frozen=True)
class ProgramPair:
    """Original and variant as pure functions; how the variant was derived is
    its campaign's descriptor, not the pair's. Judged without k, each is
    called on the payload alone. Under a median-of-k relation each trial is
    called as ``program(payload, source)``, and a stochastic program draws
    all its randomness from that source. Payloads are immutable values, so
    neither side can disturb the other.
    """

    original: Callable[..., Any]
    variant: Callable[..., Any]


@dataclass(frozen=True)
class IntramorphicRelation:
    """Total predicate over (original output, variant output).

    Without k each side runs once, on its payload alone. With
    ``repetitions`` k set, the relation is median-of-k: each side runs k
    times, each trial on its own seeded source, and ``check`` judges the two
    sides' median outputs. For every fixed ``m``, the outputs ``v`` with
    ``check(m, v)`` must form a down-set or an up-set of the outputs' order
    (as they do for ``operator.ge`` or ``operator.le``). Then, for odd k,
    ``check(m, median(V))`` holds exactly when ``check(m, v)`` holds for at
    least (k+1)/2 elements v of V, which is what lets the evaluation stop
    once that many variant trials pass.
    """

    name: str
    check: Callable[[Any, Any], bool]
    repetitions: Optional[int] = None

    def __post_init__(self) -> None:
        # exactly int: a float k cannot index trials, and True would run as k=1
        k = self.repetitions
        if k is not None and (type(k) is not int or k < 1 or k % 2 == 0):
            raise ConfigurationError(
                f"statistical repetitions must be a positive odd integer, got {k!r}")


class RelationOutcome(NamedTuple):
    status: RelationStatus
    original_output: Any = None
    variant_output: Any = None
    error_detail: Optional[str] = None

    @staticmethod
    def from_check(passed: bool, original_output: Any, variant_output: Any) -> "RelationOutcome":
        status = RelationStatus.HOLDS if passed else RelationStatus.VIOLATED
        return RelationOutcome(status, original_output, variant_output)

    @staticmethod
    def execution_error(detail: str) -> "RelationOutcome":
        return RelationOutcome(RelationStatus.EXECUTION_ERROR, error_detail=detail)


Evaluator = Callable[[InputCase], RelationOutcome]


def generation_source(seed: int, iteration: int) -> SeededSource:
    return SeededSource(derive_seed(seed, iteration, _SALT_GENERATE))


def generation_sources(seed: int, iterations: int) -> Iterator[SeededSource]:
    """``generation_source(seed, i)`` for i = 1..``iterations``, in order.

    Equal bit for bit to the scalar sources. Past the first
    ``_SCALAR_ITERATIONS``, each block of iterations derives its seeds and
    mixes its streams' first draws in one batch
    (:func:`seeds.premixed_sources`); a block is built only when the run
    reaches it.
    """
    scalar = min(iterations, _SCALAR_ITERATIONS)
    for iteration in range(1, scalar + 1):
        yield generation_source(seed, iteration)
    first, size = scalar + 1, _FIRST_BLOCK
    while first <= iterations:
        count = min(size, iterations - first + 1)
        yield from premixed_sources(seed, first, count, _SALT_GENERATE)
        first += count
        size = min(2 * size, _LARGEST_BLOCK)


def picker_source(provenance: Provenance) -> SeededSource:
    return SeededSource(derive_seed(provenance.seed, provenance.iteration, _SALT_PICKER))


class _BudgetExpired(BaseException):
    """Raised by the alarm at an evaluation's deadline. Not an Exception, so
    only a program that catches BaseException can swallow it, and no side's
    label wraps it: the evaluator makes it the one unlabelled overrun."""


class ProgramFailed(Exception):
    """A baseline oracle's sort call failed; carries its label, chains the cause."""


# what program code may raise, caught by the evaluator's closure (an error labelled with its
# side), baselines._sort_copy and report._render_output; an overrun or a KeyboardInterrupt is not
EXECUTION_FAILURES = (Exception, SystemExit)


# The budget's SIGALRM handler is installed once per alarm scope (a whole
# campaign run) on the main thread, where each evaluation sets a deadline and
# arms the one-shot timer only when no alarm is due by it
# (``guarded_evaluator``). This state is read and written on the main thread.
_scope_thread = None     # thread ident of the open scope's owner, None with none open
_deadline = None         # time.monotonic() deadline of the running evaluation
_budget = 0.0            # the running evaluation's budget
_alarm_due = math.inf    # earliest time the last armed alarm fires; inf if none is armed


def _on_alarm(signum, frame):
    """Stray with no evaluation running: leave the timer unarmed. Before the
    running evaluation's deadline (the alarm was due for an earlier one):
    re-arm for the time left. At or past it: re-arm at the budget's interval,
    since a gc callback or __del__ may swallow this alarm, and raise."""
    global _alarm_due
    if _deadline is None:
        return
    now = time.monotonic()
    if now < _deadline:
        signal.setitimer(signal.ITIMER_REAL, _deadline - now)
        _alarm_due = _deadline
        return
    signal.setitimer(signal.ITIMER_REAL, _budget)
    _alarm_due = now + _budget
    raise _BudgetExpired()


@contextmanager
def alarm_scope() -> Iterator[None]:
    """Keep the budget's SIGALRM handler installed for the enclosed block.

    The outermost scope on the main thread installs the handler, and on exit
    disarms the timer and restores the exact previous disposition (a
    handler, or ``SIG_DFL`` or ``SIG_IGN`` as the plain int the C layer
    keeps); nested scopes change nothing. Inside a scope, an evaluator of
    ``guarded_evaluator`` sets a deadline and arms the timer only when no
    alarm is due by then, so a run of fast evaluations arms it once. Off the
    main thread, where no signal handler can be set, the scope does nothing.
    """
    global _scope_thread, _alarm_due
    if threading.current_thread() is not threading.main_thread() or _scope_thread is not None:
        yield
        return
    # _signal.signal is the C function that signal.signal wraps. The
    # wrapper converts both ways through the Handlers enum, and with a
    # Python-function handler each conversion raises and catches an
    # exception: int(handler) on install, Handlers(handler) on restore,
    # which also formats the handler's repr. The C function returns the
    # handler it replaces as stored, SIG_DFL and SIG_IGN as plain ints,
    # and takes that value back unchanged.
    previous = _signal.signal(signal.SIGALRM, _on_alarm)
    _scope_thread = threading.get_ident()
    try:
        yield
    finally:
        _scope_thread = None
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _alarm_due = math.inf
        _signal.signal(signal.SIGALRM, previous)


def check_budget(budget: Optional[float]) -> None:
    """Reject a budget that is not None or in seconds above 0 (0 would disarm the timer)
    and below ``threading.TIMEOUT_MAX``, the largest ``setitimer`` and the worker's
    ``join`` accept. ``guarded_evaluator`` calls it once, as it builds an evaluator."""
    # True would run as 1 s, and a string fails the comparison with a TypeError
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float))
                               or not 0 < budget < threading.TIMEOUT_MAX):   # false for nan too
        raise ConfigurationError(f"budget must be None or a number of seconds above 0 "
                                 f"and below {threading.TIMEOUT_MAX}, got {budget!r}")


def _describe(exc: BaseException) -> str:
    if isinstance(exc, ProgramFailed):
        return f"{exc}: {_describe(exc.__cause__)}"
    return f"{type(exc).__name__}: {exc}"


def _overrun(budget: float) -> RelationOutcome:   # built only when a budget is overrun
    return RelationOutcome.execution_error(f"execution budget of {budget}s exceeded")


def guarded_evaluator(budget: Optional[float], body: Optional[Evaluator] = None, *,
                      pair: Optional[ProgramPair] = None,
                      relation: Optional[IntramorphicRelation] = None) -> Evaluator:
    """The one evaluation path: the evaluator of one run, built once for it.

    It judges a case by ``body(case)``, or by running both programs of
    ``pair`` (which carries no descriptor) and judging ``relation`` at
    whatever k it has. Without k, each program is called on the payload
    alone. With ``relation.repetitions`` k set, each trial is called on the
    payload and a source derived from the case's provenance, its side's salt
    and the trial. The k original trials run first, then the variant trials
    until (k+1)/2 of them satisfy ``check`` against the original median,
    which settles the median-of-k verdict (see
    ``IntramorphicRelation``): a holding outcome carries no variant output,
    and a violation runs every trial and carries both medians.

    The budget, which ``check_budget`` bounds by ``threading.TIMEOUT_MAX``
    when the evaluator is built, covers the whole evaluation. An exception the
    evaluation raises, or its ``sys.exit()``, becomes EXECUTION_ERROR with a
    detail, prefixed with the side (``original``, or ``variant trial 2`` under
    median-of-k) for a program's failure; a KeyboardInterrupt still stops the
    caller. An overrun is never labelled, since its cause is the budget: its
    detail is ``execution budget of {budget}s exceeded`` on either thread,
    wherever the alarm lands, and when the evaluation ends past its deadline
    unstopped, as when its program swallowed ``_BudgetExpired``, set SIGALRM
    to ``SIG_IGN`` or disarmed the timer. On the main thread the budget is a
    deadline that a SIGALRM timer enforces, inside the caller's
    ``alarm_scope`` or a scope of its own, armed only when no alarm is due by
    the deadline (else the handler re-arms the pending alarm for the time
    left); the deadline is set first, so an alarm that lands in between finds
    the evaluation running. Off it, the evaluation runs in a daemon worker
    that can be abandoned, not killed.
    """
    check_budget(budget)
    if pair is not None:
        original, variant, check = pair.original, pair.variant, relation.check
        k = relation.repetitions
    holds, violated = RelationStatus.HOLDS, RelationStatus.VIOLATED
    new, monotonic, get_ident = tuple.__new__, time.monotonic, threading.get_ident

    def evaluate(case: InputCase) -> RelationOutcome:
        global _deadline, _budget, _alarm_due
        if budget is not None and get_ident() != _scope_thread:
            if threading.current_thread() is threading.main_thread():
                with alarm_scope():
                    return evaluate(case)
            return _in_worker(guarded_evaluator(None, body, pair=pair, relation=relation),
                              case, budget)
        side = None   # the running program, whose failure it labels
        try:
            try:   # arming inside it, so a timer that fails to arm leaves no deadline
                if budget is not None:
                    _budget = budget
                    now = monotonic()
                    _deadline = deadline = now + budget
                    if not now < _alarm_due <= deadline:
                        signal.setitimer(signal.ITIMER_REAL, budget)
                        _alarm_due = deadline
                if body is not None:
                    outcome = body(case)
                elif k is not None:
                    payload, (seed, iteration) = case
                    outputs = []
                    # side spans the program's call only, not its source or output
                    for trial in range(k):
                        source = SeededSource(derive_seed(seed, iteration, _SALT_ORIGINAL, trial))
                        side = f"original trial {trial}"
                        outputs.append(original(payload, source))
                        side = None
                    median = sorted(outputs)[k // 2]
                    outputs, passes_needed = [], (k + 1) // 2
                    for trial in range(k):
                        source = SeededSource(derive_seed(seed, iteration, _SALT_VARIANT, trial))
                        side = f"variant trial {trial}"
                        outputs.append(variant(payload, source))
                        side = None
                        if check(median, outputs[-1]):
                            passes_needed -= 1
                            if passes_needed == 0:
                                outcome = RelationOutcome(holds, median)
                                break
                    else:
                        outcome = RelationOutcome(violated, median, sorted(outputs)[k // 2])
                else:
                    payload = case[0]
                    side = "original"
                    first = original(payload)
                    side = "variant"
                    second = variant(payload)
                    side = None
                    outcome = new(RelationOutcome, (holds if check(first, second) else violated,
                                                    first, second, None))
            finally:
                if budget is not None:
                    _deadline = None
            if budget is not None and monotonic() >= deadline:
                return _overrun(budget)
            return outcome
        except _BudgetExpired:
            return _overrun(budget)
        except EXECUTION_FAILURES as exc:
            detail = _describe(exc)
            return new(RelationOutcome, (RelationStatus.EXECUTION_ERROR, None, None,
                                         detail if side is None else f"{side}: {detail}"))

    return evaluate


def _in_worker(unbounded: Evaluator, case: InputCase, budget: float) -> RelationOutcome:
    """``unbounded(case)`` in a daemon worker awaited for ``budget`` seconds."""
    box: dict = {}

    def _worker():
        try:
            box["value"] = unbounded(case)
        except BaseException as exc:  # re-raised on the caller's thread below
            box["error"] = exc

    worker = threading.Thread(target=_worker, daemon=True)
    worker.start()
    worker.join(budget)
    if worker.is_alive():
        return _overrun(budget)
    if "error" in box:
        raise box["error"]
    return box["value"]


def evaluate_pair(pair: ProgramPair, relation: IntramorphicRelation, case: InputCase,
                  *, budget: Optional[float] = DEFAULT_BUDGET_SECONDS) -> RelationOutcome:
    """Judge the relation on one case, at its k if it has one, through the
    guarded evaluation path: without k each program gets the payload alone,
    and an overrun names no side. A budget other than None or seconds above
    0 and below ``threading.TIMEOUT_MAX`` raises as that path's evaluator is
    built, before either program runs."""
    return guarded_evaluator(budget, pair=pair, relation=relation)(case)


def equivalence_relation() -> IntramorphicRelation:
    """Relation for semantics-preserving replacements: outputs must be equal.

    Covers interchangeable components, e.g. one sorting algorithm swapped
    for another with identical observable behavior.
    """
    return IntramorphicRelation(name="equivalence", check=lambda o, v: o == v)
