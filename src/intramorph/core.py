"""Core vocabulary: program pairs, relations, outcomes, and their evaluation.

A variant program is derived from an original by swapping one component; the
declared relation between the two outputs on a shared input is the oracle.
Everything here is pure given the input's provenance, so any outcome can be
reproduced from (seed, iteration) alone.
"""

from __future__ import annotations

import math
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple, Optional

from .seeds import DerivedSource, SeededSource, derive_seed, premixed_sources

DEFAULT_BUDGET_SECONDS = 5.0

# Salt layout under (seed, iteration): keeps generation, the two program
# executions, and auxiliary picks on disjoint substreams.
_SALT_GENERATE = 0
_SALT_ORIGINAL = 1
_SALT_VARIANT = 2
_SALT_PICKER = 3

# generation_sources: the first iterations of a run derive their sources one
# by one, and the rest come in vectorized blocks that double from the first
# size up to the largest. A block has a fixed cost of about 30 us, where the
# scalar path spends about 2 us deriving a seed and 1 us per draw, and most
# runs that find their bug stop within 8 iterations (all but 29 of the 1,100
# runs of the benchmark's detect workload at one seed), before the first
# block is built.
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
    """A program exceeded its execution budget (time or search size)."""


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
# frozen dataclass, at about half its construction cost.
class Provenance(NamedTuple):
    """Root seed plus iteration index; regenerates the payload exactly."""

    seed: int
    iteration: int


class InputCase(NamedTuple):
    payload: Any
    provenance: Provenance


@dataclass(frozen=True)
class ProgramPair:
    """Original and variant as pure functions of (payload, source).

    Both callables must be deterministic given their arguments; stochastic
    programs draw all randomness from the explicit source. Payloads are
    immutable values, so neither side can disturb the other.
    """

    original: Callable[[Any, SeededSource], Any]
    variant: Callable[[Any, SeededSource], Any]
    descriptor: TransformationDescriptor


@dataclass(frozen=True)
class StatisticalConfig:
    """Median-of-k aggregation for relations that can raise false alarms.

    ``summary`` maps one output to the scalar the relation is really about,
    and ``compare`` must agree with the owning relation's ``check`` in the
    sense that check(o, v) == compare(summary(o), summary(v)).

    For every fixed ``m``, the summaries ``v`` with ``compare(m, v)`` must
    form a down-set or an up-set of the summaries' order (as they do for
    ``operator.ge`` or ``operator.le``). Then, for odd k, ``compare(m,
    median(V))`` holds exactly when ``compare(m, v)`` holds for at least
    (k+1)/2 elements v of V, which is what lets the evaluation stop once
    that many variant trials pass.
    """

    repetitions: int
    summary: Callable[[Any], float]
    compare: Callable[[float, float], bool]

    def __post_init__(self) -> None:
        # exactly int: a float k cannot index trials, and True would run as k=1
        if (type(self.repetitions) is not int or self.repetitions < 1
                or self.repetitions % 2 == 0):
            raise ConfigurationError(
                f"statistical repetitions must be a positive odd integer, got {self.repetitions!r}")


@dataclass(frozen=True)
class IntramorphicRelation:
    """Total predicate over (original output, variant output)."""

    name: str
    check: Callable[[Any, Any], bool]
    statistical: Optional[StatisticalConfig] = None


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


def original_source(provenance: Provenance, trial: int) -> SeededSource:
    return DerivedSource(provenance.seed, provenance.iteration, _SALT_ORIGINAL, trial)


def variant_source(provenance: Provenance, trial: int) -> SeededSource:
    return DerivedSource(provenance.seed, provenance.iteration, _SALT_VARIANT, trial)


def picker_source(provenance: Provenance) -> SeededSource:
    return DerivedSource(provenance.seed, provenance.iteration, _SALT_PICKER)


class _BudgetExpired(BaseException):
    """Raised on overrun; not an Exception, so only a program that catches
    BaseException can swallow it, and ``_timed`` still counts that
    evaluation as an overrun once it ends past its deadline."""


class ProgramFailed(Exception):
    """A program raised or overran; carries its label, chains the cause."""


# what an evaluation may raise and still be counted as an execution error;
# a KeyboardInterrupt stops the caller
EXECUTION_FAILURES = (Exception, SystemExit, _BudgetExpired)


# The budget's SIGALRM handler is installed once per alarm scope (a whole
# campaign run) on the main thread, where each evaluation sets a deadline and
# arms the one-shot timer only when no alarm is due by it (``_timed``). This
# state is read and written on the main thread only.
_scope_depth = 0         # open alarm scopes; the outermost one owns the handler
_scope_thread = None     # thread ident of the open scopes' owner, None with none open
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
    disarms the timer and restores the previous handler; nested scopes
    change nothing. Inside a scope, ``guarded_evaluation`` sets a deadline
    and arms the timer only when no alarm is due by then, so a run of fast
    evaluations arms it once. Off the main thread, where no signal handler
    can be set, the scope does nothing.
    """
    global _scope_depth, _scope_thread, _alarm_due
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = None
    if _scope_depth == 0:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        _scope_thread = threading.get_ident()
    _scope_depth += 1
    try:
        yield
    finally:
        _scope_depth -= 1
        if _scope_depth == 0:
            _scope_thread = None
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            _alarm_due = math.inf
            signal.signal(signal.SIGALRM, previous)


def check_budget(budget: Optional[float]) -> None:
    """Reject a budget that is not None or a positive finite number of
    seconds: a zero budget would disarm the timer and run unbounded, and an
    infinite or nan one would fail every evaluation."""
    if budget is None:
        return
    # True would run as 1 s, and a string fails the comparison with a TypeError
    if (isinstance(budget, bool) or not isinstance(budget, (int, float))
            or not 0 < budget < math.inf):   # false for nan as well
        raise ConfigurationError(
            f"budget must be None or a positive finite number of seconds, got {budget!r}")


def _describe(exc: BaseException, budget: Optional[float]) -> str:
    if isinstance(exc, ProgramFailed):
        return f"{exc}: {_describe(exc.__cause__, budget)}"
    if isinstance(exc, _BudgetExpired):
        return f"execution budget of {budget}s exceeded"
    return f"{type(exc).__name__}: {exc}"


def _timed(body: Callable[[InputCase], RelationOutcome], case: InputCase,
           budget: float) -> RelationOutcome:
    """body(case) under a deadline ``budget`` seconds away; needs an open
    alarm scope on the main thread.

    The timer is armed only when no alarm is due by the deadline: on the
    scope's first evaluation, under a budget shorter than the pending alarm
    allows, or after the handler found nothing running. Otherwise the
    pending alarm comes first, and the handler re-arms it for the time left.
    The deadline is set before the timer is checked, so an alarm that lands
    in between finds the evaluation running.

    An evaluation that ends at or past its deadline is an overrun even when
    no alarm stopped it: its program may have swallowed ``_BudgetExpired``,
    or set SIGALRM to ``SIG_IGN``, which leaves the scope's later
    evaluations unbounded but still counted. A program that disarms the
    timer itself (``setitimer(ITIMER_REAL, 0)``) leaves its own evaluation
    and those that start before its lost alarm was due unbounded, but
    counted; an evaluation that starts later arms it again.
    """
    global _deadline, _budget, _alarm_due
    _budget = budget
    try:
        now = time.monotonic()
        _deadline = deadline = now + budget
        if not now < _alarm_due <= deadline:
            signal.setitimer(signal.ITIMER_REAL, budget)
            _alarm_due = deadline
        outcome = body(case)
    finally:
        _deadline = None
    if time.monotonic() >= deadline:
        raise _BudgetExpired()
    return outcome


def guarded_evaluation(body: Callable[[InputCase], RelationOutcome], case: InputCase,
                       budget: Optional[float]) -> RelationOutcome:
    """The one evaluation path: run ``body(case)`` under one wall-clock budget.

    The budget covers the whole body: every program call and trial, the
    relation and any summary. An overrun, an exception the body raises, or
    its ``sys.exit()``, becomes EXECUTION_ERROR with a detail, prefixed with
    the side for a program's failure; a KeyboardInterrupt still stops the
    caller. On the main thread the budget is a deadline that a
    SIGALRM timer enforces, inside the caller's ``alarm_scope`` or,
    outside one, inside a scope of its own for this one evaluation, which
    arms the timer and disarms it again. Off the main thread, where no
    interval timer can be used, the body runs in a daemon worker that can be
    abandoned, not killed.
    """
    try:
        if budget is None:
            return body(case)
        if threading.get_ident() == _scope_thread:
            return _timed(body, case, budget)
        if threading.current_thread() is threading.main_thread():
            with alarm_scope():
                return _timed(body, case, budget)

        box: dict = {}

        def _worker():
            try:
                box["value"] = body(case)
            except BaseException as exc:  # re-raised on the caller's thread below
                box["error"] = exc

        worker = threading.Thread(target=_worker, daemon=True)
        worker.start()
        worker.join(budget)
        if worker.is_alive():
            raise _BudgetExpired()
        if "error" in box:
            raise box["error"]
        return box["value"]
    except EXECUTION_FAILURES as exc:
        return RelationOutcome.execution_error(_describe(exc, budget))


def _run_program(side: str, fn: Callable, payload: Any, source: SeededSource) -> Any:
    """fn(payload, source), with a failure labelled by its side."""
    try:
        return fn(payload, source)
    except EXECUTION_FAILURES as exc:
        raise ProgramFailed(side) from exc


def pair_evaluation(pair: ProgramPair, relation: IntramorphicRelation
                    ) -> Callable[[InputCase], RelationOutcome]:
    """The unguarded body that runs both programs on a case and judges the
    relation, median-of-k if it has a statistical config. Each side draws
    from its own source derived from the case's provenance, so the outcome
    is a pure function of (pair, relation, case)."""
    if (relation.statistical is not None) != pair.descriptor.false_alarm_possible:
        raise ConfigurationError(
            "statistical config must be present exactly when the descriptor "
            "declares false alarms possible")
    if relation.statistical is None:
        return lambda case: _evaluate_single(pair, relation, case)
    return lambda case: _evaluate_statistical(pair, relation.statistical, case)


def evaluate_pair(pair: ProgramPair, relation: IntramorphicRelation, case: InputCase,
                  *, budget: Optional[float] = DEFAULT_BUDGET_SECONDS) -> RelationOutcome:
    """Judge the relation on one case through the guarded evaluation path."""
    check_budget(budget)
    return guarded_evaluation(pair_evaluation(pair, relation), case, budget)


def _evaluate_single(pair: ProgramPair, relation: IntramorphicRelation,
                     case: InputCase) -> RelationOutcome:
    original_out = _run_program("original", pair.original, case.payload,
                                original_source(case.provenance, 0))
    variant_out = _run_program("variant", pair.variant, case.payload,
                               variant_source(case.provenance, 0))
    return RelationOutcome.from_check(relation.check(original_out, variant_out),
                                      original_out, variant_out)


def _evaluate_statistical(pair: ProgramPair, config: StatisticalConfig,
                          case: InputCase) -> RelationOutcome:
    """Median-of-k: each side runs up to k times on derived sub-sources, and
    the verdict compares the two sides' median summaries; with k=1 it
    coincides with the single-run verdict.

    The k original trials run first. The variant trials then run in trial
    order and stop as soon as (k+1)/2 of them satisfy ``compare`` against
    the original median: by the down-set/up-set requirement on ``compare``,
    the variant median then satisfies it too, whatever the remaining trials
    would give. Such a holding outcome carries the original median and no
    variant output. A violation runs every trial and carries both medians.
    """
    original_median = statistics.median(
        config.summary(_run_program(f"original trial {trial}", pair.original, case.payload,
                                    original_source(case.provenance, trial)))
        for trial in range(config.repetitions))
    passes_needed = (config.repetitions + 1) // 2
    variant_summaries = []
    for trial in range(config.repetitions):
        out = _run_program(f"variant trial {trial}", pair.variant, case.payload,
                           variant_source(case.provenance, trial))
        variant_summaries.append(config.summary(out))
        if config.compare(original_median, variant_summaries[-1]):
            passes_needed -= 1
            if passes_needed == 0:
                return RelationOutcome(RelationStatus.HOLDS, original_median)
    return RelationOutcome(RelationStatus.VIOLATED, original_median,
                           statistics.median(variant_summaries))


def equivalence_relation() -> IntramorphicRelation:
    """Relation for semantics-preserving replacements: outputs must be equal.

    Covers interchangeable components, e.g. one sorting algorithm swapped
    for another with identical observable behavior.
    """
    return IntramorphicRelation(name="equivalence", check=lambda o, v: o == v)
