"""Bounded random-testing loop: generate, evaluate, shrink violations, report.

Reports are a pure function of the configuration (wall time aside): each
input is the one generated from a source derived as (seed, iteration),
whether alone or in a block, and every evaluation draws its randomness from
the input's provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .campaign import Campaign, Evaluator
from .core import (ConfigurationError, InputCase, Provenance, RelationStatus,
                   DEFAULT_BUDGET_SECONDS, alarm_scope, generated_payloads)
from .registry import default_registry, get_campaign

__all__ = [
    "CampaignConfig", "Counterexample", "CampaignReport", "run_campaign",
    "MatrixCell", "MatrixReport", "run_detection_matrix",
]

_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class CampaignConfig:
    campaign: str
    seed: int
    iterations: int
    mutant: Optional[str] = None
    statistical_repetitions: Optional[int] = None
    stop_on_first_violation: bool = True
    budget_seconds: Optional[float] = DEFAULT_BUDGET_SECONDS


@dataclass(frozen=True)
class Counterexample:
    """Shrunk violating input with the outputs it produced on re-evaluation."""

    payload: Any
    original_output: Any
    variant_output: Any


@dataclass(frozen=True)
class CampaignReport:
    campaign: str
    seed: int
    mutant: Optional[str]
    iterations_run: int
    violations: int
    first_violation_iteration: Optional[int]
    counterexample: Optional[Counterexample]
    execution_errors: int
    statistical_repetitions: Optional[int]
    wall_time_ms: int


def _validate_config(config: CampaignConfig, campaign: Campaign) -> None:
    # exactly int: a float fails deep in the run, and True would run as 1
    if type(config.seed) is not int or not 0 <= config.seed < _SEED_LIMIT:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {config.seed!r}")
    if type(config.iterations) is not int or config.iterations < 1:
        raise ConfigurationError(f"iterations must be an integer >= 1, got {config.iterations!r}")
    # the budget is checked as the evaluator is built, an even or negative k as the relation is
    if config.statistical_repetitions is not None and not campaign.stochastic:
        raise ConfigurationError(
            f"campaign {campaign.name!r} is deterministic; "
            f"statistical repetitions do not apply")


def _shrink_violation(case: InputCase, outcome, evaluator: Evaluator,
                      campaign: Campaign) -> tuple[InputCase, Any]:
    """Greedy first-improvement shrink: take the first candidate that still
    violates, repeat until no candidate does. Terminates because every
    candidate is strictly smaller under the payload's size measure.

    Every candidate keeps the violating input's provenance, so its verdict
    depends on its payload alone. Each distinct payload is therefore
    evaluated at most once per shrink: a candidate that held, failed or
    overran its budget is not retried when a later step offers it again.
    A payload that cannot be hashed is evaluated each time it is offered.
    """
    current_case, current_outcome = case, outcome
    tried: set = set()
    new, violated = tuple.__new__, RelationStatus.VIOLATED
    improved = True
    while improved:
        improved = False
        for candidate_payload in campaign.shrink_payload(current_case.payload):
            try:
                if candidate_payload in tried:
                    continue
                tried.add(candidate_payload)
            except TypeError:   # unhashable payload
                pass
            candidate = new(InputCase, (candidate_payload, current_case.provenance))
            candidate_outcome = evaluator(candidate)
            if candidate_outcome.status is violated:
                current_case, current_outcome = candidate, candidate_outcome
                improved = True
                break
    return current_case, current_outcome


def run_campaign(config: CampaignConfig, registry: Optional[Mapping[str, Campaign]] = None
                 ) -> CampaignReport:
    """Evaluate up to ``iterations`` generated inputs.

    Stops at the first violation unless configured to keep counting; the
    first violating input is shrunk to a local minimum (no shrink candidate
    still violates). Execution errors are counted separately and never stop
    the run.
    """
    campaign = get_campaign(config.campaign, registry)
    _validate_config(config, campaign)

    # what runs is resolved from the record in hand, so a campaign copy runs
    # the components and mutants it holds
    programs = campaign.programs(config.mutant)   # raises UnknownMutantError
    repetitions = (campaign.default_repetitions if config.statistical_repetitions is None
                   else config.statistical_repetitions)
    evaluator = campaign.build_evaluator(programs, repetitions, config.budget_seconds)

    started = time.monotonic()
    violations = 0
    execution_errors = 0
    first_violation: Optional[int] = None
    counterexample: Optional[Counterexample] = None
    iterations_run = 0

    seed, new = config.seed, tuple.__new__
    payloads = generated_payloads(campaign.generate, campaign.generate_block, seed,
                                  config.iterations)
    failed, violated = RelationStatus.EXECUTION_ERROR, RelationStatus.VIOLATED
    # one SIGALRM handler for the whole run, shrinking included; evaluations
    # set deadlines and arm the timer only when no alarm is due by theirs
    with alarm_scope():
        for iteration, payload in enumerate(payloads, start=1):
            iterations_run = iteration
            case = new(InputCase, (payload, new(Provenance, (seed, iteration))))
            outcome = evaluator(case)
            status = outcome.status
            if status is failed:
                execution_errors += 1
                continue
            if status is violated:
                violations += 1
                if first_violation is None:
                    first_violation = iteration
                    shrunk_case, shrunk_outcome = _shrink_violation(
                        case, outcome, evaluator, campaign)
                    counterexample = Counterexample(
                        payload=shrunk_case.payload,
                        original_output=shrunk_outcome.original_output,
                        variant_output=shrunk_outcome.variant_output)
                if config.stop_on_first_violation:
                    break

    wall_time_ms = int((time.monotonic() - started) * 1000)
    return CampaignReport(
        campaign=config.campaign,
        seed=config.seed,
        mutant=config.mutant,
        iterations_run=iterations_run,
        violations=violations,
        first_violation_iteration=first_violation,
        counterexample=counterexample,
        execution_errors=execution_errors,
        statistical_repetitions=repetitions,
        wall_time_ms=wall_time_ms)


@dataclass(frozen=True)
class MatrixCell:
    campaign: str
    mutant: Optional[str]           # None is the unmutated control column
    detected: bool
    first_violation_iteration: Optional[int]
    violations: int
    iterations_run: int
    execution_errors: int
    expected_detected: Optional[bool]   # None for the control column


@dataclass(frozen=True)
class MatrixReport:
    seed: int
    iterations: int
    cells: tuple[MatrixCell, ...]
    wall_time_ms: int

    def total_violations(self) -> int:
        return sum(cell.violations for cell in self.cells)


def run_detection_matrix(*, seed: int, iterations: int,
                         registry: Optional[Mapping[str, Campaign]] = None) -> MatrixReport:
    """One campaign run per (oracle, mutant) cell, plus an unmutated control
    column per campaign as the false-alarm check.

    Every campaign of ``registry`` (by default the registered ones) runs
    against its matrix catalog, in catalog order.
    """
    registry = registry if registry is not None else default_registry()
    started = time.monotonic()
    cells: list[MatrixCell] = []
    for campaign in registry.values():
        columns: list[tuple[Optional[str], Optional[bool]]] = [(None, None)]
        columns += [(mutant.name, mutant.expected_detected)
                    for mutant in campaign.matrix_mutants()]
        for mutant_name, expected in columns:
            report = run_campaign(CampaignConfig(
                campaign=campaign.name, seed=seed, iterations=iterations,
                mutant=mutant_name), registry=registry)
            cells.append(MatrixCell(
                campaign=campaign.name,
                mutant=mutant_name,
                detected=report.violations > 0,
                first_violation_iteration=report.first_violation_iteration,
                violations=report.violations,
                iterations_run=report.iterations_run,
                execution_errors=report.execution_errors,
                expected_detected=expected))

    wall_time_ms = int((time.monotonic() - started) * 1000)
    return MatrixReport(seed=seed, iterations=iterations, cells=tuple(cells),
                        wall_time_ms=wall_time_ms)
