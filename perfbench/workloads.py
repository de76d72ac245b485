"""Benchmark workloads, the round that runs them, and the correctness gate.

A workload is a fixed list of (campaign, mutant, iterations) cells. One
round runs every cell once, each with its own campaign seed derived from the
workload seed, the round index and the cell index. Rounds run one after the
other in a single process and a single thread: the next campaign run starts
only when the previous report is serialized (a closed loop with one caller).

The program under test is reached only through its public entry points:
``harness.run_campaign``, the ``Campaign`` records of
``registry.default_registry()``, and ``report.campaign_report_document`` +
``report.to_json``, the same calls ``intramorph run`` makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from intramorph.core import RelationStatus
from intramorph.harness import CampaignConfig, run_campaign
from intramorph.report import campaign_report_document, to_json

# Iteration cap for the detect cells. Every catalogued mutant is caught
# within 20 iterations on the seeds tried; the cap only bounds a broken run.
DETECT_ITERATIONS = 1000

# Every campaign run must end without an execution error, with one
# exception: the exhaustive knapsack search overruns its 5 s time budget on
# rare generated instances (campaign seed 13990579191218416818, iteration 25:
# six weight-1 items at capacity 48 take about 15 s). One such overrun in a
# benchmark run counts as a failed operation; any other execution error, or
# a second overrun, fails the gate.
TOLERATED_OVERRUN_CAMPAIGN = "knapsack-optimality"
TOLERATED_OVERRUNS = 1
BUDGET_OVERRUN = re.compile(r"^(original|variant): execution budget of \S+s exceeded$")


@dataclass(frozen=True)
class Cell:
    campaign: str
    mutant: Optional[str]
    iterations: int
    expect_detected: bool


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    # Rounds that every run makes: the report digest covers them and the
    # traced pass replays exactly them.
    fixed_rounds: int


def _holds(campaign: str, mutant: Optional[str], iterations: int) -> Cell:
    return Cell(campaign, mutant, iterations, expect_detected=False)


def _detects(campaign: str, mutant: str) -> Cell:
    return Cell(campaign, mutant, DETECT_ITERATIONS, expect_detected=True)


# Why each workload is here is recorded in BENCHMARK.json. In holds-fast,
# the report times form three clusters: three cells under 16 ms,
# sorting-intramorphic alone, and three cells over 34 ms (sorting-equivalence
# runs 600 iterations to join the two printer cells). The median report is
# then sorting-intramorphic's median; at 400 iterations (about 26 ms) its
# times stay clear of both neighbouring clusters, where at 500 they reached
# into the upper one and report_p50_ms jumped between clusters. In holds-heavy,
# 30 knapsack iterations take about as long on average as one Monte Carlo
# iteration, so the knapsack search and the unit_block draws each get about
# half a round. Most knapsack reports still finish well under a Monte Carlo
# report, so report_p90_ms sits at the top of the narrow Monte Carlo cluster
# instead of inside the knapsack search's heavy tail (at 40 iterations it
# did, and moved 13% between runs with the host's speed).
WORKLOADS = {w.name: w for w in (
    Workload("holds-fast", (
        _holds("sorting-unit", None, 500),
        _holds("sorting-differential", None, 500),
        _holds("sorting-metamorphic", None, 500),
        _holds("sorting-intramorphic", None, 400),
        _holds("sorting-equivalence", None, 600),
        _holds("ast-token-multiset", None, 500),
        _holds("ast-token-multiset", "paren-missing", 500),
    ), fixed_rounds=12),
    Workload("holds-heavy", (
        _holds("knapsack-optimality", None, 30),
        _holds("knapsack-optimality", "greedy-sort-ascending", 30),
        _holds("montecarlo-convergence", None, 1),
        _holds("montecarlo-convergence", "boundary-strict", 1),
    ), fixed_rounds=12),
    Workload("detect", (
        _detects("sorting-unit", "swap-index-i"),
        _detects("sorting-differential", "swap-index-i"),
        _detects("sorting-metamorphic", "swap-index-i"),
        _detects("sorting-intramorphic", "swap-index-i"),
        _detects("sorting-intramorphic", "comparison-flip-reverse"),
        _detects("sorting-intramorphic", "sort-ascending-in-reverse"),
        _detects("sorting-equivalence", "swap-index-i"),
        _detects("ast-token-multiset", "paren-left-as-right"),
        _detects("ast-token-multiset", "drop-right-operand"),
        _detects("knapsack-optimality", "exhaustive-skip-include"),
        _detects("knapsack-optimality", "greedy-capacity-off-by-one"),
    ), fixed_rounds=100),
)}


def campaign_seed(workload_seed: int, round_index: int, cell_index: int) -> int:
    """64-bit campaign seed for one cell of one round.

    Derived with SHA-256 rather than the program's own seed splitting, so the
    inputs stay the same if that code changes.
    """
    text = f"{workload_seed}/{round_index}/{cell_index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def gate(cell: Cell, seed: int, document: dict) -> Optional[str]:
    """None when the report's verdict is what the cell expects, else a
    description that names the offending (campaign, mutant, seed).

    Execution errors are judged by ``RoundRunner``, which can replay the run
    to learn what they were.
    """
    violations = document["violations"]
    if cell.expect_detected:
        ok = violations >= 1 and "counterexample" in document
        expected = "a violation with a counterexample"
    else:
        ok = violations == 0 and document["iterations_run"] == cell.iterations
        expected = f"{cell.iterations} iterations without a violation"
    if ok:
        return None
    return (f"{_label(cell, seed)}: expected {expected}, got violations={violations} "
            f"iterations_run={document['iterations_run']}")


def _label(cell: Cell, seed: int) -> str:
    return f"campaign={cell.campaign} mutant={cell.mutant or 'none'} seed={seed}"


def error_details(config: CampaignConfig, registry: dict) -> list[str]:
    """Replays one campaign run and returns the detail of each execution
    error it reports, read from the evaluator's outcomes."""
    details: list[str] = []
    campaign = registry[config.campaign]

    def build_evaluator(*args):
        evaluate = campaign.build_evaluator(*args)

        def recording(case):
            outcome = evaluate(case)
            if outcome.status is RelationStatus.EXECUTION_ERROR:
                details.append(outcome.error_detail)
            return outcome

        return recording

    replay = dataclasses.replace(campaign, build_evaluator=build_evaluator)
    run_campaign(config, registry={**registry, config.campaign: replay})
    return details


def serialize_report(report, campaign) -> str:
    """The JSON text ``intramorph run`` would print for this report."""
    return to_json(campaign_report_document(report, campaign))


@dataclass
class Sample:
    """One campaign run: its latency and the iterations it evaluated."""

    latency_s: float
    iterations: int


@dataclass
class RoundRunner:
    """Runs rounds of one workload against one registry.

    ``run`` and ``serialize`` default to the program's entry points; the
    traced pass passes wrapped versions of the same calls.
    """

    workload: Workload
    workload_seed: int
    registry: dict
    run: Callable = run_campaign
    serialize: Callable = serialize_report

    def __post_init__(self) -> None:
        self.mismatches: list[str] = []
        self.evaluations = 0
        self.execution_errors = 0
        self.failed_runs: list[str] = []
        self.tolerated_overruns = 0
        self._digest = hashlib.sha256()

    def run_round(self, round_index: int) -> list[Sample]:
        samples = []
        clock = time.perf_counter
        for cell_index, cell in enumerate(self.workload.cells):
            seed = campaign_seed(self.workload_seed, round_index, cell_index)
            config = CampaignConfig(campaign=cell.campaign, seed=seed,
                                    iterations=cell.iterations, mutant=cell.mutant)
            campaign = self.registry[cell.campaign]
            started = clock()
            text = self.serialize(self.run(config, registry=self.registry), campaign)
            latency = clock() - started
            document = json.loads(text)
            mismatch = gate(cell, seed, document)
            if mismatch is not None:
                self.mismatches.append(mismatch)
            errors = document["execution_errors"]
            if errors:
                self.judge_errors(cell, config, errors)
            self.evaluations += document["iterations_run"]
            self.execution_errors += errors
            if round_index < self.workload.fixed_rounds:
                del document["wall_time_ms"]
                self._digest.update(json.dumps(document).encode())
            samples.append(Sample(latency, document["iterations_run"]))
        return samples

    def judge_errors(self, cell: Cell, config: CampaignConfig, errors: int) -> None:
        """Names a run that reported execution errors and fails the gate
        unless they are the one tolerated knapsack budget overrun."""
        details = error_details(config, self.registry)
        label = _label(cell, config.seed)
        described = "; ".join(f"{count} x {detail}" for detail, count in Counter(details).items())
        self.failed_runs.append(f"{label}: {errors} execution error(s): {described}")
        tolerated = (cell.campaign == TOLERATED_OVERRUN_CAMPAIGN
                     and len(details) == errors
                     and all(BUDGET_OVERRUN.match(detail) for detail in details)
                     and self.tolerated_overruns + errors <= TOLERATED_OVERRUNS)
        if tolerated:
            self.tolerated_overruns += errors
        else:
            self.mismatches.append(
                f"{label}: expected no execution error beyond {TOLERATED_OVERRUNS} knapsack "
                f"budget overrun per benchmark run, got {errors}: {described}")

    def digest(self) -> str:
        """SHA-256 over the fixed rounds' reports, wall_time_ms stripped."""
        return self._digest.hexdigest()
