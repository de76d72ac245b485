"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is seeded and deterministic apart from wall time.
"""

import json
import math

from intramorph.cases.ast_printing import (Constant, Operation, Variable,
                                           as_string_infix, as_string_postfix,
                                           as_string_prefix)
from intramorph.cases.knapsack import (KnapsackInstance, KnapsackItem,
                                       knapsack_exhaustive, knapsack_greedy)
from intramorph.cases.montecarlo import pi_approximation
from intramorph.cli import main as cli_main
from intramorph.core import InputCase, Provenance, RelationStatus
from intramorph.generators import random_knapsack_instance
from intramorph.harness import CampaignConfig, run_campaign, run_detection_matrix
from intramorph.registry import all_campaigns, get_campaign
from intramorph.seeds import DerivedSource, SeededSource
from test_knapsack import dp_reference

SEED = 42
CONTROL_SEEDS = (42, 7, 1234, 31337, 2024)

DETERMINISTIC_CAMPAIGNS = (
    "sorting-unit", "sorting-differential", "sorting-metamorphic",
    "sorting-intramorphic", "sorting-equivalence", "ast-token-multiset",
    "knapsack-optimality",
)

BLIND_SPOTS = {("ast-token-multiset", "paren-missing"),
               ("montecarlo-convergence", "boundary-strict")}


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_four_oracles_catch_the_swap_bug():
    """Each oracle style reports a violation for swap-index-i within 1,000 runs."""
    oracles = ("sorting-unit", "sorting-differential", "sorting-metamorphic",
               "sorting-intramorphic")
    for campaign in oracles:
        report = run_campaign(CampaignConfig(campaign=campaign, seed=SEED,
                                             iterations=1000, mutant="swap-index-i"))
        assert report.violations >= 1, f"{campaign} missed swap-index-i"

    unit_report = run_campaign(CampaignConfig(campaign="sorting-unit", seed=SEED,
                                              iterations=1000, mutant="swap-index-i"))
    actual = unit_report.counterexample.variant_output
    assert actual == [1, 2, 1], f"unit oracle actual output {actual} != [1, 2, 1]"
    _report("PASS criterion 1: unit/differential/metamorphic/intramorphic all "
            "detect swap-index-i; unit actual output [1, 2, 1]")


def test_criterion_2_no_false_alarms_on_deterministic_campaigns():
    """10,000 unmutated iterations at 5 seeds per campaign: zero violations."""
    for campaign in DETERMINISTIC_CAMPAIGNS:
        for seed in CONTROL_SEEDS:
            report = run_campaign(CampaignConfig(campaign=campaign, seed=seed,
                                                 iterations=10_000))
            assert report.violations == 0, (
                f"{campaign} raised a false alarm at seed {seed}: "
                f"{report.counterexample}")
            assert report.execution_errors == 0
    _report(f"PASS criterion 2: {len(DETERMINISTIC_CAMPAIGNS)} deterministic "
            f"campaigns x {len(CONTROL_SEEDS)} seeds x 10,000 iterations, 0 violations")


def test_criterion_3_printer_relation_and_mutants():
    """Golden renderings plus detection/blind-spot behavior of printer mutants."""
    tree = Operation("*", Operation("+", Variable("a"), Constant(3)), Constant(2))
    assert as_string_infix(tree) == "(a + 3) * 2"
    assert as_string_prefix(tree) == "* + a 3 2"
    assert as_string_postfix(tree) == "a 3 + 2 *"

    detected = run_campaign(CampaignConfig(campaign="ast-token-multiset", seed=SEED,
                                           iterations=10_000,
                                           mutant="paren-left-as-right"))
    assert detected.violations >= 1, "paren-left-as-right not detected"
    assert detected.first_violation_iteration <= 10_000

    blind = run_campaign(CampaignConfig(campaign="ast-token-multiset", seed=SEED,
                                        iterations=10_000, mutant="paren-missing"))
    assert blind.violations == 0, "paren-missing must stay invisible to the relation"
    _report("PASS criterion 3: golden renderings match; paren-left-as-right detected "
            f"at iteration {detected.first_violation_iteration}; paren-missing 0 violations")


def test_criterion_4_montecarlo_estimates_and_false_alarm_rate():
    """Estimator accuracy, median-of-5 campaign stability, measured k=1 rate."""
    estimate = pi_approximation(100_000, SeededSource(SEED))
    assert abs(estimate - math.pi) < 0.02, f"estimate {estimate} off by >= 0.02"

    aggregated = run_campaign(CampaignConfig(campaign="montecarlo-convergence",
                                             seed=SEED, iterations=100,
                                             stop_on_first_violation=False))
    assert aggregated.violations == 0, (
        f"median-of-5 campaign violated {aggregated.violations}/100 iterations")

    single_trial = run_campaign(CampaignConfig(campaign="montecarlo-convergence",
                                               seed=SEED, iterations=1000,
                                               statistical_repetitions=1,
                                               stop_on_first_violation=False))
    rate = single_trial.violations / 1000
    assert rate < 0.10, f"single-trial false-alarm rate {rate:.3f} >= 10%"
    _report(f"PASS criterion 4: |estimate - pi| = {abs(estimate - math.pi):.5f} < 0.02; "
            f"median-of-5 held 100/100; measured k=1 false-alarm rate "
            f"{rate:.3%} (< 10%)")


def test_criterion_5_knapsack_oracle_equivalence_and_strictness_witness():
    """Exhaustive == table reference and >= greedy over 10,000 instances."""
    strict_seen = 0
    for iteration in range(1, 10_001):
        source = DerivedSource(SEED, iteration)
        instance = random_knapsack_instance(source)
        exhaustive = knapsack_exhaustive(instance)
        greedy = knapsack_greedy(instance)
        reference = dp_reference(instance)
        assert exhaustive.cum_value == reference, (
            f"exhaustive {exhaustive.cum_value} != reference {reference} on {instance}")
        assert exhaustive.cum_value >= greedy.cum_value, f"relation broken on {instance}"
        assert exhaustive.feasible and greedy.feasible
        strict_seen += exhaustive.cum_value > greedy.cum_value

    witness = KnapsackInstance((KnapsackItem("A", 7, 4), KnapsackItem("B", 4, 3)), 6)
    witness_exhaustive = knapsack_exhaustive(witness).cum_value
    witness_greedy = knapsack_greedy(witness).cum_value
    assert dp_reference(witness) == 8
    assert witness_exhaustive == 8 and witness_greedy == 7
    assert strict_seen >= 1, "degenerate corpus: greedy was always optimal"
    _report(f"PASS criterion 5: 10,000 instances, exhaustive == reference and "
            f">= greedy everywhere; witness 8 > 7; {strict_seen} strictly-better instances")


def test_criterion_6_replay_determinism(tmp_path, capsys):
    """Identical flags give byte-identical JSON modulo wall_time_ms; shrunk
    counterexamples still violate when replayed."""
    argv = ["run", "--campaign", "sorting-intramorphic", "--mutant", "swap-index-i",
            "--seed", str(SEED), "--iterations", "1000"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert cli_main(argv + ["--report", str(first)]) == 1
    assert cli_main(argv + ["--report", str(second)]) == 1
    capsys.readouterr()

    def stripped(path):
        return [line for line in path.read_bytes().splitlines()
                if b"wall_time_ms" not in line]

    assert stripped(first) == stripped(second), "reports differ beyond wall_time_ms"

    replayable = json.loads(first.read_text(encoding="utf-8"))
    report = run_campaign(CampaignConfig(
        campaign=replayable["campaign"], seed=replayable["seed"],
        iterations=replayable["iterations_run"], mutant=replayable["mutant"]))
    assert report.violations == replayable["violations"]

    campaign = get_campaign("sorting-intramorphic")
    evaluator = campaign.build_evaluator(campaign.programs("swap-index-i"), None, 5.0)
    shrunk = InputCase(report.counterexample.payload,
                       Provenance(SEED, report.first_violation_iteration))
    assert evaluator(shrunk).status is RelationStatus.VIOLATED, (
        "shrunk counterexample no longer violates on replay")
    _report("PASS criterion 6: byte-identical reports modulo wall_time_ms; "
            "replayed counterexample still violates")


def test_criterion_7_detection_matrix_with_exact_blind_spots():
    """Every in-matrix mutant detected except the two documented blind spots."""
    matrix = run_detection_matrix(seed=SEED, iterations=100)
    campaigns_seen = {cell.campaign for cell in matrix.cells}
    assert campaigns_seen == {c.name for c in all_campaigns()}

    misclassified = []
    for cell in matrix.cells:
        if cell.mutant is None:
            if cell.detected:
                misclassified.append((cell.campaign, "control", "false alarm"))
            continue
        expected = (cell.campaign, cell.mutant) not in BLIND_SPOTS
        if cell.detected != expected:
            misclassified.append((cell.campaign, cell.mutant,
                                  "missed" if expected else "blind spot detected"))
    assert not misclassified, f"matrix misclassifications: {misclassified}"

    mutant_cells = [cell for cell in matrix.cells if cell.mutant is not None]
    assert len(mutant_cells) == 15
    detected = sum(cell.detected for cell in mutant_cells)
    assert detected == len(mutant_cells) - len(BLIND_SPOTS)
    _report(f"PASS criterion 7: {detected}/{len(mutant_cells)} mutants detected; "
            "paren-missing and boundary-strict correctly undetected; controls clean")
