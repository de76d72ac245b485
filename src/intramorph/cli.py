"""Command-line interface: list campaigns, inspect mutants, run campaigns,
and produce detection matrices.

Exit codes: 0 completed with zero violations, 1 violation(s) found,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .core import ConfigurationError
from .harness import CampaignConfig, run_campaign, run_detection_matrix
from .registry import all_campaigns, get_campaign
from .report import (campaign_report_csv, campaign_report_document, emit_report,
                     matrix_report_csv, matrix_report_document, to_json)

SEED_ENV_VAR = "INTRAMORPH_SEED"
DEFAULT_SEED = 42


class _CliParser(argparse.ArgumentParser):
    def error(self, message):   # one-line diagnostic, exit 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="intramorph",
                        description="Seeded random-testing campaigns over program pairs")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered campaigns")

    mutants = commands.add_parser("mutants", help="list a campaign's mutant catalog")
    mutants.add_argument("--campaign", required=True)

    run = commands.add_parser("run", help="run one campaign")
    run.add_argument("--campaign", required=True)
    run.add_argument("--mutant", default=None)
    run.add_argument("--seed", type=int, default=None,
                     help=f"defaults to ${SEED_ENV_VAR} or {DEFAULT_SEED}")
    run.add_argument("--iterations", type=int, default=1000)
    run.add_argument("--report", default=None, help="write the report here instead of stdout")
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--k", type=int, default=None,
                     help="statistical repetitions override (stochastic campaigns only)")

    matrix = commands.add_parser("matrix", help="run every campaign against its mutant catalog")
    matrix.add_argument("--seed", type=int, default=None)
    matrix.add_argument("--iterations", type=int, default=100)
    matrix.add_argument("--report", default=None)
    matrix.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        try:
            return int(env_value)
        except ValueError:
            raise ConfigurationError(
                f"{SEED_ENV_VAR} must be an integer, got {env_value!r}") from None
    return DEFAULT_SEED


def _command_list() -> int:
    for campaign in all_campaigns():
        descriptor = (campaign.descriptor.summary() if campaign.descriptor is not None
                      else "baseline oracle (no transformation)")
        print(f"{campaign.name}  [{campaign.oracle_style}] case={campaign.case_study} "
              f"mutants={len(campaign.mutants)}  {descriptor}")
    return 0


def _command_mutants(campaign_name: str) -> int:
    campaign = get_campaign(campaign_name)
    if not campaign.mutants:
        print(f"{campaign.name}: no catalogued mutants")
        return 0
    for mutant in campaign.mutants:
        line = f"{mutant.name}  [{mutant.expectation_label()}]  {mutant.summary}"
        if mutant.note:
            line += f" ({mutant.note})"
        print(line)
    return 0


def _command_run(args) -> int:
    config = CampaignConfig(
        campaign=args.campaign,
        seed=_resolve_seed(args.seed),
        iterations=args.iterations,
        mutant=args.mutant,
        statistical_repetitions=args.k)
    report = run_campaign(config)
    document = campaign_report_document(report, get_campaign(args.campaign))
    text = to_json(document) if args.format == "json" else campaign_report_csv(document)
    emit_report(text, args.report)
    return 1 if report.violations > 0 else 0


def _command_matrix(args) -> int:
    matrix = run_detection_matrix(seed=_resolve_seed(args.seed), iterations=args.iterations)
    document = matrix_report_document(matrix)
    text = to_json(document) if args.format == "json" else matrix_report_csv(document)
    emit_report(text, args.report)
    return 1 if matrix.total_violations() > 0 else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _command_list()
        if args.command == "mutants":
            return _command_mutants(args.campaign)
        if args.command == "run":
            return _command_run(args)
        return _command_matrix(args)
    except (_UsageError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
