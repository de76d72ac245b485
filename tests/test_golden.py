"""Golden CLI outputs: the campaign list, every mutant catalog, the detection
matrix as CSV and as JSON, the JSON run report of every (campaign, mutant)
pair, control included, a few run reports as CSV, and runs at a k other
than their campaign's default.

Each output is compared byte for byte with its file under ``tests/golden/``,
without its wall time: JSON ``wall_time_ms`` lines are stripped, and so is
the last field of a CSV run report's data row. After an intended output
change, regenerate the files with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff. CI runs this file again under
two fixed hash seeds, and against the package installed from the wheel.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from intramorph.cli import main
from intramorph.registry import all_campaigns

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = "42"
ITERATIONS = "100"
# (campaign, mutant) runs whose reports are pinned as CSV too: one detected
# mutant per case study, and one control run
CSV_RUNS = (("sorting-intramorphic", "swap-index-i"),
            ("ast-token-multiset", "paren-left-as-right"),
            ("knapsack-optimality", "exhaustive-skip-include"),
            ("montecarlo-convergence", "wrong-scale"),
            ("montecarlo-convergence", None))
# (campaign, mutant, k) runs whose k replaces the campaign's default
K_RUNS = (("montecarlo-convergence", "wrong-scale", 1),
          ("montecarlo-convergence", "wrong-scale", 3))


def run_argv(campaign: str, mutant) -> list[str]:
    argv = ["run", "--campaign", campaign, "--seed", SEED, "--iterations", ITERATIONS]
    return argv if mutant is None else argv + ["--mutant", mutant]


def golden_commands() -> dict[str, list[str]]:
    """Golden file name (relative to GOLDEN_DIR) -> CLI arguments."""
    matrix = ["matrix", "--seed", SEED, "--iterations", ITERATIONS]
    commands = {"list.txt": ["list"],
                "matrix.csv": matrix + ["--format", "csv"],
                "matrix.json": matrix + ["--format", "json"]}
    for campaign in all_campaigns():
        commands[f"mutants/{campaign.name}.txt"] = ["mutants", "--campaign", campaign.name]
        for mutant in (None, *(m.name for m in campaign.mutants)):
            commands[f"run/{campaign.name}--{mutant or 'control'}.json"] = run_argv(
                campaign.name, mutant)
    for campaign, mutant in CSV_RUNS:
        commands[f"csv/{campaign}--{mutant or 'control'}.csv"] = (
            run_argv(campaign, mutant) + ["--format", "csv"])
    for campaign, mutant, k in K_RUNS:
        commands[f"k{k}/{campaign}--{mutant}.json"] = (
            run_argv(campaign, mutant) + ["--k", str(k)])
    return commands


def cli_output(name: str) -> str:
    """The output of golden ``name``'s command, without its wall time."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(COMMANDS[name])
    lines = buffer.getvalue().splitlines(keepends=True)
    if name.startswith("csv/"):
        header, row = lines
        return header + row.rsplit(",", 1)[0] + "\n"
    return "".join(line for line in lines if "wall_time_ms" not in line)


COMMANDS = golden_commands()


def test_golden_set_covers_every_campaign_and_mutant():
    runs = [name for name in COMMANDS if name.startswith("run/")]
    assert len(runs) == 24
    assert sorted(path.relative_to(GOLDEN_DIR).as_posix()
                  for path in GOLDEN_DIR.rglob("*") if path.is_file()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert cli_output(name) == expected


if __name__ == "__main__":
    for file_name in COMMANDS:
        path = GOLDEN_DIR / file_name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(cli_output(file_name), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} golden files under {GOLDEN_DIR}", file=sys.stderr)
