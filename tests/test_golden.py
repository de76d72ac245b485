"""Golden CLI outputs: the campaign list, every mutant catalog, the detection
matrix and the run report of every (campaign, mutant) pair, control included.

Each output is compared byte for byte with its file under ``tests/golden/``,
with ``wall_time_ms`` lines stripped. After an intended output change,
regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
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


def golden_commands() -> dict[str, list[str]]:
    """Golden file name (relative to GOLDEN_DIR) -> CLI arguments."""
    commands = {"list.txt": ["list"],
                "matrix.csv": ["matrix", "--format", "csv", "--seed", SEED,
                               "--iterations", ITERATIONS]}
    for campaign in all_campaigns():
        commands[f"mutants/{campaign.name}.txt"] = ["mutants", "--campaign", campaign.name]
        for mutant in (None, *(m.name for m in campaign.mutants)):
            argv = ["run", "--campaign", campaign.name, "--seed", SEED,
                    "--iterations", ITERATIONS]
            if mutant is not None:
                argv += ["--mutant", mutant]
            commands[f"run/{campaign.name}--{mutant or 'control'}.json"] = argv
    return commands


def cli_output(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    return "".join(line for line in buffer.getvalue().splitlines(keepends=True)
                   if "wall_time_ms" not in line)


COMMANDS = golden_commands()


def test_golden_set_covers_every_campaign_and_mutant():
    runs = [name for name in COMMANDS if name.startswith("run/")]
    assert len(runs) == 24
    assert sorted(path.relative_to(GOLDEN_DIR).as_posix()
                  for path in GOLDEN_DIR.rglob("*") if path.is_file()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert cli_output(COMMANDS[name]) == expected


if __name__ == "__main__":
    for file_name, arguments in COMMANDS.items():
        path = GOLDEN_DIR / file_name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(cli_output(arguments), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} golden files under {GOLDEN_DIR}", file=sys.stderr)
