"""Command-line surface: subcommands, exit codes, report formats, determinism."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intramorph
from intramorph import registry
from intramorph.cli import main
from intramorph.registry import default_registry, get_campaign


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names_all_campaigns(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert names == ["sorting-unit", "sorting-differential", "sorting-metamorphic",
                     "sorting-intramorphic", "sorting-equivalence", "ast-token-multiset",
                     "montecarlo-convergence", "knapsack-optimality"]
    assert "granularity=operator" in out


def test_mutants_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mutants", "--campaign", "ast-token-multiset")
    assert code == 0
    assert "paren-left-as-right" in out
    assert "blind-spot" in out


def test_mutants_unknown_campaign_exits_2(capsys):
    code, _, err = run_cli(capsys, "mutants", "--campaign", "nope")
    assert code == 2
    assert "unknown campaign" in err


def test_run_mutant_reports_violation_and_exits_1(capsys):
    code, out, _ = run_cli(capsys, "run", "--campaign", "sorting-intramorphic",
                           "--mutant", "swap-index-i", "--seed", "42",
                           "--iterations", "1000")
    assert code == 1
    document = json.loads(out)
    assert document["violations"] >= 1
    assert "counterexample" in document
    assert document["mutant"] == "swap-index-i"


def test_run_clean_campaign_exits_0(capsys):
    code, out, _ = run_cli(capsys, "run", "--campaign", "sorting-intramorphic",
                           "--seed", "42", "--iterations", "100")
    assert code == 0
    document = json.loads(out)
    assert document["violations"] == 0
    assert "counterexample" not in document
    assert "mutant" not in document
    assert list(document)[-1] == "wall_time_ms"


def test_run_unknown_campaign_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "nonexistent",
                           "--seed", "1", "--iterations", "10")
    assert code == 2
    assert "unknown campaign" in err


def test_run_unknown_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "sorting-unit",
                           "--bogus-flag", "1")
    assert code == 2


def test_k_flag_rejected_for_deterministic_campaign(capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "sorting-intramorphic",
                           "--seed", "1", "--iterations", "10", "--k", "3")
    assert code == 2
    assert "deterministic" in err


def test_report_json_bytes_identical_modulo_wall_time(tmp_path, capsys):
    argv = ["run", "--campaign", "sorting-intramorphic", "--mutant", "swap-index-i",
            "--seed", "42", "--iterations", "500"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(argv + ["--report", str(first)]) == 1
    assert main(argv + ["--report", str(second)]) == 1
    capsys.readouterr()

    def stripped(path):
        return [line for line in path.read_bytes().splitlines()
                if b"wall_time_ms" not in line]

    assert stripped(first) == stripped(second)
    assert first.read_text(encoding="utf-8").endswith("}\n")


def test_csv_report_has_header_and_quoted_counterexample(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code = main(["run", "--campaign", "sorting-intramorphic", "--mutant",
                 "swap-index-i", "--seed", "42", "--iterations", "500",
                 "--format", "csv", "--report", str(path)])
    capsys.readouterr()
    assert code == 1
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith('"schema_version","campaign","seed","mutant"')
    assert '"[' in lines[1]   # counterexample arrays are quoted


class Unprintable:
    def __repr__(self):
        raise RuntimeError("no repr")


class Exiting:
    def __repr__(self):
        sys.exit(3)


def run_cli_to_a_report(capsys, *argv):
    """``run_cli``, failing the test with no traceback if a SystemExit escapes,
    since pytest would render the traceback's locals and call the repr again."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) escaped the command", pytrace=False)


@pytest.mark.parametrize("output, placeholder", [
    (Unprintable, "<unrenderable output: RuntimeError: no repr>"),
    (Exiting, "<unrenderable output: SystemExit: 3>"),
], ids=["raises", "exits"])
def test_unrenderable_output_is_reported_as_a_placeholder(output, placeholder, capsys,
                                                          monkeypatch):
    # the original sort returns an object whose repr raises or exits: the run
    # finds a violation, and its report must still be printed
    campaign = get_campaign("sorting-intramorphic")
    unprintable = dataclasses.replace(campaign, components={
        **campaign.components, "ascending": lambda *args: [output()]})
    # the default registry is read-only, so the CLI looks campaigns up in a copy
    monkeypatch.setattr(registry, "_REGISTRY", {**default_registry(), campaign.name: unprintable})
    argv = ["run", "--campaign", "sorting-intramorphic", "--seed", "1", "--iterations", "5"]

    code, out, _ = run_cli_to_a_report(capsys, *argv)
    assert code == 1
    counterexample = json.loads(out)["counterexample"]
    assert counterexample["output_original"] == placeholder
    assert counterexample["output_variant"] == "[]"

    code, out, _ = run_cli_to_a_report(capsys, *argv, "--format", "csv")
    assert code == 1
    row = next(csv.DictReader(out.splitlines()))
    assert row["counterexample_output_original"] == placeholder


def test_seed_env_var_is_default_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("INTRAMORPH_SEED", "7")
    code, out, _ = run_cli(capsys, "run", "--campaign", "sorting-unit",
                           "--iterations", "1")
    assert code == 0
    assert json.loads(out)["seed"] == 7

    code, out, _ = run_cli(capsys, "run", "--campaign", "sorting-unit",
                           "--iterations", "1", "--seed", "11")
    assert json.loads(out)["seed"] == 11


def test_seed_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("INTRAMORPH_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "run", "--campaign", "sorting-unit",
                           "--iterations", "1")
    assert code == 2
    assert "INTRAMORPH_SEED" in err


def test_default_seed_without_env(capsys, monkeypatch):
    monkeypatch.delenv("INTRAMORPH_SEED", raising=False)
    code, out, _ = run_cli(capsys, "run", "--campaign", "sorting-unit",
                           "--iterations", "1")
    assert json.loads(out)["seed"] == 42


def test_matrix_csv_one_row_per_cell(tmp_path, capsys):
    path = tmp_path / "matrix.csv"
    code = main(["matrix", "--seed", "42", "--iterations", "40", "--format", "csv",
                 "--report", str(path)])
    capsys.readouterr()
    assert code == 1   # mutant cells produce violations
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith('"schema_version","seed","iterations","campaign","mutant"')
    # 8 control columns + 7 sorting + 3 printer + 3 estimator + 2 knapsack cells
    assert len(rows) == 8 + 7 + 3 + 3 + 2
    assert any('"sorting-unit","none"' in row for row in rows)


def test_matrix_json_document_shape(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--seed", "42", "--iterations", "30")
    document = json.loads(out)
    assert document["schema_version"] == "1"
    assert document["seed"] == 42
    cells = {(cell["campaign"], cell["mutant"]): cell for cell in document["cells"]}
    assert cells[("ast-token-multiset", "paren-missing")]["detected"] is False
    assert cells[("ast-token-multiset", "paren-left-as-right")]["detected"] is True


def test_run_statistical_k_override(capsys):
    code, out, _ = run_cli(capsys, "run", "--campaign", "montecarlo-convergence",
                           "--seed", "42", "--iterations", "2", "--k", "1")
    assert code == 0
    assert json.loads(out)["statistical_repetitions"] == 1


def test_montecarlo_counterexample_input_does_not_name_a_k(capsys):
    # k comes from the relation's repetitions, so the rendered input
    # names only the two sample budgets, whatever --k the run was given
    code, out, _ = run_cli(capsys, "run", "--campaign", "montecarlo-convergence",
                           "--mutant", "wrong-scale", "--k", "3", "--seed", "1",
                           "--iterations", "5")
    assert code == 1
    document = json.loads(out)
    assert document["statistical_repetitions"] == 3
    assert document["counterexample"]["input"] == "n_small=10, n_large=100000"


# Runs argv[2] in a fresh interpreter with the package's parent directory,
# argv[1], first on the path, then prints whether numpy was imported and how
# many threads the process has (None where /proc/self/task does not exist).
PROBE = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[2])
tasks = "/proc/self/task"
print("numpy" in sys.modules, len(os.listdir(tasks)) if os.path.isdir(tasks) else None)
"""
CLI = "from intramorph.cli import main; main({})"


@pytest.mark.parametrize("step, imports_numpy", [
    ("import intramorph", False),
    ("import intramorph.cli", False),
    ("import intramorph; intramorph.default_registry()", False),
    (CLI.format(["list"]), False),
    (CLI.format(["mutants", "--campaign", "sorting-intramorphic"]), False),
    # finds its bug within the iterations whose inputs are drawn one by one
    (CLI.format(["run", "--campaign", "sorting-intramorphic", "--mutant", "swap-index-i",
                 "--seed", "42"]), False),
    # runs past them, so its inputs come from premixed_sources' batches
    (CLI.format(["run", "--campaign", "knapsack-optimality", "--seed", "42",
                 "--iterations", "100"]), True),
])
def test_numpy_is_imported_only_by_a_process_that_draws_a_block(step, imports_numpy):
    package_parent = str(Path(intramorph.__file__).resolve().parents[1])
    probe = subprocess.run([sys.executable, "-c", PROBE, package_parent, step],
                           capture_output=True, text=True, check=True, timeout=60)
    numpy_imported, threads = probe.stdout.split()
    assert numpy_imported == str(imports_numpy)
    if not imports_numpy and threads != "None":
        assert threads == "1"


def run_module(*argv):
    """``python -m intramorph`` in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(intramorph.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "intramorph", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_prints_the_golden_list():
    result = run_module("list")
    assert result.returncode == 0, result.stderr
    golden = Path(__file__).resolve().parent / "golden" / "list.txt"
    assert result.stdout == golden.read_text(encoding="utf-8")


def test_module_entry_point_exits_1_when_the_run_finds_a_violation():
    result = run_module("run", "--campaign", "sorting-intramorphic", "--mutant", "swap-index-i",
                        "--seed", "42")
    assert result.returncode == 1, result.stderr
    assert json.loads(result.stdout)["violations"] >= 1
