"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that

* BENCHMARK.json, layers.json and workloads.py name the same workloads and
  metrics;
* every workload prints exactly the end-to-end metrics of BENCHMARK.json
  untraced and exactly the per-layer metrics traced, with their units, and
  the same report digest on two runs with the same seed;
* the layers that layers.json says are zero on a workload read zero there;
* the correctness gate trips, naming (campaign, mutant, seed), when a
  holds-fast cell runs a detected mutant and when a Monte Carlo or knapsack
  program raises on holds-heavy, and on a second knapsack budget overrun
  in one run but not on the first;
* without the program sources the benchmark fails and prints no result.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

from program import ROOT, use_checkout_source

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TINY = ["--seconds", "1"]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run_benchmark(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         *TINY, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    lines = process.stdout.splitlines()
    result = json.loads(lines[-1]) if process.returncode == 0 and lines else None
    digest = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("report_sha256 ")), None)
    return process, result, digest


def check_result(result, expected: dict, label: str) -> None:
    check(result is not None and set(result) == RESULT_KEYS and result["correct"]
          and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: result line is correct with keys {sorted(RESULT_KEYS)}")
    if result is None:
        return
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    check(units == expected, f"{label}: metric names and units match BENCHMARK.json")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    use_checkout_source()
    from workloads import WORKLOADS, RoundRunner
    from intramorph.registry import default_registry

    workloads = [entry["name"] for entry in benchmark["workloads"]]
    end_to_end = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    check(set(workloads) == set(WORKLOADS), "BENCHMARK.json workloads == workloads.py")
    check(all(len(entry["why"]) <= 200 for entry in benchmark["workloads"]),
          "every workload reason fits in 200 characters")
    check(set(layers) == set(per_layer), "layers.json metrics == BENCHMARK.json per_layer")
    targets = {f"{w}:{m}" for w in workloads for m in end_to_end}
    check(all(set(entry["moves"]) <= targets and set(entry["zero_on"]) <= set(workloads)
              for entry in layers.values()),
          "layers.json maps onto known workloads and end-to-end metrics")

    for workload in workloads:
        _, result, digest = run_benchmark(workload, 7, 0)
        check_result(result, end_to_end, f"{workload} --trace 0")
        _, _, again = run_benchmark(workload, 7, 0)
        check(digest is not None and digest == again,
              f"{workload}: same report_sha256 on two runs with seed 7")
        _, result, traced_digest = run_benchmark(workload, 7, 1)
        check_result(result, per_layer, f"{workload} --trace 1")
        check(traced_digest == digest, f"{workload}: traced pass reports the same digest")
        if result is not None:
            nonzero = [name for name, entry in layers.items()
                       if workload in entry["zero_on"] and result["metrics"][name]["value"]]
            check(not nonzero, f"{workload}: layers predicted zero read zero {nonzero or ''}")

    holds_fast = WORKLOADS["holds-fast"]
    broken_cells = tuple(
        dataclasses.replace(cell, mutant="swap-index-i")
        if cell.campaign == "sorting-intramorphic" else cell for cell in holds_fast.cells)
    runner = RoundRunner(dataclasses.replace(holds_fast, cells=broken_cells), 7,
                         default_registry())
    runner.run_round(0)
    check(len(runner.mismatches) == 1
          and "campaign=sorting-intramorphic mutant=swap-index-i seed=" in runner.mismatches[0],
          "gate trips on a holds-fast cell running swap-index-i and names it: "
          + "; ".join(runner.mismatches))

    from intramorph.cases import knapsack, montecarlo

    def raising(*args):
        raise RuntimeError("selftest")

    for module, name, campaign in ((montecarlo, "pi_approximation", "montecarlo-convergence"),
                                   (knapsack, "knapsack_exhaustive", "knapsack-optimality")):
        original = getattr(module, name)
        setattr(module, name, raising)
        try:
            runner = RoundRunner(WORKLOADS["holds-heavy"], 7, default_registry())
            runner.run_round(0)
        finally:
            setattr(module, name, original)
        check(any(f"campaign={campaign} mutant=none seed=" in mismatch
                  and "RuntimeError: selftest" in mismatch for mismatch in runner.mismatches),
              f"gate trips on a holds-heavy run whose {name} raises and names it: "
              + "; ".join(runner.mismatches))

    from intramorph.harness import CampaignConfig
    from workloads import Cell

    # Iteration 25 of this campaign seed is an instance the exhaustive search
    # cannot finish within its 5 s budget.
    overrun = CampaignConfig(campaign="knapsack-optimality", seed=13990579191218416818,
                             iterations=25)
    cell = Cell(overrun.campaign, None, overrun.iterations, expect_detected=False)
    runner = RoundRunner(WORKLOADS["holds-heavy"], 7, default_registry())
    runner.judge_errors(cell, overrun, 1)
    tolerated = not runner.mismatches
    runner.judge_errors(cell, overrun, 1)
    check(tolerated and len(runner.mismatches) == 1,
          "gate tolerates one knapsack budget overrun per run and trips on the second: "
          + "; ".join(runner.mismatches))

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        process, _, _ = run_benchmark("holds-fast", 7, 0, cwd=bare)
        check(process.returncode != 0 and not process.stdout.strip(),
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
