"""intramorph campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and measures the intramorph sources under
``src/``. Workloads are defined in ``workloads.py``; why each one is there is
recorded in ``BENCHMARK.json``.

``--trace 0`` runs whole rounds of the workload for at least ``--seconds``
and prints the end-to-end metrics: evaluated cases per second, the median
and 90th-percentile time from calling ``run_campaign`` to holding the
serialized report, each over all reports of the run (cases over the summed
report times), the set-up time of a fresh interpreter (median of
``SETUP_SAMPLES`` spread over the run), and the process's peak RSS.

The times are host-normalised. A shared host can switch between speed
phases that last seconds to minutes, and a fixed pure-Python reference loop
slows down with the program in them. So the reference loop is
timed between rounds (at least every ``CALIBRATION_GAP_S``), and each round
and set-up sample has its times scaled by ``CALIB_REFERENCE_MS`` over the
median loop time within ``CALIBRATION_HALF_WINDOW_S`` of it: the time it
would have taken on a host where the loop takes ``CALIB_REFERENCE_MS``. The
loop does not touch the program, so a change to the program moves the
scaled times as much as the raw ones. The raw figures are printed too, as
``raw.*`` lines next to ``host.calib_ms``.

``--trace 1`` replays the workload's fixed rounds untraced here, traced in a
child process (``spans.py``) and untraced here again, and prints the
per-layer metrics of the traced pass with the tracing overhead: traced wall
time over the second untraced pass's. Each process measures only after one
unmeasured pass, so both sides are warm.

Every report's verdict is checked against the workload's expectation; a
mismatch is named on stderr, the result reads ``"correct": false`` and the
exit status is 1. Execution errors fail the gate too, except for one
tolerated knapsack budget overrun per run (see ``workloads.py``).
``attempted`` counts evaluated iterations and ``failed`` their execution
errors, each failed run also named on stderr. The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from program import ROOT, SRC, use_checkout_source

HERE = Path(__file__).resolve().parent
# The timed phase is cut into SETUP_SAMPLES equal parts with one set-up
# sample at the start of each, spreading them over the run's host phases.
SETUP_SAMPLES = 8
# Reference-loop iterations (about 4 ms), the most time allowed between two
# loop timings, how far either side of a round its host speed is read, and
# the loop time the scaled metrics are expressed at.
CALIB_LOOP_ITERATIONS = 40_000
CALIBRATION_GAP_S = 0.1
CALIBRATION_HALF_WINDOW_S = 0.5
CALIB_REFERENCE_MS = 4.0
CHILD_TIMEOUT_S = 150

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import intramorph; "
              "intramorph.default_registry()")


def setup_s() -> float:
    """Wall time for a fresh interpreter to import intramorph and build the
    default registry: what every CLI call pays."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return time.perf_counter() - started


def calibrate_ms() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for index in range(CALIB_LOOP_ITERATIONS):
        total += index * index % 7
    return (time.perf_counter() - started) * 1e3


class HostSpeed:
    """Reference-loop times taken over a run, and the scale factor they give
    for any stretch of it."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ms: list[float] = []

    def calibrate(self) -> None:
        self.at.append(time.perf_counter())
        self.ms.append(calibrate_ms())

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= CALIBRATION_GAP_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """CALIB_REFERENCE_MS over the median loop time within the half
        window either side of [start, end], always including the last
        timing before it and the first after it."""
        low = min(bisect.bisect_left(self.at, start - CALIBRATION_HALF_WINDOW_S),
                  bisect.bisect_right(self.at, start) - 1)
        high = max(bisect.bisect_right(self.at, end + CALIBRATION_HALF_WINDOW_S),
                   bisect.bisect_left(self.at, end) + 1)
        return CALIB_REFERENCE_MS / statistics.median(self.ms[max(low, 0):high])


def host_record() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_run(workload, seed: int, seconds: float) -> dict:
    from intramorph.registry import default_registry
    from workloads import RoundRunner

    setup_s()   # unmeasured: warms the byte-code cache
    runner = RoundRunner(workload, seed, default_registry())
    host = HostSpeed()
    rounds = []         # (start, end, samples)
    setups = []         # (start, end, seconds)
    clock = time.perf_counter
    host.calibrate()
    started = clock()
    for block in range(SETUP_SAMPLES):
        setup_started = clock()
        value = setup_s()
        setups.append((setup_started, clock(), value))
        host.calibrate()
        block_end = (block + 1) * seconds / SETUP_SAMPLES
        while True:
            round_started = clock()
            samples = runner.run_round(len(rounds))
            rounds.append((round_started, clock(), samples))
            host.calibrate_if_due()
            elapsed = clock() - started
            if elapsed >= block_end and (block < SETUP_SAMPLES - 1
                                         or len(rounds) >= workload.fixed_rounds):
                break
    host.calibrate()

    def figures(scaled: bool) -> tuple[list[float], dict]:
        """The report times in ms, sorted, and the time metrics."""
        latencies_s, iterations = [], 0
        for start, end, samples in rounds:
            factor = host.scale(start, end) if scaled else 1.0
            latencies_s += [sample.latency_s * factor for sample in samples]
            iterations += sum(sample.iterations for sample in samples)
        latencies_ms = sorted(latency * 1e3 for latency in latencies_s)
        return latencies_ms, {
            "cases_per_s": (iterations / sum(latencies_s), "1/s"),
            "report_p50_ms": (statistics.median(latencies_ms), "ms"),
            "report_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
            "setup_s": (statistics.median(
                value * (host.scale(start, end) if scaled else 1.0)
                for start, end, value in setups), "s"),
        }

    reports_ms, metrics = figures(scaled=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _, raw = figures(scaled=False)
    p90 = metrics["report_p90_ms"][0]
    context = {
        "rounds": len(rounds), "reports": len(reports_ms),
        "reports_beyond_p90": sum(1 for latency in reports_ms if latency > p90),
        "report_sha256": runner.digest(),
        **{f"raw.{name}": value for name, (value, _) in raw.items()},
        "host.calib_ms": statistics.median(host.ms),
        "host.calibrations": len(host.ms),
        "host": host_record(),
    }
    return {"metrics": metrics, "context": context, "runner": runner}


def traced_run(workload, seed: int) -> dict:
    from intramorph.registry import default_registry
    from workloads import RoundRunner

    def untraced_pass():
        runner = RoundRunner(workload, seed, default_registry())
        wall_s = sum(sample.latency_s for round_index in range(workload.fixed_rounds)
                     for sample in runner.run_round(round_index))
        return runner, wall_s

    # The first pass warms the process up and its reports are the reference;
    # the traced child warms up the same way before its measured pass.
    runner, _ = untraced_pass()
    child = subprocess.run(
        [sys.executable, str(HERE / "spans.py"), "--workload", workload.name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.exit(f"perfbench: traced pass exited with status {child.returncode}")
    traced = json.loads(child.stdout.splitlines()[-1])
    again, untraced_s = untraced_pass()
    runner.mismatches.extend(traced["mismatches"] + again.mismatches)
    for label, digest in (("traced", traced["digest"]), ("repeated", again.digest())):
        if digest != runner.digest():
            runner.mismatches.append(
                f"workload={workload.name} seed={seed}: {label} reports differ from the "
                f"first untraced pass ({digest} != {runner.digest()})")
    layers = traced["layers"]
    self_total_s = layers.pop("trace.self_total_s")
    layers["trace.overhead_ratio"] = traced["wall_s"] / untraced_s
    metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    context = {
        "rounds": workload.fixed_rounds,
        "untraced_wall_s": untraced_s, "traced_wall_s": traced["wall_s"],
        "self_time_total_s": self_total_s,
        "report_sha256": runner.digest(),
        "host": host_record(),
    }
    return {"metrics": metrics, "context": context, "runner": runner}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="intramorph campaign benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds)

    runner = result["runner"]
    for mismatch in runner.mismatches:
        print(f"perfbench: gate: {mismatch}", file=sys.stderr)
    for failed_run in runner.failed_runs:
        print(f"perfbench: failed: {failed_run}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"failed_ratio {runner.execution_errors / runner.evaluations:.6g} "
          f"({runner.execution_errors} execution errors / {runner.evaluations} evaluations)")
    for name, value in result["context"].items():
        print(f"{name} {json.dumps(value)}")
    print(json.dumps({
        "correct": not runner.mismatches,
        "attempted": runner.evaluations,
        "failed": runner.execution_errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if not runner.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
