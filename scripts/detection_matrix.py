#!/usr/bin/env python3
"""Run the full detection matrix and print it as an aligned table.

Shows, per campaign and mutant, whether the oracle flagged the bug and how
many iterations it took; control rows double as the false-alarm check.
"""

import argparse
import sys

from intramorph.core import ConfigurationError
from intramorph.harness import run_detection_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--iterations", type=int, default=100)
    args = parser.parse_args()

    try:
        matrix = run_detection_matrix(seed=args.seed, iterations=args.iterations)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    header = (f"{'campaign':<24} {'mutant':<28} {'detected':<9} "
              f"{'first-violation':<16} {'expectation'}")
    print(header)
    print("-" * len(header))
    mismatches = 0
    for cell in matrix.cells:
        mutant = cell.mutant or "(control)"
        first = cell.first_violation_iteration
        if cell.expected_detected is None:
            expectation = "no false alarms"
            ok = not cell.detected
        else:
            expectation = "detect" if cell.expected_detected else "blind spot"
            ok = cell.detected == cell.expected_detected
        mismatches += not ok
        marker = "" if ok else "  <-- UNEXPECTED"
        print(f"{cell.campaign:<24} {mutant:<28} {str(cell.detected).lower():<9} "
              f"{str(first) if first is not None else '-':<16} {expectation}{marker}")

    print(f"\nseed={matrix.seed} iterations={matrix.iterations} "
          f"cells={len(matrix.cells)} wall_time_ms={matrix.wall_time_ms}")
    if mismatches:
        print(f"{mismatches} cell(s) disagree with the catalog expectations")
        return 1
    print("all cells match the catalog expectations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
