#!/usr/bin/env python3
"""Count how often the pi convergence check fails without aggregation.

A single unlucky trial could leave the small-sample estimate closer to pi
than the large-sample one. This script counts such violations at k=1 and in
the median-of-k campaign at the same seed. At the campaign's sample counts
it finds none, so it shows that the rate is negligible rather than measuring
it: with n_small=10 the small estimate moves in steps of 0.4, and the one
closest to pi, 3.2, is 0.058 away, about 11 standard deviations of the
100,000-point estimate (sigma ~ 0.0052). At seed 42 both rates read 0.0000%,
over 200 and over 1,000 iterations.
"""

import argparse

from intramorph.harness import CampaignConfig, run_campaign


def violation_rate(seed: int, iterations: int, repetitions: int) -> float:
    report = run_campaign(CampaignConfig(
        campaign="montecarlo-convergence", seed=seed, iterations=iterations,
        statistical_repetitions=repetitions, stop_on_first_violation=False))
    return report.violations / report.iterations_run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--k", type=int, default=5,
                        help="repetitions for the aggregated comparison run")
    args = parser.parse_args()

    single = violation_rate(args.seed, args.iterations, repetitions=1)
    aggregated = violation_rate(args.seed, args.iterations, repetitions=args.k)
    print(f"seed={args.seed} iterations={args.iterations}")
    print(f"single-trial (k=1) violation rate:  {single:.4%}")
    print(f"median-of-{args.k} violation rate:      {aggregated:.4%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
