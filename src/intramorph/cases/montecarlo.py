"""Monte Carlo case study: pi estimation with a sample-count parameter.

The estimator was parameterized over its sample count; the oracle compares
the same estimator instantiated at a small and a large budget and expects
the large budget to land at least as close to pi, judged on median-of-k
trials because a single unlucky trial can flip the comparison. Each seeded
bug is derived from the correct estimator by one edit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..core import (ApplicationMode, Automation, ConfigurationError, Granularity,
                    IntramorphicRelation, ProgramPair, StatisticalConfig,
                    TransformationDescriptor)
from ..seeds import UNIT_BLOCK_CHUNK, SeededSource
from . import derive

# An existing function gained a sample-count parameter; single trials can
# produce false alarms, hence the statistical aggregation requirement.
MONTECARLO_DESCRIPTOR = TransformationDescriptor(
    granularity=Granularity.PARAMETER_ADDED,
    application_mode=ApplicationMode.IN_PLACE_MODIFIED,
    automation=Automation.MANUAL,
    relation_complete=True,
    false_alarm_possible=True,
)

# Median-of-k trials per comparison unless a run overrides k.
DEFAULT_REPETITIONS = 5


@dataclass(frozen=True)
class SampleBudgetPair:
    n_small: int = 10
    n_large: int = 100_000

    def __post_init__(self) -> None:
        if self.n_small < 1:
            raise ConfigurationError(f"n_small must be >= 1, got {self.n_small}")
        if self.n_small >= self.n_large:
            raise ConfigurationError(
                f"n_small must be smaller than n_large, got {self.n_small} >= {self.n_large}")


def _squared_points(n: int, source: SeededSource) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``x*x`` and ``y*y`` of ``n`` uniform points, one chunk at a time.

    Point i is draws 2i and 2i + 1 of the source's stream. Each chunk of up to
    ``UNIT_BLOCK_CHUNK // 2`` points is one ``unit_block`` call, squared in
    place, so every buffer stays as small as ``unit_block``'s own. Consecutive
    ``unit_block`` calls continue one stream, so the points, their squares
    and the source's final position are those of one ``unit_block(2 * n)``.
    """
    per_chunk = UNIT_BLOCK_CHUNK // 2
    for start in range(0, n, per_chunk):
        block = source.unit_block(2 * min(per_chunk, n - start))
        block *= block
        yield block[0::2], block[1::2]


def pi_approximation(n: int, source: SeededSource) -> float:
    """Estimate pi as 4 * (fraction of uniform points inside the unit circle)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    hits = sum(int(np.count_nonzero(xx + yy <= 1.0)) for xx, yy in _squared_points(n, source))
    return 4 * hits / n


pi_wrong_scale = derive(pi_approximation, "pi_wrong_scale",
                        "Seeded bug: scale factor 2 instead of 4; converges to pi/2.",
                        ("4 * hits / n", "2 * hits / n"))
pi_boundary_strict = derive(
    pi_approximation, "pi_boundary_strict",
    "Seeded bug: strict circle test. Known blind spot: the boundary has probability "
    "zero up to float granularity, so this is statistically indistinguishable from correct.",
    ("xx + yy <= 1.0", "xx + yy < 1.0"))
pi_one_coordinate = derive(
    pi_approximation, "pi_one_coordinate",
    "Seeded bug: only x is tested, so every sample hits and the estimate is 4.",
    ("xx + yy <= 1.0", "xx <= 1.0"))


def error_from_pi(estimate: float) -> float:
    return abs(estimate - math.pi)


def make_estimator_pair(small_side: Callable[[int, SeededSource], float],
                        large_side: Callable[[int, SeededSource], float]) -> ProgramPair:
    """Pair the small-budget instantiation against the large-budget one."""
    return ProgramPair(
        original=lambda budgets, src: small_side(budgets.n_small, src),
        variant=lambda budgets, src: large_side(budgets.n_large, src),
        descriptor=MONTECARLO_DESCRIPTOR,
    )


def make_convergence_relation(repetitions: int) -> IntramorphicRelation:
    """More samples must not land farther from pi, on median-of-k errors."""
    return IntramorphicRelation(
        name="more-samples-at-least-as-close",
        check=lambda small_est, large_est: error_from_pi(small_est) >= error_from_pi(large_est),
        statistical=StatisticalConfig(repetitions=repetitions, summary=error_from_pi,
                                      compare=operator.ge),
    )
