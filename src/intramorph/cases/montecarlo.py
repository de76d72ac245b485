"""Monte Carlo case study: pi estimation with a sample-count parameter.

The estimator gained a sample-count parameter, so one program runs at the
small and the large budget of a :class:`SampleBudgetPair`; more samples must
land at least as close to pi. Each seeded bug is one edit of the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..core import ConfigurationError
from ..seeds import UNIT_BLOCK_CHUNK, SeededSource
from . import derive

if TYPE_CHECKING:
    import numpy as np


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
    import numpy as np   # here: building the registry imports this module, not numpy
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
