"""Flow-size distributions (paper §5.2).

The paper's simulations draw flow sizes "from a Pareto distribution with
shape parameter 1.05 and mean 100 KB", producing the heavy-tailed mix where
95 % of flows are under 100 KB but most bytes travel in large flows.  The
broadcast-overhead analysis additionally references the VL2 data-mining
workload [25] (80 % of flows under 10 KB, 95 % of bytes in flows over
35 MB), which :class:`EmpiricalSizes` can approximate from CDF points.
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from ..errors import ReproError


class FlowSizeDistribution(ABC):
    """Samples flow sizes in bytes."""

    # census: interface stub; several implementations
    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (bytes, >= 1)."""

    def sample_many(self, rng: random.Random, count: int) -> List[int]:
        """Draw *count* sizes."""
        return [self.sample(rng) for _ in range(count)]


class FixedSize(FlowSizeDistribution):
    """Every flow has the same size (cross-validation workloads, Fig. 7)."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes < 1:
            raise ReproError(f"flow size must be >= 1 byte, got {size_bytes}")
        self.size_bytes = size_bytes

    def sample(self, rng: random.Random) -> int:
        return self.size_bytes


class ParetoSizes(FlowSizeDistribution):
    """Pareto(shape, mean) flow sizes, the paper's default workload.

    The scale parameter is derived from the requested mean:
    ``x_min = mean * (shape - 1) / shape`` (finite for shape > 1).  An
    optional cap truncates the extreme tail so a single flow cannot dominate
    a finite simulation; the paper's runs are finite too, so truncation at a
    large multiple of the mean preserves the reported statistics.
    """

    def __init__(
        self,
        mean_bytes: float = 100 * 1024,
        shape: float = 1.05,
        cap_bytes: int = None,
    ) -> None:
        if shape <= 1.0:
            raise ReproError(f"Pareto shape must be > 1 for a finite mean, got {shape}")
        if mean_bytes <= 0:
            raise ReproError(f"mean must be positive, got {mean_bytes}")
        self.shape = shape
        self.mean_bytes = mean_bytes
        self.x_min = mean_bytes * (shape - 1.0) / shape
        if self.x_min < 1.0:
            raise ReproError(
                f"mean {mean_bytes} with shape {shape} gives sub-byte minimum size"
            )
        self.cap_bytes = cap_bytes

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        while u <= 0.0:
            u = rng.random()
        size = self.x_min / (u ** (1.0 / self.shape))
        if self.cap_bytes is not None:
            size = min(size, self.cap_bytes)
        return max(1, int(size))


class EmpiricalSizes(FlowSizeDistribution):
    """Piecewise-linear inverse-CDF sampling from (size, cdf) points.

    Suitable for approximating published workload CDFs such as the VL2
    data-mining distribution the paper cites.
    """

    #: A coarse approximation of the VL2 data-mining flow-size CDF [25]:
    #: 80 % of flows under 10 KB, ~96 % under 35 MB, tail to 1 GB.
    DATA_MINING_POINTS: Sequence[Tuple[int, float]] = (
        (100, 0.0),
        (1_000, 0.50),
        (10_000, 0.80),
        (1_000_000, 0.95),
        (35_000_000, 0.964),
        (100_000_000, 0.99),
        (1_000_000_000, 1.0),
    )

    def __init__(self, points: Sequence[Tuple[int, float]]) -> None:
        if len(points) < 2:
            raise ReproError("need at least two CDF points")
        sizes = [p[0] for p in points]
        cdf = [p[1] for p in points]
        if sorted(sizes) != list(sizes) or sorted(cdf) != list(cdf):
            raise ReproError("CDF points must be sorted in size and probability")
        if cdf[-1] != 1.0:
            raise ReproError("last CDF point must have probability 1.0")
        if any(s < 1 for s in sizes):
            raise ReproError("flow sizes must be >= 1 byte")
        self._sizes = list(sizes)
        self._cdf = list(cdf)

    @classmethod
    def data_mining(cls) -> "EmpiricalSizes":
        """The VL2-style data-mining workload approximation."""
        return cls(cls.DATA_MINING_POINTS)

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        i = bisect.bisect_left(self._cdf, u)
        if i == 0:
            return self._sizes[0]
        lo_p, hi_p = self._cdf[i - 1], self._cdf[i]
        lo_s, hi_s = self._sizes[i - 1], self._sizes[i]
        if hi_p == lo_p:
            return hi_s
        frac = (u - lo_p) / (hi_p - lo_p)
        # Interpolate in log-size space: flow sizes span seven decades.
        import math

        log_size = math.log(lo_s) + frac * (math.log(hi_s) - math.log(lo_s))
        return max(1, int(math.exp(log_size)))
