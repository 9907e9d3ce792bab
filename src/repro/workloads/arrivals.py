"""Flow arrival processes (paper §5.2: Poisson arrivals).

The simulations assume Poisson flow arrivals with mean inter-arrival times
swept from 100 ns (the stress case, ~10^10 flows/s rack-wide) to 100 µs.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from itertools import islice
from typing import Iterator

from ..errors import ReproError


class ArrivalProcess(ABC):
    """Generates a monotonically increasing sequence of arrival times."""

    # census: interface stub; several implementations
    @abstractmethod
    def arrival_times_ns(self, rng: random.Random, start_ns: int = 0) -> Iterator[int]:
        """Yield absolute arrival times in nanoseconds, forever."""

    def first_n(self, rng: random.Random, count: int, start_ns: int = 0) -> list:
        """The first *count* arrival times (none for ``count <= 0``)."""
        return list(islice(self.arrival_times_ns(rng, start_ns), max(count, 0)))


class PoissonArrivals(ArrivalProcess):
    """Exponential inter-arrival gaps with the given mean."""

    def __init__(self, mean_interarrival_ns: float) -> None:
        if mean_interarrival_ns <= 0:
            raise ReproError(
                f"mean inter-arrival must be positive, got {mean_interarrival_ns}"
            )
        self.mean_interarrival_ns = mean_interarrival_ns

    def arrival_times_ns(self, rng: random.Random, start_ns: int = 0) -> Iterator[int]:
        now = float(start_ns)
        while True:
            u = rng.random()
            while u <= 0.0:
                u = rng.random()
            now += -self.mean_interarrival_ns * math.log(u)
            yield int(now)


class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival gaps (useful for reproducible unit tests)."""

    def __init__(self, interarrival_ns: int) -> None:
        if interarrival_ns <= 0:
            raise ReproError(f"inter-arrival must be positive, got {interarrival_ns}")
        self.interarrival_ns = interarrival_ns

    def arrival_times_ns(self, rng: random.Random, start_ns: int = 0) -> Iterator[int]:
        now = start_ns
        while True:
            now += self.interarrival_ns
            yield now


class BurstArrivals(ArrivalProcess):
    """Bursts of *burst_size* back-to-back arrivals, Poisson between bursts.

    Used by failure-injection and queue-stress tests; the paper repeatedly
    emphasizes "very bursty workloads".
    """

    def __init__(self, mean_burst_gap_ns: float, burst_size: int) -> None:
        if mean_burst_gap_ns <= 0 or burst_size < 1:
            raise ReproError("burst gap must be positive and burst size >= 1")
        self.mean_burst_gap_ns = mean_burst_gap_ns
        self.burst_size = burst_size

    def arrival_times_ns(self, rng: random.Random, start_ns: int = 0) -> Iterator[int]:
        now = float(start_ns)
        while True:
            u = rng.random()
            while u <= 0.0:
                u = rng.random()
            now += -self.mean_burst_gap_ns * math.log(u)
            for _ in range(self.burst_size):
                yield int(now)
