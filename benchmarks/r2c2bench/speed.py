"""Host-speed probe: timings are reported at the machine's undisturbed speed.

The sizing machine (a 2-vCPU VM) slows down by 1.3-3x in bursts of 0.1-2 s,
and in phases that last minutes the bursts cover a third of the time.  A
2-second ``run_simulation`` call then reads anything between 2.1 and 7 s,
and no amount of repetition inside a 10-second run averages that away.  So
the benchmark measures the disturbance and divides it out.

Every ``interval_s`` seconds a timer signal runs a fixed 0.6 ms spin — code
of the benchmark's own, so no change to the program moves it.  About 40 % of
the spin is heap pushes, dict stores and small tuples and 60 % integer
arithmetic: allocation-heavy code slows down more under a disturbance than
the simulator does, arithmetic less, and system-call-heavy RPCs less still;
across six same-seed runs the blend left the daemon medians a CV of 2-4 %
where either half alone left 4-9 % (the simulator and the epoch loop did not
care).  A spin's duration over the run's fastest spin is the slowdown at that
instant.  :meth:`SpeedProbe.scaled` turns an operation's ``(start, end)``
into seconds at undisturbed speed: the wall, minus the spins that ran inside
it, times the mean of 1/slowdown sampled over it (each sample stands for an
equal slice of the wall, and a slice at slowdown s holds 1/s of clean work).

The probe cannot hide a change in the program: the divisor comes from code
the program does not contain.  It only works for what runs on the probe's
own CPU, which is why the daemon workloads pin client and daemon to one CPU
(their loop is closed, so they never run at the same time anyway).
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from typing import List, Tuple

Interval = Tuple[float, float]


class SpeedProbe:
    interval_s = 0.05
    heap_items = 300
    arithmetic_items = 6000
    #: one spin that was itself descheduled reads 50x; it stands for 50 ms
    #: of run time, so it may count for this much at most
    max_slowdown = 4.0

    def __init__(self) -> None:
        self._at: List[float] = []  # perf_counter() when a spin began
        self._took: List[float] = []  # its duration, seconds
        self._ends: List[float] = []  # prefix sums of _took
        self._previous = None
        self._base = 0.0
        self._spinning = False

    def _spin(self, *_signal_args) -> None:
        if self._spinning:  # a stalled spin outlasted the timer period
            return
        self._spinning = True
        started = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(self.heap_items):
            heapq.heappush(heap, (i * 7919 % 1013, i, (i, i + 1)))
            table[i & 255] = [i]
            if i & 3 == 3:
                heapq.heappop(heap)
        while heap:
            heapq.heappop(heap)
        total = 0
        for i in range(self.arithmetic_items):
            total += i * i
        self._at.append(started)
        self._took.append(time.perf_counter() - started)
        self._spinning = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._spin)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        """Stop sampling and fix the baseline: the fastest spin of the run.

        Disturbance only ever adds time, so the minimum is the one statistic
        a run that was disturbed 95 % of the time still gets right (measured
        on an earlier spin: 495-505 us across runs whose 2nd percentile
        ranged 509-549 us).
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self._took:
            self._spin()
        self._base = min(self._took)
        total = 0.0
        self._ends = []
        for took in self._took:
            total += took
            self._ends.append(total)

    def scaled(self, interval: Interval) -> float:
        """Seconds the operation would have taken at undisturbed speed."""
        start, end = interval
        first = bisect.bisect_left(self._at, start)
        last = bisect.bisect_right(self._at, end)
        inside = 0.0
        if last > first:
            inside = self._ends[last - 1] - (self._ends[first - 1] if first else 0.0)
        else:  # shorter than the sampling interval: the nearest spin speaks
            around = [i for i in (first - 1, first) if 0 <= i < len(self._at)]
            first = min(around, key=lambda i: abs(self._at[i] - start))
            last = first + 1
        clean_share = [self._base / min(max(took, self._base), self.max_slowdown * self._base)
                       for took in self._took[first:last]]
        return max(end - start - inside, 0.0) * sum(clean_share) / len(clean_share)

    def summary(self) -> dict:
        """For the provenance block: how disturbed the run was."""
        ratios = sorted(took / self._base for took in self._took)
        return {
            "spins": len(ratios),
            "base_spin_us": self._base * 1e6,
            "slowdown_p50": ratios[len(ratios) // 2],
            "slowdown_p90": ratios[len(ratios) * 9 // 10],
            "disturbed_frac": sum(1 for r in ratios if r > 1.25) / len(ratios),
        }
