"""Demand estimation for host-limited flows (§3.3.2, equation 1).

A flow that cannot fill its allocation is bottlenecked at the host; handing
it a full fair share wastes capacity other flows could use.  The sender
estimates each flow's *demand* from its send-queue backlog::

    d[i+1] = r[i] + q[i] / T

i.e. next period's demand is the rate the flow was allowed plus the rate
needed to drain the backlog it accumulated, smoothed with an EWMA.  When the
estimate drops below the flow's current allocation the sender broadcasts a
demand update so every node can allocate demand-aware.
"""

from __future__ import annotations

import math

from ..errors import CongestionControlError
from ..types import BITS_PER_BYTE, NS_PER_SEC

#: Relative change versus the last *broadcast* value below which
#: :meth:`DemandEstimator.should_broadcast` stays quiet, to avoid chatty
#: demand updates.
UPDATE_THRESHOLD = 0.1


class DemandEstimator:
    """Per-flow demand estimator.

    Args:
        period_ns: Estimation period T.
        ewma_alpha: Weight of the newest sample in the moving average.
    """

    def __init__(
        self,
        period_ns: int,
        ewma_alpha: float = 0.25,
    ) -> None:
        if period_ns <= 0:
            raise CongestionControlError(f"period must be positive, got {period_ns}")
        if not (0.0 < ewma_alpha <= 1.0):
            raise CongestionControlError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._period_ns = period_ns
        self._alpha = ewma_alpha
        self._estimate_bps = math.inf
        self._broadcast_bps = math.inf

    def observe(self, allocated_bps: float, queued_bytes: int) -> float:
        """Fold one period's observation into the estimate.

        Args:
            allocated_bps: The rate the flow was allowed this period (r[i]).
            queued_bytes: Sender-side backlog observed this period (q[i]).

        Returns:
            The updated smoothed estimate in bits/s.
        """
        if allocated_bps < 0 or queued_bytes < 0:
            raise CongestionControlError("negative observation")
        sample = allocated_bps + (
            queued_bytes * BITS_PER_BYTE * NS_PER_SEC / self._period_ns
        )
        if math.isinf(self._estimate_bps):
            self._estimate_bps = sample
        else:
            self._estimate_bps = (
                self._alpha * sample + (1.0 - self._alpha) * self._estimate_bps
            )
        return self._estimate_bps

    def should_broadcast(self, current_allocation_bps: float) -> bool:
        """Whether the sender should announce a demand update now.

        The paper broadcasts "whenever a flow's demand drops below its
        current rate allocation"; we additionally suppress updates within
        :data:`UPDATE_THRESHOLD` of the last announced value.
        """
        estimate = self._estimate_bps
        if math.isinf(estimate):
            return False
        if estimate >= current_allocation_bps:
            # Flow can use everything it was given: only announce if we had
            # previously advertised a *lower* demand that should be lifted.
            return (
                math.isfinite(self._broadcast_bps)
                and estimate > self._broadcast_bps * (1.0 + UPDATE_THRESHOLD)
            )
        if math.isinf(self._broadcast_bps):
            return True
        return abs(estimate - self._broadcast_bps) > UPDATE_THRESHOLD * self._broadcast_bps

    def mark_broadcast(self) -> float:
        """Record that the current estimate was announced; returns it."""
        self._broadcast_bps = self._estimate_bps
        return self._broadcast_bps
