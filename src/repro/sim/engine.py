"""Discrete-event simulation engine.

A minimal, fast event loop: integer-nanosecond timestamps, a binary heap,
and deterministic ordering among simultaneous events.  The heap key is
``(timestamp, priority, sequence)``: an integer *priority* (default 0)
orders same-instant events by **content** — packet-delivery events carry
their link's identity — and a monotonically increasing sequence number
breaks the remaining ties FIFO, so causality between same-time same-priority
events follows scheduling order.  Content-based tie-breaking is what makes
sharded execution (:mod:`repro.distsim`) byte-identical to a serial run:
the relative order of two same-instant deliveries at different nodes is a
property of the links involved, not of which event loop scheduled first.

An event record carries its callee's arguments — the heap entry is
``(timestamp, priority, sequence, action, args)`` and the loop runs
``action(*args)`` — so the per-packet callers (packet delivery, a port's
finish while a packet waits, pacing and retransmission timers, flow
arrivals, shard boundary arrivals) schedule a bound method and a packet or
flow, never a closure built for one event.

A port's transmission is one :meth:`EventLoop.transmit` call, and the clock
``now`` is a plain attribute: a packet hop pays for no more engine frames.
A broadcast copy reserves the same two numbers (:meth:`reserve_transmit`)
but rides one event per arrival instant, which asks :meth:`yields_to` before
each copy so the copies keep their ``(timestamp, priority, sequence)`` order.

An optional *probe* (:mod:`repro.sim.probe`) is told about every batch
of events a ``run`` call processed and — when a subscriber such as the
invariant auditor asks for it (``probe.engine_event`` is set) — about
every ``(timestamp, priority, sequence)`` triple as it executes, which is
how clock monotonicity and tie-break causality are machine-checked.  With
no probe attached the cost is a single ``is not None`` test per batch.
"""

from __future__ import annotations

import math
import operator
from heapq import heappop, heappush
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import SimulationError


def _as_time_ns(value, what: str) -> int:
    """Coerce *value* to an integer nanosecond count or raise.

    Accepts exact ints (and anything implementing ``__index__``, e.g. numpy
    integers) plus floats that carry an exact integral value; rejects NaN,
    infinities and fractional delays, which would silently corrupt heap
    ordering (NaN compares false against everything).
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value) or not value.is_integer():
            raise SimulationError(
                f"{what} must be an integer nanosecond count, got {value!r}"
            )
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise SimulationError(
            f"{what} must be an integer nanosecond count, got {value!r}"
        ) from None


def _run_all(actions: Sequence[Callable[[], None]]) -> None:
    """The action of a :meth:`EventLoop.schedule_batch` event."""
    for action in actions:
        action()


class EventLoop:
    """The simulation clock and event queue."""

    def __init__(self) -> None:
        #: Simulated time in nanoseconds; a plain attribute only the loop sets.
        self.now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, int, Callable[..., None], tuple]] = []
        self._events_processed = 0
        self._probe = None

    @property
    def events_processed(self) -> int:
        """Total events executed so far (performance accounting)."""
        return self._events_processed

    def attach_probe(self, probe) -> None:
        """Install the run's observation probe (``None`` detaches).

        After every :meth:`run` / :meth:`run_batch` call that processed at
        least one event, ``probe.engine_batch(start_ns, end_ns, processed)``
        receives the clock interval the batch covered and its event count —
        one test per *batch*, so it never forces the slow path.  A probe
        whose ``engine_event`` is not None also gets ``engine_event(at_ns,
        prio, seq)`` before each event executes.
        """
        self._probe = probe

    def schedule(
        self, delay_ns: int, action: Callable[..., None], *args, prio: int = 0
    ) -> None:
        """Run ``action(*args)`` ``delay_ns`` nanoseconds from now.

        *prio* orders same-instant events (ascending) before the FIFO
        sequence number does; events with equal priority keep FIFO order.
        """
        if type(delay_ns) is not int:
            delay_ns = _as_time_ns(delay_ns, "delay")
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        heappush(
            self._queue, (self.now + delay_ns, prio, self._seq, action, args)
        )
        self._seq += 1

    def schedule_at(
        self, at_ns: int, action: Callable[..., None], *args, prio: int = 0,
        seq: Optional[int] = None,
    ) -> None:
        """Run ``action(*args)`` at absolute time *at_ns* (see :meth:`schedule`).

        *seq*, taken earlier from :meth:`reserve_seq`, orders the event as
        if it had been scheduled when the number was reserved.
        """
        if type(at_ns) is not int:
            at_ns = _as_time_ns(at_ns, "timestamp")
        if at_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {at_ns} ns, current time is {self.now} ns"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        heappush(self._queue, (at_ns, prio, seq, action, args))

    def reserve_seq(self) -> int:
        """The next FIFO sequence number, for an event that may be
        scheduled later (``schedule_at(..., seq=...)``) or never."""
        seq = self._seq
        self._seq = seq + 1
        return seq

    def reserve_transmit(self) -> int:
        """The two sequence numbers :meth:`transmit` reserves — the finish's,
        returned, and the delivery slot after it — for a transmission whose
        delivery is not its own event (a broadcast copy joins its arrival
        instant's batch, :class:`repro.sim.network.RackNetwork`)."""
        seq = self._seq
        self._seq = seq + 2
        return seq

    def yields_to(self, at_ns: int, prio: int) -> bool:
        """True when a queued event at *at_ns* has a priority below *prio*:
        an event that runs several same-instant deliveries asks this before
        each one, so each still runs exactly where its own ``(at_ns, prio)``
        event would have."""
        queue = self._queue
        if not queue:
            return False
        head = queue[0]
        return head[0] == at_ns and head[1] < prio

    def transmit(self, at_ns: int, prio: int, action: Callable[..., None], packet) -> int:
        """``seq = reserve_seq(); schedule_at(at_ns, action, packet, prio=prio)``
        in one call, returning *seq* (the port's finish).  *at_ns* is not
        validated: a port sums it from integers (serialization, latency)."""
        seq = self._seq
        self._seq = seq + 2
        heappush(self._queue, (at_ns, prio, seq + 1, action, (packet,)))
        return seq

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains or a bound is reached.

        Args:
            until_ns: Stop once the next event is later than this time (the
                clock is left at ``until_ns``).  Must not lie in the past.
            max_events: Safety bound on processed events.

        Returns:
            Number of events processed during this call.
        """
        if until_ns is not None:
            until_ns = _as_time_ns(until_ns, "until_ns")
            if until_ns < self.now:
                raise SimulationError(
                    f"cannot run until {until_ns} ns, current time is {self.now} ns"
                )
        probe = self._probe
        on_event = probe.engine_event if probe is not None else None
        batch_start = self.now
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            at_ns, prio, seq, action, args = self._queue[0]
            if until_ns is not None and at_ns > until_ns:
                self.now = until_ns
                break
            heappop(self._queue)
            self.now = at_ns
            if on_event is not None:
                on_event(at_ns, prio, seq)
            action(*args)
            processed += 1
        else:
            if until_ns is not None and self.now < until_ns:
                self.now = until_ns
        self._events_processed += processed
        if probe is not None and processed:
            probe.engine_batch(batch_start, self.now, processed)
        return processed

    def run_batch(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Drain the queue on a fast path with hoisted per-event checks.

        Semantically identical to :meth:`run`; the per-event probe hook and
        the ``max_events`` bound are tested once up front instead of per event
        (falling back to :meth:`run` when either is in play), and the heap
        is bound to a local inside the loop.  This is the inner loop of the
        packet simulator, where the per-event constant factor is the whole
        game.
        """
        probe = self._probe
        per_event = probe is not None and probe.engine_event is not None
        if per_event or max_events is not None:
            return self.run(until_ns=until_ns, max_events=max_events)
        if until_ns is not None:
            until_ns = _as_time_ns(until_ns, "until_ns")
            if until_ns < self.now:
                raise SimulationError(
                    f"cannot run until {until_ns} ns, current time is {self.now} ns"
                )
        queue = self._queue
        pop = heappop
        batch_start = self.now
        processed = 0
        if until_ns is None:
            while queue:
                at_ns, _prio, _seq, action, args = pop(queue)
                self.now = at_ns
                action(*args)
                processed += 1
        else:
            while queue:
                at_ns = queue[0][0]
                if at_ns > until_ns:
                    break
                _, _prio, _seq, action, args = pop(queue)
                self.now = at_ns
                action(*args)
                processed += 1
            if self.now < until_ns:
                self.now = until_ns
        self._events_processed += processed
        if probe is not None and processed:
            probe.engine_batch(batch_start, self.now, processed)
        return processed

    def schedule_batch(self, delay_ns: int, actions: List[Callable[[], None]]) -> None:
        """Run several zero-argument actions at one future instant as a
        *single* event.

        FIFO-equivalent to scheduling each action consecutively at the same
        delay (they execute in list order), but costs one heap entry instead
        of ``len(actions)``, e.g. for ``OutputPort.send_batched``'s pending
        items.  The loop keeps the list it is handed (no copy), so the
        caller must not change it afterwards.  Note that the batch counts
        as one processed event in :attr:`events_processed`.
        """
        if not actions:
            return
        if len(actions) == 1:
            self.schedule(delay_ns, actions[0])
        else:
            self.schedule(delay_ns, _run_all, actions)

    def run_until(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Run strictly up to *until_ns*, leaving the clock there.

        A bound-checked convenience over :meth:`run`: *until_ns* must be an
        integer timestamp no earlier than the current clock.
        """
        if until_ns is None:
            raise SimulationError("run_until requires an explicit until_ns")
        return self.run(until_ns=until_ns, max_events=max_events)

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest queued event, or ``None`` when empty.

        A pure peek: neither the clock nor the queue changes.  Shard
        coordinators use this to compute the global lower bound on virtual
        time before granting the next safe execution window.
        """
        if not self._queue:
            return None
        return self._queue[0][0]

    def run_window(self, end_ns: int) -> int:
        """Process every event with timestamp ``<= end_ns``; clock ends at *end_ns*.

        The bounded-window primitive of conservative parallel simulation: a
        shard granted the window ``(now, end_ns]`` executes exactly the
        events inside it and parks its clock at the window edge even if the
        queue drains early, so all shards observe identical window
        boundaries.  *end_ns* must be an exact integer timestamp no earlier
        than the current clock (the same validation as :meth:`schedule_at`).

        Returns:
            Number of events processed during this call.
        """
        end_ns = _as_time_ns(end_ns, "end_ns")
        if end_ns < self.now:
            raise SimulationError(
                f"cannot run window to {end_ns} ns, current time is {self.now} ns"
            )
        return self.run_batch(until_ns=end_ns)

    def pending(self) -> int:
        """Events currently queued."""
        return len(self._queue)
