"""Span recorder for the traced run, installed from outside the program.

``Tracer.install()`` replaces the entry points listed in :data:`BOUNDARIES`
(class methods in place, module functions in every loaded ``repro`` module
that imported them by name) with timing wrappers; ``uninstall()`` puts the
originals back.  Nothing in ``src/`` knows about it.

A span is ``(name, start, end, parent)``.  Per-packet boundaries are
aggregated online per ``(name, parent)`` — calls, total and self time —
because a run makes millions of them; coarse boundaries (``per_call``) also
keep one record per call with the caller's current :attr:`Tracer.tag`, which
is how a ``recompute`` is filed under the kind of epoch that caused it.
Self time is a span's duration minus the time its child spans cover.  The
wrapper's own cost lands in the *caller's* self time, so layers that make
many wrapped calls read high; ``bench.trace_overhead_frac`` says by how much
overall.

Event-loop callbacks are lambdas, so besides the public entry points the
table wraps the three private methods those lambdas call
(``OutputPort._finish``, ``R2C2Stack._emit``, ``TcpStack._on_rto``);
without them the data path would be booked as event-loop self time.

A boundary that cannot be resolved (renamed by a later refactor) is listed
in :attr:`Tracer.missing` and every figure that needs it reads ``None``; it
never raises, so the untraced gate cannot be broken from here.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Boundary:
    layer: str
    #: ``module:Class.method`` or ``module:function``
    target: str
    per_call: bool = False

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sim.engine", "repro.sim.engine:EventLoop.run_batch"),
    Boundary("sim.engine", "repro.sim.engine:EventLoop.run"),
    Boundary("sim.network", "repro.sim.network:RackNetwork.__init__", per_call=True),
    Boundary("sim.network", "repro.sim.network:RackNetwork.inject"),
    Boundary("sim.network", "repro.sim.network:RackNetwork.arrived"),
    Boundary("sim.network", "repro.sim.network:OutputPort.send"),
    Boundary("sim.network", "repro.sim.network:OutputPort.send_batched"),
    Boundary("sim.network", "repro.sim.network:OutputPort._finish"),
    Boundary("sim.stacks.r2c2", "repro.sim.stacks.r2c2:R2C2Stack.start_flow"),
    Boundary("sim.stacks.r2c2", "repro.sim.stacks.r2c2:R2C2Stack.deliver"),
    Boundary("sim.stacks.r2c2", "repro.sim.stacks.r2c2:R2C2Stack.on_epoch"),
    Boundary("sim.stacks.r2c2", "repro.sim.stacks.r2c2:R2C2Stack._emit"),
    Boundary("sim.stacks.r2c2", "repro.sim.stacks.r2c2:PerNodeControlPlane.__init__",
             per_call=True),
    Boundary("sim.stacks.tcp", "repro.sim.stacks.tcp:TcpStack.start_flow"),
    Boundary("sim.stacks.tcp", "repro.sim.stacks.tcp:TcpStack.deliver"),
    Boundary("sim.stacks.tcp", "repro.sim.stacks.tcp:TcpStack._on_rto"),
    Boundary("broadcast", "repro.broadcast.fib:BroadcastFib.__init__", per_call=True),
    Boundary("broadcast", "repro.broadcast.fib:BroadcastFib.next_hops"),
    Boundary("congestion.controller",
             "repro.congestion.controller:RateController.recompute", per_call=True),
    Boundary("congestion.controller",
             "repro.congestion.controller:RateController.on_flow_started", per_call=True),
    Boundary("congestion.controller",
             "repro.congestion.controller:RateController.on_flow_finished", per_call=True),
    Boundary("congestion.controller",
             "repro.congestion.controller:RateController.on_demand_update"),
    Boundary("congestion.waterfill", "repro.congestion.waterfill:waterfill", per_call=True),
    Boundary("congestion.waterfill", "repro.congestion.waterfill:fill_matrix", per_call=True),
    Boundary("congestion.incremental",
             "repro.congestion.incremental:IncrementalWaterfill.add_flow", per_call=True),
    Boundary("congestion.incremental",
             "repro.congestion.incremental:IncrementalWaterfill.remove_flow", per_call=True),
    Boundary("service.state", "repro.service.state:ServiceState.announce", per_call=True),
    Boundary("service.state", "repro.service.state:ServiceState.finish", per_call=True),
    Boundary("service.state", "repro.service.state:ServiceState.query", per_call=True),
    Boundary("service.state", "repro.service.state:ServiceState.save_snapshot", per_call=True),
    Boundary("service.state", "repro.service.state:ServiceState.restore", per_call=True),
)


class Tracer:
    def __init__(self, boundaries: Sequence[Boundary] = BOUNDARIES) -> None:
        self.boundaries = tuple(boundaries)
        #: targets that could not be resolved at install time
        self.missing: List[str] = []
        #: free-form label the workload sets; copied onto per-call records
        self.tag: Optional[str] = None
        self._layer_of: Dict[str, str] = {b.name: b.layer for b in self.boundaries}
        self._stack: List[list] = []  # open spans: [name, child_ns]
        self._agg: Dict[Tuple[str, Optional[str]], list] = {}  # calls, total_ns, self_ns
        self._calls: Dict[str, List[tuple]] = {}  # name -> (start, end, parent, tag)
        self._undo: List[tuple] = []
        self._wrapped: set = set()  # boundary names install() resolved

    # ------------------------------------------------------------------ #
    # Installing
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        for boundary in self.boundaries:
            module_name, path = boundary.target.split(":", 1)
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(boundary.target)
                continue
            wrapper = self._wrap(original, boundary.name, boundary.per_call)
            self._wrapped.add(boundary.name)
            if parents:
                holders = [owner]
            else:
                # ``from .waterfill import waterfill`` bound the function in
                # every importing module; replace each binding.
                holders = [
                    module for name, module in list(sys.modules.items())
                    if module is not None
                    and (name == "repro" or name.startswith("repro."))
                    and module.__dict__.get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, name: str, per_call: bool):
        stack, agg, clock = self._stack, self._agg, time.perf_counter_ns
        calls = self._calls.setdefault(name, []) if per_call else None

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_name = parent[0]
                else:
                    parent_name = None
                record = agg.get((name, parent_name))
                if record is None:
                    agg[(name, parent_name)] = [1, elapsed, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - frame[1]
                if calls is not None:
                    calls.append((start, end, parent_name, self.tag))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A root span the benchmark opens around one operation.

        Root spans belong to no layer: their self time is what
        ``bench.unattributed_frac`` reports.
        """
        frame = [name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            parent_name = None
            if self._stack:
                self._stack[-1][1] += elapsed
                parent_name = self._stack[-1][0]
            record = self._agg.setdefault((name, parent_name), [0, 0, 0])
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _resolved(self, name: str) -> bool:
        return name in self._wrapped

    def count(self, *names: str) -> Optional[int]:
        """Calls of the named boundaries, ``None`` if any is unresolved."""
        if not all(self._resolved(name) for name in names):
            return None
        return sum(rec[0] for (name, _), rec in self._agg.items() if name in names)

    def layer_self_s(self, layer: str) -> Optional[float]:
        """Self time of a layer; ``None`` if any of its boundaries is missing."""
        names = {b.name for b in self.boundaries if b.layer == layer}
        if not names or not all(self._resolved(name) for name in names):
            return None
        return sum(rec[2] for (name, _), rec in self._agg.items() if name in names) / 1e9

    def durations_s(self, name: str, tag=None) -> Optional[List[float]]:
        """Per-call durations of a ``per_call`` boundary, optionally only
        those recorded under *tag* (one tag or a tuple of them)."""
        if not self._resolved(name) or name not in self._calls:
            return None
        tags = (tag,) if isinstance(tag, str) else tag
        return [
            (end - start) / 1e9
            for start, end, _parent, call_tag in self._calls[name]
            if tags is None or call_tag in tags
        ]

    def root_split_s(self) -> Tuple[float, float]:
        """``(total, self)`` seconds over the benchmark's own root spans."""
        roots = [rec for (name, parent), rec in self._agg.items()
                 if parent is None and name not in self._layer_of]
        return sum(r[1] for r in roots) / 1e9, sum(r[2] for r in roots) / 1e9

    def spans(self) -> List[dict]:
        """Everything recorded, for ``--out``: aggregates per (name, parent)."""
        return [
            {"name": name, "parent": parent, "layer": self._layer_of.get(name),
             "calls": rec[0], "total_s": rec[1] / 1e9, "self_s": rec[2] / 1e9}
            for (name, parent), rec in sorted(
                self._agg.items(), key=lambda item: (item[0][0], item[0][1] or ""))
        ]
