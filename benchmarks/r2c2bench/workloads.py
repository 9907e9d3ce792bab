"""The five workloads: set-up, the timed loop, and the correctness checks.

Each workload class has the same four steps, driven by ``harness.py``:

``setup()``   build inputs and bring the system to the state the timed loop
              starts from (repeatable; this is what ``setup_s`` times);
``run()``     the timed loop — the same code with and without a tracer;
``verify()``  the oracles, outside any timed region;
``close()``   stop whatever ``setup()`` started.

All load comes from this process; the two daemon workloads add exactly one
``repro serve`` subprocess and one connection.  Every loop is *closed*: the
next operation starts when the previous one returned.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs
from repro.congestion.controller import RateController
from repro.congestion.incremental import IncrementalWaterfill
from repro.congestion.linkweights import WeightProvider
from repro.congestion.waterfill import waterfill
from repro.distsim import canonical_metrics
from repro.errors import ReproError
from repro.service import ServiceClient, ServiceState, read_port_file
from repro.sim import SimConfig, run_simulation
from repro.topology import TorusTopology

#: Relative tolerance of the allocation oracles (the repo's own contract).
RATE_TOLERANCE = 1e-6
#: The daemon's default, passed explicitly so the oracle cannot drift from it.
HEADROOM = 0.05
RECOMPUTE_INTERVAL_NS = 500_000

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
WORK_DIR = Path(__file__).resolve().parent / ".work"


def no_span(_name: str):
    return contextlib.nullcontext()


def _span_of(tracer) -> Callable:
    """Root spans are recorded only in a traced run."""
    return no_span if tracer is None else tracer.span


def _overhead_frac(traced: "Samples", untraced: "Samples") -> Tuple[float, int]:
    """Traced wall over untraced wall of the same operations, minus one."""
    def ops(samples: "Samples") -> float:
        return wall_s(samples.primary) + wall_s(samples.secondary)
    return ops(traced) / ops(untraced) - 1.0, 1


Interval = Tuple[float, float]  # perf_counter() at start and end


@dataclass
class Samples:
    """What one timed loop produced; ``harness`` turns it into metrics.

    Operations are kept as ``(start, end)`` so the harness can express each
    at the host's undisturbed speed (``speed.py``) once the run is over.
    """

    primary: List[Interval]
    secondary: List[Interval]
    #: the whole closed loop (daemon workloads: bookkeeping between RPCs
    #: belongs to the loop's wall)
    loop: Interval
    #: exact, repeatable facts read from public results (per-layer counts)
    stats: Dict[str, float] = field(default_factory=dict)


def wall_s(intervals: List[Interval]) -> float:
    return sum(end - start for start, end in intervals)


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def _build_inputs(dims, generate: Callable) -> Tuple[TorusTopology, object, Dict[str, float]]:
    """Topology and generated input, with how long each took (the two
    per-layer set-up metrics)."""
    started = time.perf_counter()
    topology = TorusTopology(dims)
    built = time.perf_counter()
    generated = generate(topology)
    return topology, generated, {"topology.build_s": built - started,
                                 "workloads.trace_gen_s": time.perf_counter() - built}


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _rates_close(got: float, want: float) -> bool:
    return abs(got - want) <= RATE_TOLERANCE * max(abs(want), 1.0)


# ---------------------------------------------------------------------- #
# rack64_shared / rack512_pernode
# ---------------------------------------------------------------------- #


class RackWorkload:
    """Repeated ``run_simulation`` calls on one trace: r2c2 (primary) and tcp
    (secondary) take turns until the time budget or the repetition caps."""

    primary_op, secondary_op = "run_simulation(r2c2)", "run_simulation(tcp)"
    work_unit = "simulated flows (one r2c2 call + one tcp call over their mean walls)"
    #: too few calls in a run for a percentile: the slow case is the mean,
    #: which one cold or disturbed call moves and the median does not
    slow = "mean"

    def __init__(self, dims, n_flows: int, control_plane: str, min_calls: Dict[str, int],
                 caps: Dict[str, int], seed: int) -> None:
        self.dims, self.n_flows, self.seed = dims, n_flows, seed
        #: calls made even when the first ones used up the time budget
        self.min_calls = min_calls
        self.configs = {
            "r2c2": SimConfig(stack="r2c2", control_plane=control_plane),
            "tcp": SimConfig(stack="tcp"),
        }
        self.caps = caps
        self.topology = None
        self.arrivals = None
        self._digests: Dict[str, List[str]] = {"r2c2": [], "tcp": []}
        self._incomplete = 0
        self._flows_run = 0

    def setup(self) -> None:
        self.topology, self.arrivals, self.setup_parts = _build_inputs(
            self.dims, lambda topology: inputs.rack_trace(topology, self.n_flows, self.seed))

    def input_digest(self) -> str:
        return inputs.digest(self.arrivals)

    def run(self, seconds: float, tracer=None, calls: Optional[Dict[str, int]] = None) -> Samples:
        """Take turns until *seconds* have passed (and ``min_calls`` are
        made) or the caps are reached; *calls* fixes the count per stack."""
        span = _span_of(tracer)
        caps = calls or self.caps
        min_calls = calls or self.min_calls
        walls: Dict[str, List[Interval]] = {"r2c2": [], "tcp": []}
        stats: Dict[str, float] = {}
        flows_run = 0
        loop_started = time.perf_counter()
        for stack in itertools.cycle(("r2c2", "tcp", "tcp")):
            if all(len(walls[s]) >= caps[s] for s in walls):
                break
            if len(walls[stack]) >= caps[stack]:
                continue
            # Each call starts on a collected heap, like a fresh process:
            # otherwise the cyclic garbage of the previous call (a rack of
            # stacks and ports) is traversed inside this one's timing.
            metrics = None
            gc.collect()
            with span("op:" + stack):
                started = time.perf_counter()
                metrics = run_simulation(self.topology, self.arrivals, self.configs[stack])
                walls[stack].append((started, time.perf_counter()))
            self._digests[stack].append(_sha(canonical_metrics(metrics)))
            self._incomplete += len(metrics.flows) - len(metrics.completed_flows())
            flows_run += len(metrics.flows)
            if len(walls[stack]) == 1:
                stats.update(self._public_stats(stack, metrics))
            if (time.perf_counter() - loop_started >= seconds
                    and all(len(walls[s]) >= min_calls[s] for s in walls)):
                break
        self._flows_run += flows_run
        return Samples(primary=walls["r2c2"], secondary=walls["tcp"],
                       loop=(loop_started, time.perf_counter()), stats=stats)

    def throughput(self, samples: Samples, scale: Callable[[Interval], float]) -> Tuple[float, int]:
        """Flows of one r2c2 call plus one tcp call over their mean walls, so
        the figure does not move with how many calls of each stack happened
        to fit into the budget."""
        per_pair = (statistics.fmean(map(scale, samples.primary))
                    + statistics.fmean(map(scale, samples.secondary)))
        return 2 * self.n_flows / per_pair, 2 * self.n_flows

    @staticmethod
    def _public_stats(stack: str, metrics) -> Dict[str, float]:
        out = {f"events.{stack}": metrics.events_processed,
               f"drops.{stack}": metrics.drops,
               f"queue_p99_kb.{stack}": metrics.queue_occupancy_percentile_kb(99)}
        if stack == "r2c2":
            out.update({
                "broadcast.wire_packets": metrics.broadcast_packets,
                "broadcast.capacity_frac": metrics.broadcast_capacity_fraction(),
                "epochs_recomputed": metrics.epochs_recomputed,
                "epochs_skipped": metrics.epochs_skipped,
            })
        return out

    def trace(self, seconds: float, tracer) -> Dict[str, tuple]:
        """One call per stack untraced, then the same calls traced; their
        ``canonical_metrics`` digests all land in :meth:`verify`."""
        once = {"r2c2": 1, "tcp": 1}
        self.setup()
        untraced = self.run(0.0, calls=once)
        tracer.install()
        traced = self.run(0.0, tracer, calls=once)
        tracer.uninstall()
        stats = untraced.stats
        hops = tracer.count("OutputPort.send", "OutputPort.send_batched")
        return {
            "epochs": stats["epochs_recomputed"],
            "sim.engine.events": (stats["events.r2c2"] + stats["events.tcp"], 1),
            "sim.network.drops": (stats["drops.r2c2"] + stats["drops.tcp"], 1),
            "sim.network.queue_p99_kb": (stats["queue_p99_kb.r2c2"], 1),
            "sim.network.ns_per_packet_hop": (
                (None, 0) if hops is None else
                ((wall_s(untraced.primary) + wall_s(untraced.secondary)) * 1e9 / hops, hops)),
            "broadcast.wire_packets": (stats["broadcast.wire_packets"], 1),
            "broadcast.capacity_frac": (stats["broadcast.capacity_frac"], 1),
            "congestion.controller.epochs_recomputed": (stats["epochs_recomputed"], 1),
            "congestion.controller.epochs_skipped": (stats["epochs_skipped"], 1),
            "bench.trace_overhead_frac": _overhead_frac(traced, untraced),
        }

    def sim_digest(self) -> str:
        return _sha({stack: ds[0] for stack, ds in self._digests.items() if ds})

    def verify(self) -> Verdict:
        verdict = Verdict(attempted=self._flows_run, failed=self._incomplete)
        if self._incomplete:
            verdict.problems.append(f"{self._incomplete} flow(s) not completed by the horizon")
        for stack, digests in self._digests.items():
            differing = sum(1 for d in digests if d != digests[0])
            if differing:
                verdict.failed += differing
                verdict.problems.append(
                    f"{differing} {stack} repetition(s) differ from the first in canonical_metrics")
        return verdict

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# epoch_churn512
# ---------------------------------------------------------------------- #


class EpochWorkload:
    """One ``RateController`` under seeded churn; an epoch is the batch of
    announcements that arrived plus the ``recompute`` that follows."""

    primary_op, secondary_op = "epoch (batch + recompute)", "membership epoch (finish + start)"
    work_unit = "epochs"
    #: ~100 membership epochs fit in a run: p95 would leave fewer than ten
    #: samples beyond it, so the slow case is p90 (for all epochs too)
    slow = "p90"
    oracle_every = 50
    #: ``sim_digest`` is the allocation after this many epochs, so runs that
    #: fit different numbers of epochs into the budget still compare
    digest_epoch = 50

    def __init__(self, dims, n_flows: int, n_epochs: int, seed: int) -> None:
        self.dims, self.n_flows, self.n_epochs, self.seed = dims, n_flows, n_epochs, seed
        self.topology = None
        self.input = None
        self.controller = None
        self._oracle_provider = None
        self._epochs_run = 0
        self._breaches: List[str] = []
        self._alloc_digest = ""

    def setup(self) -> None:
        self.topology, self.input, self.setup_parts = _build_inputs(
            self.dims, lambda topology: inputs.epoch_input(
                topology.n_nodes, self.n_flows, self.n_epochs, self.seed))
        self.controller = RateController(self.topology, node=0)
        for spec in self.input.population:
            self.controller.on_flow_started(spec, 0)
        self.controller.recompute(0)

    def input_digest(self) -> str:
        return inputs.digest((self.input.population, self.input.batches))

    def run(self, seconds: float, tracer=None, max_epochs: Optional[int] = None) -> Samples:
        span = _span_of(tracer)
        controller = self.controller
        walls: List[Interval] = []
        member_walls: List[Interval] = []
        now_ns = 0
        loop_started = time.perf_counter()
        budget_ends = loop_started + seconds
        for index, (kind, ops) in enumerate(self.input.batches[:max_epochs]):
            now_ns += RECOMPUTE_INTERVAL_NS
            if tracer is not None:
                tracer.tag = kind
            with span("op:epoch"):
                started = time.perf_counter()
                for op in ops:
                    if op[0] == "demand":
                        controller.on_demand_update(op[1], op[2])
                    elif op[0] == "finish":
                        controller.on_flow_finished(op[1], now_ns)
                    else:
                        controller.on_flow_started(op[1], now_ns)
                allocation = controller.recompute(now_ns)
                wall = (started, time.perf_counter())
            walls.append(wall)
            if kind == inputs.MEMBER:
                member_walls.append(wall)
            if index % self.oracle_every == 0:
                self._check(index, allocation)
            if len(walls) == self.digest_epoch:
                self._alloc_digest = _sha(sorted(
                    (fid, float(f"{rate:.9g}")) for fid, rate in allocation.rates_bps.items()))
            if time.perf_counter() >= budget_ends:
                break
        if tracer is not None:
            tracer.tag = None
        self._epochs_run += len(walls)
        stats = {
            "epochs_recomputed": sum(1 for s in controller.stats[1:] if not s.skipped),
            "epochs_skipped": sum(1 for s in controller.stats[1:] if s.skipped),
        }
        return Samples(primary=walls, secondary=member_walls,
                       loop=(loop_started, time.perf_counter()), stats=stats)

    def throughput(self, samples: Samples, scale: Callable[[Interval], float]) -> Tuple[float, int]:
        """Epochs over the sum of their walls (the oracle runs between them)."""
        return len(samples.primary) / sum(map(scale, samples.primary)), len(samples.primary)

    def _check(self, index: int, allocation) -> None:
        """Scratch water-fill on a provider of the oracle's own, so the
        check never warms (or evicts from) the caches being measured."""
        if self._oracle_provider is None:
            self._oracle_provider = WeightProvider(self.topology)
        flows = self.controller.table.snapshot()
        want = waterfill(self.topology, flows, self._oracle_provider,
                         headroom=self.controller.config.headroom)
        worst = max(
            (abs(allocation.rates_bps.get(fid, 0.0) - rate) / max(abs(rate), 1.0)
             for fid, rate in want.rates_bps.items()), default=0.0)
        if len(allocation.rates_bps) != len(want.rates_bps) or worst > RATE_TOLERANCE:
            self._breaches.append(f"epoch {index}: allocation misses scratch by {worst:.3g}")
        over = np.max(allocation.link_load_bps - allocation.link_capacity_bps * (1 + 1e-9))
        if over > 0:
            self._breaches.append(f"epoch {index}: a link is oversubscribed by {over:.3g} bps")

    def trace(self, seconds: float, tracer) -> Dict[str, tuple]:
        """A third of the budget untraced, then the same epochs traced on a
        fresh controller (the tracer's tag is the epoch's batch kind)."""
        self.setup()
        untraced = self.run(seconds / 3.0)
        epochs = len(untraced.primary)
        self.setup()
        tracer.install()
        traced = self.run(math.inf, tracer, max_epochs=epochs)
        tracer.uninstall()
        return {
            "epochs": epochs,
            "congestion.controller.epochs_recomputed": (traced.stats["epochs_recomputed"], 1),
            "congestion.controller.epochs_skipped": (traced.stats["epochs_skipped"], 1),
            "bench.trace_overhead_frac": _overhead_frac(traced, untraced),
        }

    def sim_digest(self) -> str:
        return self._alloc_digest

    def verify(self) -> Verdict:
        return Verdict(attempted=self._epochs_run, failed=len(self._breaches),
                       problems=list(self._breaches))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# daemon_volatile512 / daemon_durable512
# ---------------------------------------------------------------------- #


def filesystem_type(path: Path) -> str:
    """The type of the mount holding *path* (stamped on durable results)."""
    best, fstype = "", "unknown"
    try:
        target = str(path.resolve())
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            if len(parts) >= 3 and target.startswith(parts[1]) and len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


class DaemonWorkload:
    """A live ``repro serve`` subprocess and one closed-loop client."""

    primary_op, secondary_op = "write RPC (announce/finish)", "ALLOC_QUERY RPC"
    work_unit = "RPCs"
    #: under a host disturbance the misjudged samples gather in the last few
    #: percent of a run's 500-6000 samples; p90 stays clear of them
    slow = "p90"
    #: at most this many sampled queries are checked against a scratch fill
    max_rate_checks = 40
    #: new flows added to the sprayed population of the traced run
    rps_adds = 30
    digest_samples = 3

    def __init__(self, dims, n_flows: int, n_ops: int, replay_ops: int,
                 durable: bool, seed: int) -> None:
        self.dims, self.n_flows, self.n_ops, self.seed = dims, n_flows, n_ops, seed
        #: ops of the list the traced run replays in process
        self.replay_ops = replay_ops
        self.durable = durable
        self.snapshot_fs: Optional[str] = None
        self.topology = None
        self.input = None
        self.ready_s = 0.0
        #: peak RSS over the daemons this workload started (read at stop)
        self.daemon_rss_mb = 0.0
        self._work = WORK_DIR / f"daemon-{os.getpid()}"
        self._process: Optional[subprocess.Popen] = None
        self._client: Optional[ServiceClient] = None
        self._ops_done = 0
        self._rpc_errors: List[str] = []
        self._sampled: List[Tuple[int, int, float]] = []  # op index, flow, rate

    @property
    def snapshot_path(self) -> Path:
        return self._work / "snap.json"

    def setup(self) -> None:
        self.topology, self.input, self.setup_parts = _build_inputs(
            self.dims, lambda topology: inputs.daemon_input(
                topology.n_nodes, self.n_flows, self.n_ops, self.seed))
        # One CPU for client and daemon (the daemon inherits the mask): the
        # loop is closed, so they never run at once, and the speed probe in
        # this process then sees exactly the disturbance the daemon sees.
        # Left to the scheduler they usually share a CPU anyway, and read
        # ~2x slower whenever they do not.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._work.mkdir(parents=True, exist_ok=True)
        if self.durable:
            self.snapshot_fs = filesystem_type(self._work)
        port_file = self._work / "port"
        for stale in (port_file, self.snapshot_path):
            stale.unlink(missing_ok=True)
        command = [sys.executable, "-m", "repro", "serve",
                   "--dims", "x".join(map(str, self.dims)),
                   "--headroom", str(HEADROOM), "--port-file", str(port_file)]
        if self.durable:
            command += ["--snapshot", str(self.snapshot_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        spawned = time.perf_counter()
        self._process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        port = read_port_file(port_file, timeout=60.0)
        self.ready_s = time.perf_counter() - spawned
        self._client = ServiceClient("127.0.0.1", port, timeout=60.0)
        for spec in self.input.population:
            self._client.announce_spec(spec)

    def input_digest(self) -> str:
        return inputs.digest((self.input.population, self.input.ops))

    def run(self, seconds: float) -> Samples:
        """The closed loop.  The daemon is another process, so there is
        nothing here to trace; per-layer spans come from :meth:`replay`."""
        client = self._client
        writes: List[Interval] = []
        queries: List[Interval] = []
        n_queries = sum(1 for op in self.input.ops if op[0] == inputs.QUERY)
        sample_every = max(100, n_queries // self.max_rate_checks)
        loop_started = time.perf_counter()
        budget_ends = loop_started + seconds
        done = 0
        for index, op in enumerate(self.input.ops):
            kind = op[0]
            started = time.perf_counter()
            try:
                if kind == inputs.QUERY:
                    reply = client.query(op[1])
                elif kind == inputs.ANNOUNCE:
                    client.announce_spec(op[1])
                else:
                    client.finish(op[1])
            except ReproError as exc:
                # An ERROR reply leaves the stream in step; keep going, the
                # op counts as failed.
                self._rpc_errors.append(f"op {index} ({kind}): {exc}")
                done += 1
                continue
            except OSError as exc:  # timeout or reset: the stream is gone
                self._rpc_errors.append(f"op {index} ({kind}): {exc}")
                done += 1
                break
            ended = time.perf_counter()
            done += 1
            if kind == inputs.QUERY:
                queries.append((started, ended))
                if not reply.known:
                    self._rpc_errors.append(f"op {index}: live flow {op[1]} unknown to daemon")
                elif len(queries) % sample_every == 0:
                    self._sampled.append((index, op[1], reply.rate_bps))
            else:
                writes.append((started, ended))
            if ended >= budget_ends:
                break
        self._ops_done = done
        return Samples(primary=writes, secondary=queries,
                       loop=(loop_started, time.perf_counter()))

    def throughput(self, samples: Samples, scale: Callable[[Interval], float]) -> Tuple[float, int]:
        """RPCs completed over the wall of the closed loop."""
        return self._ops_done / scale(samples.loop), self._ops_done

    def _live_specs_at(self, upto: int) -> Dict[int, object]:
        """The flow set after the first *upto* ops, from the op list alone."""
        specs = {spec.flow_id: spec for spec in self.input.population}
        for op in self.input.ops[:upto]:
            if op[0] == inputs.ANNOUNCE:
                specs[op[1].flow_id] = op[1]
            elif op[0] == inputs.FINISH:
                del specs[op[1]]
        return specs

    def verify(self) -> Verdict:
        """Sampled query replies against a scratch water-fill over the flow
        set the op list implies at that point (independent of the
        incremental path), then the durable restore check."""
        verdict = Verdict(attempted=self._ops_done, failed=len(self._rpc_errors),
                          problems=self._rpc_errors[:5])
        provider = WeightProvider(self.topology)
        for index, flow_id, got in self._sampled:
            specs = self._live_specs_at(index)
            want = waterfill(self.topology, [specs[f] for f in sorted(specs)], provider,
                             headroom=HEADROOM).rates_bps[flow_id]
            if not _rates_close(got, want):
                verdict.failed += 1
                verdict.problems.append(
                    f"op {index}: daemon rate {got!r} for flow {flow_id}, scratch fill {want!r}")
        if self.durable and self._client is not None:
            problem = self._verify_restore()
            if problem:
                verdict.failed += 1
                verdict.problems.append(problem)
        return verdict

    def _verify_restore(self) -> Optional[str]:
        """Stop the daemon, restore its snapshot into a fresh state, and
        require byte-identical answers for every live flow."""
        live = sorted(self._live_specs_at(self._ops_done))
        before = self._client.query_many_raw(live)
        self._stop_daemon()
        restored = ServiceState(self.topology, headroom=HEADROOM,
                                snapshot_path=str(self.snapshot_path))
        if not restored.restored:
            return "durable daemon left no snapshot to restore"
        after = [restored.query(flow_id).encode() for flow_id in live]
        differing = sum(1 for a, b in zip(before, after) if a != b)
        if differing:
            return f"{differing} of {len(live)} flows answer differently after restore()"
        return None

    # ------------------------------------------------------------------ #
    # Traced run: the same ops against an in-process ServiceState
    # ------------------------------------------------------------------ #

    def replay(self, n_ops: int, tracer=None) -> Tuple[Samples, ServiceState]:
        """Apply the first *n_ops* ops to a fresh in-process ``ServiceState``
        (no wire, no asyncio; snapshot on the same filesystem when durable).
        The tracer's tag names the op so spans can be told apart."""
        span = _span_of(tracer)
        snapshot = self._work / "replay-snap.json"
        snapshot.unlink(missing_ok=True)
        state = ServiceState(self.topology, headroom=HEADROOM,
                             snapshot_path=str(snapshot) if self.durable else None,
                             provider=WeightProvider(self.topology))

        def tag(label: Optional[str]) -> None:
            if tracer is not None:
                tracer.tag = label

        tag("preload")
        for spec in self.input.population:
            state.announce(spec)
        walls: List[Interval] = []
        for op in self.input.ops[:n_ops]:
            kind = op[0]
            if kind == inputs.ANNOUNCE:
                tag("reannounce" if state.incremental.has_flow(op[1].flow_id) else "new")
            else:
                tag(kind)
            with span("op:" + kind):
                started = time.perf_counter()
                if kind == inputs.QUERY:
                    state.query(op[1])
                elif kind == inputs.ANNOUNCE:
                    state.announce(op[1])
                else:
                    state.finish(op[1])
                walls.append((started, time.perf_counter()))
        tag(None)
        return Samples(primary=walls, secondary=[], loop=(walls[0][0], walls[-1][1])), state

    def trace(self, seconds: float, tracer) -> Dict[str, tuple]:
        """Half the budget against the live daemon (client-side latencies),
        then the replay untraced and traced, then the rps population."""
        self.setup()
        live = self.run(seconds / 2.0)
        n_ops = min(self._ops_done, self.replay_ops)
        untraced, _ = self.replay(n_ops)
        tracer.install()
        traced, state = self.replay(n_ops, tracer)
        out: Dict[str, tuple] = {}
        if self.durable:
            snapshot = self._work / "replay-snap.json"
            out["service.state.snapshot_bytes"] = (float(snapshot.stat().st_size), 1)
            # constructing on an existing snapshot restores it: the span
            # behind service.state.restore_ms
            ServiceState(self.topology, headroom=HEADROOM, snapshot_path=str(snapshot))
        self._rps_adds(tracer)
        tracer.uninstall()
        scratch = []
        for _ in range(5):
            started = time.perf_counter()
            state.incremental.scratch_allocation()
            scratch.append(time.perf_counter() - started)
        stats = state.incremental.stats()
        in_process = tracer.durations_s("ServiceState.query", tag=inputs.QUERY)
        if in_process and live.secondary:
            out["service.daemon.rpc_overhead_us_p50"] = (
                (statistics.median(end - start for start, end in live.secondary)
                 - statistics.median(in_process)) * 1e6,
                len(live.secondary))
        elif in_process is None:
            out["service.daemon.rpc_overhead_us_p50"] = (None, 0)
        out.update({
            "congestion.incremental.incremental_ratio": (stats["incremental_ratio"], n_ops),
            "congestion.incremental.fallback_recomputes": (stats["fallback_recomputes"], n_ops),
            "congestion.incremental.scratch_ms": (statistics.median(scratch) * 1e3, len(scratch)),
            "service.daemon.ready_s": (self.ready_s, 1),
            "service.daemon.rss_mb": (_peak_rss_mb(self._process.pid), 1),
            "bench.trace_overhead_frac": _overhead_frac(traced, untraced),
        })
        return out

    def _rps_adds(self, tracer) -> None:
        """The no-locality regime: the same population sprayed (rps), then
        new flows added one at a time under the tag ``"rps"``."""
        rng = random.Random(self.seed)
        flows = inputs.population(
            self.topology.n_nodes, self.n_flows + self.rps_adds, "rps", rng, inf_share=0.0)
        sprayed = IncrementalWaterfill(self.topology, headroom=HEADROOM)
        tracer.tag = "rps-preload"
        for spec in flows[:self.n_flows]:
            sprayed.add_flow(spec)
        tracer.tag = "rps"
        for spec in flows[self.n_flows:]:
            sprayed.add_flow(spec)
        tracer.tag = None

    def sim_digest(self) -> str:
        """The first sampled replies (exact floats): every run gets that far."""
        return _sha(self._sampled[:self.digest_samples])

    def _stop_daemon(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._process is not None:
            self.daemon_rss_mb = max(self.daemon_rss_mb, _peak_rss_mb(self._process.pid))
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._process = None

    def close(self) -> None:
        self._stop_daemon()
        shutil.rmtree(self._work, ignore_errors=True)


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process.  ``RUSAGE_CHILDREN`` would not do: it
    also counts the forked image of this process before each exec."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


# ---------------------------------------------------------------------- #
# The table
# ---------------------------------------------------------------------- #

#: name -> (why, factory(seed, quick)).  ``why`` is copied into BENCHMARK.json.
WORKLOADS: Dict[str, Tuple[str, Callable]] = {
    "rack64_shared": (
        "Fig. 7-scale 4x4x4 run, 1000 flows: the unicast data path (event dispatch, port "
        "send, stack deliver) does ~75% of the work and broadcast almost none; tcp shares "
        "the engine and ports",
        lambda seed, quick: RackWorkload(
            (3, 3, 3) if quick else (4, 4, 4), 60 if quick else 1000,
            "shared", {"r2c2": 3, "tcp": 3}, {"r2c2": 9, "tcp": 10}, seed),
    ),
    "rack512_pernode": (
        "Fig. 12-scale 8x8x8 per-node control plane, 300 flows: broadcast FIB build and "
        "fan-out into 512 flow tables dominate and the unicast path is the minority, the "
        "mirror image of rack64_shared",
        lambda seed, quick: RackWorkload(
            (4, 4, 4) if quick else (8, 8, 8), 30 if quick else 300,
            "per_node", {"r2c2": 2, "tcp": 3}, {"r2c2": 3, "tcp": 6}, seed),
    ),
    "epoch_churn512": (
        "One RateController, 512 rps flows on 8x8x8, seeded demand/membership churn per "
        "epoch: the paper's Fig. 8 cost (water-fill plus per-arrival fill); packet path and "
        "daemon idle",
        lambda seed, quick: EpochWorkload(
            (4, 4, 4) if quick else (8, 8, 8), 64 if quick else 512,
            60 if quick else 1000, seed),
    ),
    "daemon_volatile512": (
        "Live repro serve without snapshot, 512 ecmp flows, one closed-loop client, 50% "
        "queries: writes cost an incremental patch + wire + asyncio, the regime "
        "IncrementalWaterfill was built for",
        lambda seed, quick: DaemonWorkload(
            (4, 4, 4) if quick else (8, 8, 8), 64 if quick else 512,
            400 if quick else 20000, 200 if quick else 4000, False, seed),
    ),
    "daemon_durable512": (
        "Same daemon with --snapshot: the per-mutation save_snapshot is ~90% of write "
        "latency here and 0% in daemon_volatile512, so a journal change must move this "
        "workload only",
        lambda seed, quick: DaemonWorkload(
            (4, 4, 4) if quick else (8, 8, 8), 64 if quick else 512,
            200 if quick else 3000, 100 if quick else 600, True, seed),
    ),
}
