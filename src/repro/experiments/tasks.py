"""Worker-side task execution: one function per scenario kind.

:func:`execute_payload` is the module-level entry point the parallel
executor submits to worker processes (it must be importable by name, so it
lives here rather than as a closure).  Each kind returns a plain JSON-able
dict; the campaign runner persists it in the result cache and aggregates
it into figure tables and the campaign manifest.

Kinds:

* ``probe``     — a trivial task for tests and smoke runs (echoes its seed,
  optionally sleeps or fails on early attempts).
* ``routing``   — one Figure 2 cell: saturation throughput of a routing
  protocol under a traffic pattern (or its adversarial worst case).
* ``sim``       — one packet-level simulation run (Figures 9-14, 17, 19
  and the ablation cells).
* ``selection`` — one Figure 18 cell: a protocol-selection search or
  baseline at a given load.
* ``crossval``  — the Figure 7 Maze-vs-simulator cross-validation pair.
* ``rate_error`` — one Figure 15/16 cell: per-flow fluid-model rate error
  of recomputing every ρ against recomputing at every flow event.
* ``epoch_cost`` — one Figure 8 cell: wall time of each epoch's water-fill
  over a trace replay, as a fraction of ρ.
* ``churn``     — a seeded flow arrival/departure replay against the
  control-plane service state with a scratch-vs-incremental cross-check.
* ``synth``     — one inter-rack fabric synthesis (:mod:`repro.topology.
  synth`): generate under budgets, fingerprint, and analyze per-tier
  channel load + bisection on the composed graph.

A run described by a scenario reaches the engine one way:
:func:`sim_inputs` builds its topology, trace and ``SimConfig`` and
:func:`run_sim` runs them serially or sharded.  ``sim`` and ``crossval``
tasks use them, and so do ``repro simulate`` and ``repro explain-flow``.

Any task kind can run *on* a synthesized fabric by setting the scenario's
``topology`` to ``"synth"`` — the fabric spec rides in ``params``
(``design``/``n_racks``/``gateway_ports``/``synth_seed``/...), so churn
and sim tasks scale past the rack without new plumbing.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

from ..errors import ExperimentError
from .spec import Task

__all__ = [
    "execute_payload", "execute_task", "InjectedWorkerFailure", "SimRun", "run_sim", "sim_inputs"
]


class InjectedWorkerFailure(RuntimeError):
    """A deliberately injected worker failure (chaos/retry testing)."""


def _fabric(scenario):
    """The :func:`~repro.topology.synthesize` result a ``topology="synth"``
    scenario describes: ``dims`` are the per-rack dims, the other
    :class:`~repro.topology.FabricSpec` fields ride in params.  The
    synthesis seed is ``synth_seed`` (default 0), *not* the task seed: the
    fabric is scenario content and must be identical across replicates.
    """
    from ..topology import FabricSpec, synthesize

    params = scenario.params_dict
    spec = {**params, "rack_dims": scenario.dims, "capacity_bps": scenario.capacity_bps}
    return synthesize(FabricSpec.from_dict({**spec, "seed": params.get("synth_seed", 0)}))


def _topology(scenario):
    """The fabric a scenario runs on: a synthesized one for ``topology="synth"``,
    else the scenario's rack kind (link latency and the clos switch radix
    ride in params)."""
    from ..topology import build_topology

    if scenario.topology == "synth":
        return _fabric(scenario).topology
    latency_ns = scenario.param("latency_ns")
    return build_topology(
        scenario.topology,
        scenario.dims,
        capacity_bps=scenario.capacity_bps,
        latency_ns=None if latency_ns is None else int(latency_ns),
        radix=int(scenario.param("radix", 8)),
    )


#: What a kind's run description means when a param is absent, where that
#: differs from the ``sim`` kind's §5.2 defaults (``_make_trace`` /
#: ``sim_inputs``).  A scenario's own params always win.
_KIND_DEFAULTS = {
    # Figure 7: fixed-size flows and jumbo frames, as Maze emulates them.
    "crossval": {"n_flows": 60, "tau_ns": 150_000, "sizes": "fixed", "mtu_payload": 8192},
    # Figure 18: one long flow per node under a permutation.
    "selection": {"workload": "permutation"},
}


#: Scenario params that are :class:`~repro.sim.SimConfig` fields, with the
#: type each is coerced to; absent ones keep the class defaults.
_SIM_FIELDS = {
    "stack": str, "mtu_payload": int, "n_broadcast_trees": int, "control_plane": str,
    "reliable": bool, "loss_rate": float, "queue_limit_bytes": int, "horizon_ns": int,
    "audit": bool,
}


def _params(scenario) -> Dict[str, Any]:
    return {**_KIND_DEFAULTS.get(scenario.kind, {}), **scenario.params_dict}


def _apply_failure_storm(params: Mapping[str, Any], seed: int, topology):
    """Degrade *topology* by failing ``fail_links`` seeded links.

    Returns ``(topology_view, failed_links)``; the sample is redrawn until
    the degraded fabric stays strongly connected, so every generated flow
    remains routable (partitions are a different failure class).  Failures
    are symmetric — a storm kills cables, not single transceivers — so
    reversed-path replies (TCP and reliable-transport ACKs) stay routable
    too.
    """
    k_links = int(params.get("fail_links", 0))
    if k_links <= 0:
        return topology, []
    from ..core.seeds import derive_seed
    from ..validation import FaultInjector

    injector = FaultInjector(
        seed=derive_seed(int(params.get("fail_seed", seed)), "fault-storm")
    )
    return injector.fail_links(topology, k_links, require_connected=True, symmetric=True)


def sim_inputs(scenario, seed: int):
    """``(topology, trace, SimConfig, failed_links)`` for one run of
    *scenario* with task seed *seed*.

    The one path from a run description to engine inputs: campaign sim and
    crossval tasks, ``repro simulate`` and ``repro explain-flow`` all build
    here.  Trace and simulator seeds default to *seed* (a crossval pair's
    simulator shares its trace seed with Maze).
    """
    from ..congestion import ControllerConfig
    from ..sim import SimConfig

    params = _params(scenario)
    topology, failed_links = _apply_failure_storm(params, seed, _topology(scenario))
    trace = _make_trace(scenario, seed, topology)
    sim_seed = params.get("trace_seed", seed) if scenario.kind == "crossval" else seed
    config = SimConfig(
        controller=_config_from(ControllerConfig, params, ("headroom", "initial_rate_policy")),
        audit_strict=bool(params.get("audit_strict", False)),
        seed=int(params.get("sim_seed", sim_seed)),
        **{name: kind(params[name]) for name, kind in _SIM_FIELDS.items()
           if params.get(name) is not None},
    )
    return topology, trace, config, failed_links


class SimRun(NamedTuple):
    """One run of a scenario: its engine inputs and what the engine made
    (``telemetry`` for a serial run given a telemetry config, ``sharded``
    — the :class:`~repro.distsim.DistSimResult` — for a sharded one)."""

    topology: Any
    trace: List[Any]
    config: Any
    failed_links: List[Any]
    metrics: Any
    telemetry: Any
    sharded: Any


def run_sim(scenario, seed: int, telemetry_config=None, obs=False, flight=False) -> SimRun:
    """Run *scenario* once with task seed *seed*, on ``scenario.shards``
    in-process shards or serially — the one place that chooses.

    Executor policy, not semantics: the sharded run is byte-identical to
    the serial one (and refuses configurations where it could not be —
    e.g. r2c2 needs ``control_plane='per_node'``).  *obs* and *flight* arm
    the causal tracer and the flight recorder; neither changes the run.
    """
    from dataclasses import replace

    from ..sim import run_simulation

    topology, trace, config, failed_links = sim_inputs(scenario, seed)
    config = replace(config, obs=obs, flight=flight)
    if scenario.shards > 1:
        from ..distsim import run_sharded_simulation

        sharded = run_sharded_simulation(
            topology, trace, config, shards=scenario.shards,
            telemetry_config=telemetry_config,
            partition_strategy=scenario.param("partition_strategy", "auto"),
        )
        return SimRun(topology, trace, config, failed_links, sharded.metrics, None, sharded)
    telemetry = None
    if telemetry_config is not None:
        from ..telemetry import Telemetry

        telemetry = Telemetry(telemetry_config)
    metrics = run_simulation(topology, trace, config, telemetry=telemetry)
    return SimRun(topology, trace, config, failed_links, metrics, telemetry, None)


# ----------------------------------------------------------------------
# Kind executors
# ----------------------------------------------------------------------
def _run_probe(task: Task) -> Dict[str, Any]:
    params = task.scenario.params_dict
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    return {
        "seed": task.seed,
        "replicate": task.replicate,
        "value": task.seed % 997,
    }


def _run_routing(task: Task) -> Dict[str, Any]:
    from ..analysis import saturation_throughput
    from ..routing.base import make_protocol
    from ..workloads import STANDARD_PATTERNS
    from ..workloads.worstcase import worst_case_throughput

    topology = _topology(task.scenario)
    protocol_name = task.scenario.param("protocol")
    pattern_name = task.scenario.param("pattern")
    if protocol_name is None or pattern_name is None:
        raise ExperimentError(
            f"task {task.key}: routing tasks need 'protocol' and 'pattern'"
        )
    protocol = make_protocol(protocol_name, topology)
    if pattern_name == "worst-case":
        throughput = worst_case_throughput(protocol)
    else:
        if pattern_name not in STANDARD_PATTERNS:
            raise ExperimentError(
                f"task {task.key}: unknown pattern {pattern_name!r}"
            )
        matrix = STANDARD_PATTERNS[pattern_name].matrix(topology)
        throughput = saturation_throughput(protocol, matrix)
    return {
        "protocol": protocol_name,
        "pattern": pattern_name,
        "throughput": float(throughput),
    }


def _make_sizes(params: Mapping[str, Any]):
    from ..workloads import FixedSize, ParetoSizes

    size_kind = params.get("sizes", "pareto")
    if size_kind == "fixed":
        return FixedSize(int(params.get("flow_bytes", 1_000_000)))
    return ParetoSizes(
        mean_bytes=int(params.get("mean_bytes", 100 * 1024)),
        shape=float(params.get("shape", 1.05)),
        cap_bytes=int(params.get("cap_bytes", 20_000_000)),
    )


def _make_trace(scenario, seed: int, topology):
    from ..workloads import permutation_load_trace, poisson_trace

    params = _params(scenario)
    workload = params.get("workload", "poisson")
    trace_seed = int(params.get("trace_seed", seed))
    protocol = params.get("protocol", "rps")
    if workload == "poisson":
        return poisson_trace(
            topology,
            int(params.get("n_flows", 100)),
            float(params.get("tau_ns", 5_000)),
            sizes=_make_sizes(params),
            protocol=protocol,
            seed=trace_seed,
        )
    if workload == "permutation":
        return permutation_load_trace(
            topology,
            float(params.get("load", 0.25)),
            protocol=protocol,
            seed=trace_seed,
        )
    if workload == "hostpairs":
        # Random host-to-host pairs with geometric-ish start gaps.  On a
        # clos fabric only hosts terminate traffic (switches neither send
        # nor receive); on direct-connect fabrics every node is a host.
        import random

        from ..core.seeds import derive_seed
        from ..workloads.generator import FlowArrival

        rng = random.Random(derive_seed(trace_seed, "hostpairs"))
        sizes = _make_sizes(params)
        n_hosts = topology.n_hosts
        if n_hosts < 2:
            raise ExperimentError(f"scenario {scenario.name}: hostpairs needs >= 2 hosts")
        gap_ns = max(1, int(params.get("tau_ns", 5_000)))
        trace = []
        start_ns = 0
        for flow_id in range(int(params.get("n_flows", 100))):
            src = rng.randrange(n_hosts)
            dst = rng.randrange(n_hosts - 1)
            if dst >= src:
                dst += 1
            trace.append(
                FlowArrival(
                    flow_id=flow_id,
                    src=src,
                    dst=dst,
                    size_bytes=sizes.sample(rng),
                    start_ns=start_ns,
                    protocol=protocol,
                )
            )
            start_ns += rng.randrange(1, 2 * gap_ns)
        return trace
    raise ExperimentError(f"scenario {scenario.name}: unknown workload {workload!r}")


def _config_from(cls, params: Mapping[str, Any], names, **fixed: Any):
    """A *cls* config built from the scenario params in *names* — the
    fields a figure sets; absent ones and every other field keep the
    class defaults."""
    return cls(**{name: params[name] for name in names if name in params}, **fixed)


def _run_sim(task: Task, flight_sink: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    from ..telemetry import TelemetryConfig

    # The flight recorder is an out-of-band diagnostic channel: its dump
    # goes to *flight_sink*, never into the result dict, which must stay
    # byte-identical across executors (and the recorder is serial-only).
    record_flight = flight_sink is not None and task.scenario.shards <= 1
    run = run_sim(
        task.scenario,
        task.seed,
        TelemetryConfig(metrics=True, trace=False, per_link_series=False),
        flight=record_flight,
    )
    metrics = run.metrics
    if run.sharded is not None:
        snapshot = run.sharded.telemetry_snapshot or {}
    else:
        snapshot = run.telemetry.metrics.snapshot()
        if record_flight and metrics.flight_dump is not None:
            flight_sink["dump"] = metrics.flight_dump
    # The raw event count is an executor artifact (shards schedule extra
    # boundary-injection events), not a simulation result — drop it so the
    # result dict is byte-identical across executors.
    summary = metrics.summary()
    summary.pop("events", None)
    result: Dict[str, Any] = {
        "stack": run.config.stack,
        "summary": summary,
        "completion_rate": metrics.completion_rate(),
        "short_fcts_us": sorted(metrics.short_fcts_us()),
        "long_tputs_gbps": sorted(metrics.long_throughputs_gbps()),
        "queue_occupancy_bytes": sorted(metrics.max_queue_occupancy_bytes),
        "wire_losses": metrics.wire_losses,
        "reorder_max": max(
            (f.max_reorder_buffer for f in metrics.flows), default=0
        ),
        "reorder_buffers": sorted(
            f.max_reorder_buffer for f in metrics.completed_flows()
        ),
        "fcts_ns": sorted(f.fct_ns() for f in metrics.completed_flows()),
        "telemetry": _rollup_snapshot(snapshot),
    }
    if task.scenario.param("wallclock"):
        # Opt-in, for figures that report run time as a declared
        # wall-clock cell: it is the one field that differs run to run.
        result["wallclock_s"] = metrics.wallclock_s
    if run.failed_links:
        result["failed_links"] = [list(link) for link in run.failed_links]
    if run.config.audit:
        # Run-level verdict only: counters like the audited event count are
        # executor accounting, and violation *order* can differ between a
        # serial run and the shard-order concatenation, so the rollup keeps
        # the executor-independent surface (sorted unique messages).
        report = metrics.audit
        result["audit"] = {
            "ok": report is not None and report.ok,
            "violations": sorted(set(report.violations)) if report else [],
        }
    return result


def _make_objective(params: Mapping[str, Any]):
    """Resolve the scenario's utility metric (§3.4's operator-chosen
    objective): ``aggregate`` (default), ``tail`` or ``blended``."""
    from ..selection import AggregateThroughput, BlendedUtility, TailThroughput

    name = params.get("objective", "aggregate")
    if name == "aggregate":
        return AggregateThroughput()
    if name == "tail":
        return TailThroughput(percentile=float(params.get("percentile", 0.0)))
    if name == "blended":
        return BlendedUtility(alpha=float(params.get("alpha", 0.5)))
    raise ExperimentError(f"unknown selection objective {name!r}")


def _searches():
    """selector name -> (selector class, config class, the budget params a
    scenario sets); an unset genetic budget is 20 generations, patience 6."""
    from .. import selection as sel

    return {
        "genetic": (
            sel.GeneticSelector,
            partial(sel.GeneticConfig, max_generations=20, patience=6),
            ("max_generations", "patience"),
        ),
        "hillclimb": (
            sel.HillClimbSelector, sel.HillClimbConfig, ("max_steps", "restarts"),
        ),
        "annealing": (
            sel.AnnealingSelector, sel.AnnealingConfig,
            ("initial_temperature", "cooling", "steps_per_temperature"),
        ),
        "loglinear": (sel.LogLinearSelector, sel.LogLinearConfig, ("rounds",)),
    }


def _run_selection(task: Task) -> Dict[str, Any]:
    from ..congestion import FlowSpec
    from ..congestion.linkweights import WeightProvider
    from ..selection import SelectionProblem, random_baseline, uniform_baseline

    params = task.scenario.params_dict
    topology = _topology(task.scenario)
    load = float(params.get("load", 0.25))
    search_seed = int(params.get("search_seed", task.seed))
    trace = _make_trace(task.scenario, task.seed, topology)
    flows = [FlowSpec(a.flow_id, a.src, a.dst, protocol="rps") for a in trace]
    problem = SelectionProblem(
        topology,
        flows,
        protocols=tuple(params.get("protocols", ("rps", "vlb"))),
        utility=_make_objective(params),
        provider=WeightProvider(topology),
    )
    selector = params.get("selector", "genetic")
    searches = _searches()
    if selector in searches:
        selector_cls, config_cls, names = searches[selector]
        config = _config_from(config_cls, params, names, seed=search_seed)
        result = selector_cls(config).search(problem)
    elif selector == "uniform":
        result = uniform_baseline(problem, params.get("protocol", "rps"))
    elif selector == "random":
        result = random_baseline(problem, seed=search_seed)
    else:
        raise ExperimentError(
            f"task {task.key}: unknown selector {selector!r}"
        )
    return {
        "selector": selector,
        "objective": params.get("objective", "aggregate"),
        "load": load,
        "utility": float(result.utility),
        "evaluations": int(result.evaluations),
    }


def _run_crossval(task: Task) -> Dict[str, Any]:
    from ..analysis import ks_distance
    from ..maze import run_emulation

    run = run_sim(task.scenario, task.seed)
    sim = run.metrics
    maze = run_emulation(run.topology, run.trace, seed=run.config.seed)
    tput_maze = sorted(f.average_throughput_bps() / 1e9 for f in maze.completed_flows())
    tput_sim = sorted(f.average_throughput_bps() / 1e9 for f in sim.completed_flows())
    q_maze = sorted(b / 1000 for b in maze.max_queue_occupancy_bytes)
    q_sim = sorted(b / 1000 for b in sim.max_queue_occupancy_bytes)
    return {
        "maze_completion_rate": maze.completion_rate(),
        "sim_completion_rate": sim.completion_rate(),
        "tput_maze_gbps": tput_maze,
        "tput_sim_gbps": tput_sim,
        "queue_maze_kb": q_maze,
        "queue_sim_kb": q_sim,
        "ks_throughput": float(ks_distance(tput_maze, tput_sim)),
        "ks_queue": float(ks_distance(q_maze, q_sim)),
    }


def _run_rate_error(task: Task) -> Dict[str, Any]:
    from ..sim.fluid import average_rate_error

    params = task.scenario.params_dict
    topology = _topology(task.scenario)
    errors = average_rate_error(
        topology,
        _make_trace(task.scenario, task.seed, topology),
        int(params["rho_ns"]),
        headroom=float(params.get("headroom", 0.05)),
    )
    return {"errors": sorted(errors)}


def _run_epoch_cost(task: Task) -> Dict[str, Any]:
    """Replay a trace's arrivals and departures and time one water-fill of
    the live flow set at every epoch boundary.  The result is wall-clock by
    design; Figure 8 declares every cell it feeds as such."""
    from ..congestion import FlowSpec, waterfill
    from ..congestion.linkweights import WeightProvider

    params = task.scenario.params_dict
    topology = _topology(task.scenario)
    trace = _make_trace(task.scenario, task.seed, topology)
    rho_ns = int(params["rho_ns"])
    provider = WeightProvider(topology)
    specs = [FlowSpec(a.flow_id, a.src, a.dst, a.protocol) for a in trace]
    # Warm the link weights so the epochs time the fill, not the path DP.
    for spec in specs:
        provider.weights_for(spec)
    # A flow departs after sending its bytes at a nominal 1 Gbps.
    finish_ns = [a.start_ns + a.size_bytes * 8 for a in trace]
    overheads = []
    epoch = rho_ns
    while epoch <= max(finish_ns):
        active = [
            spec
            for spec, arrival, end in zip(specs, trace, finish_ns)
            if arrival.start_ns <= epoch < end
        ]
        started = time.perf_counter_ns()
        if active:
            waterfill(topology, active, provider, headroom=0.05)
        overheads.append((time.perf_counter_ns() - started) / rho_ns)
        epoch += rho_ns
    return {"overheads": overheads}


def _run_churn(task: Task) -> Dict[str, Any]:
    from ..service import run_churn

    params = task.scenario.params_dict
    topology = _topology(task.scenario)
    fallback_at = params.get("fallback_at")
    fail_seed = None
    if fallback_at is not None:
        from ..core.seeds import derive_seed

        fallback_at = int(fallback_at)
        fail_seed = derive_seed(
            int(params.get("fail_seed", task.seed)), "fault-storm"
        )
    return run_churn(
        topology,
        seed=int(params.get("op_seed", task.seed)),
        n_ops=int(params.get("n_ops", 200)),
        max_flows=int(params.get("max_flows", 24)),
        check_every=int(params.get("check_every", 1)),
        fallback_at=fallback_at,
        fail_links=int(params.get("fail_links", 1)),
        fail_seed=fail_seed,
        headroom=float(params.get("headroom", 0.0)),
    )


def _run_synth(task: Task) -> Dict[str, Any]:
    from ..analysis import tier_load_report
    from ..topology import bisection_bandwidth_bps

    params = task.scenario.params_dict
    fabric = _fabric(task.scenario)
    spec, topology = fabric.spec, fabric.topology
    result: Dict[str, Any] = {
        "design": spec.design,
        "spec_fingerprint": spec.fingerprint(),
        "fingerprint": fabric.fingerprint,
        "report": dict(fabric.report),
        "n_bridges": len(fabric.bridges),
        "bisection_gbps": bisection_bandwidth_bps(topology) / 1e9,
    }
    protocol_name = params.get("protocol")
    if protocol_name:
        pattern_name = params.get("pattern", "rack-shift")
        result["protocol"] = protocol_name
        result["pattern"] = pattern_name
        result["tier_load"] = tier_load_report(topology, protocol_name, pattern_name)
    return result


_EXECUTORS = {
    "probe": _run_probe,
    "routing": _run_routing,
    "sim": _run_sim,
    "selection": _run_selection,
    "crossval": _run_crossval,
    "rate_error": _run_rate_error,
    "epoch_cost": _run_epoch_cost,
    "churn": _run_churn,
    "synth": _run_synth,
}


def _rollup_snapshot(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Shrink a metrics snapshot to the rollup-relevant sections.

    Executor-dependent gauges (event counts, last-writer table sizes) are
    dropped: task results must be byte-identical whether a cell ran
    serially or sharded, since ``Scenario.shards`` is outside the cache
    fingerprint.
    """
    from ..distsim.merge import EXECUTOR_DEPENDENT_GAUGES

    gauges = {
        name: value
        for name, value in snapshot.get("gauges", {}).items()
        if name not in EXECUTOR_DEPENDENT_GAUGES
    }
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": gauges,
    }


def execute_task(
    task: Task,
    attempt: int = 0,
    flight_sink: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run *task* in-process and return its JSON-able result dict.

    ``fail_attempts`` in the scenario params injects a deterministic
    worker failure on attempts ``< fail_attempts`` — the hook the retry
    tests and the CI chaos smoke lean on.

    *flight_sink*, when given for a serial ``sim`` task, arms the flight
    recorder (:mod:`repro.obs.flight`) and receives its dump under
    ``"dump"`` — out of band, so result dicts stay executor-identical.
    """
    fail_attempts = int(task.scenario.param("fail_attempts", 0))
    if attempt < fail_attempts:
        raise InjectedWorkerFailure(
            f"injected failure for task {task.key} (attempt {attempt} "
            f"of {fail_attempts} forced failures)"
        )
    if task.scenario.kind == "sim" and flight_sink is not None:
        return _run_sim(task, flight_sink=flight_sink)
    executor = _EXECUTORS.get(task.scenario.kind)
    if executor is None:
        raise ExperimentError(f"task {task.key}: unknown kind {task.scenario.kind!r}")
    # Note: no wallclock (or any other nondeterministic value) goes into
    # the result — results must be byte-identical across runs and worker
    # counts; the runner records timing in the manifest instead.  The two
    # exceptions are opt-in timing cells (``epoch_cost`` tasks and sims
    # with ``wallclock``), which their figures declare as wall-clock and
    # the runner re-measures instead of caching.
    return executor(task)


def execute_payload(payload: Mapping[str, Any], attempt: int = 0) -> Dict[str, Any]:
    """Process-pool entry point: rebuild the task from its payload and run it."""
    return execute_task(Task.from_payload(payload), attempt=attempt)
