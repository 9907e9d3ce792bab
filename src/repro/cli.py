"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — describe a rack topology (nodes, links, diameter, paths).
* ``rates``     — start flows on a rack and print their R2C2 allocations.
* ``simulate``  — run the packet-level simulator on a synthetic workload
  (``--trace``/``--metrics`` capture telemetry, ``--flight-dump`` the
  crash flight recorder; see DESIGN.md).
* ``explain-flow`` — causal critical-path report: decompose completed
  flows' FCTs into pacing / serialization / queueing / propagation /
  control-wait / host-wait / retransmit-wait (``repro.obs``).
* ``report``    — pretty-print a ``--metrics`` snapshot.
* ``sweep``     — run an evaluation campaign (parallel, cached, resumable).
* ``figures``   — regenerate the paper's tables (every §5 figure, or one),
  or ``--check`` them against the committed ones.
* ``fuzz``      — coverage-guided scenario fuzzing: ``run`` the search,
  ``replay`` the regression corpus, ``shrink`` a reproducer.
* ``synth``     — inter-rack fabric synthesis (``repro.topology.synth``):
  ``generate`` a fabric manifest from a spec, ``describe`` its budgets and
  per-tier channel loads, ``sweep`` the multi-rack synth campaign.
* ``serve``     — run the long-lived control-plane daemon: incremental
  max-min allocation served over the binary control protocol
  (flow announce/finish, allocation queries, telemetry snapshot
  subscriptions), durable across restarts by checkpoint + op journal.

The CLI is a thin veneer over the library; every command maps to a few
lines of public API.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Optional, Sequence

from .analysis import tier_load_report
from .topology import build_topology, count_shortest_paths


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dimensions look like 4x4x4, got {text!r}"
        ) from None
    if not dims:
        raise argparse.ArgumentTypeError("need at least one dimension")
    return dims


def cmd_info(args) -> int:
    topo = build_topology(args.topology, args.dims)
    print(f"topology:        {topo.name}")
    print(f"nodes:           {topo.n_nodes}")
    print(f"directed links:  {topo.n_links}")
    print(f"degree:          {topo.max_degree()}")
    print(f"diameter:        {topo.diameter()}")
    print(f"avg distance:    {topo.average_distance():.2f} hops")
    if topo.n_nodes >= 2:
        far = max(topo.nodes(), key=lambda n: topo.distance(0, n))
        paths = count_shortest_paths(topo, 0, far)
        print(f"minimal paths 0 -> {far} (a farthest pair): {paths}")
    from .errors import TopologyError
    from .topology import bisection_bandwidth_bps

    try:
        print(f"bisection:       {bisection_bandwidth_bps(topo) / 1e12:.2f} Tbps")
    except TopologyError as err:
        print(f"bisection:       n/a ({err})")
    return 0


def cmd_rates(args) -> int:
    from .congestion import ControllerConfig
    from .core import Rack
    from .types import usec

    topo = build_topology(args.topology, args.dims)
    rack = Rack(
        topo, ControllerConfig(headroom=args.headroom, initial_rate_policy="mean_allocated")
    )
    rng_pairs = []
    import random

    rng = random.Random(args.seed)
    for _ in range(args.flows):
        src = rng.randrange(topo.n_nodes)
        dst = rng.randrange(topo.n_nodes - 1)
        if dst >= src:
            dst += 1
        rng_pairs.append((src, dst))
        rack.start_flow(src, dst, protocol=args.protocol)
    rack.advance_time(usec(500))
    print(f"{args.flows} {args.protocol} flows on {topo.name} "
          f"(headroom {args.headroom:.0%}):")
    for flow_id, rate in sorted(rack.rates().items()):
        src, dst = rng_pairs[flow_id]
        print(f"  flow {flow_id:3d}  {src:3d} -> {dst:3d}  {rate / 1e9:6.2f} Gbps")
    allocation = rack.nodes[0].controller.allocation
    print(f"aggregate: {allocation.aggregate_throughput_bps() / 1e9:.1f} Gbps; "
          f"max link utilization {allocation.max_link_utilization():.0%}")
    return 0


#: The simulate-style flags that describe the run, by their scenario param
#: names (``--flows`` is ``n_flows``, ``--interarrival-ns`` is ``tau_ns``).
_SIM_PARAMS = ("stack", "n_flows", "tau_ns", "mean_bytes", "reliable", "control_plane")


def _sim_scenario(args):
    """The ``sim`` :class:`~repro.experiments.Scenario` a simulate-style
    command runs: one flag per param, trace and simulator seeds pinned to
    ``--seed``, ``--shards`` as the executor policy."""
    from .experiments import Scenario

    params = {name: getattr(args, name) for name in _SIM_PARAMS}
    return Scenario(
        name="simulate",
        topology=args.topology,
        dims=args.dims,
        params={**params, "trace_seed": args.seed, "sim_seed": args.seed},
        shards=args.shards,
    )


def cmd_simulate(args) -> int:
    from .experiments.tasks import run_sim

    scenario = _sim_scenario(args)
    telemetry_config = None
    if args.metrics_out is not None or args.trace_out is not None:
        from .telemetry import TelemetryConfig

        telemetry_config = TelemetryConfig(
            metrics=args.metrics_out is not None, trace=args.trace_out is not None
        )

    execute = partial(
        run_sim, scenario, args.seed, telemetry_config, flight=args.flight_dump is not None
    )
    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        run = profiler.runcall(execute)
        if args.profile == "-":
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(30)
        else:
            profiler.dump_stats(args.profile)
            print(f"profile written to {args.profile} "
                  f"(inspect with: python -m pstats {args.profile})")
    else:
        run = execute()
    metrics, telemetry, sharded = run.metrics, run.telemetry, run.sharded
    print(f"stack={args.stack} on {run.topology.name}: "
          f"{len(run.trace)} flows, {metrics.duration_ns / 1e6:.2f} ms simulated, "
          f"{metrics.wallclock_s:.1f} s wall")
    print(f"  scenario fingerprint {scenario.fingerprint()}")
    if sharded is not None:
        print(f"  sharded: K={sharded.shards}, "
              f"sizes {'/'.join(str(s) for s in sharded.shard_sizes)}, "
              f"{sharded.cut_links} cut links, "
              f"lookahead {sharded.lookahead_ns} ns, "
              f"{sharded.rounds} rounds, "
              f"{sharded.boundary_messages} boundary messages")
        sync = sharded.sync_profile
        if sync is not None:
            util = sync.get("lookahead_utilization")
            print(f"  sync: executing {sync['exec_s']:.3f} s, "
                  f"mean window {sync['mean_window_ns']:.0f} ns, "
                  f"lookahead utilization "
                  f"{'n/a' if util is None else f'{util:.1%}'}")
    for key, value in metrics.summary().items():
        print(f"  {key:20s} {value:,.2f}")
    if sharded is not None:
        import json

        if args.trace_out and sharded.trace_document is not None:
            with open(args.trace_out, "w") as fh:
                fh.write(json.dumps(sharded.trace_document, sort_keys=True))
                fh.write("\n")
            print(f"merged trace written to {args.trace_out} "
                  f"(open in https://ui.perfetto.dev)")
        if args.metrics_out:
            snapshot = dict(sharded.telemetry_snapshot or {})
            # Surface the sync profile in the snapshot so `repro report`
            # can render how the shards spent their wall-clock time.
            snapshot["sync_profile"] = sharded.sync_profile
            with open(args.metrics_out, "w") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"merged metrics snapshot written to {args.metrics_out} "
                  f"(pretty-print with: repro report {args.metrics_out})")
    elif telemetry is not None:
        if args.trace_out:
            telemetry.save_trace(args.trace_out)
            print(f"trace written to {args.trace_out} "
                  f"(open in https://ui.perfetto.dev)")
        if args.metrics_out:
            telemetry.save_metrics(args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out} "
                  f"(pretty-print with: repro report {args.metrics_out})")
    if args.flight_dump is not None and sharded is None:
        import json

        with open(args.flight_dump, "w") as fh:
            json.dump(metrics.flight_dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"flight-recorder dump written to {args.flight_dump}")
    return 0


def cmd_explain_flow(args) -> int:
    """Causal critical-path report for completed flows (repro.obs)."""
    from .experiments.tasks import run_sim
    from .obs import explain_report

    scenario = _sim_scenario(args)
    run = run_sim(scenario, args.seed, obs=True)
    print(f"scenario fingerprint {scenario.fingerprint()}")
    flow_obs = run.metrics.flow_obs or {}
    flow_ids = args.flow if args.flow else None
    lines, errors = explain_report(flow_obs, flow_ids=flow_ids, check=args.check)
    header = (
        f"causal FCT decomposition: stack={args.stack} on {run.topology.name}, "
        f"{len(flow_obs)}/{len(run.trace)} flows completed in "
        f"{run.metrics.duration_ns / 1e6:.2f} ms simulated"
    )
    text = "\n".join([header, ""] + lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    for problem in errors:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if errors else 0


def cmd_report(args) -> int:
    """Pretty-print a metrics snapshot produced by ``--metrics``."""
    import json

    with open(args.snapshot) as fh:
        snap = json.load(fh)
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    series = snap.get("series", {})
    if counters:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:48s} {value:>16,}")
    if gauges:
        print("gauges:")
        for name, value in sorted(gauges.items()):
            print(f"  {name:48s} {value:>16,.2f}")
    if histograms:
        print("histograms:")
        for name, hist in sorted(histograms.items()):
            count = hist.get("count", 0)
            print(f"  {name}: n={count}, sum={hist.get('sum', 0):,.0f}, "
                  f"min={hist.get('min')}, max={hist.get('max')}")
            if not count or args.no_bars:
                continue
            bounds = hist["buckets"]
            peak = max(hist["counts"]) or 1
            for i, n in enumerate(hist["counts"]):
                if not n:
                    continue
                label = (f"<= {bounds[i]:,.0f}" if i < len(bounds)
                         else f"> {bounds[-1]:,.0f}")
                bar = "#" * max(1, round(24 * n / peak))
                print(f"    {label:>16s} {n:>10,} {bar}")
    sync = snap.get("sync_profile")
    if sync:
        print("sync profile (sharded execution):")
        util = sync.get("lookahead_utilization")
        print(f"  rounds              {sync.get('rounds', 0):>16,}")
        print(f"  boundary messages   {sync.get('boundary_messages', 0):>16,}")
        if sync.get("lookahead_ns") is not None:
            print(f"  lookahead           {sync['lookahead_ns']:>13,} ns")
        if sync.get("mean_window_ns") is not None:
            print(f"  mean window         {sync['mean_window_ns']:>13,.0f} ns")
        if util is not None:
            print(f"  lookahead util      {util:>15.1%}")
        print(f"  executing wall      {sync.get('exec_s', 0.0):>14.3f} s")
        for shard in sync.get("shards") or ():
            if not shard:
                continue
            print(f"    shard: rounds={shard['rounds']:,} "
                  f"in={shard['boundary_in']:,} out={shard['boundary_out']:,} "
                  f"exec={shard['exec_s']:.3f}s")
    if series:
        print(f"series: {len(series)} recorded "
              f"(per-link time series; inspect the JSON directly)")
        shown = 0
        for name, data in sorted(series.items()):
            if "{" in name and args.no_bars:
                continue
            if "{" not in name:
                values = data.get("values", [])
                peak = max(values) if values else 0
                print(f"  {name}: {len(values)} samples, peak {peak:,.0f}")
                shown += 1
        if not shown:
            print("  (aggregate series absent; see the raw JSON)")
    tier_load = snap.get("tier_load")
    if tier_load:
        _print_tier_load(tier_load)
    if snap.get("bisection_gbps") is not None:
        print(f"bisection bandwidth: {snap['bisection_gbps']:,.1f} Gbps")
    return 0


def _print_tier_load(tier_load) -> None:
    """Render a per-tier channel-load section (synth manifests, Fig. 2)."""
    bottleneck = tier_load.get("bottleneck")
    print("per-tier channel load:")
    for name, tier in sorted(tier_load.get("tiers", {}).items()):
        saturation = tier.get("saturation")
        sat_text = f"{saturation:.4f}" if saturation is not None else "inf"
        marker = "  <-- bottleneck" if name == bottleneck else ""
        print(f"  {name:8s} links={tier['links']:>6,} "
              f"capacity={tier['capacity_bps'] / 1e9:6.1f} Gbps "
              f"max_load={tier['max_load']:8.2f} "
              f"saturation={sat_text}{marker}")
    overall = tier_load.get("saturation")
    if overall is not None:
        print(f"  saturation throughput: {overall:.4f} of injection capacity")


def _campaign_from_args(args, name):
    """Build figure *name*'s (possibly filtered) campaign plus executor
    config."""
    from .errors import ExperimentError
    from .experiments import ExecutorConfig, campaign_for, current_scale
    from .validation import FaultEvent

    if name is None:
        raise ExperimentError(
            "missing figure name (try `repro sweep --list` for choices)"
        )
    scale = current_scale(args.scale)
    campaign = campaign_for(name, scale)
    if args.only:
        kept = [s for s in campaign.scenarios if args.only in s.name]
        if not kept:
            raise ExperimentError(
                f"--only {args.only!r} matches none of the "
                f"{len(campaign.scenarios)} scenarios of {campaign.name}"
            )
        # Task seeds/fingerprints depend only on (campaign seed, scenario,
        # replicate), so a filtered run shares its cache with full runs.
        campaign = type(campaign)(
            name=campaign.name,
            scenarios=kept,
            seed=campaign.seed,
            description=campaign.description,
        )
    fault_events = []
    if args.max_tasks is not None:
        fault_events.append(
            FaultEvent(at_ns=args.max_tasks, kind="kill_campaign", target=None)
        )
    for spec in args.fail_task or ():
        key, _, count = spec.partition(":")
        fault_events.append(
            FaultEvent(
                at_ns=int(count) if count else 1,
                kind="worker_failure",
                target=key,
            )
        )
    config = ExecutorConfig(
        workers=args.workers,
        task_timeout_s=args.timeout,
        max_retries=args.retries,
    )
    return scale, campaign, config, fault_events


def _run_campaign_cli(args, name):
    from .experiments import run_campaign

    scale, campaign, config, fault_events = _campaign_from_args(args, name)
    if args.dry_run:
        print(f"campaign {campaign.name} [scale={scale.name}]: "
              f"{len(campaign.expand())} task(s)")
        for task in campaign.expand():
            print(f"  {task.key}  seed={task.seed}  fp={task.fingerprint()[:12]}")
        return scale, campaign, None
    result = run_campaign(
        campaign,
        config,
        cache_dir=args.cache_dir,
        fault_events=fault_events,
        progress=print,
    )
    counts = result.manifest["counts"]
    print(
        f"campaign {campaign.name} [scale={scale.name}]: {result.status} — "
        f"{counts['tasks']} task(s), {counts['cache_hits']} cached, "
        f"{counts['computed']} computed, {counts['failed']} failed, "
        f"{counts['retries']} retrie(s), "
        f"{result.manifest['wallclock_s']:.2f}s wall "
        f"[mode={result.manifest['mode']}]"
    )
    return scale, campaign, result


_SWEEP_EXIT_CODES = {"complete": 0, "failed": 1, "interrupted": 3}


def cmd_sweep(args) -> int:
    from .experiments import FIGURES

    if args.list:
        for name in sorted(FIGURES):
            fig = FIGURES[name]
            print(f"  {name:16s} {fig.title}")
        return 0
    _scale, _campaign, result = _run_campaign_cli(args, args.figure)
    if result is None:  # --dry-run
        return 0
    return _SWEEP_EXIT_CODES[result.status]


def cmd_fuzz_run(args) -> int:
    from .fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        batch_size=args.batch_size,
        corpus_dir=args.corpus_dir,
        differential=not args.no_differential,
        workers=args.workers,
    )
    report = run_fuzz(config, progress=print)
    if args.coverage_out:
        report.coverage.save(args.coverage_out)
        print(f"coverage map written to {args.coverage_out}")
    import json as _json

    print(_json.dumps(report.summary(), indent=2, sort_keys=True))
    if report.found_failures:
        print(
            f"{len(report.failures)} failing scenario(s) found; "
            f"shrunk reproducers in {args.corpus_dir}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_fuzz_replay(args) -> int:
    from .fuzz import Corpus, replay_entry

    corpus = Corpus(args.corpus_dir)
    entries = corpus.entries()
    if args.entry:
        wanted = set(args.entry)
        entries = [e for e in entries if any(e.entry_id.startswith(w) for w in wanted)]
        if not entries:
            print(f"no corpus entry matches {sorted(wanted)}", file=sys.stderr)
            return 2
    if not entries:
        print(f"corpus {corpus.root} is empty; nothing to replay")
        return 0
    failing = 0
    for entry in entries:
        verdicts = replay_entry(entry)
        bad = [v for v in verdicts if not v.ok]
        status = "FAIL" if bad else "ok"
        print(f"{entry.entry_id}  {entry.scenario.name:20s} {status}")
        for v in bad:
            failing += 1
            for detail in v.details:
                print(f"    {v.oracle}: {detail}")
    return 1 if failing else 0


def cmd_fuzz_shrink(args) -> int:
    import json as _json
    from pathlib import Path

    from .experiments import Scenario
    from .fuzz import Corpus, CorpusEntry
    from .fuzz.fuzzer import _evaluate, _failing_set
    from .fuzz.shrink import shrink_scenario

    corpus = Corpus(args.corpus_dir)
    entry = corpus.find(args.target)
    if entry is not None:
        scenario = entry.scenario
    elif Path(args.target).is_file():
        scenario = Scenario.from_json(Path(args.target).read_text(encoding="utf-8"))
    else:
        print(f"{args.target!r}: not a corpus entry id or spec file", file=sys.stderr)
        return 2
    verdicts, signature, _result = _evaluate(scenario, args.seed, True)
    failing = _failing_set(verdicts)
    if not failing:
        print(f"{scenario.name}: all oracles pass; nothing to shrink")
        return 0
    print(f"{scenario.name}: failing oracles {sorted(failing)}; shrinking")

    def still_fails(candidate):
        cand_verdicts, _s, _r = _evaluate(candidate, args.seed, True)
        return _failing_set(cand_verdicts) == failing

    shrunk = shrink_scenario(scenario, still_fails, max_evals=args.max_evals)
    final_verdicts, final_signature, _r = _evaluate(shrunk.scenario, args.seed, True)
    new_entry = CorpusEntry(
        scenario=shrunk.scenario,
        verdicts=final_verdicts,
        signature=final_signature,
        found_from=scenario.fingerprint(),
        shrink_steps=tuple(shrunk.steps),
        root_seed=args.seed,
    )
    path = corpus.add(new_entry)
    print(
        f"shrunk in {len(shrunk.steps)} step(s) "
        f"({shrunk.evals} evaluations); written to {path}"
    )
    print(_json.dumps(new_entry.scenario.to_dict(), indent=2, sort_keys=True))
    return 1


def cmd_serve(args) -> int:
    from .congestion import WeightProvider
    from .service import ServiceState, serve_forever

    topo = build_topology(args.topology, args.dims)
    state = ServiceState(
        topo,
        headroom=args.headroom,
        snapshot_path=args.snapshot,
        provider=WeightProvider(topo),
    )
    if state.restored:
        print(
            f"restored {state.incremental.n_flows} flow(s) from {args.snapshot} "
            f"(checkpoint seq {state.seq - state.journal_records} + "
            f"{state.journal_records} journal record(s)"
            + (", 1 torn tail dropped)" if state.torn_tails else ")")
        )
    print(f"serving {topo.name} on {args.host} (headroom {args.headroom:g})")
    serve_forever(
        state,
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        max_seconds=args.seconds,
    )
    stats = state.incremental.stats()
    print(
        f"stopped after {state.announces} announce(s), {state.finishes} "
        f"finish(es), {state.queries} quer(ies); "
        f"{stats['incremental_ops']} incremental / "
        f"{stats['fallback_recomputes']} fallback recompute(s)"
    )
    return 0


def _synth_fabric(args):
    """Synthesize the fabric the spec flags describe (one flag per
    :class:`~repro.topology.FabricSpec` field; ``--bridge-gbps`` in Gbps)."""
    from .topology.synth import FabricSpec, synthesize

    gbps = args.bridge_gbps
    bridge = {"bridge_capacity_bps": None if gbps is None else gbps * 1e9}
    return synthesize(FabricSpec.from_dict({**vars(args), **bridge}))


def cmd_synth_generate(args) -> int:
    import json
    from pathlib import Path

    from .topology import bisection_bandwidth_bps

    fabric = _synth_fabric(args)
    manifest = fabric.describe()
    manifest["bisection_gbps"] = bisection_bandwidth_bps(fabric.topology) / 1e9
    if args.protocol:
        manifest["protocol"] = args.protocol
        manifest["pattern"] = args.pattern
        manifest["tier_load"] = tier_load_report(
            fabric.topology, args.protocol, args.pattern
        )
    text = json.dumps(manifest, indent=2, sort_keys=True)
    if args.out:
        from .core import atomic_write_text

        atomic_write_text(Path(args.out), text + "\n")
        print(f"manifest written to {args.out} "
              f"(fabric fingerprint {fabric.fingerprint[:12]})")
    else:
        print(text)
    return 0


def cmd_synth_describe(args) -> int:
    from .topology import bisection_bandwidth_bps

    fabric = _synth_fabric(args)
    spec = fabric.spec
    report = fabric.report
    dims_text = "x".join(str(d) for d in spec.rack_dims)
    print(f"design:            {spec.design} "
          f"({spec.n_racks} x {spec.rack} {dims_text}, seed {spec.seed})")
    print(f"nodes:             {fabric.topology.n_nodes:,} "
          f"({report['n_racks']} racks x {report['rack_size']} nodes)")
    print(f"directed links:    {fabric.topology.n_links:,}")
    print(f"gateway wiring:    {len(fabric.bridges)} bridge(s), "
          f"{report.get('switches', 0)} switch(es), "
          f"{report.get('cables', 0)} inter-rack cable(s)")
    print(f"gateway capacity:  {report['gateway_capacity_bps'] / 1e9:.1f} Gbps, "
          f"{spec.bridge_latency_ns} ns")
    achieved = report.get("oversubscription")
    if achieved is not None:
        print(f"oversubscription:  {achieved:.2f} (target <= "
              f"{spec.oversubscription:g})")
    print(f"cost:              {report['cost']:,.0f}"
          + (f" (budget {spec.max_cost:,.0f})" if spec.max_cost else ""))
    print(f"bisection:         "
          f"{bisection_bandwidth_bps(fabric.topology) / 1e9:,.1f} Gbps")
    print(f"spec fingerprint:  {spec.fingerprint()}")
    print(f"fabric fingerprint: {fabric.fingerprint}")
    if args.protocol:
        _print_tier_load(
            tier_load_report(fabric.topology, args.protocol, args.pattern)
        )
    return 0


def cmd_synth_sweep(args) -> int:
    args.figure = "synth"
    return cmd_figures(args)


def cmd_figures(args) -> int:
    # The paper in one command: FIGURES is the only producer of the
    # benchmarks/results tables.  With no name this runs every §5 figure
    # through the result cache and writes its tables; --check diffs the
    # regenerated tables against the committed ones instead, skipping only
    # each FigureDef's declared wall-clock cells.
    import difflib
    from pathlib import Path

    from .core import atomic_write_text
    from .errors import ExperimentError
    from .experiments.figures import (
        FIGURES,
        PAPER_FIGURES,
        table_file_text,
        tables_match,
    )

    if args.only and args.figure is None:
        raise ExperimentError("--only needs a figure name")
    check = getattr(args, "check", False)
    results_dir = Path(args.results_dir)
    exit_code = 0
    for name in [args.figure] if args.figure else PAPER_FIGURES:
        scale, _campaign, result = _run_campaign_cli(args, name)
        if result is None:  # --dry-run
            continue
        if result.status != "complete":
            print(f"campaign incomplete ({result.status}); no tables emitted")
            return _SWEEP_EXIT_CODES[result.status]
        fig = FIGURES[name]
        for stem, text in fig.aggregate(result.results, scale).items():
            path = results_dir / f"{stem}.txt"
            fresh = table_file_text(stem, text, scale)
            if not check:
                print(fresh, end="")
                atomic_write_text(path, fresh)
                print(f"table written to {path}")
                continue
            committed = path.read_text() if path.exists() else ""
            if tables_match(fig, stem, committed, fresh):
                skipped = " (wall-clock)" if stem in fig.wallclock else ""
                print(f"check {path}: ok{skipped}")
                continue
            exit_code = 1
            print(f"check {path}: DIFFERS")
            sys.stdout.writelines(
                difflib.unified_diff(
                    committed.splitlines(True),
                    fresh.splitlines(True),
                    str(path),
                    "regenerated",
                )
            )
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="R2C2: a network stack for rack-scale computers (SIGCOMM 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_topology_args(p):
        p.add_argument("--topology", choices=("torus", "mesh", "hypercube"), default="torus")
        p.add_argument("--dims", type=_parse_dims, default=(4, 4, 4),
                       help="dimensions, e.g. 4x4x4 (hypercube: number of bits, e.g. 6)")

    p_info = sub.add_parser("info", help="describe a rack topology")
    add_topology_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_rates = sub.add_parser("rates", help="allocate rates for random flows")
    add_topology_args(p_rates)
    p_rates.add_argument("--flows", type=int, default=8)
    p_rates.add_argument("--protocol", default="rps")
    p_rates.add_argument("--headroom", type=float, default=0.05)
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.set_defaults(func=cmd_rates)

    def add_sim_args(p):
        add_topology_args(p)
        p.add_argument("--stack", choices=("r2c2", "tcp", "pfq"), default="r2c2")
        p.add_argument("--flows", dest="n_flows", type=int, default=200)
        p.add_argument("--interarrival-ns", dest="tau_ns", type=int, default=5000)
        p.add_argument("--mean-bytes", type=int, default=100 * 1024)
        p.add_argument("--reliable", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--control-plane", choices=("shared", "per_node"),
                       default="shared",
                       help="r2c2 rate-control placement; sharded r2c2 runs "
                            "require per_node")
        p.add_argument("--shards", type=int, default=1,
                       help="re-run the simulation as N in-process event "
                            "loops (repro.distsim): a determinism check "
                            "whose results are byte-identical to a serial "
                            "run, not a way to go faster")

    p_sim = sub.add_parser("simulate", help="run the packet-level simulator")
    add_sim_args(p_sim)
    p_sim.add_argument("--profile", nargs="?", const="-", default=None,
                       metavar="FILE",
                       help="profile the run with cProfile; dump stats to "
                            "FILE, or print the top entries when no FILE "
                            "is given")
    p_sim.add_argument("--trace", dest="trace_out", default=None, metavar="FILE",
                       help="record a Chrome trace-event JSON of the run "
                            "(epochs, broadcasts, link probes, sampled "
                            "packets); open in https://ui.perfetto.dev")
    p_sim.add_argument("--metrics", dest="metrics_out", default=None,
                       metavar="FILE",
                       help="write a metrics snapshot JSON (counters, "
                            "queue-occupancy histograms, link time series); "
                            "pretty-print with `repro report FILE`")
    p_sim.add_argument("--flight-dump", dest="flight_dump", default=None,
                       metavar="FILE",
                       help="enable the crash flight recorder and write its "
                            "end-of-run dump JSON here (serial runs only)")
    p_sim.set_defaults(func=cmd_simulate)

    p_explain = sub.add_parser(
        "explain-flow",
        help="decompose completed flows' FCTs into causal components",
        description="Run the simulator with causal tracing (repro.obs) and "
                    "report, for each completed flow, where its FCT went: "
                    "pacing, serialization, queueing, propagation, "
                    "control-wait, host-wait and retransmit-wait — the "
                    "components sum exactly to the measured FCT.",
    )
    add_sim_args(p_explain)
    p_explain.add_argument("--flow", type=int, action="append", default=None,
                           metavar="ID",
                           help="flow id to explain (repeatable; default: "
                                "every completed flow)")
    p_explain.add_argument("--check", action="store_true",
                           help="verify every reported decomposition sums "
                                "to its FCT within 1 ns (exit 1 otherwise)")
    p_explain.add_argument("--out", default=None, metavar="FILE",
                           help="write the report here instead of stdout")
    p_explain.set_defaults(func=cmd_explain_flow)

    p_report = sub.add_parser(
        "report", help="pretty-print a metrics snapshot from simulate --metrics"
    )
    p_report.add_argument("snapshot", help="metrics snapshot JSON file")
    p_report.add_argument("--no-bars", action="store_true",
                          help="omit histogram bucket bars (terse output)")
    p_report.set_defaults(func=cmd_report)

    def add_campaign_args(p, figure_arg=True):
        if figure_arg:
            p.add_argument("figure", nargs="?", default=None,
                           help="figure campaign to run (see `repro sweep --list`)")
        p.add_argument("--scale", default=None,
                       choices=("small", "medium", "paper"),
                       help="experiment scale (default: $REPRO_SCALE or small)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes; 1 = serial in-process")
        p.add_argument("--cache-dir", default=".repro_cache",
                       help="content-addressed result cache root "
                            "(resume re-runs only missing tasks)")
        p.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-task timeout in seconds (pool mode)")
        p.add_argument("--retries", type=int, default=2,
                       help="retry budget per task on worker failure")
        p.add_argument("--only", default=None, metavar="SUBSTR",
                       help="run only scenarios whose name contains SUBSTR")
        p.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="stop (crash-simulate) after N freshly computed "
                            "tasks; exit code 3, resume by re-running")
        p.add_argument("--fail-task", action="append", default=None,
                       metavar="KEY[:N]",
                       help="inject N (default 1) worker failures for task "
                            "KEY to exercise the retry path")
        p.add_argument("--dry-run", action="store_true",
                       help="list the campaign's tasks without running")

    p_sweep = sub.add_parser(
        "sweep",
        help="run an evaluation campaign (parallel, cached, resumable)",
    )
    add_campaign_args(p_sweep)
    p_sweep.add_argument("--list", action="store_true",
                         help="list available figure campaigns")
    p_sweep.set_defaults(func=cmd_sweep)

    p_figures = sub.add_parser(
        "figures",
        help="regenerate the paper's benchmarks/results tables",
        description="Run every §5 figure campaign (or the one named) "
                    "through the result cache and write its tables; with "
                    "--check, diff them against the committed ones.",
    )
    add_campaign_args(p_figures)
    p_figures.add_argument("--results-dir", default="benchmarks/results",
                           help="where the *.txt tables are written "
                                "(or, with --check, read)")
    p_figures.add_argument("--check", action="store_true",
                           help="diff the regenerated tables against "
                                "--results-dir instead of writing them, "
                                "skipping declared wall-clock cells; exit 1 "
                                "on any difference")
    p_figures.set_defaults(func=cmd_figures)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing (run / replay / shrink)",
    )
    fuzz_sub = p_fuzz.add_subparsers(dest="fuzz_cmd", required=True)

    p_frun = fuzz_sub.add_parser(
        "run", help="fuzz the stack: generate, execute, cover, shrink"
    )
    p_frun.add_argument("--budget", type=int, default=100,
                        help="scenarios to execute (default 100)")
    p_frun.add_argument("--seed", type=int, default=0, help="root fuzzing seed")
    p_frun.add_argument("--batch-size", type=int, default=10)
    p_frun.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk failures are persisted")
    p_frun.add_argument("--coverage-out", default=None,
                        help="write the coverage map JSON here")
    p_frun.add_argument("--no-differential", action="store_true",
                        help="skip the sharded-vs-serial oracle")
    p_frun.add_argument("--workers", type=int, default=1,
                        help="campaign executor workers")
    p_frun.set_defaults(func=cmd_fuzz_run)

    p_freplay = fuzz_sub.add_parser(
        "replay", help="re-run corpus entries and re-judge every oracle"
    )
    p_freplay.add_argument("entry", nargs="*",
                           help="entry id prefixes (default: whole corpus)")
    p_freplay.add_argument("--corpus-dir", default="tests/corpus")
    p_freplay.set_defaults(func=cmd_fuzz_replay)

    p_fshrink = fuzz_sub.add_parser(
        "shrink", help="(re-)shrink a corpus entry or scenario spec file"
    )
    p_fshrink.add_argument("target",
                           help="corpus entry id prefix or scenario JSON path")
    p_fshrink.add_argument("--corpus-dir", default="tests/corpus")
    p_fshrink.add_argument("--seed", type=int, default=0)
    p_fshrink.add_argument("--max-evals", type=int, default=80)
    p_fshrink.set_defaults(func=cmd_fuzz_shrink)

    p_synth = sub.add_parser(
        "synth",
        help="synthesize inter-rack fabrics (generate / describe / sweep)",
    )
    synth_sub = p_synth.add_subparsers(dest="synth_cmd", required=True)

    def add_synth_spec_args(p):
        p.add_argument("--design",
                       choices=("flat", "ring", "fattree", "switched"),
                       default="flat",
                       help="inter-rack design family (default flat "
                            "random-regular direct-connect)")
        p.add_argument("--rack", choices=("torus", "mesh", "hypercube"),
                       default="torus")
        p.add_argument("--rack-dims", type=_parse_dims, default=(3, 3, 3),
                       help="per-rack dimensions, e.g. 4x4x5")
        p.add_argument("--racks", dest="n_racks", type=int, default=8,
                       help="number of racks to compose")
        p.add_argument("--gateway-ports", type=int, default=4,
                       help="inter-rack ports available per rack")
        p.add_argument("--oversubscription", type=float, default=64.0,
                       help="worst acceptable host:gateway bandwidth ratio")
        p.add_argument("--bridge-gbps", type=float, default=None,
                       help="gateway link capacity (default: rack capacity)")
        p.add_argument("--bridge-latency-ns", type=int, default=500)
        p.add_argument("--seed", type=int, default=0,
                       help="synthesis seed (flat design wiring)")
        p.add_argument("--switch-radix", type=int, default=64,
                       help="ports per switch (fattree/switched designs)")
        p.add_argument("--switch-cost", type=float, default=300.0)
        p.add_argument("--cable-cost", type=float, default=10.0)
        p.add_argument("--max-cost", type=float, default=None,
                       help="reject fabrics costing more than this")
        p.add_argument("--protocol", default=None,
                       help="also compute per-tier channel loads under this "
                            "routing protocol (e.g. hier_wlb, hier_vlb)")
        p.add_argument("--pattern", default="rack-shift",
                       help="traffic pattern for --protocol "
                            "(default rack-shift)")

    p_sgen = synth_sub.add_parser(
        "generate",
        help="synthesize a fabric and emit its JSON manifest",
        description="Deterministically synthesize the fabric described by "
                    "the spec flags, enforce its port/oversubscription/cost "
                    "budgets, and emit the manifest (spec, report, "
                    "fingerprints, bridge wiring) as JSON — identical bytes "
                    "for identical specs, in any process.",
    )
    add_synth_spec_args(p_sgen)
    p_sgen.add_argument("--out", default=None, metavar="FILE",
                        help="write the manifest here (atomic) instead of "
                             "stdout; render with `repro report FILE`")
    p_sgen.set_defaults(func=cmd_synth_generate)

    p_sdesc = synth_sub.add_parser(
        "describe",
        help="synthesize a fabric and print a human-readable summary",
    )
    add_synth_spec_args(p_sdesc)
    p_sdesc.set_defaults(func=cmd_synth_describe)

    p_ssweep = synth_sub.add_parser(
        "sweep",
        help="run the multi-rack synth figure campaign",
        description="Shorthand for `repro figures synth`: synthesize the "
                    "scale's fabric designs, run the sharded rack-cut "
                    "simulation and churn-oracle scenarios, and emit the "
                    "synth_fabrics / synth_tier_load / synth_campaign "
                    "tables.",
    )
    add_campaign_args(p_ssweep, figure_arg=False)
    p_ssweep.add_argument("--results-dir", default="benchmarks/results",
                          help="where to write the *.txt tables")
    p_ssweep.set_defaults(func=cmd_synth_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the control-plane daemon (announce/finish/query over TCP)",
    )
    add_topology_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (0 = ephemeral; see --port-file)")
    p_serve.add_argument("--port-file", default=None,
                         help="write the bound port here once listening "
                              "(atomic; doubles as the readiness signal)")
    p_serve.add_argument("--headroom", type=float, default=0.05,
                         help="capacity fraction reserved from allocation")
    p_serve.add_argument("--snapshot", default=None,
                         help="flow-table checkpoint + op-journal path: "
                              "replayed on start when present, one fsynced "
                              "record appended per mutation")
    p_serve.add_argument("--seconds", type=float, default=None,
                         help="exit after this many seconds (default: run "
                              "until SIGTERM/SIGINT)")
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    from .errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
