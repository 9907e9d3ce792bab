"""Figure campaigns: the paper's evaluation grids as declarative specs.

Each entry in :data:`FIGURES` re-expresses one of the §5 benchmark grids
as a :class:`~repro.experiments.spec.Campaign` plus an aggregator that
turns per-task results into the text tables checked into
``benchmarks/results/``.  The specs reproduce the exact seeds the figure
benchmarks have always used, so a campaign run (serial or parallel)
produces byte-identical tables to the historical serial path.

``repro sweep <figure>`` drives the campaigns from the command line;
``benchmarks/test_fig02_routing_table.py`` and
``test_fig18_adaptive_routing.py`` run atop them inside pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..analysis import format_series, format_table
from ..analysis.stats import percentile
from ..errors import ExperimentError
from .scales import Scale
from .spec import Campaign, Scenario

__all__ = [
    "FIGURES",
    "FIG02_PAPER",
    "FigureDef",
    "campaign_for",
    "fig02_table",
    "fig18_rows",
]

ResultMap = Mapping[str, Mapping[str, Any]]


@dataclass(frozen=True)
class FigureDef:
    """One figure: a campaign builder plus a results aggregator."""

    name: str
    title: str
    #: Result file stems this figure writes under ``benchmarks/results/``.
    outputs: Tuple[str, ...]
    build: Callable[[Scale], Campaign]
    aggregate: Callable[[ResultMap, Scale], Dict[str, str]]


# ----------------------------------------------------------------------
# Figure 2 — routing-throughput table (exact analysis, scale-independent)
# ----------------------------------------------------------------------
FIG02_PROTOCOLS = ("rps", "dor", "vlb", "wlb")
FIG02_PATTERNS = (
    "nearest-neighbor",
    "uniform",
    "bit-complement",
    "transpose",
    "tornado",
    "worst-case",
)

#: The paper's Figure 2 values (fractions of capacity).
FIG02_PAPER = {
    "nearest-neighbor": {"rps": 4.0, "dor": 4.0, "vlb": 0.5, "wlb": 2.33},
    "uniform": {"rps": 1.0, "dor": 1.0, "vlb": 0.5, "wlb": 0.76},
    "bit-complement": {"rps": 0.4, "dor": 0.5, "vlb": 0.5, "wlb": 0.42},
    "transpose": {"rps": 0.54, "dor": 0.25, "vlb": 0.5, "wlb": 0.57},
    "tornado": {"rps": 0.33, "dor": 0.33, "vlb": 0.5, "wlb": 0.53},
    "worst-case": {"rps": 0.21, "dor": 0.25, "vlb": 0.5, "wlb": 0.31},
}


def _build_fig02(scale: Scale) -> Campaign:
    scenarios = [
        Scenario(
            name=f"{protocol}/{pattern}",
            kind="routing",
            topology="torus",
            dims=(8, 8),
            params={"protocol": protocol, "pattern": pattern},
        )
        for protocol in FIG02_PROTOCOLS
        for pattern in FIG02_PATTERNS
    ]
    return Campaign(
        name="fig02",
        scenarios=scenarios,
        seed=2,
        description="Figure 2: saturation throughput, 8-ary 2-cube, "
        "four routing algorithms x six traffic patterns",
    )


def fig02_table(results: ResultMap) -> Dict[str, Dict[str, float]]:
    """Reassemble campaign results into ``table[pattern][protocol]``."""
    table: Dict[str, Dict[str, float]] = {p: {} for p in FIG02_PATTERNS}
    for protocol in FIG02_PROTOCOLS:
        for pattern in FIG02_PATTERNS:
            key = f"{protocol}/{pattern}/r0"
            if key not in results:
                raise ExperimentError(f"fig02: missing task result {key}")
            table[pattern][protocol] = results[key]["throughput"]
    return table


def _aggregate_fig02(results: ResultMap, scale: Scale) -> Dict[str, str]:
    table = fig02_table(results)
    rows = {}
    for pattern in FIG02_PATTERNS:
        measured = table[pattern]
        rows[pattern] = [
            measured["rps"], measured["dor"], measured["vlb"], measured["wlb"],
            "| paper:",
            FIG02_PAPER[pattern]["rps"], FIG02_PAPER[pattern]["dor"],
            FIG02_PAPER[pattern]["vlb"], FIG02_PAPER[pattern]["wlb"],
        ]
    text = format_table(
        "Throughput as fraction of capacity, 8-ary 2-cube (measured | paper)",
        ["rps", "dor", "vlb", "wlb", "", "rps", "dor", "vlb", "wlb"],
        rows,
    )
    return {"fig02_routing_table": text}


# ----------------------------------------------------------------------
# Figure 18 — adaptive routing-protocol selection vs baselines
# ----------------------------------------------------------------------
FIG18_SELECTORS = ("adaptive", "rps", "vlb", "random")


def _fig18_scenario(scale: Scale, load: float, selector: str) -> Scenario:
    params: Dict[str, Any] = {
        "load": load,
        "trace_seed": 18,
        "search_seed": 18,
        "protocols": ("rps", "vlb"),
    }
    if selector == "adaptive":
        params.update(selector="genetic", max_generations=20, patience=6)
    elif selector in ("rps", "vlb"):
        params.update(selector="uniform", protocol=selector)
    else:
        params.update(selector="random")
    return Scenario(
        name=f"L{load:g}/{selector}",
        kind="selection",
        topology="torus",
        dims=scale.torus_dims,
        params=params,
    )


def _build_fig18(scale: Scale) -> Campaign:
    scenarios = [
        _fig18_scenario(scale, load, selector)
        for load in scale.fig18_loads
        for selector in FIG18_SELECTORS
    ]
    return Campaign(
        name="fig18",
        scenarios=scenarios,
        seed=18,
        description="Figure 18: adaptive (GA) routing selection vs "
        "all-RPS / all-VLB / random across load",
    )


def fig18_rows(results: ResultMap, scale: Scale) -> Dict[float, Dict[str, float]]:
    """``rows[load][selector] = utility`` from campaign results."""
    rows: Dict[float, Dict[str, float]] = {}
    for load in scale.fig18_loads:
        rows[load] = {}
        for selector in FIG18_SELECTORS:
            key = f"L{load:g}/{selector}/r0"
            if key not in results:
                raise ExperimentError(f"fig18: missing task result {key}")
            rows[load][
                "adaptive" if selector == "adaptive" else selector
            ] = results[key]["utility"]
    return rows


def _aggregate_fig18(results: ResultMap, scale: Scale) -> Dict[str, str]:
    rows = fig18_rows(results, scale)
    loads = list(scale.fig18_loads)
    series = {
        name: [rows[load]["adaptive"] / rows[load][name] for load in loads]
        for name in ("rps", "vlb", "random")
    }
    text = format_series(
        "Fig 18: Adaptive (GA) aggregate throughput normalized to each baseline",
        "load",
        loads,
        {f"vs_{k}": v for k, v in series.items()},
    ) + "\n\n(>1 everywhere reproduces the paper's claim)"
    return {"fig18_adaptive_routing": text}


# ----------------------------------------------------------------------
# Figures 10-14 — stack comparison sweep over tau
# ----------------------------------------------------------------------
SWEEP_STACKS = ("r2c2", "tcp", "pfq")


def _build_fig10_14(scale: Scale) -> Campaign:
    scenarios = [
        Scenario(
            name=f"{stack}/tau{tau}",
            kind="sim",
            topology="torus",
            dims=scale.torus_dims,
            params={
                "workload": "poisson",
                "stack": stack,
                "tau_ns": tau,
                "n_flows": scale.n_flows,
                # The historical sweep seed (benchmarks/conftest.sweep_run).
                "trace_seed": 7,
                "sim_seed": 7,
            },
        )
        for tau in scale.tau_sweep_ns
        for stack in SWEEP_STACKS
    ]
    return Campaign(
        name="fig10_14",
        scenarios=scenarios,
        seed=7,
        description="Figures 10-14: R2C2 vs TCP vs PFQ across flow "
        "inter-arrival time tau",
    )


def _deciles(values: List[float]) -> List[float]:
    if not values:
        return [0.0] * 9
    return [percentile(values, p) for p in range(10, 100, 10)]


def _aggregate_fig10_14(results: ResultMap, scale: Scale) -> Dict[str, str]:
    taus = list(scale.tau_sweep_ns)

    def res(stack: str, tau: int) -> Mapping[str, Any]:
        key = f"{stack}/tau{tau}/r0"
        if key not in results:
            raise ExperimentError(f"fig10_14: missing task result {key}")
        return results[key]

    out: Dict[str, str] = {}
    tau0 = taus[0]
    out["fig10_fct_short"] = format_series(
        f"Fig 10: short-flow (<100KB) FCT CDF deciles (us), tau={tau0}ns",
        "pct",
        list(range(10, 100, 10)),
        {s: _deciles(res(s, tau0)["short_fcts_us"]) for s in SWEEP_STACKS},
    )
    out["fig11_tput_long"] = format_series(
        f"Fig 11: long-flow (>1MB) avg throughput CDF deciles (Gbps), tau={tau0}ns",
        "pct",
        list(range(10, 100, 10)),
        {s: _deciles(res(s, tau0)["long_tputs_gbps"]) for s in SWEEP_STACKS},
    )
    p99 = {
        s: [percentile(res(s, tau)["short_fcts_us"], 99) for tau in taus]
        for s in SWEEP_STACKS
    }
    out["fig12_fct_vs_load"] = format_series(
        "Fig 12: p99 short-flow FCT normalized to TCP vs tau (ns)",
        "tau_ns",
        taus,
        {
            s: [v / t for v, t in zip(p99[s], p99["tcp"])]
            for s in SWEEP_STACKS
        },
    )
    mean_tput = {
        s: [
            (sum(res(s, tau)["long_tputs_gbps"]) / len(res(s, tau)["long_tputs_gbps"]))
            if res(s, tau)["long_tputs_gbps"]
            else 0.0
            for tau in taus
        ]
        for s in SWEEP_STACKS
    }
    out["fig13_tput_vs_load"] = format_series(
        "Fig 13: mean long-flow throughput normalized to TCP vs tau (ns)",
        "tau_ns",
        taus,
        {
            s: [v / t if t else 0.0 for v, t in zip(mean_tput[s], mean_tput["tcp"])]
            for s in SWEEP_STACKS
        },
    )
    queues = {
        "p50_kb": [
            percentile(res("r2c2", tau)["queue_occupancy_bytes"], 50) / 1000.0
            for tau in taus
        ],
        "p99_kb": [
            percentile(res("r2c2", tau)["queue_occupancy_bytes"], 99) / 1000.0
            for tau in taus
        ],
    }
    out["fig14_queue_occupancy"] = format_series(
        "Fig 14: R2C2 per-port max queue occupancy (KB) vs tau (ns)",
        "tau_ns",
        taus,
        queues,
    )
    return out


# ----------------------------------------------------------------------
# Figure 17 — headroom sensitivity
# ----------------------------------------------------------------------
FIG17_HEADROOMS = (0.0, 0.05, 0.10, 0.20)


def _build_fig17(scale: Scale) -> Campaign:
    scenarios = [
        Scenario(
            name=f"headroom{headroom:g}",
            kind="sim",
            topology="torus",
            dims=scale.torus_dims,
            params={
                "workload": "poisson",
                "stack": "r2c2",
                "headroom": headroom,
                "tau_ns": scale.tau_default_ns,
                "n_flows": scale.n_flows,
                "trace_seed": 17,
                "sim_seed": 17,
            },
        )
        for headroom in FIG17_HEADROOMS
    ]
    return Campaign(
        name="fig17",
        scenarios=scenarios,
        seed=17,
        description="Figure 17: sensitivity to the bandwidth headroom",
    )


def _aggregate_fig17(results: ResultMap, scale: Scale) -> Dict[str, str]:
    fct, tput = [], []
    for headroom in FIG17_HEADROOMS:
        key = f"headroom{headroom:g}/r0"
        if key not in results:
            raise ExperimentError(f"fig17: missing task result {key}")
        result = results[key]
        fct.append(percentile(result["short_fcts_us"], 99))
        longs = result["long_tputs_gbps"]
        tput.append(sum(longs) / len(longs) if longs else 0.0)
    text = format_series(
        "Fig 17: p99 short-flow FCT (us) and mean long-flow throughput "
        "(Gbps) vs headroom",
        "headroom",
        [f"{h:.0%}" for h in FIG17_HEADROOMS],
        {"fct_p99_us": fct, "long_tput_gbps": tput},
    ) + (
        "\n\npaper: 5% headroom cuts p99 FCT by ~21.9% vs none, costs long"
        "\nflows < 3%; overall not very sensitive to the choice"
    )
    return {"fig17_headroom": text}


# ----------------------------------------------------------------------
# Figure 7 — Maze-vs-simulator cross-validation
# ----------------------------------------------------------------------
def _build_fig07(scale: Scale) -> Campaign:
    from ..types import gbps

    paper = scale.name == "paper"
    scenario = Scenario(
        name="crossval",
        kind="crossval",
        topology="torus",
        dims=(4, 4),
        capacity_bps=gbps(5),
        params={
            "n_flows": scale.crossval_flows,
            "flow_bytes": 10_000_000 if paper else 1_000_000,
            "tau_ns": 1_000_000 if paper else 150_000,
            "trace_seed": 21,
        },
    )
    return Campaign(
        name="fig07",
        scenarios=[scenario],
        seed=21,
        description="Figure 7: Maze emulation vs packet simulator "
        "cross-validation",
    )


def _aggregate_fig07(results: ResultMap, scale: Scale) -> Dict[str, str]:
    key = "crossval/r0"
    if key not in results:
        raise ExperimentError(f"fig07: missing task result {key}")
    r = results[key]
    text = format_series(
        "Fig 7a: flow throughput CDF deciles (Gbps)",
        "pct",
        list(range(10, 100, 10)),
        {
            "maze": _deciles(r["tput_maze_gbps"]),
            "simulator": _deciles(r["tput_sim_gbps"]),
        },
    )
    text += "\n\n" + format_series(
        "Fig 7b: max queue occupancy CDF deciles (KB)",
        "pct",
        list(range(10, 100, 10)),
        {
            "maze": _deciles(r["queue_maze_kb"]),
            "simulator": _deciles(r["queue_sim_kb"]),
        },
    )
    tput_maze, tput_sim = r["tput_maze_gbps"], r["tput_sim_gbps"]
    mean_maze = sum(tput_maze) / len(tput_maze) if tput_maze else 0.0
    mean_sim = sum(tput_sim) / len(tput_sim) if tput_sim else 0.0
    text += (
        f"\n\nKS(throughput) = {r['ks_throughput']:.3f}   "
        f"KS(queue) = {r['ks_queue']:.3f}"
        f"\nmean throughput: maze {mean_maze:.2f} Gbps, "
        f"simulator {mean_sim:.2f} Gbps"
    )
    return {"fig07_crossval": text}


# ----------------------------------------------------------------------
# Synth — inter-rack fabric synthesis and the multi-rack campaign
# ----------------------------------------------------------------------
#: Designs the synth campaign generates and compares at every scale — not
#: all of ``repro.topology.SYNTH_DESIGNS``: ``switched`` is left out because
#: the paper-scale fabric's 125 racks x 4 uplinks exceed one radix-64
#: aggregation switch, and a campaign keeps one design list across scales.
SYNTH_CAMPAIGN_DESIGNS = ("flat", "ring", "fattree")
#: Designs that get the per-tier channel-load analysis (the switchless
#: designs, analyzed with the template-lifted hierarchical protocols).
SYNTH_TIERED = (("flat", "hier_wlb"), ("ring", "hier_vlb"))


def _synth_scale_config(scale: Scale) -> Dict[str, Any]:
    """Campaign sizing per scale.  ``paper`` is the headline run: 125 racks
    x 80-node tori = exactly 10 000 nodes (the ROADMAP's 10k+ target)."""
    if scale.name == "paper":
        return {
            "n_racks": 125, "rack_dims": (4, 4, 5),
            "n_flows": 80, "churn_ops": 60,
        }
    if scale.name == "medium":
        return {
            "n_racks": 27, "rack_dims": (4, 4, 4),
            "n_flows": 60, "churn_ops": 50,
        }
    return {
        "n_racks": 8, "rack_dims": (3, 3, 3),
        "n_flows": 40, "churn_ops": 40,
    }


def _build_synth(scale: Scale) -> Campaign:
    cfg = _synth_scale_config(scale)
    fabric_params: Dict[str, Any] = {
        "n_racks": cfg["n_racks"],
        "gateway_ports": 4,
        "oversubscription": 320.0,
        "synth_seed": 10,
    }
    tiered = dict(SYNTH_TIERED)
    scenarios = [
        Scenario(
            name=f"synth-{design}",
            kind="synth",
            topology="synth",
            dims=cfg["rack_dims"],
            params={
                "design": design,
                **fabric_params,
                **(
                    {"protocol": tiered[design], "pattern": "rack-shift"}
                    if design in tiered
                    else {}
                ),
            },
        )
        for design in SYNTH_CAMPAIGN_DESIGNS
    ]
    # The payoff runs, both on the flat fabric: a sharded packet simulation
    # under the rack cut, and the incremental-vs-scratch water-fill churn
    # oracle (<=1e-6 after every op, mid-sequence failure storm included).
    scenarios.append(
        Scenario(
            name="sim-flat",
            kind="sim",
            topology="synth",
            dims=cfg["rack_dims"],
            shards=4,
            params={
                "design": "flat",
                **fabric_params,
                "workload": "poisson",
                "stack": "tcp",
                "n_flows": cfg["n_flows"],
                "tau_ns": 20_000,
                "trace_seed": 10,
                "sim_seed": 10,
            },
        )
    )
    scenarios.append(
        Scenario(
            name="churn-flat",
            kind="churn",
            topology="synth",
            dims=cfg["rack_dims"],
            params={
                "design": "flat",
                **fabric_params,
                "n_ops": cfg["churn_ops"],
                "max_flows": 12,
                "check_every": 1,
                "fallback_at": cfg["churn_ops"] // 2,
                "fail_links": 1,
            },
        )
    )
    return Campaign(
        name="synth",
        scenarios=scenarios,
        seed=10,
        description="Synthesized inter-rack fabrics: design comparison, "
        "per-tier channel load, and the multi-rack sim + churn campaign",
    )


def _aggregate_synth(results: ResultMap, scale: Scale) -> Dict[str, str]:
    cfg = _synth_scale_config(scale)

    def res(name: str) -> Mapping[str, Any]:
        key = f"{name}/r0"
        if key not in results:
            raise ExperimentError(f"synth: missing task result {key}")
        return results[key]

    fabric_rows = {}
    for design in SYNTH_CAMPAIGN_DESIGNS:
        r = res(f"synth-{design}")
        rep = r["report"]
        fabric_rows[design] = [
            rep["n_nodes"], rep["n_racks"], rep["switches"], rep["cables"],
            f"{rep['cost']:.0f}",
            f"{rep['oversubscription']:.2f}",
            f"{r['bisection_gbps']:.1f}",
            r["fingerprint"][:12],
        ]
    out = {
        "synth_fabrics": format_table(
            f"Synthesized fabrics, {cfg['n_racks']} racks x "
            f"{'x'.join(map(str, cfg['rack_dims']))} torus "
            "(cost model: switch 300 / cable 10)",
            ["nodes", "racks", "switches", "cables", "cost",
             "oversub", "bisect_gbps", "fingerprint"],
            fabric_rows,
        )
    }

    tier_rows = {}
    for design, protocol in SYNTH_TIERED:
        tl = res(f"synth-{design}")["tier_load"]
        for tier_name in sorted(tl["tiers"]):
            tier = tl["tiers"][tier_name]
            saturation = tier["saturation"]
            tier_rows[f"{design}[{protocol}]/{tier_name}"] = [
                tier["links"],
                f"{tier['capacity_bps'] / 1e9:g}",
                f"{tier['max_load']:.3f}",
                f"{tier['mean_load']:.3f}",
                "inf" if saturation is None else f"{saturation:.4f}",
                "<--" if tl["bottleneck"] == tier_name else "",
            ]
    out["synth_tier_load"] = format_table(
        "Per-tier channel load under rack-shift traffic "
        "(saturation = capacity-aware Fig. 2 throughput; <-- marks the "
        "fabric bottleneck)",
        ["links", "cap_gbps", "max_load", "mean_load", "saturation", ""],
        tier_rows,
    )

    sim = res("sim-flat")
    churn = res("churn-flat")["churn"]
    oracle_ok = churn["max_rel_error"] <= churn["tolerance"]
    n_nodes = res("synth-flat")["report"]["n_nodes"]
    out["synth_campaign"] = "\n".join(
        [
            f"Multi-rack campaign on the flat fabric "
            f"({cfg['n_racks']} racks, {n_nodes} nodes):",
            f"  sim (4-shard rack cut): completion_rate="
            f"{sim['completion_rate']:.3f}, "
            f"flows={sim['summary']['flows']}",
            f"  churn water-fill oracle: ops={churn['ops']}, "
            f"max_rel_error={churn['max_rel_error']:.2e} "
            f"(tolerance {churn['tolerance']:.0e}) "
            f"{'PASS' if oracle_ok else 'FAIL'}",
            f"  incremental_ops={churn['incremental_ops']}, "
            f"fallback_recomputes={churn['fallback_recomputes']}",
        ]
    )
    if not oracle_ok:
        raise ExperimentError(
            "synth: churn water-fill oracle exceeded tolerance "
            f"({churn['max_rel_error']:.3e} > {churn['tolerance']:.0e})"
        )
    return out


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
FIGURES: Dict[str, FigureDef] = {
    fig.name: fig
    for fig in (
        FigureDef(
            name="fig02",
            title="Figure 2: routing-throughput table",
            outputs=("fig02_routing_table",),
            build=_build_fig02,
            aggregate=_aggregate_fig02,
        ),
        FigureDef(
            name="fig07",
            title="Figure 7: Maze vs simulator cross-validation",
            outputs=("fig07_crossval",),
            build=_build_fig07,
            aggregate=_aggregate_fig07,
        ),
        FigureDef(
            name="fig10_14",
            title="Figures 10-14: stack comparison across tau",
            outputs=(
                "fig10_fct_short",
                "fig11_tput_long",
                "fig12_fct_vs_load",
                "fig13_tput_vs_load",
                "fig14_queue_occupancy",
            ),
            build=_build_fig10_14,
            aggregate=_aggregate_fig10_14,
        ),
        FigureDef(
            name="fig17",
            title="Figure 17: headroom sensitivity",
            outputs=("fig17_headroom",),
            build=_build_fig17,
            aggregate=_aggregate_fig17,
        ),
        FigureDef(
            name="fig18",
            title="Figure 18: adaptive routing selection",
            outputs=("fig18_adaptive_routing",),
            build=_build_fig18,
            aggregate=_aggregate_fig18,
        ),
        FigureDef(
            name="synth",
            title="Synthesized inter-rack fabrics and the multi-rack campaign",
            outputs=("synth_fabrics", "synth_tier_load", "synth_campaign"),
            build=_build_synth,
            aggregate=_aggregate_synth,
        ),
    )
}


def campaign_for(name: str, scale: Scale) -> Campaign:
    """The campaign for figure *name* at *scale*."""
    if name not in FIGURES:
        raise ExperimentError(
            f"unknown figure {name!r}; choose from {', '.join(sorted(FIGURES))}"
        )
    return FIGURES[name].build(scale)
