"""Figure campaigns: the paper's evaluation as declarative specs.

Each entry in :data:`FIGURES` is one §5 figure (or a table the
reproduction adds: the design ablations, the prose claims, the synth
campaign) as a :class:`~repro.experiments.spec.Campaign` plus an
aggregator that turns per-task results into the text tables under
``benchmarks/results/``.  It is the only code that computes and formats
those tables:

* ``repro figures`` runs every §5 figure through the result cache and
  writes its tables; ``repro figures NAME`` runs one.
* ``repro figures --check`` regenerates them and diffs them against the
  committed files, skipping only the cells a :class:`FigureDef` declares
  as wall-clock.
* ``benchmarks/test_*.py`` assert the paper's shapes (who wins, by what
  factor) on the same campaign results, through the ``*_rows`` helpers
  here.

Simulation, search and timing cells are campaign tasks (parallel,
cached, byte-identical across worker counts — except the timing cells,
which are re-measured on every run); closed forms — Fig. 9's
curves, Fig. 19's byte model, the prose-claim arithmetic — are computed
inside their aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis import format_series, format_table
from ..analysis.stats import median, percentile
from ..errors import ExperimentError
from .scales import Scale
from .spec import Campaign, Scenario

__all__ = [
    "FIGURES",
    "FIG02_PAPER",
    "PAPER_FIGURES",
    "FigureDef",
    "ablation_rows",
    "campaign_for",
    "fig02_table",
    "fig08_rows",
    "fig09_rows",
    "fig10_14_series",
    "fig15_16_rows",
    "fig17_rows",
    "fig18_heuristic_rows",
    "fig18_rows",
    "fig19_rows",
    "prose_claims",
    "table_file_text",
    "tables_match",
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
    #: Cells that measure this machine's wall clock, so ``repro figures
    #: --check`` skips them: an output stem (the whole table) or
    #: ``"stem:column"``.
    wallclock: Tuple[str, ...] = ()


def _get(results: ResultMap, figure: str, scenario: str) -> Mapping[str, Any]:
    """The first replicate's result of *scenario*, or a named error."""
    key = f"{scenario}/r0"
    if key not in results:
        raise ExperimentError(f"{figure}: missing task result {key}")
    return results[key]


def _sim(name: str, scale: Scale, **params: Any) -> Scenario:
    """A packet simulation on the scale's evaluation torus."""
    return Scenario(
        name=name,
        kind="sim",
        topology="torus",
        dims=scale.torus_dims,
        params={"workload": "poisson", "stack": "r2c2", **params},
    )


def _fct_us(result: Mapping[str, Any], pct: float) -> float:
    """Short-flow FCT percentile of a sim result (Figure 12's metric)."""
    return percentile(result["short_fcts_us"], pct)


def _queue_kb(result: Mapping[str, Any], pct: float) -> float:
    """Percentile of the per-port max queue occupancy, in KB."""
    return percentile(result["queue_occupancy_bytes"], pct) / 1000.0


def _mean_long_gbps(result: Mapping[str, Any]) -> float:
    longs = result["long_tputs_gbps"]
    return sum(longs) / len(longs) if longs else 0.0


def _wire(result: Mapping[str, Any], counter: str) -> int:
    """A ``wire.*`` byte counter of a sim result's telemetry rollup."""
    return result["telemetry"]["counters"][f"wire.{counter}"]


def _deciles(values: Sequence[float]) -> List[float]:
    if not values:
        return [0.0] * 9
    return [percentile(values, p) for p in range(10, 100, 10)]


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
            result = _get(results, "fig02", f"{protocol}/{pattern}")
            table[pattern][protocol] = result["throughput"]
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
    r = _get(results, "fig07", "crossval")
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
# Figure 8 — CPU overhead of rate recomputation vs the interval rho
# ----------------------------------------------------------------------
FIG08_RHOS_US = (100, 250, 500, 1000, 2000)


def _build_fig08(scale: Scale) -> Campaign:
    scenarios = [
        Scenario(
            name=f"rho{rho_us}us",
            kind="epoch_cost",
            topology="torus",
            dims=scale.torus_dims,
            params={
                "rho_ns": rho_us * 1000,
                "n_flows": scale.n_flows,
                "tau_ns": scale.tau_default_ns,
                "trace_seed": 8,
            },
        )
        for rho_us in FIG08_RHOS_US
    ]
    return Campaign(
        name="fig08",
        scenarios=scenarios,
        seed=8,
        description="Figure 8: water-fill wall time per epoch as a "
        "fraction of the recomputation interval",
    )


def fig08_rows(results: ResultMap) -> Dict[int, Tuple[float, float]]:
    """``rows[rho_us] = (p50, p99)`` of the per-epoch overhead fraction."""
    rows = {}
    for rho_us in FIG08_RHOS_US:
        overheads = _get(results, "fig08", f"rho{rho_us}us")["overheads"]
        rows[rho_us] = (percentile(overheads, 50), percentile(overheads, 99))
    return rows


def _aggregate_fig08(results: ResultMap, scale: Scale) -> Dict[str, str]:
    rows = fig08_rows(results)
    text = format_series(
        "Fig 8: recomputation CPU overhead vs interval rho "
        "(fraction of the interval; >1 = infeasible)",
        "rho_us",
        list(FIG08_RHOS_US),
        {
            "p50": [rows[r][0] for r in FIG08_RHOS_US],
            "p99": [rows[r][1] for r in FIG08_RHOS_US],
        },
    ) + (
        "\n\npaper (Xeon, 512 nodes, tau=1us): rho=500us -> p50 1.7% / p99 7.9%;"
        "\nrho=100us -> p99 73.9%.  Python constant factor applies here;"
        "\nthe reproduced claim is the downward trend in rho."
    )
    return {"fig08_cpu_overhead": text}


# ----------------------------------------------------------------------
# Figure 9 — broadcast share of capacity vs small-flow byte share
# ----------------------------------------------------------------------
FIG09_FRACTIONS = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
FIG09_SMALL_FLOW_BYTES = 10_000


def _build_fig09(scale: Scale) -> Campaign:
    scenario = _sim(
        "all-small",
        scale,
        n_flows=min(scale.n_flows, 400),
        tau_ns=5_000,
        sizes="fixed",
        flow_bytes=FIG09_SMALL_FLOW_BYTES,
        trace_seed=9,
        sim_seed=9,
    )
    return Campaign(
        name="fig09",
        scenarios=[scenario],
        seed=9,
        description="Figure 9: capacity used for broadcasts (analytic "
        "curves plus one measured all-small-flow point)",
    )


def fig09_rows(results: ResultMap, scale: Scale) -> Dict[str, Any]:
    """The analytic curves (% of capacity per topology at each small-byte
    fraction) and the measured vs analytic all-small point."""
    from ..broadcast import broadcast_capacity_fraction
    from ..topology import MeshTopology, TorusTopology

    curves = {}
    for name, topo in (
        ("3D torus", TorusTopology((8, 8, 8))),
        ("3D mesh", MeshTopology((8, 8, 8))),
        ("2D torus", TorusTopology((16, 32))),
    ):
        hops = topo.average_distance()
        curves[name] = [
            100 * broadcast_capacity_fraction(f, topo.n_nodes, hops)
            for f in FIG09_FRACTIONS
        ]
    r = _get(results, "fig09", "all-small")
    rack = TorusTopology(scale.torus_dims)
    return {
        "curves": curves,
        "rack": rack.name,
        "measured": 100 * (r["summary"]["broadcast_bytes"] / _wire(r, "total_bytes")),
        "predicted": 100 * broadcast_capacity_fraction(
            1.0,
            rack.n_nodes,
            rack.average_distance(),
            small_flow_bytes=FIG09_SMALL_FLOW_BYTES,
        ),
    }


def _aggregate_fig09(results: ResultMap, scale: Scale) -> Dict[str, str]:
    data = fig09_rows(results, scale)
    curves = data["curves"]
    text = format_series(
        "Fig 9: % capacity used for broadcast vs % bytes in small flows",
        "small_byte_frac",
        [f"{f:.2f}" for f in FIG09_FRACTIONS],
        curves,
    ) + (
        f"\n\nanchor: 5% small bytes on 3D torus -> "
        f"{curves['3D torus'][1]:.2f}% (paper: 1.3%)"
        f"\nmeasured (packet sim, all-small workload, {data['rack']}): "
        f"{data['measured']:.2f}% vs analytic {data['predicted']:.2f}%"
    )
    return {"fig09_broadcast_overhead": text}


# ----------------------------------------------------------------------
# Figures 10-14 — stack comparison sweep over tau
# ----------------------------------------------------------------------
SWEEP_STACKS = ("r2c2", "tcp", "pfq")


def _build_fig10_14(scale: Scale) -> Campaign:
    scenarios = [
        _sim(
            f"{stack}/tau{tau}",
            scale,
            stack=stack,
            tau_ns=tau,
            n_flows=scale.n_flows,
            trace_seed=7,
            sim_seed=7,
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


def fig10_14_series(
    results: ResultMap, scale: Scale
) -> Dict[str, Dict[str, List[float]]]:
    """``series[stem][column]``: Figs 10/11 are CDF deciles at the first
    tau; 12/13 are normalized to TCP across tau; 14 is R2C2's queues and
    reorder buffers across tau."""
    taus = list(scale.tau_sweep_ns)

    def res(stack: str, tau: int) -> Mapping[str, Any]:
        return _get(results, "fig10_14", f"{stack}/tau{tau}")

    def normalized(metric: Callable[[Mapping[str, Any]], float]):
        values = {s: [metric(res(s, tau)) for tau in taus] for s in SWEEP_STACKS}
        return {
            s: [v / t if t else 0.0 for v, t in zip(values[s], values["tcp"])]
            for s in SWEEP_STACKS
        }

    return {
        "fig10_fct_short": {
            s: _deciles(res(s, taus[0])["short_fcts_us"]) for s in SWEEP_STACKS
        },
        "fig11_tput_long": {
            s: _deciles(res(s, taus[0])["long_tputs_gbps"]) for s in SWEEP_STACKS
        },
        "fig12_fct_vs_load": normalized(lambda r: _fct_us(r, 99)),
        "fig13_tput_vs_load": normalized(_mean_long_gbps),
        "fig14_queue_occupancy": {
            "p50_kb": [_queue_kb(res("r2c2", tau), 50) for tau in taus],
            "p99_kb": [_queue_kb(res("r2c2", tau), 99) for tau in taus],
            "reorder_p95_pkts": [
                percentile(res("r2c2", tau)["reorder_buffers"], 95) for tau in taus
            ],
        },
    }


def _aggregate_fig10_14(results: ResultMap, scale: Scale) -> Dict[str, str]:
    series = fig10_14_series(results, scale)
    taus = list(scale.tau_sweep_ns)
    deciles = list(range(10, 100, 10))
    return {
        "fig10_fct_short": format_series(
            f"Fig 10: short-flow (<100KB) FCT CDF deciles (us), tau={taus[0]}ns",
            "pct", deciles, series["fig10_fct_short"],
        ),
        "fig11_tput_long": format_series(
            f"Fig 11: long-flow (>1MB) avg throughput CDF deciles (Gbps), "
            f"tau={taus[0]}ns",
            "pct", deciles, series["fig11_tput_long"],
        ),
        "fig12_fct_vs_load": format_series(
            "Fig 12: p99 short-flow FCT normalized to TCP vs tau (ns)",
            "tau_ns", taus, series["fig12_fct_vs_load"],
        ) + "\n\npaper at tau=1us: R2C2 ~= 1/3.21 = 0.31 of TCP",
        "fig13_tput_vs_load": format_series(
            "Fig 13: mean long-flow throughput normalized to TCP vs tau (ns)",
            "tau_ns", taus, series["fig13_tput_vs_load"],
        ) + "\n\npaper at tau=1us: R2C2 ~= 2.55x TCP",
        "fig14_queue_occupancy": format_series(
            "Fig 14: R2C2 max queue occupancy percentiles (KB) vs tau (ns)",
            "tau_ns", taus, series["fig14_queue_occupancy"],
        ) + (
            "\n\npaper: p99 < 27 KB for tau >= 1us; 330 KB at the 100ns stress"
            "\npoint; reorder buffer p95 ~= 30 packets at tau=1us"
        ),
    }


# ----------------------------------------------------------------------
# Figures 15-16 — accuracy of periodic rate recomputation
# ----------------------------------------------------------------------
FIG15_RHOS_US = (10, 50, 100, 500, 1000)


def _rate_error(
    name: str, scale: Scale, rho_ns: int, tau_ns: int, n_flows: int
) -> Scenario:
    return Scenario(
        name=name,
        kind="rate_error",
        topology="torus",
        dims=scale.torus_dims,
        params={
            "rho_ns": rho_ns,
            "tau_ns": tau_ns,
            "n_flows": n_flows,
            "trace_seed": 15,
        },
    )


def _build_fig15_16(scale: Scale) -> Campaign:
    scenarios = [
        _rate_error(
            f"fig15/rho{rho_us}us", scale, rho_us * 1000,
            scale.tau_default_ns, scale.n_flows,
        )
        for rho_us in FIG15_RHOS_US
    ] + [
        _rate_error(f"fig16/tau{tau}", scale, 500_000, tau, scale.n_flows // 2)
        for tau in scale.tau_sweep_ns
    ]
    return Campaign(
        name="fig15_16",
        scenarios=scenarios,
        seed=15,
        description="Figures 15-16: fluid-model rate error of recomputing "
        "every rho, across rho and across tau",
    )


ErrorRows = Dict[int, Tuple[float, float]]


def fig15_16_rows(results: ResultMap, scale: Scale) -> Tuple[ErrorRows, ErrorRows]:
    """``(fig15[rho_us], fig16[tau_ns])``, each ``(median, p95)`` error."""

    def stats(name: str) -> Tuple[float, float]:
        errors = _get(results, "fig15_16", name)["errors"]
        return median(errors), percentile(errors, 95)

    return (
        {rho: stats(f"fig15/rho{rho}us") for rho in FIG15_RHOS_US},
        {tau: stats(f"fig16/tau{tau}") for tau in scale.tau_sweep_ns},
    )


def _aggregate_fig15_16(results: ResultMap, scale: Scale) -> Dict[str, str]:
    fig15, fig16 = fig15_16_rows(results, scale)

    def series(rows: ErrorRows) -> Dict[str, List[float]]:
        return {
            "median": [rows[k][0] for k in rows],
            "p95": [rows[k][1] for k in rows],
        }

    return {
        "fig15_rate_error_vs_rho": format_series(
            f"Fig 15: normalized |rate(rho) - rate(0)| / rate(0), "
            f"tau={scale.tau_default_ns}ns",
            "rho_us", list(fig15), series(fig15),
        ) + "\n\npaper at 512 nodes, tau=1us: rho=500us -> median 8.2%, p95 37.9%",
        "fig16_rate_error_vs_load": format_series(
            "Fig 16: rate error at rho=500us vs flow inter-arrival tau (ns)",
            "tau_ns", list(fig16), series(fig16),
        ) + "\n\npaper: negligible at tau=100us, significant at tau=100ns",
    }


# ----------------------------------------------------------------------
# Figure 17 — headroom sensitivity
# ----------------------------------------------------------------------
FIG17_HEADROOMS = (0.0, 0.05, 0.10, 0.20)


def _build_fig17(scale: Scale) -> Campaign:
    scenarios = [
        _sim(
            f"headroom{headroom:g}",
            scale,
            headroom=headroom,
            tau_ns=scale.tau_default_ns,
            n_flows=scale.n_flows,
            trace_seed=17,
            sim_seed=17,
        )
        for headroom in FIG17_HEADROOMS
    ]
    return Campaign(
        name="fig17",
        scenarios=scenarios,
        seed=17,
        description="Figure 17: sensitivity to the bandwidth headroom",
    )


def fig17_rows(results: ResultMap) -> Dict[float, Tuple[float, float]]:
    """``rows[headroom] = (p99 short-flow FCT us, mean long-flow Gbps)``."""
    rows = {}
    for headroom in FIG17_HEADROOMS:
        result = _get(results, "fig17", f"headroom{headroom:g}")
        rows[headroom] = (_fct_us(result, 99), _mean_long_gbps(result))
    return rows


def _aggregate_fig17(results: ResultMap, scale: Scale) -> Dict[str, str]:
    rows = fig17_rows(results)
    text = format_series(
        "Fig 17: p99 short-flow FCT (us) and mean long-flow throughput "
        "(Gbps) vs headroom",
        "headroom",
        [f"{h:.0%}" for h in FIG17_HEADROOMS],
        {
            "fct_p99_us": [rows[h][0] for h in FIG17_HEADROOMS],
            "long_tput_gbps": [rows[h][1] for h in FIG17_HEADROOMS],
        },
    ) + (
        "\n\npaper: 5% headroom cuts p99 FCT by ~21.9% vs none, costs long"
        "\nflows < 3%; overall not very sensitive to the choice"
    )
    return {"fig17_headroom": text}


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
    return {
        load: {
            selector: _get(results, "fig18", f"L{load:g}/{selector}")["utility"]
            for selector in FIG18_SELECTORS
        }
        for load in scale.fig18_loads
    }


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


#: §3.4's heuristic shoot-out: the searches the paper tried before GA,
#: each with its budget, plus the two uniform baselines they are scored on.
FIG18_HEURISTICS = {
    "genetic": {"selector": "genetic", "max_generations": 15, "patience": 5},
    "hill-climb": {"selector": "hillclimb", "max_steps": 400, "restarts": 2},
    "annealing": {
        "selector": "annealing", "initial_temperature": 0.5, "cooling": 0.9,
        "steps_per_temperature": 20,
    },
    "log-linear": {"selector": "loglinear", "rounds": 200},
    "uniform-rps": {"selector": "uniform", "protocol": "rps"},
    "uniform-vlb": {"selector": "uniform", "protocol": "vlb"},
}


def _build_fig18_heuristics(scale: Scale) -> Campaign:
    scenarios = [
        Scenario(
            name=name,
            kind="selection",
            topology="torus",
            dims=scale.torus_dims,
            params={
                "load": 0.25,
                "trace_seed": 4,
                "search_seed": 4,
                "protocols": ("rps", "vlb"),
                **search,
            },
        )
        for name, search in FIG18_HEURISTICS.items()
    ]
    return Campaign(
        name="fig18_heuristics",
        scenarios=scenarios,
        seed=4,
        description="Section 3.4 ablation: GA vs hill climbing, simulated "
        "annealing and log-linear learning at L=0.25",
    )


def fig18_heuristic_rows(results: ResultMap) -> Tuple[Dict[str, float], float]:
    """``(utility per heuristic, best uniform-baseline utility)``."""
    utility = {
        name: _get(results, "fig18_heuristics", name)["utility"]
        for name in FIG18_HEURISTICS
    }
    best_uniform = max(utility.pop("uniform-rps"), utility.pop("uniform-vlb"))
    return utility, best_uniform


def _aggregate_fig18_heuristics(results: ResultMap, scale: Scale) -> Dict[str, str]:
    utility, best_uniform = fig18_heuristic_rows(results)
    rows = {
        name: [value / 1e9, value / best_uniform]
        for name, value in sorted(utility.items(), key=lambda kv: -kv[1])
    }
    text = format_table(
        "Heuristic shoot-out at L=0.25 (Gbps, ratio to best uniform)",
        ["Gbps", "vs_best_uniform"],
        rows,
    )
    return {"fig18_heuristic_ablation": text}


# ----------------------------------------------------------------------
# Figure 19 — decentralized vs centralized control traffic
# ----------------------------------------------------------------------
FIG19_FLOWS_PER_SERVER = (1, 2, 4, 6, 8, 10)


def _build_fig19(scale: Scale) -> Campaign:
    scenario = _sim(
        "measured",
        scale,
        n_flows=50,
        tau_ns=20_000,
        sizes="fixed",
        flow_bytes=50_000,
        trace_seed=19,
        sim_seed=19,
    )
    return Campaign(
        name="fig19",
        scenarios=[scenario],
        seed=19,
        description="Figure 19: control bytes per flow event, byte model "
        "plus one measured decentralized point",
    )


def fig19_rows(results: ResultMap, scale: Scale) -> Dict[str, Any]:
    """The byte model's decentralized/centralized bytes per flow event at
    each flows-per-server count, and the packet sim's measured bytes per
    event (two broadcast events per flow: start and finish)."""
    from ..broadcast import ControlTrafficModel
    from ..topology import TorusTopology

    rack = TorusTopology(scale.torus_dims)
    model = ControlTrafficModel(rack.n_nodes, avg_hops=rack.average_distance())
    summary = _get(results, "fig19", "measured")["summary"]
    return {
        "decentralized": [
            model.decentralized_bytes_per_event() for _ in FIG19_FLOWS_PER_SERVER
        ],
        "centralized": [
            model.centralized_bytes_per_event(f) for f in FIG19_FLOWS_PER_SERVER
        ],
        "measured": summary["broadcast_bytes"] / (2 * summary["flows"]),
        "model": model.decentralized_bytes_per_event(),
    }


def _aggregate_fig19(results: ResultMap, scale: Scale) -> Dict[str, str]:
    data = fig19_rows(results, scale)
    dec, cen = data["decentralized"], data["centralized"]
    text = format_series(
        "Fig 19: control bytes per flow event",
        "flows_per_server",
        list(FIG19_FLOWS_PER_SERVER),
        {
            "decentralized": dec,
            "centralized": cen,
            "ratio": [c / d for c, d in zip(cen, dec)],
        },
    ) + (
        f"\n\nmeasured decentralized bytes/event (packet sim): "
        f"{data['measured']:.0f} (model: {data['model']:.0f})"
        "\npaper at 512 nodes: ratio 6.2x at 1 flow/server, 19.9x at 10"
    )
    return {"fig19_control_traffic": text}


# ----------------------------------------------------------------------
# Ablations of R2C2's design choices (beyond the paper's figure set)
# ----------------------------------------------------------------------
#: Per ablation table, row label -> the scenario that fills the row.
ABLATION_CONTROL = {"shared": "control/shared", "per_node": "control/per_node"}
ABLATION_POLICIES = {
    "local_waterfill": "default",
    "mean_allocated": "mean_allocated",
    "line_rate": "line_rate",
}
ABLATION_RELIABILITY = {
    "plain": "default",
    "reliable": "reliable",
    "reliable+1% loss": "reliable+loss",
}
ABLATION_TREES = {1: "trees1", 4: "default", 8: "trees8"}


def _build_ablations(scale: Scale) -> Campaign:
    def sim(name: str, seed: int, **params: Any) -> Scenario:
        return _sim(
            name,
            scale,
            n_flows=scale.n_flows // 2,
            tau_ns=scale.tau_default_ns,
            trace_seed=seed,
            sim_seed=seed,
            **params,
        )

    scenarios = [
        sim("control/shared", 31, wallclock=True),
        sim("control/per_node", 31, control_plane="per_node", wallclock=True),
        # The paper's configuration: the local_waterfill, plain and
        # four-tree row of the three seed-23 tables.
        sim("default", 23),
        sim("mean_allocated", 23, initial_rate_policy="mean_allocated"),
        sim("line_rate", 23, initial_rate_policy="line_rate"),
        sim("reliable", 23, reliable=True),
        sim("reliable+loss", 23, reliable=True, loss_rate=0.01),
        sim("trees1", 23, n_broadcast_trees=1),
        sim("trees8", 23, n_broadcast_trees=8),
    ]
    return Campaign(
        name="ablations",
        scenarios=scenarios,
        seed=23,
        description="Ablations: control-plane placement, young-flow rate "
        "policy, reliability transport, broadcast-tree fan-out",
    )


def ablation_rows(results: ResultMap) -> Dict[str, Any]:
    """Per ablation table, ``{row: [cells]}``; plus the control-plane
    ablation's median per-flow FCT gap between shared and per-node."""

    def rows(scenarios, cells):
        return {
            label: cells(_get(results, "ablations", name))
            for label, name in scenarios.items()
        }

    fs, fp = (
        np.asarray(_get(results, "ablations", name)["fcts_ns"], dtype=float)
        for name in ABLATION_CONTROL.values()
    )
    return {
        "control": rows(ABLATION_CONTROL, lambda r: [
            _fct_us(r, 50), _fct_us(r, 99), _queue_kb(r, 99), r["wallclock_s"],
        ]),
        "median_gap": float(np.median(np.abs(fs - fp) / fs)),
        "policy": rows(ABLATION_POLICIES, lambda r: [
            _fct_us(r, 99), _queue_kb(r, 99), _mean_long_gbps(r),
        ]),
        "reliability": rows(ABLATION_RELIABILITY, lambda r: [
            r["completion_rate"],
            _fct_us(r, 99),
            _wire(r, "ack_bytes") / max(_wire(r, "data_bytes"), 1),
        ]),
        "trees": rows(ABLATION_TREES, lambda r: [
            r["summary"]["broadcast_bytes"], _fct_us(r, 99),
        ]),
    }


def _aggregate_ablations(results: ResultMap, scale: Scale) -> Dict[str, str]:
    rows = ablation_rows(results)
    trees = sorted(rows["trees"])
    return {
        "ablation_control_plane": format_table(
            "Shared vs per-node control plane",
            ["fct_p50_us", "fct_p99_us", "queue_p99_kb", "wall_s"],
            rows["control"],
        ) + (
            f"\n\nmedian per-flow FCT gap: {rows['median_gap']:.1%} — the visibility"
            "\nskew the shared mode ignores is negligible against 500us epochs,"
            "\nwhich is what justifies collapsing the controllers"
        ),
        "ablation_young_flow_policy": format_table(
            "Young-flow rate policy ablation",
            ["fct_p99_us", "queue_p99_kb", "long_tput_gbps"],
            rows["policy"],
        ) + (
            "\n\nlocal_waterfill (the §3.1 reading) gives young flows their"
            "\ncorrect — often multi-path, above-line-rate — allocation at"
            "\narrival, so short flows finish faster; the cruder policies cap"
            "\nyoung flows at one link's rate (under-serving at low concurrency"
            "\nand over-serving at high concurrency, where the line-rate blast"
            "\nis what the 5% headroom must absorb)"
        ),
        "ablation_reliability": format_table(
            "Reliability transport ablation (§6)",
            ["completion", "fct_p99_us", "ack_byte_ratio"],
            rows["reliability"],
        ) + (
            "\n\nACKs serve reliability only; rates still come from the"
            "\ncontroller, so the lossless overhead is pure ACK bandwidth"
        ),
        "ablation_broadcast_trees": format_series(
            "Broadcast-tree fan-out ablation",
            "n_trees",
            trees,
            {
                "broadcast_bytes": [rows["trees"][t][0] for t in trees],
                "fct_p99_us": [rows["trees"][t][1] for t in trees],
            },
        ) + (
            "\n\ntotal broadcast bytes are tree-count-invariant (every tree"
            "\nhas n-1 edges); multi-tree choice only spreads them over links"
        ),
    }


# ----------------------------------------------------------------------
# Prose claims — numbers the paper states outside its figures
# ----------------------------------------------------------------------
def _build_claims(scale: Scale) -> Campaign:
    return Campaign(
        name="claims",
        seed=0,
        description="Prose claims: closed-form checks computed by the "
        "aggregator, no tasks",
    )


def prose_claims() -> List[Tuple[str, float, float, Optional[float]]]:
    """``(label, measured, paper, relative tolerance)`` per claim, in
    table order; a ``None`` tolerance marks an upper bound.

    §2.2.2's 1,680 minimal paths; §3.2's broadcast bytes, 10 KB announce
    overhead, all-pairs bytes per link and failure rate; §6's folded-Clos
    broadcast; §4.2's weight-cache footprint; §3.3.1's Figure 4 gap.
    """
    from ..broadcast import (
        FailureRecovery,
        all_pairs_broadcast_bytes_per_link,
        broadcast_bytes_total,
        flow_event_overhead,
    )
    from ..congestion import FlowSpec, PathFlow, WeightProvider, maxmin_rates, waterfill
    from ..routing.static import StaticPathSet
    from ..topology import (
        FoldedClosTopology,
        GraphTopology,
        TorusTopology,
        count_shortest_paths,
    )

    torus = TorusTopology((8, 8, 8))
    # §4.2: 511 destinations x 3072 links bounded by 6 MB; the sparse cache
    # stores only used links, projected from every eighth destination.
    provider = WeightProvider(torus)
    sampled = range(1, 512, 8)
    for dst in sampled:
        provider.weights_for(FlowSpec(dst, 0, dst, "rps"))
    # Figure 4: two flows on four nodes, one with a two-hop detour.
    graph = GraphTopology(
        4, [(0, 3), (0, 2), (2, 3), (1, 2)], capacity_bps=1.0, latency_ns=0
    )
    static = StaticPathSet(graph)
    static.set_paths(0, 3, [[0, 3], [0, 2, 3]])
    static.set_paths(1, 3, [[1, 2, 3]])
    fig4 = waterfill(
        graph,
        [FlowSpec(1, 0, 3, "static"), FlowSpec(2, 1, 3, "static")],
        WeightProvider(graph, {"static": static}),
    )
    ideal = maxmin_rates(
        graph, [PathFlow(1, [[0, 3], [0, 2, 3]]), PathFlow(2, [[1, 2, 3]])]
    )
    return [
        (
            "minimal paths, (3,3,3) displacement",
            count_shortest_paths(
                torus, torus.node_at((0, 0, 0)), torus.node_at((3, 3, 3))
            ),
            1680,
            0,
        ),
        ("512-node broadcast bytes", broadcast_bytes_total(512), 8176, 0.01),
        (
            "10KB flow announce overhead",
            flow_event_overhead(10 * 1024, 512, 6.0),
            0.2666,
            0.02,
        ),
        (
            "all-pairs broadcast KB/link",
            all_pairs_broadcast_bytes_per_link(torus) / 1000,
            681,
            0.04,
        ),
        (
            "failures/day, 512 nodes x 4 CPUs",
            FailureRecovery().expected_failures_per_day(512),
            1.68,
            0.01,
        ),
        (
            "Clos broadcast bytes",
            broadcast_bytes_total(FoldedClosTopology(512, radix=32).n_nodes),
            8700,
            0.04,
        ),
        (
            "projected weight cache",
            provider.memory_footprint_bytes() * 511 / len(sampled),
            6e6,
            None,
        ),
        ("Fig4 R2C2 rate", fig4.rates_bps[1], 2 / 3, 0.001),
        ("Fig4 exact max-min rate", ideal[1], 1.0, 0.001),
    ]


def _aggregate_claims(results: ResultMap, scale: Scale) -> Dict[str, str]:
    lines = []
    for label, measured, paper, tolerance in prose_claims():
        if tolerance is None:
            lines.append(
                f"{label}: {measured / 1e6:.2f} MB (paper < {paper / 1e6:.0f} MB)"
            )
        else:
            lines.append(f"{label}: measured={measured:.4g} paper={paper:.4g}")
    return {"paper_prose_claims": "\n".join(lines)}


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
        return _get(results, "synth", name)

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
        FigureDef("fig02", "Figure 2: routing-throughput table",
                  ("fig02_routing_table",), _build_fig02, _aggregate_fig02),
        FigureDef("fig07", "Figure 7: Maze vs simulator cross-validation",
                  ("fig07_crossval",), _build_fig07, _aggregate_fig07),
        FigureDef("fig08", "Figure 8: recomputation CPU overhead vs rho",
                  ("fig08_cpu_overhead",), _build_fig08, _aggregate_fig08,
                  wallclock=("fig08_cpu_overhead",)),
        FigureDef("fig09", "Figure 9: broadcast share of capacity",
                  ("fig09_broadcast_overhead",), _build_fig09, _aggregate_fig09),
        FigureDef("fig10_14", "Figures 10-14: stack comparison across tau",
                  ("fig10_fct_short", "fig11_tput_long", "fig12_fct_vs_load",
                   "fig13_tput_vs_load", "fig14_queue_occupancy"),
                  _build_fig10_14, _aggregate_fig10_14),
        FigureDef("fig15_16", "Figures 15-16: rate error vs rho and vs tau",
                  ("fig15_rate_error_vs_rho", "fig16_rate_error_vs_load"),
                  _build_fig15_16, _aggregate_fig15_16),
        FigureDef("fig17", "Figure 17: headroom sensitivity",
                  ("fig17_headroom",), _build_fig17, _aggregate_fig17),
        FigureDef("fig18", "Figure 18: adaptive routing selection",
                  ("fig18_adaptive_routing",), _build_fig18, _aggregate_fig18),
        FigureDef("fig18_heuristics", "Section 3.4: selection heuristic shoot-out",
                  ("fig18_heuristic_ablation",), _build_fig18_heuristics,
                  _aggregate_fig18_heuristics),
        FigureDef("fig19", "Figure 19: control traffic, decentralized vs centralized",
                  ("fig19_control_traffic",), _build_fig19, _aggregate_fig19),
        FigureDef("ablations", "Design-choice ablations",
                  ("ablation_control_plane", "ablation_young_flow_policy",
                   "ablation_reliability", "ablation_broadcast_trees"),
                  _build_ablations, _aggregate_ablations,
                  wallclock=("ablation_control_plane:wall_s",)),
        FigureDef("claims", "Prose claims outside the figures",
                  ("paper_prose_claims",), _build_claims, _aggregate_claims),
        FigureDef("synth", "Synthesized inter-rack fabrics and the multi-rack campaign",
                  ("synth_fabrics", "synth_tier_load", "synth_campaign"),
                  _build_synth, _aggregate_synth),
    )
}

#: What ``repro figures`` runs with no name: everything the paper's §5
#: reports (``synth`` is the reproduction's own campaign, run by ``repro
#: synth sweep``).
PAPER_FIGURES = tuple(name for name in FIGURES if name != "synth")


def campaign_for(name: str, scale: Scale) -> Campaign:
    """The campaign for figure *name* at *scale*."""
    if name not in FIGURES:
        raise ExperimentError(
            f"unknown figure {name!r}; choose from {', '.join(sorted(FIGURES))}"
        )
    return FIGURES[name].build(scale)


def table_file_text(stem: str, text: str, scale: Scale) -> str:
    """The bytes of ``benchmarks/results/<stem>.txt``: a banner naming the
    table and scale, then the table."""
    return f"\n===== {stem} [scale={scale.name}] =====\n{text}\n"


def _drop_columns(text: str, columns: Sequence[str]) -> List[List[str]]:
    """*text* as whitespace-split lines, with every table cell under one
    of *columns* removed (a table runs from its header to a blank line)."""
    out = []
    cuts: List[int] = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            cuts = []
        elif not cuts and any(c in tokens for c in columns):
            cuts = sorted(
                (len(tokens) - tokens.index(c) for c in columns if c in tokens),
                reverse=True,
            )
        for cut in cuts:
            del tokens[-cut]
        out.append(tokens)
    return out


def tables_match(fig: FigureDef, stem: str, committed: str, fresh: str) -> bool:
    """Whether *fresh* reproduces *committed* outside *fig*'s declared
    wall-clock cells: byte for byte, or cell for cell around a wall-clock
    column."""
    if stem in fig.wallclock:
        return True
    columns = [
        cell.partition(":")[2] for cell in fig.wallclock
        if cell.partition(":")[0] == stem
    ]
    if not columns:
        return fresh == committed
    return _drop_columns(fresh, columns) == _drop_columns(committed, columns)
