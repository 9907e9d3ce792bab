"""repro.obs — the observability layer on top of :mod:`repro.telemetry`.

Three pillars (see DESIGN.md §6f):

* **Causal critical-path tracing** (:mod:`.causal`): thread cause links
  through engine events so each completed flow's FCT decomposes exactly
  into pacing / serialization / queueing / propagation / control-wait /
  host-wait / retransmit-wait components, with per-hop queueing culprits.
  Surfaced by ``repro explain-flow``.
* **Distsim sync profiling** (assembled in
  :mod:`repro.distsim.coordinator`): per-shard, per-round accounting of
  the conservative windowed protocol — the measurement substrate for the
  distsim speedup work.
* **Crash flight recorder** (:mod:`.flight`): bounded per-subsystem rings
  of recent structured events, dumped as JSON on crash / oracle violation
  / audit failure and attached to fuzz corpus entries.

All three honor the telemetry layer's disabled-overhead discipline: off by
default, and the simulator's hot paths reach them only through its single
probe (:mod:`repro.sim.probe`), one ``is not None`` guard per site.
"""

from .causal import COMPONENT_NAMES, ObsSession, PacketObs, check_decomposition
from .flight import FLIGHT_SCHEMA, FlightRecorder
from .report import explain_flow_lines, explain_report

__all__ = [
    "COMPONENT_NAMES",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "ObsSession",
    "PacketObs",
    "check_decomposition",
    "explain_flow_lines",
    "explain_report",
]
