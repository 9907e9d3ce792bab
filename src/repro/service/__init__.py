"""Long-lived control-plane service: incremental allocation, served.

R2C2's rack controller recomputes rates on every flow event (paper §4);
this package turns the reproduction's batch allocator into a servable
system:

* :class:`~repro.service.state.ServiceState` — the daemon's transport-free
  core: an :class:`~repro.congestion.IncrementalWaterfill` flow table,
  operation counters, query-latency reservoir, and a checkpoint + op
  journal (one fsynced record per mutation) so a SIGKILLed daemon resumes
  without reannouncement (allocation answers stay byte-identical).
* :class:`~repro.service.daemon.ControlDaemon` — the ``repro serve``
  asyncio listener speaking the length-prefixed control messages of
  :mod:`repro.wire.control` (FLOW_ANNOUNCE / FLOW_FINISH / ALLOC_QUERY /
  SNAPSHOT_SUB) and streaming telemetry snapshots to subscribers.
* :class:`~repro.service.client.ServiceClient` — the blocking socket
  client used by tests, the CI smoke and tooling.
* :func:`~repro.service.churn.run_churn` — seeded in-process churn replay
  with a scratch-vs-incremental cross-check, the execution path behind
  the fuzzer's ``kind="churn"`` scenarios.
"""

from .churn import allocation_digest, run_churn
from .client import ServiceClient, read_port_file
from .daemon import ControlDaemon, serve_forever
from .state import SNAPSHOT_SCHEMA, ServiceState

__all__ = [
    "ControlDaemon",
    "SNAPSHOT_SCHEMA",
    "ServiceClient",
    "ServiceState",
    "allocation_digest",
    "read_port_file",
    "run_churn",
    "serve_forever",
]
