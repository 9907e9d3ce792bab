"""Golden runs: simulated results pinned across commits.

Every other byte-identity test compares two runs of the *same* commit
(serial vs sharded, observed vs not, seed vs seed), so a hot-path change
that shifts every run the same way passes them all.  These pins are the
cross-commit half: the SHA-256 of :func:`repro.distsim.canonical_metrics`
and ``events_processed`` for a small fixed matrix — every stack, both
control planes, the broadcast drop-note path (plain and reliable), wire
loss, host-limited flows, a torus and a Clos.  A change that restructures
the packet path must leave every digest untouched.

A digest changes only together with ``CACHE_SCHEMA_VERSION``
(:mod:`repro.experiments.spec`): a deliberate change to what a run
computes bumps the schema, re-baselines the oracles and re-pins this table
in the same change (print the new values with ``python
tests/sim/test_golden_runs.py``).  An events-only re-pin — a change to how
many events the engine spends, with every digest equal — needs no schema
bump: ``experiments.tasks`` drops ``events`` from the task results it
caches, so no cached result can differ.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.distsim import canonical_metrics, run_sharded_simulation
from repro.sim import SimConfig, run_simulation
from repro.topology import FoldedClosTopology, TorusTopology
from repro.types import gbps
from repro.workloads import ParetoSizes, poisson_trace

pytestmark = pytest.mark.validation

TORUS = TorusTopology((4, 4), capacity_bps=gbps(10))
CLOS = FoldedClosTopology(8, radix=4)


def _trace(topology, n_flows=80, interarrival_ns=1_500, protocol="rps"):
    sizes = ParetoSizes(mean_bytes=100_000, shape=1.05, cap_bytes=1_000_000)
    return poisson_trace(
        topology, n_flows, interarrival_ns, sizes=sizes, protocol=protocol, seed=21
    )


def _host_limited(trace):
    """Every third flow produces its bytes at 2 Gb/s (§3.3.2)."""
    return [
        replace(arrival, app_rate_bps=2e9) if arrival.flow_id % 3 == 0 else arrival
        for arrival in trace
    ]


PER_NODE = dict(stack="r2c2", control_plane="per_node")
#: arrivals 300 ns apart: enough same-instant contention that finite
#: queues drop broadcasts, not only data.
BURST = _trace(TORUS, interarrival_ns=300)

#: name -> (topology, trace, SimConfig kwargs)
RUNS = {
    "r2c2-shared": (TORUS, _trace(TORUS), dict(stack="r2c2")),
    "r2c2-per-node": (TORUS, _trace(TORUS), PER_NODE),
    "r2c2-queue-3000": (TORUS, BURST, dict(stack="r2c2", queue_limit_bytes=3000)),
    # One MTU packet fills the queue, so 16-byte broadcasts are dropped by
    # the dozen: drop note -> retransmission on the next tree (§3.2).
    "r2c2-queue-1600-per-node": (TORUS, BURST, dict(queue_limit_bytes=1600, **PER_NODE)),
    "r2c2-reliable-loss": (
        TORUS, _trace(TORUS), dict(stack="r2c2", reliable=True, loss_rate=0.02)),
    # The same full queues under the reliable transport: the drop note has
    # to reach R2C2ReliableStack (it used to raise on packet kind 4).
    "r2c2-reliable-queue-1600": (
        TORUS, BURST, dict(stack="r2c2", reliable=True, queue_limit_bytes=1600)),
    "r2c2-host-limited": (TORUS, _host_limited(_trace(TORUS)), dict(stack="r2c2")),
    "tcp": (TORUS, _trace(TORUS), dict(stack="tcp")),
    "tcp-loss": (TORUS, _trace(TORUS), dict(stack="tcp", loss_rate=0.02)),
    "pfq": (TORUS, _trace(TORUS), dict(stack="pfq")),
    "clos-r2c2-shared": (CLOS, _trace(CLOS, 40, protocol="ecmp"), dict(stack="r2c2")),
    "clos-tcp": (CLOS, _trace(CLOS, 40), dict(stack="tcp")),
}

#: name -> (sha256 of canonical_metrics, events_processed).  The digests are
#: as produced by commit 46c53c6 (the parent of the flat packet hop); the
#: event counts were re-pinned when a hop became one event (delivery
#: scheduled at serialization start), with every digest equal.
PINS = {
    "clos-r2c2-shared": (
        "161d66cec151818b202705c7c6ee74190b84b127842c0cc274b0942b0b51a64b",
        5039,
    ),
    "clos-tcp": (
        "0260005cfd35f0e6e90b6936ae26d5cb496d433386cbb7ce659d558aa2476475",
        5915,
    ),
    "pfq": (
        "a4d9f80dc67398031191f2f8ed2d77fabfd73674842cd0881074027e136b258c",
        3926,
    ),
    "r2c2-host-limited": (
        "32bd72cf6b8b7ed1d6ea348e060501518d1c505e0068e6b2fd87df1b3b4805e3",
        5819,
    ),
    "r2c2-per-node": (
        "c909d43241107a35b35aaab7cba0bc1e0e55e4987757d26a1ee4dacf4248e065",
        5951,
    ),
    "r2c2-queue-1600-per-node": (
        "d927f12dc17aee1d199e8967e646ad44b378c8194cb9e7a3be62b03b7a0bc1f9",
        6473,
    ),
    "r2c2-queue-3000": (
        "a62cc10eb9b82b60460ccb6a671579840c238f32fdeb54e37c0df82e203630c2",
        6293,
    ),
    "r2c2-reliable-loss": (
        "99db178162d2690cf2215fd3db9f36bc5c60a8ebb67ea74dfdf86ec509a67561",
        7666,
    ),
    # Added with the drop-note fix and generated at that commit: the run
    # raises at every earlier one.
    "r2c2-reliable-queue-1600": (
        "21f4f7e55cc2cbcbb0203c12c1897fa57be826bde2380d2f0f97e9be5214c518",
        9257,
    ),
    "r2c2-shared": (
        "14e142b0029e3362f771c85e4a93a211b3863533f5b0027bf0a0be17c7cc770e",
        5937,
    ),
    "tcp": (
        "4c55f1ec8d088a5b736e884272e0767383045983472eb2c6522957f9e9d5e663",
        6350,
    ),
    "tcp-loss": (
        "9b790e4fd00529f167d50f9b6229a0d326bf6b9e455fd237df455de3cc2297be",
        6306,
    ),
}


def _digest(metrics) -> str:
    payload = json.dumps(canonical_metrics(metrics), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run(name, **overrides):
    topology, trace, kwargs = RUNS[name]
    return run_simulation(topology, trace, SimConfig(seed=5, **{**kwargs, **overrides}))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_pin(name):
    metrics = _run(name)
    assert (_digest(metrics), metrics.events_processed) == PINS[name]


def test_the_matrix_reaches_the_paths_it_names():
    """A pin proves nothing about a path its run never took."""
    assert _run("r2c2-queue-3000").drops > 0
    # every announcement reaches the 15 other nodes once; more deliveries
    # than that are retransmitted copies
    retransmitting = _run("r2c2-queue-1600-per-node")
    assert retransmitting.broadcast_packets > 2 * 15 * len(BURST)
    reliable = _run("r2c2-reliable-queue-1600")
    assert reliable.broadcast_packets > 2 * 15 * len(BURST)
    assert reliable.completion_rate() == 1.0
    assert _run("r2c2-reliable-loss").wire_losses > 0
    assert _run("tcp-loss").wire_losses > 0
    assert _digest(_run("r2c2-host-limited")) != PINS["r2c2-shared"][0]


def test_sharded_per_node_hits_the_serial_pin():
    """K=4 shards: same canonical metrics; the event count is the sharded
    engine's own (per-shard epoch ticks) and is not pinned."""
    topology, trace, kwargs = RUNS["r2c2-per-node"]
    result = run_sharded_simulation(
        topology, trace, SimConfig(seed=5, **kwargs), shards=4
    )
    assert _digest(result.metrics) == PINS["r2c2-per-node"][0]


#: Runs whose ports take both send paths: an idle FIFO port without a probe
#: starts a transmission without queueing; with a probe attached every
#: packet goes through the queue.  Equal pins prove the two paths equal,
#: including where finite queues drop.
OBSERVED = [
    "r2c2-per-node",
    "r2c2-queue-3000",
    "r2c2-queue-1600-per-node",
    "tcp",
    "tcp-loss",
    "pfq",
]


def test_observers_hit_the_plain_pin():
    for name in OBSERVED:
        # causal tracing cannot follow PFQ's back-pressure: pfq runs without it
        metrics = _run(name, audit=True, flight=True, obs=name != "pfq")
        assert metrics.audit.ok, name
        assert (_digest(metrics), metrics.events_processed) == PINS[name], name


if __name__ == "__main__":
    for run_name in sorted(RUNS):
        run_metrics = _run(run_name)
        print(f'    "{run_name}": ("{_digest(run_metrics)}", {run_metrics.events_processed}),')
