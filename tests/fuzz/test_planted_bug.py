"""End-to-end exercise: plant a receiver bug, fuzz, shrink, file, replay.

The ``planted_bug`` fixture patches the R2C2 receive path so the receiver
declares completion one MTU early and discards later segments, so audited
flows end under-accounted — exactly the class of bug the invariant auditor
exists to catch.  The fault lives here, not in ``src/``: the fuzzer runs
its scenarios in this process (``workers=1``), so a patched class is the
planted bug and undoing the patch is the fix.  The fuzzer must find it
within a bounded budget, shrink it to a tiny reproducer, persist it to the
corpus, and the corpus replay must flag it while the bug is planted and
pass once it is gone.
"""

import pytest

from repro.fuzz import Corpus, FuzzConfig, replay_entry, run_fuzz
from repro.sim.packets import KIND_DATA
from repro.sim.stacks.r2c2 import R2C2Stack

pytestmark = pytest.mark.fuzz

_BUDGET = 60


@pytest.fixture()
def planted_bug(monkeypatch):
    real_deliver = R2C2Stack.deliver
    real_received = R2C2Stack._received

    def deliver(self, packet):
        if packet.kind == KIND_DATA:
            flow = self._flows.get(packet.flow_id)
            if flow is not None and flow.completed_ns is not None:
                # "Torn down" receiver state discards post-completion
                # segments (paired with the early threshold below).
                return
        real_deliver(self, packet)

    def _received(self, flow, packet, complete):
        if type(self) is R2C2Stack:  # the reliable stack receives on its own path
            # Completion fires once the flow is within one MTU of done,
            # i.e. one segment early for multi-segment flows.
            complete = flow.bytes_received >= max(1, flow.size_bytes - self._mtu)
        real_received(self, flow, packet, complete)

    monkeypatch.setattr(R2C2Stack, "deliver", deliver)
    monkeypatch.setattr(R2C2Stack, "_received", _received)


class TestPlantedBug:
    def test_found_shrunk_filed_and_replayable(self, tmp_path, planted_bug, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        config = FuzzConfig(
            seed=42, budget=_BUDGET, batch_size=10, corpus_dir=corpus_dir
        )
        report = run_fuzz(config)

        # Found within the budget...
        assert report.found_failures, "fuzzer missed the planted bug"
        audit_hits = [
            e
            for e in report.failures
            if any(v.oracle == "audit" and not v.ok for v in e.verdicts)
        ]
        assert audit_hits, "planted bug should surface as an audit violation"
        entry = audit_hits[0]

        # ...shrunk hard: a handful of nodes and flows, not a rack.
        n_nodes = 1
        for d in entry.scenario.dims:
            n_nodes *= d
        assert n_nodes <= 8, f"reproducer kept {n_nodes} nodes"
        assert entry.scenario.param("n_flows", 1) <= 4
        assert entry.shrink_steps, "shrinking accepted no moves?"
        violations = [
            d
            for v in entry.verdicts
            if v.oracle == "audit" and not v.ok
            for d in v.details
        ]
        assert any("completed with only" in d for d in violations)

        # ...persisted content-addressed...
        corpus = Corpus(corpus_dir)
        assert len(corpus) == len(report.failures)
        stored = corpus.find(entry.entry_id)
        assert stored is not None and stored.scenario == entry.scenario

        # ...replays as failing while the bug is in...
        verdicts = replay_entry(stored)
        assert any(v.oracle == "audit" and not v.ok for v in verdicts)

        # ...and as passing once the bug is fixed (patch undone).
        monkeypatch.undo()
        verdicts = replay_entry(stored)
        assert all(v.ok for v in verdicts), [
            (v.oracle, v.details) for v in verdicts if not v.ok
        ]

    def test_find_is_deterministic(self, tmp_path, planted_bug):
        r1 = run_fuzz(
            FuzzConfig(seed=42, budget=20, batch_size=10,
                       corpus_dir=tmp_path / "c1")
        )
        r2 = run_fuzz(
            FuzzConfig(seed=42, budget=20, batch_size=10,
                       corpus_dir=tmp_path / "c2")
        )
        assert [e.entry_id for e in r1.failures] == [e.entry_id for e in r2.failures]
        files1 = {p.name: p.read_bytes() for p in Corpus(tmp_path / "c1").paths()}
        files2 = {p.name: p.read_bytes() for p in Corpus(tmp_path / "c2").paths()}
        assert files1 == files2
