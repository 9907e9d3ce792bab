"""A spec's content fingerprints: computed once per object, never carried
across processes (``hash`` of a ``str`` is salted per process)."""

import ast
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.congestion.flowstate import FlowSpec, FlowTable

SPECS = [
    FlowSpec(0, 0, 5, "rps"),
    FlowSpec(1, 3, 9, "vlb", weight=2.0, priority=1),
    FlowSpec(2, 7, 1, "ecmp", demand_bps=2.5e9, tenant="blue"),
]


def _key(specs):
    table = FlowTable()
    for spec in specs:
        table.add(spec)
    return table.content_key


_CHILD = """
import pickle, sys
from dataclasses import fields
from repro.congestion.flowstate import FlowSpec, FlowTable

def key(specs):
    table = FlowTable()
    for spec in specs:
        table.add(spec)
    return table.content_key

specs = pickle.load(sys.stdin.buffer)
fresh = [FlowSpec(**{f.name: getattr(s, f.name) for f in fields(FlowSpec)}) for s in specs]
print(repr((key(specs), key(fresh))))
"""


def test_unpickled_specs_fingerprint_in_the_receiving_process():
    parent_key = _key(SPECS)
    # a hash seed that differs from this process's, whatever it is
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps(SPECS),
        env=env,
        capture_output=True,
        check=True,
    )
    unpickled_key, fresh_key = ast.literal_eval(child.stdout.decode())
    assert unpickled_key == fresh_key
    # the check has teeth: the same specs fold to another key over there
    assert fresh_key != parent_key


def test_unpickling_recomputes_the_memo():
    spec = FlowSpec(5, 1, 8, "wlb", weight=3.0)
    stale = FlowSpec(5, 1, 8, "wlb", weight=3.0)
    object.__setattr__(stale, "fingerprints", (1, 2))  # as if from another process
    copy = pickle.loads(pickle.dumps(stale))
    assert copy == spec and hash(copy) == hash(spec)
    assert copy.fingerprints == spec.fingerprints


def test_memo_is_computed_once_per_object():
    spec = FlowSpec(9, 1, 2, "rps")
    assert spec.fingerprints is spec.fingerprints
    assert spec.fingerprints == FlowSpec(9, 1, 2, "rps").fingerprints
    # start time and tenant do not enter the allocation, nor the fingerprint
    assert spec.fingerprints == FlowSpec(9, 1, 2, "rps", start_time_ns=7, tenant="x").fingerprints


def test_updated_copies_carry_their_own_fingerprints():
    spec = FlowSpec(4, 2, 6, "rps")
    for copy, fresh in (
        (spec.with_demand(1e9), FlowSpec(4, 2, 6, "rps", demand_bps=1e9)),
        (spec.with_protocol("vlb"), FlowSpec(4, 2, 6, "vlb")),
    ):
        assert copy.fingerprints == fresh.fingerprints
        assert copy.fingerprints != spec.fingerprints
    table = FlowTable()
    table.add(spec)
    table.update_demand(4, 1e9)
    table.update_protocol(4, "vlb")
    assert table.content_key == _key([FlowSpec(4, 2, 6, "vlb", demand_bps=1e9)])
    table.update_demand(4, math.inf)
    table.update_protocol(4, "rps")
    assert table.content_key == _key([spec])
