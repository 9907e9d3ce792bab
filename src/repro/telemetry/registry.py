"""Labeled metrics: counters, gauges, histograms, time series.

A :class:`MetricsRegistry` is the single sink every instrumented layer
writes into during a run — the simulator's network probes, the congestion
controller's epoch accounting, the broadcast substrate's announce counters
and the invariant auditor's violation tallies all share one registry so a
snapshot is a complete, self-consistent picture of the run.

Design constraints, in order:

1. **The disabled path must cost (almost) nothing.**  Instrumented code
   resolves its instruments once at construction time; when telemetry is
   off the session's registry is ``None``, the site holds ``None`` too,
   and hot paths guard with ``if self._ctr is not None:`` — the same
   single test as the auditor's hooks.
2. **Snapshots are deterministic.**  Export orders instruments by
   ``(name, labels)`` and contains no wall-clock material, so two runs of
   the same seeded scenario produce byte-identical JSON (a property the
   telemetry test suite locks in).
3. **Fixed-bucket histograms.**  Buckets are chosen at creation and never
   rebalanced, which keeps ``observe`` O(log n_buckets) and makes
   snapshots comparable across runs and revisions.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: LabelItems) -> str:
    """Prometheus-style rendering: ``name{k="v",...}`` without the name."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count (events, bytes, drops)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, table size)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


#: Default histogram buckets for byte-ish quantities (64 B .. 16 MB).
BYTE_BUCKETS: Tuple[float, ...] = tuple(64 * 4 ** i for i in range(10))

#: Default buckets for ratios in [0, 1] (utilization, overhead fractions).
RATIO_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``buckets`` are *upper bounds* of each bin; observations above the last
    bound land in the implicit overflow bin.  The cumulative-count export
    mirrors the Prometheus convention, so snapshots feed straight into the
    usual quantile estimators.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: Sequence[float], labels: LabelItems = ()
    ) -> None:
        if not buckets:
            raise ReproError(f"histogram {name} needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ReproError(f"histogram {name} bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (0..1) from bucket boundaries.

        Returns the upper bound of the bucket holding the target rank
        (the recorded max for the overflow bin); 0.0 when empty.
        """
        if not (0.0 <= q <= 1.0):
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if i < len(self.buckets):
                    return self.buckets[i]
                return self.max if self.max is not None else self.buckets[-1]
        return self.max if self.max is not None else self.buckets[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class TimeSeries:
    """An append-only ``(t_ns, value)`` series (link-probe samples)."""

    __slots__ = ("name", "labels", "t_ns", "values")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.t_ns: List[int] = []
        self.values: List[float] = []

    def append(self, t_ns: int, value: float) -> None:
        self.t_ns.append(t_ns)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.t_ns)

    def to_dict(self) -> dict:
        return {"t_ns": list(self.t_ns), "values": list(self.values)}


class MetricsRegistry:
    """The run-wide instrument namespace.

    ``counter`` / ``gauge`` / ``histogram`` / ``series`` return the same
    object for the same ``(name, labels)`` pair, so independent layers can
    contribute to one metric without coordination.  Asking for an existing
    name with a different instrument kind is an error (it would silently
    split the data).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelItems], object] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, object], factory):
        key = (kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            for other_kind, other_name, other_labels in self._instruments:
                if other_name == name and other_kind != kind:
                    raise ReproError(
                        f"metric {name!r} already registered as a {other_kind}"
                    )
            instrument = factory(name, key[2])
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, buckets: Sequence[float] = BYTE_BUCKETS, **labels) -> Histogram:
        return self._get(
            "histogram", name, labels, lambda n, l: Histogram(n, buckets, l)
        )

    def series(self, name: str, **labels) -> TimeSeries:
        return self._get("series", name, labels, TimeSeries)

    # census: benchmarks/perf reads it
    def instruments(self) -> List[object]:
        """All instruments, deterministically ordered."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """A JSON-ready dict of every instrument, deterministically ordered.

        Layout::

            {"counters":   {"name{labels}": value, ...},
             "gauges":     {"name{labels}": value, ...},
             "histograms": {"name{labels}": {...}, ...},
             "series":     {"name{labels}": {...}, ...}}
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}
        section = {
            "counter": "counters",
            "gauge": "gauges",
            "histogram": "histograms",
            "series": "series",
        }
        for key in sorted(self._instruments):
            kind, name, labels = key
            instrument = self._instruments[key]
            rendered = name + _format_labels(labels)
            if kind in ("counter", "gauge"):
                out[section[kind]][rendered] = instrument.value
            else:
                out[section[kind]][rendered] = instrument.to_dict()
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        """Write the snapshot JSON to *path*."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def merge_snapshots(snapshots) -> dict:
    """Roll up metrics snapshots from many runs/workers into one.

    The campaign runner aggregates per-task snapshots into a per-campaign
    manifest with this.  Semantics per section:

    * ``counters`` and ``gauges`` — summed (both record per-run totals
      here: events processed, bytes on wire, flows completed — the rollup
      of totals is their sum);
    * ``histograms`` — bucket counts, ``count`` and ``sum`` added; ``min``
      / ``max`` folded, provided the bucket bounds agree (mismatched
      bounds keep the first seen, counted under ``_dropped``);
    * ``series`` — dropped (per-run time axes are not comparable).
    """
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    dropped = 0
    for snap in snapshots:
        for section in ("counters", "gauges"):
            for name, value in snap.get(section, {}).items():
                merged[section][name] = merged[section].get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            if not hist:
                continue
            slot = merged["histograms"].get(name)
            if slot is None:
                merged["histograms"][name] = {
                    "buckets": list(hist.get("buckets", [])),
                    "counts": list(hist.get("counts", [])),
                    "count": hist.get("count", 0),
                    "sum": hist.get("sum", 0),
                    "min": hist.get("min"),
                    "max": hist.get("max"),
                }
                continue
            if slot["buckets"] != list(hist.get("buckets", [])):
                dropped += 1
                continue
            slot["counts"] = [
                a + b for a, b in zip(slot["counts"], hist.get("counts", []))
            ]
            slot["count"] += hist.get("count", 0)
            slot["sum"] += hist.get("sum", 0)
            for bound, pick in (("min", min), ("max", max)):
                theirs = hist.get(bound)
                if theirs is None:
                    continue
                slot[bound] = theirs if slot[bound] is None else pick(slot[bound], theirs)
    if dropped:
        merged["_dropped"] = dropped
    return merged
