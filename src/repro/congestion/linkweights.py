"""Assembling per-flow link-weight vectors for the allocator.

The paper pre-computes, on each node, "the list of link weights for each
{routing protocol, destination} pair" (§4.2).  :class:`WeightProvider` plays
that role: it owns one instance of each routing protocol bound to the
topology and memoizes the sparse weight vector of every (protocol, src, dst)
triple it is asked for.  ECMP weights additionally depend on the flow id
(the hash picks the path), which the cache key accounts for.

On top of the per-flow vectors the provider assembles — and caches — one
CSR weight matrix per water-fill priority level (:class:`LevelMatrix`):
flows are rows, links are columns.  The cache is keyed by the flow set's
``(protocol, src, dst)`` signature, which demands do *not* enter, so the
steady-state control loop (same flows, new demand estimates every epoch)
reuses the assembled matrix and pays only for the vectorized fill passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..lru import BoundedLru
from ..routing.base import RoutingProtocol, make_protocol
from ..topology.base import Topology
from .flowstate import FlowSpec

#: A sparse weight vector: (link ids, fractions), parallel arrays.
SparseWeights = Tuple[np.ndarray, np.ndarray]

#: Assembled level matrices retained per provider.  Each entry is O(nnz);
#: steady-state workloads cycle through a handful of flow-set signatures.
_MATRIX_CACHE_BOUND = 128

#: ... and the bytes they may hold together (:meth:`LevelMatrix.nbytes`):
#: a 512-flow matrix is 1–28 MB depending on the protocol, so the entry
#: bound alone would let a churning table pin gigabytes.
_MATRIX_CACHE_BYTES = 32 * 2**20


@dataclass(frozen=True)
class LevelMatrix:
    """One priority level's flows-by-links weight matrix, CSR + CSC.

    The CSR arrays (``indptr``/``indices``/``data``) hold each flow's raw
    protocol weights ``w_{f,l}`` row by row (link ids are unique and sorted
    within a row).  The CSC pattern (``col_indptr``/``col_rows``) answers
    the inverse question — which flows cross a link — replacing the Python
    ``flows_on_link`` list-of-lists in the water-fill's link passes.
    """

    n_flows: int
    n_links: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_nnz: np.ndarray
    col_indptr: np.ndarray
    col_rows: np.ndarray

    @classmethod
    def build(cls, rows: List[SparseWeights], n_links: int) -> "LevelMatrix":
        """Assemble the matrix from per-flow sparse rows."""
        n_flows = len(rows)
        row_nnz = np.fromiter(
            (idx.size for idx, _ in rows), dtype=np.int64, count=n_flows
        )
        indptr = np.zeros(n_flows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        nnz = int(indptr[-1]) if n_flows else 0
        if nnz:
            indices = np.concatenate([idx for idx, _ in rows])
            data = np.concatenate([val for _, val in rows])
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        # Link ids below 2**16 sort as uint16 keys: numpy's stable sort is a
        # radix sort there, ~3x faster than the int64 one, same permutation.
        keys = indices.astype(np.uint16) if n_links <= 1 << 16 else indices
        order = np.argsort(keys, kind="stable")
        col_rows = np.repeat(np.arange(n_flows, dtype=np.int64), row_nnz)[order]
        col_indptr = np.zeros(n_links + 1, dtype=np.int64)
        if nnz:
            np.cumsum(np.bincount(indices, minlength=n_links), out=col_indptr[1:])
        return cls(
            n_flows=n_flows,
            n_links=n_links,
            indptr=indptr,
            indices=indices,
            data=data,
            row_nnz=row_nnz,
            col_indptr=col_indptr,
            col_rows=col_rows,
        )

    def flows_on_link(self, link: int) -> np.ndarray:
        """Row indices of the flows crossing *link*."""
        return self.col_rows[self.col_indptr[link] : self.col_indptr[link + 1]]

    def nbytes(self) -> int:
        """Approximate memory held by the matrix arrays."""
        return (
            self.indptr.nbytes
            + self.indices.nbytes
            + self.data.nbytes
            + self.row_nnz.nbytes
            + self.col_indptr.nbytes
            + self.col_rows.nbytes
        )


class WeightProvider:
    """Memoized link-weight vectors per flow.

    Args:
        topology: The rack fabric.
        protocols: Optional pre-built protocol instances to reuse (keyed by
            registered name); missing ones are instantiated on demand.
    """

    def __init__(self, topology: Topology, protocols: Dict[str, RoutingProtocol] = None) -> None:
        self._topology = topology
        self._protocols: Dict[str, RoutingProtocol] = dict(protocols or {})
        self._cache: Dict[tuple, SparseWeights] = {}
        self._matrix_cache = BoundedLru(
            _MATRIX_CACHE_BOUND, max_bytes=_MATRIX_CACHE_BYTES, sizeof=LevelMatrix.nbytes
        )
        #: per protocol name: do weights depend on the flow id (ECMP)?
        self._flow_keyed: Dict[str, bool] = {}

    @property
    def topology(self) -> Topology:
        """The topology weights are computed on."""
        return self._topology

    def protocol(self, name: str) -> RoutingProtocol:
        """The shared protocol instance for *name* (created lazily)."""
        instance = self._protocols.get(name)
        if instance is None:
            instance = make_protocol(name, self._topology)
            self._protocols[name] = instance
        return instance

    def _row_key(self, spec: FlowSpec) -> tuple:
        """The identity of one flow's weight row: (protocol, src, dst[, id])."""
        keyed = self._flow_keyed.get(spec.protocol)
        if keyed is None:
            keyed = _weights_depend_on_flow_id(self.protocol(spec.protocol))
            self._flow_keyed[spec.protocol] = keyed
        return (spec.protocol, spec.src, spec.dst, spec.flow_id if keyed else 0)

    def weights_for(self, spec: FlowSpec) -> SparseWeights:
        """Sparse link-weight vector for one flow."""
        key = self._row_key(spec)
        cached = self._cache.get(key)
        if cached is None:
            protocol = self.protocol(spec.protocol)
            weights = protocol.link_weights(spec.src, spec.dst, flow_id=spec.flow_id)
            if weights:
                items = sorted(weights.items())
                idx = np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items))
                val = np.fromiter((v for _, v in items), dtype=np.float64, count=len(items))
            else:
                idx = np.empty(0, dtype=np.int64)
                val = np.empty(0, dtype=np.float64)
            cached = (idx, val)
            self._cache[key] = cached
        return cached

    def _forget(self, spec: FlowSpec, unless: Optional[FlowSpec] = None) -> None:
        """Drop a retired flow's row if it is keyed by flow id — a long-lived
        table would otherwise keep one per flow ever seen; pair-keyed rows
        are bounded by n².  *unless* is the spec re-announced under the same
        id: a row it still uses stays."""
        key = self._row_key(spec)
        if self._flow_keyed[spec.protocol] and (unless is None or self._row_key(unless) != key):
            self._cache.pop(key, None)

    def level_matrix(self, flows: Sequence[FlowSpec]) -> LevelMatrix:
        """The assembled CSR/CSC weight matrix for *flows*, cached.

        The cache key is the ordered tuple of row identities — protocol,
        endpoints and (for flow-keyed protocols) the flow id.  Weights,
        priorities and demands are applied by the caller per fill, so an
        epoch that only changed demand estimates hits this cache and skips
        assembly entirely (the water-fill's warm-start path).
        """
        key = tuple(self._row_key(spec) for spec in flows)
        matrix = self._matrix_cache.get(key)
        if matrix is None:
            rows = [self.weights_for(spec) for spec in flows]
            matrix = LevelMatrix.build(rows, self._topology.n_links)
            self._matrix_cache[key] = matrix
        return matrix

    def cache_size(self) -> int:
        """Number of memoized weight vectors (for memory-footprint checks)."""
        return len(self._cache)

    def memory_footprint_bytes(self) -> int:
        """Approximate bytes held by cached vectors and level matrices.

        Mirrors the paper's §4.2 memory estimate (< 6 MB per protocol for a
        512-node rack).
        """
        total = 0
        for idx, val in self._cache.values():
            total += idx.nbytes + val.nbytes
        for matrix in self._matrix_cache.values():
            total += matrix.nbytes()
        return total


def _weights_depend_on_flow_id(protocol: RoutingProtocol) -> bool:
    # Only ECMP-style protocols hash the flow id into the route; detect via
    # a marker attribute so third-party protocols can opt in.
    return getattr(protocol, "per_flow_paths", protocol.name == "ecmp")
