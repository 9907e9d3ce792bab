"""Assembling per-flow link-weight vectors for the allocator.

The paper pre-computes, on each node, "the list of link weights for each
{routing protocol, destination} pair" (§4.2).  :class:`WeightProvider` plays
that role: it owns one instance of each routing protocol bound to the
topology and memoizes the sparse weight vector of every (protocol, src, dst)
triple it is asked for.  ECMP weights additionally depend on the flow id
(the hash picks the path), which the cache key accounts for.

From the per-flow vectors the provider assembles one CSR weight matrix per
water-fill priority level (:class:`LevelMatrix`): flows are rows, links are
columns.  It retains one level — the last one assembled, with its flow ids,
its row keys (``(protocol, src, dst)`` signatures, which demands do *not*
enter) and the per-link sums of the last weights filled on it
(:meth:`WeightProvider.weighted`).  A controller holds on to its own level
between demand-only epochs, so the retained level serves what is left: a
repeat of the same rows takes the matrix and its sums, and a membership
change whose flow list is the retained one with a few rows taken out or
put in derives the matrix from it (:meth:`LevelMatrix.edit`) instead of
re-assembling every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..routing.base import RoutingProtocol, make_protocol
from ..topology.base import Topology
from .flowstate import FlowSpec

#: A sparse weight vector: (link ids, fractions), parallel arrays.
SparseWeights = Tuple[np.ndarray, np.ndarray]

#: ``(contrib, denom, live)`` of :meth:`LevelMatrix.weighted`.
Weighted = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Flow lists shorter than this are always built.  Measured per
#: ``level_matrix`` miss after one membership change (warm rps rows, diff
#: included), build / edit: 74 / 89 µs at 16 flows, 172 / 169 at 64 and
#: 307 / 220 at 128 on 4x4x4; 124 / 141, 316 / 274 and 595 / 447 on
#: 8x8x8 — below ~64 rows an edit's ~40 numpy calls outweigh the sort.
_EDIT_MIN_FLOWS = 64

#: An edit may change at most this share of the new list's rows; past it
#: the per-change work approaches a build (at 512 rps flows on 8x8x8 the
#: two meet near 64 changed rows) and the diff gives up early.
_EDIT_MAX_SHARE = 1 / 16


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

    def edit(
        self, removed: Sequence[int], inserted: Sequence[Tuple[int, SparseWeights]]
    ) -> "LevelMatrix":
        """This matrix with the rows at *removed* (ascending positions here)
        taken out and *inserted* — ``(position, row)`` pairs, ascending
        positions in the result — put in.

        Every array of the result is new and equal, value for value and
        dtype for dtype, to :meth:`build` over the new row list.  Nothing
        here is written: a provider's matrices are shared between controllers.
        The CSR arrays are slices of this matrix concatenated around the
        changed rows; the CSC pattern loses the removed rows' entries,
        renumbers the rest and takes each inserted entry at its place in
        its link's segment (rows ascending, as the stable sort leaves them).
        """
        n_old, n_links = self.n_flows, self.n_links
        indptr = self.indptr
        n_new = n_old - len(removed) + len(inserted)
        new_of_old = np.full(n_old, -1, dtype=np.int64)
        nnz_parts, idx_parts, val_parts = [], [], []
        old = row = k = 0  # next row of self, of the result; next removal
        for pos, weights in [*inserted, (n_new, None)]:
            while row < pos:  # kept rows of self fill the result up to pos
                while k < len(removed) and removed[k] == old:
                    k += 1
                    old += 1
                run = min((removed[k] if k < len(removed) else n_old) - old, pos - row)
                if run <= 0:
                    raise ValueError("edit does not fit the matrix's rows")
                new_of_old[old : old + run] = np.arange(row, row + run)
                lo, hi = indptr[old], indptr[old + run]
                nnz_parts.append(self.row_nnz[old : old + run])
                idx_parts.append(self.indices[lo:hi])
                val_parts.append(self.data[lo:hi])
                old += run
                row += run
            if weights is not None:
                nnz_parts.append(np.array([weights[0].size], dtype=np.int64))
                idx_parts.append(weights[0])
                val_parts.append(weights[1])
                row += 1
        row_nnz = np.concatenate(nnz_parts) if nnz_parts else np.empty(0, dtype=np.int64)
        new_indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=new_indptr[1:])
        if new_indptr[-1]:
            indices = np.concatenate(idx_parts)
            data = np.concatenate(val_parts)
        else:
            indices = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)

        col_counts = self.col_indptr[1:] - self.col_indptr[:-1]
        if removed:
            gone = np.concatenate([self.indices[indptr[r] : indptr[r + 1]] for r in removed])
            col_counts -= np.bincount(gone, minlength=n_links)
            col_rows = self.col_rows[(new_of_old >= 0)[self.col_rows]]
            # Renumber in place: entry i's index is read before slot i is
            # written, and "clip" (no out-of-range ids here) skips the
            # defensive copy "raise" makes — one 8-byte-per-entry array less.
            new_of_old.take(col_rows, out=col_rows, mode="clip")
        else:
            col_rows = new_of_old.take(self.col_rows)
        cols = np.concatenate([w[0] for _, w in inserted]) if inserted else np.empty(0, np.int64)
        if cols.size:
            new_rows = np.repeat(
                np.fromiter((pos for pos, _ in inserted), dtype=np.int64, count=len(inserted)),
                [w[0].size for _, w in inserted],
            )
            if len(inserted) > 1:  # entries by link, then row: their CSC order
                order = np.lexsort((new_rows, cols))
                cols, new_rows = cols[order], new_rows[order]
            seg_count = col_counts[cols]
            at = np.cumsum(col_counts)[cols]  # the end of each link's segment
            # Rows usually arrive last; search only if one goes in earlier.
            if col_rows.size and (
                (seg_count > 0) & (col_rows[np.maximum(at - 1, 0)] > new_rows)
            ).any():
                at = _lower_bound(col_rows, at - seg_count, seg_count, new_rows)
            at += np.arange(at.size)  # positions in the result
            merged = np.empty(col_rows.size + at.size, dtype=np.int64)
            merged[at] = new_rows
            kept = np.ones(merged.size, dtype=bool)
            kept[at] = False
            merged[kept] = col_rows
            col_rows = merged
            col_counts += np.bincount(cols, minlength=n_links)
        col_indptr = np.zeros(n_links + 1, dtype=np.int64)
        np.cumsum(col_counts, out=col_indptr[1:])
        return LevelMatrix(
            n_flows=n_new,
            n_links=n_links,
            indptr=new_indptr,
            indices=indices,
            data=data,
            row_nnz=row_nnz,
            col_indptr=col_indptr,
            col_rows=col_rows,
        )

    def contrib(self, phi: np.ndarray) -> np.ndarray:
        """Each entry times its row's allocation weight in *phi* (nnz-long).

        Unit weights, the default, leave every entry as it is (``x * 1.0``
        is ``x``), so ``data`` itself is returned: read it, never write it.
        """
        if (phi == 1.0).all():
            return self.data
        return self.data * np.repeat(phi, self.row_nnz)

    def weighted(self, phi: np.ndarray) -> Weighted:
        """The three inputs of a fill that its demands do not enter:
        :meth:`contrib`, its per-link sum ``denom`` and the per-link entry
        count ``live``."""
        contrib = self.contrib(phi)
        denom = np.bincount(self.indices, weights=contrib, minlength=self.n_links)
        live = np.bincount(self.indices, minlength=self.n_links)
        return contrib, denom, live

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


@dataclass
class _AssembledLevel:
    """A provider's retained level: the last flow list it assembled."""

    flow_ids: List[int]
    row_keys: tuple
    matrix: LevelMatrix
    #: ``(phi bytes, denom, live)`` of the last weights filled on ``matrix``
    sums: Optional[Tuple[bytes, np.ndarray, np.ndarray]] = None


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
        #: per protocol name: do weights depend on the flow id (ECMP)?
        self._flow_keyed: Dict[str, bool] = {}
        #: the one level retained, however many controllers share the
        #: provider: a repeat of its rows takes it, a small edit of them is
        #: derived from it
        self._level: Optional[_AssembledLevel] = None
        self._assembled = {"build": 0, "edit": 0}

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

    def _row_keys(self, flows: Sequence[FlowSpec]) -> tuple:
        """``_row_key`` of every flow, in one comprehension."""
        keyed = self._flow_keyed
        try:
            return tuple(
                [(s.protocol, s.src, s.dst, s.flow_id if keyed[s.protocol] else 0) for s in flows]
            )
        except KeyError:  # a protocol seen for the first time
            return tuple([self._row_key(spec) for spec in flows])

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
        """The assembled CSR/CSC weight matrix for *flows*.

        The retained level is known by the identity of its rows — the
        ordered tuple of protocol, endpoints and (for flow-keyed protocols)
        the flow id.
        Weights, priorities and demands are applied by the caller per fill,
        so a list with the retained level's row keys returns its matrix
        without assembly, whatever the demands.

        Any other list replaces the retained level.  One of at least
        ``_EDIT_MIN_FLOWS`` flows that is the retained list with a few
        ``(flow_id, row key)`` entries taken out or put in (common entries
        in the same order; a re-announce with a new row key is one out and
        one in) edits the retained matrix; any other builds.  Both give
        equal arrays.
        """
        key = self._row_keys(flows)
        level = self._level
        if level is None or level.row_keys != key:
            level = self._level = self._assemble(flows, key)
        return level.matrix

    def _assemble(self, flows: Sequence[FlowSpec], key: tuple) -> _AssembledLevel:
        ids = [spec.flow_id for spec in flows]
        last = self._level
        script = None
        if len(ids) >= _EDIT_MIN_FLOWS and last is not None:
            script = _edit_script(
                last.flow_ids, last.row_keys, ids, key, int(_EDIT_MAX_SHARE * len(ids))
            )
        if script is None:
            self._assembled["build"] += 1
            matrix = LevelMatrix.build(
                [self.weights_for(spec) for spec in flows], self._topology.n_links
            )
        else:
            self._assembled["edit"] += 1
            removed, inserted = script
            matrix = last.matrix.edit(
                removed, [(pos, self.weights_for(flows[pos])) for pos in inserted]
            )
        return _AssembledLevel(ids, key, matrix)

    def weighted(self, matrix: LevelMatrix, phi: np.ndarray) -> Weighted:
        """:meth:`LevelMatrix.weighted`, with the per-link sums remembered
        on the retained level: a refill of its rows with the same weights
        and new demands (a demand-only epoch) takes them from there.  Sums
        of any other matrix are computed and not kept.  The sums are
        shared: read them, never write them.

        ``contrib`` is not kept (with non-unit weights it is one multiply
        per call): holding that nnz-long array between fills raised the
        peak RSS of a 512-flow epoch loop by ≈ 8 MB, though it is 350 kB
        (CPython 3.11 and glibc malloc on x86-64 Linux).
        """
        level = self._level
        if level is None or level.matrix is not matrix:
            return matrix.weighted(phi)
        key = phi.tobytes()
        if level.sums is not None and level.sums[0] == key:
            return (matrix.contrib(phi), *level.sums[1:])
        weighted = matrix.weighted(phi)
        level.sums = (key, *weighted[1:])
        return weighted

    def assembly_counts(self) -> Dict[str, int]:
        """Level matrices assembled so far: ``{"build": n, "edit": n}``."""
        return dict(self._assembled)

    def cache_size(self) -> int:
        """Number of memoized weight vectors (for memory-footprint checks)."""
        return len(self._cache)

    def memory_footprint_bytes(self) -> int:
        """Approximate bytes held by the cached weight rows plus the one
        retained level matrix, if any.

        Mirrors the paper's §4.2 memory estimate (< 6 MB per protocol for a
        512-node rack).
        """
        total = 0
        for idx, val in self._cache.values():
            total += idx.nbytes + val.nbytes
        if self._level is not None:
            total += self._level.matrix.nbytes()
        return total


def _lower_bound(
    values: np.ndarray, start: np.ndarray, count: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Per ``k``, the first position in the ascending run
    ``values[start[k] : start[k] + count[k]]`` whose value is not below
    ``keys[k]`` — a binary search per run, all runs in step."""
    at, left = start, count
    last = values.size - 1
    for _ in range(int(count.max()).bit_length() if count.size else 0):
        half = left >> 1
        mid = at + half
        below = (left > 0) & (values[np.minimum(mid, last)] < keys)
        at = np.where(below, mid + 1, at)
        left = np.where(below, left - half - 1, half)
    return at


def _equal_run(old: Sequence, i: int, new: Sequence, j: int, limit: int) -> int:
    """The largest ``t <= limit`` with ``old[i:i + t] == new[j:j + t]``,
    found with slice compares (C speed) in a bisection."""
    if old[i : i + limit] == new[j : j + limit]:
        return limit
    lo, hi = 0, limit
    while hi - lo > 1:  # the slices agree on ``lo`` entries, not on ``hi``
        mid = (lo + hi) // 2
        if old[i + lo : i + mid] == new[j + lo : j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _edit_script(
    old_ids: List[int], old_keys: tuple, new_ids: List[int], new_keys: tuple, limit: int
) -> Optional[Tuple[List[int], List[int]]]:
    """Rows to drop from the old list and to take from the new one so that
    what remains of both is the same sequence of ``(flow_id, row key)``
    entries: ``(removed, inserted)`` positions, each ascending, or ``None``
    once more than *limit* rows would change.

    Only equal entries are ever kept against each other, so any script
    returned is exact; the rules at a mismatch only steer it to a short
    one.  A flow whose row key changed goes out and comes back in.  An
    entry equal to the other list's next one marks a lone removal or
    insertion.  Otherwise an entry with no counterpart further on in the
    other list changes; when both have one (a reordered row), the one
    whose counterpart lies further away is the row that moved.
    """

    def same(a: int, b: int) -> bool:
        return old_ids[a] == new_ids[b] and old_keys[a] == new_keys[b]

    n_old, n_new = len(old_ids), len(new_ids)
    removed: List[int] = []
    inserted: List[int] = []
    in_old = in_new = None
    i = j = 0
    while True:
        run = _equal_run(old_ids, i, new_ids, j, min(n_old - i, n_new - j))
        run = _equal_run(old_keys, i, new_keys, j, run)
        i += run
        j += run
        if i == n_old or j == n_new:
            if len(removed) + len(inserted) + n_old - i + n_new - j > limit:
                return None
            removed.extend(range(i, n_old))
            inserted.extend(range(j, n_new))
            return removed, inserted
        if len(removed) + len(inserted) >= limit:
            return None
        if old_ids[i] == new_ids[j]:
            removed.append(i)
            inserted.append(j)
            i += 1
            j += 1
            continue
        if i + 1 < n_old and same(i + 1, j):
            drop = True
        elif j + 1 < n_new and same(i, j + 1):
            drop = False
        else:
            if in_old is None:
                in_old = dict(zip(old_ids, range(n_old)))
                in_new = dict(zip(new_ids, range(n_new)))
            p = in_new.get(old_ids[i], -1)  # where the old entry lies in new
            q = in_old.get(new_ids[j], -1)  # where the new entry lies in old
            old_stays = p > j and same(i, p)
            new_was = q > i and same(q, j)
            drop = not old_stays or (new_was and p - j >= q - i)
        if drop:
            removed.append(i)
            i += 1
        else:
            inserted.append(j)
            j += 1


def _weights_depend_on_flow_id(protocol: RoutingProtocol) -> bool:
    # Only ECMP-style protocols hash the flow id into the route; detect via
    # a marker attribute so third-party protocols can opt in.
    return getattr(protocol, "per_flow_paths", protocol.name == "ecmp")
