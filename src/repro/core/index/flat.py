"""Flat (exact brute-force) index.

The baseline every ANN index is measured against: a full scan with the
vectorized kernels from :mod:`repro.core.distances`.  Qdrant serves small or
not-yet-optimized segments exactly this way, which is why the optimizer's
``indexing_threshold`` exists.

The flat index does not copy vectors; it holds a reference to the arena and
the set of member offsets, so memory cost is O(members).
"""

from __future__ import annotations

import numpy as np

from .. import distances
from ..storage import VectorArena
from ..types import Distance
from .base import IndexStats, OffsetPredicate

__all__ = ["FlatIndex", "scan"]


def scan(
    arena: VectorArena,
    offsets: np.ndarray,
    queries: np.ndarray,
    k: int,
    distance: Distance,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact top-``k`` ``(offsets, scores)`` of each query over ``offsets``.

    The one flat-scan body behind segment scans and :class:`FlatIndex`.
    ``offsets`` must be strictly ascending.  When they are exactly
    ``0..n-1`` (no tombstone or filter removed a row) the kernel scores
    ``arena.view()`` in place; otherwise the rows are gathered once for the
    whole batch.  A masked scan of the full view is not used: BLAS rounds a
    row's dot product differently depending on its position in the matrix,
    so only scoring the same rows in the same order keeps results
    bit-identical.  Each query runs the single-query GEMV kernel (a batch
    GEMM rounds differently too), so element ``i`` equals a one-query scan.

    The in-place path takes no snapshot and searches hold no lock: an
    ``arena.overwrite`` landing mid-batch can be seen by some queries of
    the batch and not others, and a row being written can be read
    half-updated.  The gather path narrows that window to the copy.
    """
    if offsets.size == 0:
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        return [empty] * len(queries)
    if offsets[-1] == offsets.size - 1:
        matrix = arena.view()[: offsets.size]
    else:
        matrix = arena.take(offsets)
    out = []
    for query in queries:
        scores = distances.score_batch(matrix, query, distance)
        idx, top = distances.top_k(scores, k, distance)
        out.append((offsets[idx], top))
    return out


class FlatIndex:
    """Exact scan over a subset of arena offsets.

    Members are scanned in ascending offset order, so score ties resolve to
    the lower offset, as in a segment scan.
    """

    def __init__(self, arena: VectorArena, distance: Distance):
        self._arena = arena
        self.distance = distance
        self.stats = IndexStats()
        self._offsets: list[int] = []
        self._offsets_arr: np.ndarray | None = None  # cache, invalidated on add

    @property
    def size(self) -> int:
        return len(self._offsets)

    @property
    def supports_incremental_add(self) -> bool:
        return True

    def add(self, offset: int, vector: np.ndarray) -> None:
        self._offsets.append(int(offset))
        self._offsets_arr = None
        self.stats.inserts += 1

    def build(self, vectors: np.ndarray, offsets: np.ndarray) -> None:
        self._offsets = [int(o) for o in offsets]
        self._offsets_arr = None
        self.stats.inserts += len(self._offsets)

    def remove(self, offset: int) -> None:
        """Drop an offset (flat supports true deletes, not just tombstones)."""
        self._offsets.remove(int(offset))
        self._offsets_arr = None

    def _member_offsets(self) -> np.ndarray:
        if self._offsets_arr is None:
            self._offsets_arr = np.unique(np.asarray(self._offsets, dtype=np.int64))
        return self._offsets_arr

    def search(
        self,
        query: np.ndarray,
        k: int,
        *,
        predicate: OffsetPredicate | None = None,
        **params,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._scan(np.asarray(query)[None, :], k, predicate)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        predicate: OffsetPredicate | None = None,
        **params,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Batched exact search: one predicate pass + gather for the batch;
        element ``i`` is bit-identical to ``search(queries[i], k)``."""
        return self._scan(queries, k, predicate)

    def _scan(self, queries, k, predicate) -> list[tuple[np.ndarray, np.ndarray]]:
        offsets = self._member_offsets()
        if predicate is not None:
            keep = np.fromiter(
                (predicate(int(o)) for o in offsets), count=len(offsets), dtype=bool
            )
            offsets = offsets[keep]
        self.stats.distance_computations += int(offsets.size) * len(queries)
        return scan(self._arena, offsets, queries, k, self.distance)
