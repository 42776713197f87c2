"""Per-layer attribution for the traced run.

The traced run wraps the public entry points of every layer (the table in
:func:`entry_points`) from outside the program, so the program's code is
measured as it ships.  Each wrapper opens one span on the global
:mod:`repro.obs.trace` tracer named ``L:<layer>.<method>``.  The program's
own spans (``cluster.fanout``, ``rpc.*``, ...) are recorded as well and
the fan-out pool already re-parents its threads under the caller's span,
so wrapped calls that run on pool threads nest under the right parent.

Every timed operation of a workload is one trace rooted at an ``L:op``
span.  :class:`LayerProfile` folds each finished trace into per-span-name
totals: calls, inclusive time and *self* time, which is inclusive time
minus the part of the span's interval that its nearest wrapped descendants
cover (children running in parallel on pool threads are merged, not
summed).  The root's self time is what no layer accounts for.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro.obs.export import write_chrome_trace
from repro.obs.trace import configure, get_tracer

PREFIX = "L:"
ROOT = PREFIX + "op"
#: Spans the recording tracer holds before it drops new ones; each traced
#: operation's spans are drained as soon as it returns.
MAX_SPANS = 1_000_000
#: Spans kept for the Perfetto trace (those of the first traced operations).
KEEP_SPANS = 20_000


def entry_points() -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` of every wrapped entry point.

    Owners are classes, except :mod:`repro.core.distances`, whose kernels
    callers look up as module attributes (``distances.top_k``), so the
    module attribute is what gets wrapped.
    """
    from repro.core import distances
    from repro.core.cache import ResultCache, ShardResultCache
    from repro.core.client import SyncClient
    from repro.core.cluster import Cluster
    from repro.core.collection import Collection
    from repro.core.index.flat import FlatIndex
    from repro.core.index.hnsw import HnswIndex
    from repro.core.router import ShardRouter
    from repro.core.segment import Segment
    from repro.core.transport import LocalTransport
    from repro.core.wal import WriteAheadLog
    from repro.core.worker import Worker
    from repro.embed.model import HashingEmbedder

    table = {
        "embed": (HashingEmbedder, ["encode"]),
        "client": (SyncClient, ["search", "search_many", "upload"]),
        "cluster": (Cluster, ["search", "search_batch", "upsert", "delete",
                              "build_index"]),
        "router": (ShardRouter, ["partition", "partition_rows"]),
        "transport": (LocalTransport, ["call"]),
        "worker": (Worker, ["search", "search_batch", "search_fenced",
                            "search_batch_fenced", "upsert", "delete",
                            "build_index"]),
        "cache": (ResultCache, ["lookup", "fill"]),
        "cache.shard": (ShardResultCache, ["lookup", "fill"]),
        "collection": (Collection, ["search", "search_batch", "upsert",
                                    "delete"]),
        "wal": (WriteAheadLog, ["append", "append_columnar", "flush"]),
        "segment": (Segment, ["search", "search_batch", "upsert_batch",
                              "upsert_columnar", "delete"]),
        "index.hnsw": (HnswIndex, ["search", "search_batch", "build"]),
        "index.flat": (FlatIndex, ["search", "search_batch"]),
        "distances": (distances, ["score_batch", "cosine_similarity",
                                  "top_k", "merge_top_k"]),
    }
    return [(layer, owner, attr)
            for layer, (owner, attrs) in table.items() for attr in attrs]


#: Entry points whose instances the traced run keeps, to read their state
#: afterwards: segments searched in batches (tombstone ratios) and HNSW
#: indexes as they are built (distance and hop counters).
CAPTURED = {("segment", "search_batch"): "segment",
            ("index.hnsw", "build"): "index.hnsw"}


def _wrapped(fn, name: str, seen: dict | None):
    if seen is None:
        def wrapper(*args, **kwargs):
            with get_tracer().span(name):
                return fn(*args, **kwargs)
    else:
        def wrapper(self, *args, **kwargs):
            seen[id(self)] = self
            with get_tracer().span(name):
                return fn(self, *args, **kwargs)

    return functools.wraps(fn)(wrapper)


class Instrumentation:
    """Installs and removes the entry-point wrappers plus a recording tracer.

    ``on()``/``off()`` switch between a traced state and the untraced
    program, so one run can alternate traced and untraced blocks and price
    the tracing itself.
    """

    def __init__(self):
        #: ``layer -> {id: instance}`` for the entry points in :data:`CAPTURED`.
        self.seen: dict[str, dict] = {layer: {} for layer in CAPTURED.values()}
        self._points = [(owner, attr, owner.__dict__[attr], f"{PREFIX}{layer}.{attr}",
                         self.seen.get(CAPTURED.get((layer, attr))))
                        for layer, owner, attr in entry_points()]
        self._tracer = configure(enabled=False, max_spans=MAX_SPANS)
        self.active = False

    def on(self) -> None:
        for owner, attr, fn, name, seen in self._points:
            setattr(owner, attr, _wrapped(fn, name, seen))
        self._tracer.enabled = True
        self.active = True

    def off(self) -> None:
        self._tracer.enabled = False
        for owner, attr, fn, *_ in self._points:
            setattr(owner, attr, fn)
        self.active = False

    def close(self) -> None:
        self.off()
        self._tracer.reset()
        configure(enabled=False)

    @property
    def tracer(self):
        return self._tracer


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class LayerProfile:
    """Per-span-name calls, inclusive and self seconds of one phase."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.ops = 0

    def fold(self, records) -> None:
        """Add every ``L:op``-rooted trace in ``records`` (other roots, such
        as background maintenance passes, are not operations and are
        skipped)."""
        traces: dict[int, list] = defaultdict(list)
        for r in records:
            traces[r.trace_id].append(r)
        for recs in traces.values():
            by_id = {r.span_id: r for r in recs}
            root = next((r for r in recs if r.parent_id is None), None)
            if root is None or root.name != ROOT:
                continue
            self.ops += 1
            children: dict[int, list] = defaultdict(list)
            ours = [r for r in recs if r.name.startswith(PREFIX)]
            for r in ours:
                parent = by_id.get(r.parent_id)
                while parent is not None and not parent.name.startswith(PREFIX):
                    parent = by_id.get(parent.parent_id)
                if parent is not None:
                    children[parent.span_id].append((r.start_s, r.end_s))
            for r in ours:
                name = r.name[len(PREFIX):]
                dur = r.end_s - r.start_s
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - _covered(
                    children[r.span_id], r.start_s, r.end_s)

    def _sum(self, table, prefix: str) -> tuple[float, int]:
        keys = [k for k in self.calls
                if k == prefix or k.startswith((prefix + ".", prefix + "_"))]
        return sum(table[k] for k in keys), sum(self.calls[k] for k in keys)

    def self_us_per_call(self, name: str) -> float:
        """Mean self microseconds per call of the spans named ``name``,
        ``name.*`` or ``name_*`` (so ``worker.search`` covers
        ``worker.search_fenced``); 0 when the layer was not called."""
        total, calls = self._sum(self.self_s, name)
        return 1e6 * total / calls if calls else 0.0

    def incl_us_per_call(self, name: str) -> float:
        total, calls = self._sum(self.incl_s, name)
        return 1e6 * total / calls if calls else 0.0

    def self_us_per_op(self, name: str) -> float:
        total, _ = self._sum(self.self_s, name)
        return 1e6 * total / self.ops if self.ops else 0.0

    def calls_per_op(self, name: str) -> float:
        _, calls = self._sum(self.self_s, name)
        return calls / self.ops if self.ops else 0.0


class Probe:
    """Times one closed-loop operation; in a traced block, also roots its
    span tree at ``L:op`` and folds it into the named phase's profile.

    Untraced runs take the same code path with the tracer off, so traced
    and untraced latencies differ only by the tracing itself.
    """

    def __init__(self, instrumentation: Instrumentation | None, clock):
        self.inst = instrumentation
        self.clock = clock
        self.profiles: dict[str, LayerProfile] = defaultdict(LayerProfile)
        self._kept: list = []

    @property
    def tracing(self) -> bool:
        return self.inst is not None and self.inst.active

    def call(self, phase: str, fn, *args, **kwargs):
        """Run ``fn``; returns ``(result, seconds)``."""
        if not self.tracing:
            t0 = self.clock()
            out = fn(*args, **kwargs)
            return out, self.clock() - t0
        tracer = self.inst.tracer
        with tracer.span(ROOT, {"phase": phase}):
            t0 = self.clock()
            out = fn(*args, **kwargs)
            elapsed = self.clock() - t0
        records = tracer.drain()
        self.profiles[phase].fold(records)
        if len(self._kept) < KEEP_SPANS:
            self._kept.extend(records[: KEEP_SPANS - len(self._kept)])
        return out, elapsed

    def write_trace(self, path: str) -> str | None:
        """Export the first traced operations as a Perfetto-loadable file."""
        if not self._kept:
            return None
        return write_chrome_trace(path, self._kept)
