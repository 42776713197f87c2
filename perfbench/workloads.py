"""The benchmark's three workloads on a live 4-worker, 4-shard cluster.

Each workload makes its inputs from the seed (not timed), sets the
program up several times (``setup_s`` is the median), runs its timed body
as one closed-loop client thread, then checks the outputs against an
oracle outside the program.  Load is closed-loop: the next operation is
sent when the previous one returns, as the paper's clients wait for each
batch.

* ``ingest-hnsw`` -- the paper's whole pipeline on a fresh cluster: embed a
  seeded peS2o corpus, upload it with deferred indexing and the WAL on,
  build HNSW, then replay BV-BRC term queries.
* ``query-flat`` -- the per-query hot path on a flat 20k x 256 collection of
  seeded synthetic vectors: unique term queries one at a time, alternating
  with the same stream in batches of 16.
* ``mixed-zipf`` -- Zipf-skewed repeated reads beside batch-32 upserts and
  deletes, with the result cache and background maintenance on.

Two properties of the host shape the statistics.  The default BLAS thread
pool under the 4-thread fan-out oversubscribes two cores, and single flat
queries then mix a ~2 ms mode with ~8 ms and 20-30 ms ones, in stretches of
seconds whose share of a run changes from run to run.  The host itself has
slow periods (on a shared 2-vCPU VM, one Python thread ran ~12% slower for
stretches of ~15 s), which the rounds of every body (ROUNDS) spread over
all metrics alike.  No central latency of the whole run is steady
under the first: the plain median flips between the modes.  Even the slow
stretches hold about a third of fast queries, so ``query_p25_us``, the lower
quartile of all single queries, stays steady, and the details line gives the
plain median, the closed-loop rate and the slow stretches' share.
``query_p99_us`` is the median over windows of P99_QUERIES queries of each
one's p99, so a slow period of the host that covers a minority of the run
does not move it.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    VectorDBError,
    VectorParams,
    WalConfig,
)
from repro.core.client import SyncClient
from repro.core.cluster import Cluster
from repro.core.router import ShardRouter
from repro.embed.model import HashingEmbedder
from repro.workloads.bvbrc import BvBrcTerms
from repro.workloads.pes2o import Pes2oCorpus
from repro.workloads.skew import SkewedQueryWorkload
from repro.workloads.vocabulary import BIOLOGY_TERMS, TOPICS

from layertrace import Probe

NAME = "papers"
DIM = 256
WORKERS = 4          # one Polaris node: four Qdrant workers (paper §3.2)
SHARDS = 4
LIMIT = 10
UPLOAD_BATCH = 32    # the paper's best insertion batch size (§3.2)
QUERY_BATCH = 16
SCORE_TOL = 1e-5
#: Exact results carry this many entries past the k-th, for ties at the cut.
TIE_SLACK = 5

#: ingest-hnsw: corpus size and the bound on text length.  Full-length
#: synthetic papers (up to 400k chars) cost ~5 ms each to embed; 2000 chars
#: keep the embed phase near half a second.
INGEST_DOCS = 4000
INGEST_MAX_CHARS = 2000
#: query-flat / mixed-zipf collection size.
FLAT_POINTS = 20_000
#: mixed-zipf: one write in WRITE_EVERY operations, and the canonical query
#: terms per topic whose repeats the cache can serve.
WRITE_EVERY = 20
TERMS_PER_TOPIC = 6
#: Rows the oracle's model of the collection grows by when new ids arrive.
MODEL_GROWTH = 4096
#: Queries generated per run; a faster program wraps around the stream.
QUERY_STREAM = 6000
#: Minimum single queries per run, so query_p99_us has at least five windows.
MIN_QUERIES = 1000
#: query_p99_us is the median over consecutive windows of P99_QUERIES
#: queries of each one's p99.  A stretch of SLICE_QUERIES queries whose
#: median exceeds SLOW_FACTOR times the run's query_p25_us counts as slow
#: (the details line's query_slow_share).
P99_QUERIES = 200
SLICE_QUERIES = 100
SLOW_FACTOR = 1.5
#: Every timed body runs in ROUNDS rounds, each a phase of single operations
#: and then one of batched reads that takes BATCH_SHARE of the round, so a
#: slow period of the host (seconds long) falls on every metric alike.  The
#: set-ups (setup_s is their median) spread over the rounds too: every round
#: but the first starts with a throw-away set-up, closed again at once.
ROUNDS = 6
BATCH_SHARE = 0.3
#: Traced runs alternate traced and untraced blocks of this many operations.
TRACE_BLOCK = 25
#: Queries the bare-numpy floor times.
FLOOR_QUERIES = 300


@dataclass
class Outcome:
    """What one run measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class Run:
    """Per-run state shared by the workloads: seed, time budget, probe,
    operation counters and the oracle's findings."""

    def __init__(self, seed: int, seconds: float, instrumentation, out_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.inst = instrumentation
        self.clock = time.perf_counter
        self.probe = Probe(instrumentation, self.clock)
        self.out_dir = out_dir
        self.outcome = Outcome()

    @property
    def traced(self) -> bool:
        return self.inst is not None

    def op(self, phase: str, fn, *args, **kwargs):
        """One timed client operation; returns ``(result, seconds)`` with
        ``result=None`` when the program raised or served a degraded read."""
        self.outcome.attempted += 1
        try:
            out, elapsed = self.probe.call(phase, fn, *args, **kwargs)
        except VectorDBError as exc:
            self.outcome.failed += 1
            self.outcome.details.setdefault("op_errors", []).append(
                f"{phase}: {type(exc).__name__}: {exc}")
            return None, 0.0
        results = out if phase == "batch" else [out]
        if any(getattr(r, "degraded", False) for r in results):
            self.outcome.failed += 1
            return None, elapsed
        return out, elapsed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.outcome.errors.append(message)

    def block(self, i: int) -> None:
        """In a traced run, trace every other block of operations."""
        if self.inst is None or i % TRACE_BLOCK:
            return
        if (i // TRACE_BLOCK) % 2 == 0:
            self.inst.on()
        else:
            self.inst.off()

    def trace_all(self) -> None:
        if self.inst is not None:
            self.inst.on()

    def record_peak_rss(self) -> None:
        """Record the process's peak resident set so far."""
        self.outcome.e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


# -- helpers -----------------------------------------------------------------


def pct_us(samples_s, q: float) -> float:
    return float(np.percentile(np.asarray(samples_s), q)) * 1e6


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1
    return (matrix / norms).astype(np.float32)


def embed_terms(terms: list[str]) -> np.ndarray:
    """Query vectors for term strings (an encoder of its own, so the
    embed layer's timed cost in ingest-hnsw starts cold)."""
    encoder = HashingEmbedder(dim=DIM)
    return np.stack([encoder.encode(t) for t in terms])


def bvbrc_queries(seed: int) -> np.ndarray:
    """Unique BV-BRC term queries, embedded."""
    terms = list(dict.fromkeys(BvBrcTerms(QUERY_STREAM, seed=seed).terms()))
    return embed_terms(terms)


def synthetic_vectors(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng((seed, 1)).normal(size=(n, DIM)).astype(np.float32)


def as_points(vectors: np.ndarray) -> list[PointStruct]:
    """Points with ids 0..n-1, built just before each upload so the harness
    keeps no point objects alive through the timed phases."""
    return [PointStruct(id=i, vector=v) for i, v in enumerate(vectors)]


def exact_top(matrix_unit: np.ndarray, ids: np.ndarray, queries: np.ndarray,
              dead: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact cosine top ``LIMIT + TIE_SLACK`` (ids, scores) per query, best
    first; rows flagged in ``dead`` never qualify."""
    out, k = [], LIMIT + TIE_SLACK
    for start in range(0, len(queries), 256):
        scores = unit_rows(queries[start:start + 256]) @ matrix_unit.T
        if dead is not None:
            scores[:, dead] = -np.inf
        for row in scores:
            top = np.argpartition(-row, k)[:k]
            top = top[np.lexsort((ids[top], -row[top]))]
            out.append((ids[top], row[top]))
    return out


def packed(hits) -> tuple[np.ndarray, np.ndarray]:
    """A result as ``(ids, scores)`` arrays: the oracle keeps thousands of
    results, and holding them as arrays keeps the harness's own objects
    out of the interpreter's garbage-collection work during the run."""
    return (np.fromiter((h.id for h in hits), dtype=np.int64, count=len(hits)),
            np.fromiter((h.score for h in hits), dtype=np.float64, count=len(hits)))


def compare_hits(result, ref_ids, ref_scores) -> tuple[bool, int]:
    """Does a packed ``result`` match the exact top-k?  Scores must agree
    within SCORE_TOL position by position; ids must be equal except where
    the exact scores at that position tie within SCORE_TOL (rounding may
    then order them either way, even across the k-th place).  Also returns
    how many of the exact top-k ids the result contains (for recall)."""
    ids, scores = result
    top_ids, top_scores = ref_ids[:LIMIT], ref_scores[:LIMIT]
    found = len(set(ids.tolist()) & set(top_ids.tolist()))
    if len(ids) != len(top_ids) or np.any(np.abs(scores - top_scores) > SCORE_TOL):
        return False, found
    for pos in np.flatnonzero(ids != top_ids):
        tied = np.abs(ref_scores - ref_scores[pos]) <= SCORE_TOL
        if ids[pos] not in set(ref_ids[tied].tolist()):
            return False, found
    return True, found


def same_hits(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def new_cluster(config: CollectionConfig) -> tuple[Cluster, SyncClient]:
    cluster = Cluster.with_workers(WORKERS)
    cluster.create_collection(config)
    return cluster, SyncClient(cluster, NAME)


def close_cluster(cluster: Cluster) -> None:
    cluster.drop_collection(NAME)
    cluster.close()


class Setups:
    """Times each set-up made by ``make(*args)`` (cluster first in the
    returned tuple) and collects the batch latencies of every
    :meth:`upload`.  Callers build the points a set-up uploads before
    calling :meth:`build`, so input generation stays off its clock."""

    def __init__(self, run: Run, make):
        self.run, self.make = run, make
        self.times: list[float] = []
        self.upload_lat: list[float] = []

    def build(self, *args):
        t0 = self.run.clock()
        state = self.make(*args)
        self.times.append(self.run.clock() - t0)
        return state

    def upload(self, client: SyncClient, points: list[PointStruct]) -> None:
        """One timed upload; per-batch latency is convert + request, as the
        client sees it."""
        client.reset_timings()
        self.run.op("upload", client.upload, points, batch_size=UPLOAD_BATCH)
        t = client.upload_timings
        self.upload_lat.extend(c + r for c, r in zip(t.convert, t.request))

    @staticmethod
    def discard(state) -> None:
        """Close a repeat's cluster and collect it, so repeats neither pile
        up in memory nor leave garbage for the timed body."""
        close_cluster(state[0])
        gc.collect()

    def record(self) -> None:
        self.run.outcome.e2e["setup_s"] = float(np.median(self.times))
        self.run.outcome.details["setup_repeats_s"] = self.times


def rounds(run: Run, seconds: float, throwaway):
    """``(end of the single phase, end of the round)`` for the ROUNDS rounds
    of a body that fills ``seconds`` from now.  Every round but the first
    starts with ``throwaway()``, a set-up closed again at once; the peak
    resident set is read before the first of them, while the measured
    cluster is the only one."""
    start = run.clock()
    for r in range(ROUNDS):
        if r == 1:
            run.record_peak_rss()
        if r:
            throwaway()
        end = start + seconds * (r + 1) / ROUNDS
        yield end - BATCH_SHARE * seconds / ROUNDS, end


@dataclass
class Replay:
    """Single queries of a run's rounds: stream positions, results and
    latencies (untraced and traced), and the first batched result per
    stream position."""

    indices: list[int] = field(default_factory=list)
    results: list[tuple] = field(default_factory=list)
    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    batch: dict[int, tuple] = field(default_factory=dict)
    spent: list[float] = field(default_factory=list)
    ops: int = 0


def replay_single(run: Run, client: SyncClient, queries: np.ndarray, deadline: float,
                  log: Replay) -> None:
    """Closed-loop single-query replay until ``deadline`` (and at least a
    round's share of MIN_QUERIES), going on where ``log`` left the stream."""
    first = log.ops
    while log.ops - first < MIN_QUERIES // ROUNDS or run.clock() < deadline:
        run.block(log.ops)
        qi = log.ops % len(queries)
        res, dt = run.op("query", client.search, queries[qi], limit=LIMIT)
        if res is not None:
            log.indices.append(qi)
            log.results.append(packed(res))
            (log.traced if run.probe.tracing else log.plain).append(dt)
        log.ops += 1
    run.trace_all()


def replay_batches(run: Run, client: SyncClient, queries: np.ndarray,
                   deadline: float, spent: list[float]) -> dict[int, tuple]:
    """``search_many`` over the stream in order until ``deadline`` (at least
    one batch), appending each batch's latency to ``spent``; returns the
    first result per query index.  Every current segment is searched here,
    so a traced run reads segment state from the instances the last call
    captures."""
    if run.traced:
        run.inst.seen["segment"].clear()
    results: dict[int, tuple] = {}
    start, n0 = 0, len(spent)
    while len(spent) == n0 or run.clock() < deadline:
        idx = [(start + j) % len(queries) for j in range(QUERY_BATCH)]
        res, dt = run.op("batch", client.search_many, list(queries[idx]),
                         limit=LIMIT, batch_size=QUERY_BATCH)
        if res is not None:
            for qi, hits in zip(idx, res):
                if qi not in results:
                    results[qi] = packed(hits)
            spent.append(dt)
        start += QUERY_BATCH
    return results


def batch_metrics(run: Run, spent: list[float]) -> None:
    run.outcome.e2e["batch_query_qps"] = QUERY_BATCH / float(np.median(spent))
    run.outcome.details.update(batch_samples=len(spent),
                               batch_mean_qps=QUERY_BATCH * len(spent) / sum(spent))


def stretches_of(x: np.ndarray, n: int) -> list[np.ndarray]:
    """Consecutive whole stretches of ``n`` samples (all of ``x`` when it
    is shorter, as in the untraced half of a short traced run)."""
    return [x[i:i + n] for i in range(0, len(x) - n + 1, n)] or [x]


def query_metrics(run: Run, plain: list[float], traced: list[float]) -> None:
    e2e, details = run.outcome.e2e, run.outcome.details
    x = np.asarray(plain)
    e2e["query_p25_us"] = pct_us(x, 25)
    e2e["query_p99_us"] = float(np.median(
        [pct_us(part, 99) for part in stretches_of(x, P99_QUERIES)]))
    stretches = np.asarray([pct_us(part, 50) for part in stretches_of(x, SLICE_QUERIES)])
    details.update(query_samples=len(x), query_p99_windows=len(stretches_of(x, P99_QUERIES)),
                   query_p50_all_us=pct_us(x, 50),
                   query_qps=len(x) / x.sum(),
                   query_slow_share=float(np.mean(stretches > SLOW_FACTOR * e2e["query_p25_us"])),
                   query_stretch_p50_us=[round(v) for v in stretches])
    if traced:
        run.outcome.layers["obs.tracing_overhead_frac"] = (
            pct_us(traced, 50) / pct_us(x, 50) - 1.0)
        details["traced_query_samples"] = len(traced)


def floor_scan(run: Run, ids: np.ndarray, matrix_unit: np.ndarray,
               queries: np.ndarray) -> None:
    """The bare-numpy floor: ``X_shard @ q`` + ``argpartition`` over each
    shard's own matrix, shards one after another, per query."""
    shards = ShardRouter(SHARDS).partition_rows(ids)
    mats = [np.ascontiguousarray(matrix_unit[rows]) for rows in shards.values()]
    qs = unit_rows(queries[:FLOOR_QUERIES])
    times = []
    for q in qs:
        t0 = run.clock()
        for m in mats:
            s = m @ q
            np.argpartition(-s, LIMIT)[:LIMIT]
        times.append(run.clock() - t0)
    layers = run.outcome.layers
    layers["floor.scan_us"] = pct_us(times, 50)
    layers["floor.overhead_ratio"] = run.outcome.e2e["query_p25_us"] / layers["floor.scan_us"]


def common_layers(run: Run, cluster: Cluster, convert: list[float]) -> None:
    """Per-layer metrics every workload reports the same way."""
    prof = run.probe.profiles
    q, b = prof["query"], prof["batch"]
    w = prof["write"] if prof["write"].ops else prof["upload"]
    layers = run.outcome.layers
    layers["client.self_us"] = q.self_us_per_call("client.search")
    layers["client.convert_us"] = 1e6 * float(np.mean(convert)) if convert else 0.0
    layers["cluster.search.self_us"] = q.self_us_per_call("cluster.search")
    layers["cluster.search_batch.self_us_per_query"] = (
        b.self_us_per_op("cluster.search_batch") / QUERY_BATCH)
    layers["cluster.upsert.self_us"] = w.self_us_per_call("cluster.upsert")
    layers["cluster.rpcs_per_query"] = q.calls_per_op("transport.call")
    layers["router.partition_us"] = w.incl_us_per_call("router.partition")
    layers["transport.self_us"] = q.self_us_per_call("transport.call")
    layers["transport.calls"] = float(sum(p.calls.get("transport.call", 0)
                                          for p in prof.values()))
    layers["worker.search.self_us"] = q.self_us_per_call("worker.search")
    layers["worker.upsert.self_us"] = w.self_us_per_call("worker.upsert")
    layers["collection.search.self_us"] = q.self_us_per_call("collection.search")
    layers["collection.upsert.self_us"] = w.self_us_per_call("collection.upsert")
    layers["segment.search.self_us"] = q.self_us_per_call("segment.search")
    layers["index.hnsw.search.self_us"] = q.self_us_per_call("index.hnsw.search")
    layers["distances.score_us"] = q.self_us_per_call("distances.score_batch")
    layers["distances.topk_us"] = q.self_us_per_call("distances.top_k")
    layers["distances.calls_per_query"] = q.calls_per_op("distances")
    layers["obs.unattributed_us"] = q.self_us_per_op("op")
    tel = cluster.telemetry()
    layers["failover.retries"] = float(tel.failover.retries)
    layers["failover.failovers"] = float(tel.failover.failovers)
    infos = cluster.info(NAME)
    layers["collection.segments_per_shard"] = float(np.mean([i.segments_count for i in infos]))
    segments = [s for s in run.inst.seen["segment"].values() if len(s)]
    layers["segment.deleted_ratio"] = (
        float(np.mean([s.deleted_ratio for s in segments])) if segments else 0.0)
    layers["ops_failed_frac"] = run.outcome.failed / max(run.outcome.attempted, 1)


def worker_imbalance(pairs) -> float:
    """Max over mean of the workers' search busy time, summed over
    ``(before, after)`` telemetry pairs."""
    busy: dict[str, float] = {}
    for before, after in pairs:
        for w, t in after.workers.items():
            busy[w] = busy.get(w, 0.0) + t.search_seconds - before.workers[w].search_seconds
    mean = float(np.mean(list(busy.values())))
    return max(busy.values()) / mean if mean > 0 else 0.0


def maintenance_layers(run: Run, cluster: Cluster) -> None:
    stats = cluster.maintenance_stats(NAME).values()
    drivers = [s["driver"] for s in stats if "driver" in s]
    passes = sum(d["passes"] for d in drivers)
    layers = run.outcome.layers
    layers["maint.passes"] = float(passes)
    layers["maint.pass_s"] = sum(d["busy_seconds"] for d in drivers) / passes if passes else 0.0
    layers["maint.swaps"] = float(sum(s["swaps"] for s in stats))


# -- ingest-hnsw ---------------------------------------------------------------


def ingest_hnsw(run: Run) -> Outcome:
    corpus = Pes2oCorpus(INGEST_DOCS, seed=run.seed, max_chars=INGEST_MAX_CHARS)
    texts = [paper.text for paper in corpus]
    queries = bvbrc_queries(run.seed)
    wal_root = tempfile.mkdtemp(prefix="wal-", dir=run.out_dir)
    out = run.outcome
    try:
        def make():
            # WAL on, one flush per record, no fsync; deferred indexing.
            config = CollectionConfig(
                NAME, VectorParams(size=DIM, distance=Distance.COSINE),
                shard_number=SHARDS,
                optimizer=OptimizerConfig(indexing_threshold=0),
                wal=WalConfig(enabled=True, path=tempfile.mkdtemp(dir=wal_root) + os.sep,
                              flush_every_n=1, sync_every_write=False),
            )
            return new_cluster(config)

        # The embed → upload → index → query pipeline runs once.  One
        # upload lasts ~0.1 s, so each throw-away set-up uploads the corpus
        # again (upsert_p50_us pools them with the pipeline's).
        def throwaway():
            state = setups.build()
            setups.upload(state[1], as_points(vectors))
            setups.discard(state)

        setups = Setups(run, make)
        run.trace_all()
        t_start = run.clock()
        embedder = HashingEmbedder(dim=DIM)
        vectors, embed_s = run.op(
            "embed", lambda: np.stack([embedder.encode(t) for t in texts]))
        cluster, client = setups.build()
        before_upload = cluster.telemetry()
        setups.upload(client, as_points(vectors))
        after_upload = cluster.telemetry()
        convert = list(client.upload_timings.convert)
        _, build_s = run.op("build", cluster.build_index, NAME, "hnsw")
        after_build = cluster.telemetry()

        log, pairs = Replay(), []
        hnsw = run.inst.seen["index.hnsw"].values() if run.traced else []
        dist = hops = 0
        remaining = max(run.seconds - (run.clock() - t_start), 0.0)
        for single_end, round_end in rounds(run, remaining, throwaway):
            before = cluster.telemetry()
            dist -= sum(i.stats.distance_computations for i in hnsw)
            hops -= sum(i.stats.hops for i in hnsw)
            replay_single(run, client, queries, single_end, log)
            dist += sum(i.stats.distance_computations for i in hnsw)
            hops += sum(i.stats.hops for i in hnsw)
            pairs.append((before, cluster.telemetry()))
            for qi, res in replay_batches(run, client, queries, round_end, log.spent).items():
                log.batch.setdefault(qi, res)
        batch_metrics(run, log.spent)

        setups.record()
        out.e2e["upsert_p50_us"] = pct_us(setups.upload_lat, 50)
        query_metrics(run, log.plain, log.traced)
        out.details.update(embed_s=embed_s, index_build_s=build_s,
                           upsert_samples=len(setups.upload_lat))

        # Oracle: every point landed, retrieve returns what was embedded,
        # recall against exact search over the embedded corpus.
        run.check(client.count() == len(texts),
                  f"count {client.count()} != {len(texts)}")
        rng = np.random.default_rng((run.seed, 7))
        for pid in rng.choice(len(texts), 50, replace=False).tolist():
            rec = client.retrieve(pid, with_vector=True)
            if not np.allclose(np.asarray(rec.vector), unit_rows(vectors[pid:pid + 1])[0],
                               atol=1e-6):
                run.check(False, f"retrieve({pid}) returned another vector")
                break
        unit = unit_rows(vectors)
        ids = np.arange(len(texts), dtype=np.int64)
        uniq = sorted(set(log.indices))
        exact = dict(zip(uniq, exact_top(unit, ids, queries[uniq])))
        found = sum(compare_hits(res, *exact[qi])[1]
                    for qi, res in zip(log.indices, log.results))
        out.e2e["recall_at_10"] = found / (LIMIT * len(log.results))
        run.check(out.e2e["recall_at_10"] >= 0.9,
                  f"recall@10 {out.e2e['recall_at_10']:.3f} below 0.9")

        if run.traced:
            prof = run.probe.profiles
            layers = out.layers
            layers["embed_docs_per_s"] = len(texts) / embed_s
            layers["embed.encode_us"] = prof["embed"].self_us_per_call("embed.encode")
            layers["index_build_s"] = build_s
            layers["index.hnsw.build_s"] = prof["build"].incl_s["index.hnsw.build"]
            layers["index.hnsw.build_dist"] = float(
                after_build.total_distance_computations - after_upload.total_distance_computations)
            nq = len(log.plain) + len(log.traced)
            layers["index.hnsw.dist_per_query"] = dist / nq
            layers["index.hnsw.hops_per_query"] = hops / nq
            layers["worker.search_imbalance"] = worker_imbalance(pairs)
            wal = after_upload.diff(before_upload)
            layers["wal.append_us"] = prof["upload"].incl_us_per_call("wal.append")
            layers["wal.bytes_per_user_byte"] = (
                sum(w.wal_bytes for w in wal.workers.values()) / vectors.nbytes)
            common_layers(run, cluster, convert)
            floor_scan(run, ids, unit, queries)
        close_cluster(cluster)
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    return out


# -- query-flat ------------------------------------------------------------------


def query_flat(run: Run) -> Outcome:
    vectors = synthetic_vectors(run.seed, FLAT_POINTS)
    queries = bvbrc_queries(run.seed)
    out = run.outcome

    def make(points):
        cluster, client = new_cluster(CollectionConfig(
            NAME, VectorParams(size=DIM, distance=Distance.COSINE), shard_number=SHARDS))
        setups.upload(client, points)
        return cluster, client

    setups = Setups(run, make)
    run.trace_all()
    cluster, client = setups.build(as_points(vectors))
    convert = list(client.upload_timings.convert)
    log, pairs = Replay(), []

    def throwaway():
        setups.discard(setups.build(as_points(vectors)))

    for single_end, round_end in rounds(run, run.seconds, throwaway):
        before = cluster.telemetry()
        replay_single(run, client, queries, single_end, log)
        pairs.append((before, cluster.telemetry()))
        for qi, res in replay_batches(run, client, queries, round_end, log.spent).items():
            log.batch.setdefault(qi, res)
    batch_metrics(run, log.spent)

    setups.record()
    out.e2e["upsert_p50_us"] = pct_us(setups.upload_lat, 50)
    query_metrics(run, log.plain, log.traced)
    out.details.update(upsert_samples=len(setups.upload_lat))

    # Oracle: exact numpy search; batched results equal single results.
    run.check(client.count() == FLAT_POINTS, f"count {client.count()} != {FLAT_POINTS}")
    unit = unit_rows(vectors)
    ids = np.arange(FLAT_POINTS, dtype=np.int64)
    uniq = sorted(set(log.indices))
    exact = dict(zip(uniq, exact_top(unit, ids, queries[uniq])))
    found = bad = 0
    single: dict[int, tuple] = {}
    for qi, res in zip(log.indices, log.results):
        ok, n = compare_hits(res, *exact[qi])
        found += n
        bad += not ok
        single.setdefault(qi, res)
    run.check(bad == 0, f"{bad} of {len(log.results)} queries differ from exact search")
    out.e2e["recall_at_10"] = found / (LIMIT * len(log.results))
    mismatched = sum(not same_hits(res, single[qi])
                     for qi, res in log.batch.items() if qi in single)
    run.check(mismatched == 0, f"{mismatched} batched results differ from single results")

    if run.traced:
        out.layers["worker.search_imbalance"] = worker_imbalance(pairs)
        common_layers(run, cluster, convert)
        floor_scan(run, ids, unit, queries)
    close_cluster(cluster)
    return out


# -- mixed-zipf ------------------------------------------------------------------


class LiveModel:
    """The benchmark's own model of the collection: a vector per id ever
    written and a live mask; exact search over it is the oracle."""

    def __init__(self, vectors: np.ndarray):
        n = len(vectors)
        self.matrix = unit_rows(vectors)
        self.live = np.ones(n, dtype=bool)
        self.next_id = n

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.live[:self.next_id])

    def upsert(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        need = int(ids.max()) + 1
        if need > len(self.live):
            # Grow in steps of MODEL_GROWTH rows, not per write.
            cap = need + MODEL_GROWTH
            self.matrix = np.concatenate(
                [self.matrix, np.zeros((cap - len(self.live), DIM), dtype=np.float32)])
            self.live = np.concatenate([self.live, np.zeros(cap - len(self.live), dtype=bool)])
        self.matrix[ids] = unit_rows(vectors)
        self.live[ids] = True
        self.next_id = max(self.next_id, int(ids.max()) + 1)

    def delete(self, ids: np.ndarray) -> None:
        self.live[ids] = False

    def exact(self, queries: np.ndarray):
        n = self.next_id
        return exact_top(self.matrix[:n], np.arange(n), queries, ~self.live[:n])


def zipf_stream(seed: int, n: int) -> tuple[np.ndarray, list[int]]:
    """A small pool of canonical term queries per topic, and a replay that
    draws the topic by Zipf (s=1.0) and the term uniformly from its pool,
    so repeats are the traffic's own."""
    pool_terms, offsets = [], {}
    for k, topic in enumerate(TOPICS):
        offsets[topic] = len(pool_terms)
        for j in range(TERMS_PER_TOPIC):
            words = np.random.default_rng((seed, k, j)).choice(
                BIOLOGY_TERMS[topic], size=3, replace=False)
            pool_terms.append(" ".join(str(w) for w in words))
    skew = SkewedQueryWorkload(n, skew=1.0, seed=seed)
    stream = [offsets[skew.topic_of(i)]
              + int(np.random.default_rng((seed, i, 1)).integers(TERMS_PER_TOPIC))
              for i in range(n)]
    return embed_terms(pool_terms), stream


def mixed_zipf(run: Run) -> Outcome:
    vectors = synthetic_vectors(run.seed, FLAT_POINTS)
    pool, stream = zipf_stream(run.seed, 12_000)
    out = run.outcome

    def make(points):
        cluster, client = new_cluster(CollectionConfig(
            NAME, VectorParams(size=DIM, distance=Distance.COSINE), shard_number=SHARDS))
        run.op("upload", client.upload, points, batch_size=UPLOAD_BATCH)
        cluster.enable_cache()
        cluster.enable_maintenance(NAME)
        return cluster, client

    setups = Setups(run, make)
    run.trace_all()
    cluster, client = setups.build(as_points(vectors))
    client.reset_timings()
    model = LiveModel(vectors)
    wrng = np.random.default_rng((run.seed, 99))
    # Batched reads replay the same Zipf stream; search_many is not served
    # from the cache, so they scan the churned state.
    batch_q = stream[:QUERY_BATCH * 64]
    before = cluster.telemetry()
    plain, traced, writes_lat, upserts_lat, spent = [], [], [], [], []
    checked = found = bad = writes = 0
    min_ops = MIN_QUERIES * WRITE_EVERY // (WRITE_EVERY - 1) // ROUNDS

    def sample(res, ref) -> None:
        nonlocal checked, found, bad
        ok, n = compare_hits(res, *ref)
        checked += 1
        found += n
        bad += not ok

    def throwaway():
        setups.discard(setups.build(as_points(vectors)))

    i = 0
    for deadline, round_end in rounds(run, run.seconds, throwaway):
        first = i
        while i - first < min_ops or run.clock() < deadline:
            run.block(i)
            if i % WRITE_EVERY == WRITE_EVERY - 1:
                live = model.ids()
                if writes % 2 == 0:
                    # Half new ids, half overwrites of live ids.
                    ids = np.concatenate([
                        wrng.choice(live, UPLOAD_BATCH // 2, replace=False),
                        np.arange(model.next_id, model.next_id + UPLOAD_BATCH // 2)])
                    vecs = wrng.normal(size=(UPLOAD_BATCH, DIM)).astype(np.float32)
                    batch = [PointStruct(id=int(p), vector=v) for p, v in zip(ids, vecs)]
                    res, dt = run.op("write", client.upload, batch, batch_size=UPLOAD_BATCH)
                    if res is not None:
                        model.upsert(ids, vecs)
                        upserts_lat.append(dt)
                else:
                    ids = wrng.choice(live, UPLOAD_BATCH, replace=False)
                    res, dt = run.op("write", cluster.delete, NAME, [int(p) for p in ids])
                    if res is not None:
                        model.delete(ids)
                if res is not None:
                    writes_lat.append(dt)
                writes += 1
            else:
                q = pool[stream[i % len(stream)]]
                res, dt = run.op("query", client.search, q, limit=LIMIT)
                if res is not None:
                    (traced if run.probe.tracing else plain).append(dt)
                    if i % 10 == 0:
                        sample(packed(res), model.exact(q[None, :])[0])
            i += 1
        run.trace_all()
        batch = replay_batches(run, client, pool[batch_q], round_end, spent)
        # No write ran during the batched reads: check them against the
        # model's state now, one exact search per pool entry.
        exact = model.exact(pool)
        for qi, res in batch.items():
            sample(res, exact[batch_q[qi]])
    after = cluster.telemetry()
    setups.record()

    out.e2e["upsert_p50_us"] = pct_us(upserts_lat, 50)
    query_metrics(run, plain, traced)
    batch_metrics(run, spent)
    out.details.update(upsert_samples=len(upserts_lat), writes=len(writes_lat),
                       write_p50_us=pct_us(writes_lat, 50),
                       write_p90_us=pct_us(writes_lat, 90), oracle_queries=checked)

    # Oracle: sampled reads matched exact search over the model at the time
    # they ran; counts agree.
    run.check(bad == 0, f"{bad} of {checked} sampled queries differ from exact search")
    out.e2e["recall_at_10"] = found / (LIMIT * checked)
    run.check(client.count() == int(model.live.sum()),
              f"count {client.count()} != model {int(model.live.sum())}")

    if run.traced:
        cache = after.diff(before).cache
        layers = out.layers
        layers["worker.search_imbalance"] = worker_imbalance([(before, after)])
        layers["cache.hit_ratio"] = cache.hit_rate
        layers["cache.shard_hit_ratio"] = cache.shard_hit_rate
        prof = run.probe.profiles["query"]
        layers["cache.lookup_us"] = prof.incl_us_per_call("cache.lookup")
        layers["cache.fill_us"] = prof.incl_us_per_call("cache.fill")
        layers["cache.invalidations_per_write"] = (
            (cache.invalidations + cache.shard_invalidations) / max(len(writes_lat), 1))
        maintenance_layers(run, cluster)
        ids = model.ids()
        common_layers(run, cluster, list(client.upload_timings.convert))
        floor_scan(run, ids, model.matrix[ids], pool[batch_q])
    cluster.disable_maintenance(NAME)
    close_cluster(cluster)
    return out


WORKLOADS = {
    "ingest-hnsw": ingest_hnsw,
    "query-flat": query_flat,
    "mixed-zipf": mixed_zipf,
}
