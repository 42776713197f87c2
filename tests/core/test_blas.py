"""BLAS thread capping in thread pools, and the fan-out pool's lifecycle.

``repro.core.blas`` must degrade to a no-op when numpy's OpenBLAS (or its
thread setter) is missing, only ever lower the process-wide count, and lift
it for index builds; a cluster whose fan-out threads run it must return
bit-identical results to a serial fan-out; and growing the fan-out pool
must never shut down a pool a caller already holds.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    CollectionConfig,
    Distance,
    OptimizerConfig,
    PointStruct,
    SearchRequest,
    VectorParams,
    blas,
)
from repro.core import cluster as cluster_mod
from repro.core.cluster import Cluster

DIM = 16


@pytest.fixture
def fresh_setter(monkeypatch):
    blas._openblas.cache_clear()
    monkeypatch.setattr(blas, "_cap", None)
    yield
    blas._openblas.cache_clear()


@pytest.fixture
def recorded(monkeypatch):
    """Counts the helpers set on an 8-core host whose OpenBLAS starts at 8."""
    set_to = []
    monkeypatch.setattr(blas, "_openblas", lambda: (set_to.append, 8))
    monkeypatch.setattr(blas, "_cores", lambda: 8)
    monkeypatch.setattr(blas, "_cap", None)
    return set_to


class _NoSymbol:
    """A loaded library that exports nothing."""


def test_noop_without_symbol(monkeypatch, fresh_setter):
    monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: _NoSymbol())
    assert blas._openblas() is None
    blas.limit_threads(1)  # must not raise
    with blas.uncapped():
        pass


def test_noop_when_library_fails_to_load(monkeypatch, fresh_setter):
    def refuse(path):
        raise OSError(path)

    monkeypatch.setattr(blas.ctypes, "CDLL", refuse)
    assert blas._openblas() is None
    blas.limit_threads(1)
    with blas.uncapped():
        pass


def test_limit_threads_splits_cores(recorded):
    for width in (1, 2, 3, 8, 16):
        blas.limit_threads(width)
    assert recorded == [8, 4, 2, 1, 1]


def test_narrower_pool_never_raises_the_cap(recorded):
    # The count is process-wide: a 2-wide pool started after a 4-wide one
    # must not hand the 4 fan-out threads 4 BLAS threads each.
    blas.limit_threads(4)
    blas.limit_threads(2)
    blas.limit_threads(1)
    assert recorded == [2, 2, 2]


def test_cap_never_exceeds_startup_count(monkeypatch):
    set_to = []
    monkeypatch.setattr(blas, "_openblas", lambda: (set_to.append, 2))
    monkeypatch.setattr(blas, "_cores", lambda: 8)
    monkeypatch.setattr(blas, "_cap", None)
    blas.limit_threads(2)
    assert set_to == [2]


def test_cores_follow_affinity(monkeypatch):
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(blas.os, "cpu_count", lambda: 8)
    assert blas._cores() == 2


def test_uncapped_lifts_and_restores_the_cap(recorded):
    blas.limit_threads(4)
    with blas.uncapped():
        with blas.uncapped():
            blas.limit_threads(2)  # a pool started inside: cap noted, not applied
        assert blas._cap == 2
    assert recorded == [2, 8, 8, 2]


def make_cluster(max_fanout_threads, n=2000):
    cluster = Cluster.with_workers(4, max_fanout_threads=max_fanout_threads)
    cluster.create_collection(
        CollectionConfig(
            "c",
            VectorParams(size=DIM, distance=Distance.COSINE),
            optimizer=OptimizerConfig(indexing_threshold=10**9),
        )
    )
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(n, DIM)).astype(np.float32)
    cluster.upsert("c", [PointStruct(id=i, vector=v) for i, v in enumerate(vectors)])
    cluster.delete("c", list(range(0, n, 7)))
    return cluster


def test_capped_fanout_bit_identical_to_serial(monkeypatch):
    calls = []
    with blas._lock:
        real = blas._openblas()

    def record(n):
        calls.append((threading.current_thread().name, n))
        if real is not None:
            real[0](n)

    startup = real[1] if real is not None else 8
    monkeypatch.setattr(blas, "_openblas", lambda: (record, startup))
    monkeypatch.setattr(blas, "_cap", None)
    queries = np.random.default_rng(4).normal(size=(20, DIM)).astype(np.float32)
    serial, parallel = make_cluster(1), make_cluster(None)
    try:
        for q in queries:
            want = serial.search("c", SearchRequest(vector=q, limit=10))
            got = parallel.search("c", SearchRequest(vector=q, limit=10))
            assert [(h.id, h.score) for h in got] == [(h.id, h.score) for h in want]
        requests = [SearchRequest(vector=q, limit=10) for q in queries]
        want = serial.search_batch("c", requests)
        got = parallel.search_batch("c", requests)
        assert [[(h.id, h.score) for h in r] for r in got] == [
            [(h.id, h.score) for h in r] for r in want
        ]
    finally:
        serial.close()
        parallel.close()
    assert calls, "fan-out threads never ran the BLAS initializer"
    assert all(name.startswith("fanout") for name, _ in calls)
    assert {n for _, n in calls} == {min(startup, max(1, blas._cores() // 4))}


def test_build_index_runs_uncapped(recorded):
    cluster = make_cluster(None, n=400)
    try:
        cluster.search("c", SearchRequest(vector=np.ones(DIM, np.float32), limit=5))
        assert recorded and set(recorded) == {2}
        del recorded[:]
        built = cluster.build_index("c", "hnsw")
    finally:
        cluster.close()
    assert sum(map(sum, built.values())) == 400 - len(range(0, 400, 7))
    assert recorded == [8, 2]


def test_grown_pool_keeps_earlier_reference_usable():
    cluster = Cluster.with_workers(2)
    try:
        first = cluster._fanout_pool(2)
        second = cluster._fanout_pool(4)
        assert second is not first
        assert cluster._fanout_pool(3) is second
        # A caller that fetched `first` before the growth submits now.
        assert first.submit(lambda: 7).result() == 7
    finally:
        cluster.close()
    with pytest.raises(RuntimeError):
        first.submit(lambda: 7)


def test_concurrent_growers_leak_no_pool(monkeypatch):
    created = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(cluster_mod, "ThreadPoolExecutor", Recording)
    cluster = Cluster.with_workers(2)
    barrier = threading.Barrier(8)

    def grow(width):
        barrier.wait()
        cluster._fanout_pool(width).submit(lambda: None).result()

    threads = [threading.Thread(target=grow, args=(w,)) for w in range(2, 10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tracked = cluster._retired_executors + [cluster._executor]
    assert sorted(map(id, created)) == sorted(map(id, tracked))
    cluster.close()
    assert all(pool._shutdown for pool in created)
