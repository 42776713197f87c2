"""VectorArena and IdTracker tests."""

import sys
import threading

import numpy as np
import pytest

from repro.core.errors import DimensionMismatchError, PointNotFoundError
from repro.core.storage import IdTracker, VectorArena

DIM = 4


class TestVectorArena:
    def test_append_and_get(self):
        arena = VectorArena(DIM)
        off = arena.append(np.arange(DIM, dtype=np.float32))
        assert off == 0
        assert np.array_equal(arena.get(0), np.arange(DIM, dtype=np.float32))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            VectorArena(0)
        arena = VectorArena(DIM)
        with pytest.raises(DimensionMismatchError):
            arena.append(np.zeros(DIM + 1, dtype=np.float32))

    def test_growth_preserves_data(self):
        arena = VectorArena(DIM)
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(500, DIM)).astype(np.float32)
        for v in vecs:
            arena.append(v)
        assert len(arena) == 500
        assert np.allclose(arena.view(), vecs)

    def test_extend_returns_consecutive_offsets(self):
        arena = VectorArena(DIM)
        arena.append(np.zeros(DIM, dtype=np.float32))
        offsets = arena.extend(np.ones((10, DIM), dtype=np.float32))
        assert offsets.tolist() == list(range(1, 11))

    def test_extend_rejects_bad_shape(self):
        arena = VectorArena(DIM)
        with pytest.raises(DimensionMismatchError):
            arena.extend(np.ones((3, DIM + 2), dtype=np.float32))

    def test_reserve_single_allocation(self):
        arena = VectorArena(DIM)
        arena.reserve(1000)
        cap = arena.capacity
        arena.extend(np.zeros((1000, DIM), dtype=np.float32))
        assert arena.capacity == cap  # no further realloc

    def test_overwrite(self):
        arena = VectorArena(DIM)
        arena.append(np.zeros(DIM, dtype=np.float32))
        arena.overwrite(0, np.full(DIM, 7.0, dtype=np.float32))
        assert np.all(arena.get(0) == 7.0)

    def test_overwrite_bounds(self):
        arena = VectorArena(DIM)
        with pytest.raises(IndexError):
            arena.overwrite(0, np.zeros(DIM, dtype=np.float32))

    def test_get_bounds(self):
        arena = VectorArena(DIM)
        with pytest.raises(IndexError):
            arena.get(0)

    def test_view_is_view_not_copy(self):
        arena = VectorArena(DIM)
        arena.append(np.zeros(DIM, dtype=np.float32))
        view = arena.view()
        arena.overwrite(0, np.ones(DIM, dtype=np.float32))
        assert np.all(view[0] == 1.0)

    def test_take(self):
        arena = VectorArena(DIM)
        arena.extend(np.arange(5 * DIM, dtype=np.float32).reshape(5, DIM))
        taken = arena.take(np.array([3, 1]))
        assert np.array_equal(taken[0], arena.get(3))

    def test_nbytes(self):
        arena = VectorArena(DIM)
        arena.extend(np.zeros((10, DIM), dtype=np.float32))
        assert arena.nbytes == 10 * DIM * 4

    def test_on_disk_roundtrip(self, tmp_path):
        arena = VectorArena(DIM, on_disk=True, directory=str(tmp_path))
        vecs = np.random.default_rng(1).normal(size=(300, DIM)).astype(np.float32)
        arena.extend(vecs)
        assert np.allclose(arena.view(), vecs)
        arena.close()

    def test_on_disk_growth(self, tmp_path):
        arena = VectorArena(DIM, on_disk=True, directory=str(tmp_path))
        for i in range(200):
            arena.append(np.full(DIM, float(i), dtype=np.float32))
        assert float(arena.get(150)[0]) == 150.0
        arena.close()


class TestIdTracker:
    def test_register_and_lookup(self):
        t = IdTracker()
        t.register(42, 0)
        assert t.offset_of(42) == 0
        assert t.id_at(0) == 42
        assert t.contains(42)

    def test_register_requires_append_order(self):
        t = IdTracker()
        with pytest.raises(ValueError):
            t.register(1, 5)

    def test_missing_point_raises(self):
        t = IdTracker()
        with pytest.raises(PointNotFoundError):
            t.offset_of(99)

    def test_delete_tombstones(self):
        t = IdTracker()
        t.register(1, 0)
        t.register(2, 1)
        freed = t.mark_deleted(1)
        assert freed == 0
        assert not t.contains(1)
        assert t.is_deleted(0)
        assert len(t) == 1
        assert t.deleted_count == 1

    def test_live_offsets_skips_deleted(self):
        t = IdTracker()
        for i in range(5):
            t.register(i * 10, i)
        t.mark_deleted(20)
        assert t.live_offsets().tolist() == [0, 1, 3, 4]
        assert t.live_ids() == [0, 10, 30, 40]

    def test_ids_at_vectorized(self):
        t = IdTracker()
        for i in range(5):
            t.register(i * 7, i)
        assert t.ids_at(np.array([4, 0])).tolist() == [28, 0]

    def test_deleted_mask(self):
        t = IdTracker()
        t.register(1, 0)
        t.register(2, 1)
        t.mark_deleted(2)
        assert t.deleted_mask().tolist() == [False, True]

    def test_empty_live_offsets(self):
        assert IdTracker().live_offsets().tolist() == []

    def test_bitmap_grows_past_initial_capacity(self):
        t = IdTracker()
        for i in range(1000):
            t.register(i, i)
        t.mark_deleted(999)
        t.mark_deleted(64)
        assert t.is_deleted(999) and t.is_deleted(64) and not t.is_deleted(65)
        assert t.live_offsets().tolist() == [o for o in range(1000) if o not in (64, 999)]

    def test_caches_invalidate_on_register_and_delete(self):
        t = IdTracker()
        for i in range(4):
            t.register(i + 10, i)
        first = t.live_offsets()
        assert t.live_offsets() is first  # cached between writes
        assert not first.flags.writeable
        assert t.ids_at(np.array([3])).tolist() == [13]
        t.register(14, 4)
        assert t.live_offsets().tolist() == [0, 1, 2, 3, 4]
        assert t.ids_at(np.array([4])).tolist() == [14]
        t.mark_deleted(11)
        assert t.live_offsets().tolist() == [0, 2, 3, 4]
        assert first.tolist() == [0, 1, 2, 3]  # a kept (pinned) array never changes


def test_tracker_caches_never_go_stale_under_concurrent_readers():
    """One writer registers and deletes while readers hammer the caches;
    every read is a consistent snapshot and none outlives a write."""
    t = IdTracker()
    stop = threading.Event()
    errors = []

    def read():
        while not stop.is_set():
            live = t.live_offsets()
            if live.size and (np.any(np.diff(live) <= 0) or live[-1] >= t.total_offsets):
                errors.append(live.copy())
            t.ids_at(live[:1])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for r in readers:
            r.start()
        for i in range(3000):
            t.register(i, i)
            if i % 3 == 0:
                t.mark_deleted(i)
    finally:
        stop.set()
        for r in readers:
            r.join(timeout=10)
        sys.setswitchinterval(old)
    assert not any(r.is_alive() for r in readers)
    assert not errors
    assert t.live_offsets().tolist() == [o for o in range(3000) if o % 3]
    assert t.ids_at(np.arange(3000)).tolist() == list(range(3000))
