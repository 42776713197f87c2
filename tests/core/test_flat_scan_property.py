"""Property: the zero-copy flat scan returns exactly what a gather scan did.

The reference below is the gather body segment and flat-index scans used
before the shared :func:`repro.core.index.flat.scan`: walk every offset,
drop tombstones and filtered points with a per-offset Python check, copy
the surviving rows out of the arena, score, take the top k.  The property
holds bit for bit — offsets and the raw float32 score bytes — over every
distance, with no / some / all points deleted, ``k`` above the live count,
payload filters (prefiltered through a keyword index or not) and exact
score ties, for single and batched search.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distances
from repro.core.filters import FieldMatch, Filter
from repro.core.index.flat import FlatIndex
from repro.core.segment import Segment
from repro.core.types import CollectionConfig, Distance, PointStruct, VectorParams

DIM = 4
EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))


def reference_scan(arena, ids, payloads, query, k, distance, flt=None):
    """Per-offset predicate + arena gather + score + top-k (the old body)."""
    live = [
        off
        for off in range(ids.total_offsets)
        if not ids.is_deleted(off)
        and (flt is None or payloads.evaluate(flt, ids.id_at(off)))
    ]
    if not live:
        return EMPTY
    live = np.asarray(live, dtype=np.int64)
    scores = distances.score_batch(arena.take(live), query, distance)
    idx, top = distances.top_k(scores, k, distance)
    return live[idx], top


def assert_same(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].dtype == want[1].dtype
    assert got[1].tobytes() == want[1].tobytes()


# Small integer coordinates make duplicate rows, and so exact score ties,
# common; the segment normalises COSINE rows, the queries stay raw.
coords = st.integers(-2, 2)
rows = st.lists(st.lists(coords, min_size=DIM, max_size=DIM), min_size=0, max_size=40)
queries = st.lists(st.lists(coords, min_size=DIM, max_size=DIM), min_size=1, max_size=4)


@st.composite
def scenarios(draw):
    data = draw(rows)
    n = len(data)
    share = draw(st.sampled_from(["none", "partial", "all"]))
    if share == "none":
        deleted = []
    elif share == "all":
        deleted = list(range(n))
    else:
        deleted = draw(st.lists(st.sampled_from(range(n)), unique=True)) if n else []
    return {
        "distance": draw(st.sampled_from(list(Distance))),
        "data": np.asarray(data, dtype=np.float32).reshape(n, DIM),
        "deleted": deleted,
        "queries": np.asarray(draw(queries), dtype=np.float32),
        "k": draw(st.integers(1, n + 5)),
        "flt": draw(st.sampled_from([None, 0, 1, 2])),
        "indexed_payload": draw(st.booleans()),
    }


def build_segment(sc) -> tuple[Segment, Filter | None]:
    seg = Segment(CollectionConfig("p", VectorParams(size=DIM, distance=sc["distance"])))
    if sc["indexed_payload"]:
        seg.payload_store.create_keyword_index("bucket")
    seg.upsert_batch(
        PointStruct(id=100 + i, vector=v, payload={"bucket": i % 3})
        for i, v in enumerate(sc["data"])
    )
    for i in sc["deleted"]:
        seg.delete(100 + i)
    flt = None if sc["flt"] is None else Filter(must=[FieldMatch("bucket", sc["flt"])])
    return seg, flt


def prepared(seg, query):
    q = np.asarray(query, dtype=np.float32)
    return distances.normalize(q) if seg.distance is Distance.COSINE else q


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_segment_scan_matches_gather_reference(sc):
    seg, flt = build_segment(sc)
    k = sc["k"]
    refs = [
        reference_scan(seg._arena, seg._ids, seg.payload_store, prepared(seg, q), k,
                       seg.distance, flt)
        for q in sc["queries"]
    ]
    batch = seg.search_batch(sc["queries"], k, flt=flt)
    for q, ref, hits_b in zip(sc["queries"], refs, batch):
        want = [(seg._ids.id_at(int(o)), float(s)) for o, s in zip(*ref)]
        assert [(h.id, h.score) for h in seg.search(q, k, flt=flt)] == want
        assert [(h.id, h.score) for h in hits_b] == want


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_flat_index_matches_gather_reference(sc):
    seg, flt = build_segment(sc)
    index = FlatIndex(seg._arena, sc["distance"])
    index.build(None, np.arange(seg._ids.total_offsets, dtype=np.int64))
    for i in sc["deleted"]:
        index.remove(i)
    predicate = None
    if flt is not None:
        predicate = lambda off: seg.payload_store.evaluate(flt, seg._ids.id_at(off))  # noqa: E731
    k = sc["k"]
    batch = index.search_batch(sc["queries"], k, predicate=predicate)
    for q, got_b in zip(sc["queries"], batch):
        ref = reference_scan(seg._arena, seg._ids, seg.payload_store, q, k,
                             sc["distance"], flt)
        assert_same(index.search(q, k, predicate=predicate), ref)
        assert_same(got_b, ref)
