"""The stored §4.2 memcmp key of a run and its field views.

A run stores its ordering fields (hash, equality columns, sort columns,
inverted beginTS) once, as one big-endian byte string per row; the named
fields are strided views of it. These tests check that layout through
serialization, that a merge on the stored key equals a lexsort of the
fields, and that a range scan's prefix probes are padded correctly.
"""
import numpy as np
import pytest

from repro.core import encoding as enc
from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, KEY, IndexRun, IndexSpec, key_fields

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
EDGE = np.array([I64_MIN, I64_MIN + 1, -1, 0, 1, 255, 256, I64_MAX], np.int64)

# I1 = a | b, I2 = (a, b), I3 = a alone, pure range over (a, b).
SHAPES = {
    "I1": (("a",), ("b",)),
    "I2": (("a", "b"), ()),
    "I3": (("a",), ()),
    "range": ((), ("a", "b")),
}


def make_run(shape, a, b, ts, *, gbid=0, rid_block=None, rid_off=None, block_rows=3):
    eq_cols, sort_cols = SHAPES[shape]
    spec = IndexSpec(eq_cols=eq_cols, sort_cols=sort_cols, include_cols=("v",),
                     hash_bits=2, block_rows=block_rows)
    n = len(ts)
    cols = {"a": np.asarray(a, np.int64), "b": np.asarray(b, np.int64)}
    return IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={c: cols[c] for c in eq_cols}, sorts={c: cols[c] for c in sort_cols},
        begin_ts=np.asarray(ts, np.int64), rid_zone=np.zeros(n),
        rid_block=np.full(n, gbid) if rid_block is None else rid_block,
        rid_off=np.arange(n) if rid_off is None else rid_off,
        includes={"v": np.arange(n) + 1000 * gbid},
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_stored_key_survives_serialization(shape, n):
    """Each block's stored key is the memcmp key of its field views, the
    views share the block's bytes, a block keeps 8 bytes per field per
    row, and the rebuilt run has the same key and fields."""
    g = np.random.default_rng(n)
    run = make_run(shape, g.choice(EDGE, n), g.choice(EDGE, n), g.choice(EDGE, n))
    spec, fields = run.spec, key_fields(run.spec)
    assert (run.cols[KEY] == enc.memcmp_keys([run.cols[f] for f in fields])).all()
    blocks = [run.block_bytes(i) for i in range(run.n_blocks)]
    for i, blk in enumerate(blocks):
        rows = min(spec.block_rows, n - i * spec.block_rows)
        assert len(blk) == rows * 8 * len(spec.fields)
        d = IndexRun.decode_block(spec, blk, rows)
        assert (d[KEY] == enc.memcmp_keys([d[f] for f in fields])).all()
        for f in fields:
            assert np.shares_memory(d[f], d[KEY]) or rows == 0
    r2 = IndexRun.from_header_and_blocks(run.header_json(), blocks)
    assert r2.cols[KEY].tobytes() == run.cols[KEY].tobytes()
    assert (r2.cols[KEY] == enc.memcmp_keys([r2.cols[f] for f in fields])).all()
    for f in spec.fields:
        assert (r2.cols[f] == run.cols[f]).all()


def lexsort_merge(runs):
    """Reference merge: concatenate every field, lexsort on the ordering
    fields (stable), drop entries identical in key, beginTS and RID."""
    spec = runs[0].spec
    cols = {f: np.concatenate([np.asarray(r.cols[f], np.uint64) for r in runs])
            for f in spec.fields}
    perm = np.lexsort([cols[f] for f in reversed(key_fields(spec))])
    cols = {f: c[perm] for f, c in cols.items()}
    same = np.ones(len(perm) - 1, dtype=bool)
    for f in key_fields(spec) + ("z", "b", "o"):
        same &= cols[f][1:] == cols[f][:-1]
    keep = np.concatenate(([True], ~same))
    return {f: c[keep] for f, c in cols.items()}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_equals_lexsort_reference(shape, seed):
    """Runs over int64 edge values, with entries repeated across runs
    (same key, beginTS and RID: collapsed) and versions of one key that
    differ only in RID or beginTS (kept)."""
    g = np.random.default_rng(seed)
    n = 30
    a, b, ts = g.choice(EDGE, n), g.choice(EDGE, n), g.choice(EDGE, n)
    rid_block, rid_off = g.integers(0, 2, n), g.integers(0, 3, n)
    runs = [make_run(shape, a, b, ts, gbid=0, rid_block=rid_block, rid_off=rid_off)]
    for gb in (1, 2):
        pick = g.integers(0, n, 20)  # repeats of the first run's entries …
        rb = np.where(g.random(20) < 0.5, rid_block[pick], 7)  # … some with a new RID
        runs.append(make_run(shape, a[pick], b[pick], ts[pick], gbid=gb,
                             rid_block=rb, rid_off=rid_off[pick]))
    merged = IndexRun.merge_runs(runs, level=1)
    want = lexsort_merge(runs)
    assert merged.n_entries == len(want["t"]) < sum(r.n_entries for r in runs)
    for f in merged.spec.fields:
        assert (merged.cols[f] == want[f]).all(), f
    assert (merged.cols[KEY] == enc.memcmp_keys([want[f] for f in key_fields(merged.spec)])).all()


# Rows (a, b, beginTS). I1 keys on a | b, the range index on (a, b); the
# first two rows are all-0xFF / all-0x00 bytes after the probe prefix.
PAD_ROWS = {
    "I1": [(3, I64_MAX, I64_MIN), (3, I64_MIN, I64_MAX), (3, I64_MAX, I64_MAX),
           (3, I64_MIN, I64_MIN), (3, 0, 5), (4, 0, 5)],
    "range": [(I64_MAX, I64_MAX, I64_MIN), (I64_MIN, I64_MIN, I64_MAX),
              (I64_MAX, 0, I64_MAX), (I64_MIN, 5, I64_MIN), (0, 0, 0), (1, 0, 5)],
}


def newest(rows, eq, qts):
    """Oracle: the newest version visible at ``qts`` of each key."""
    out = {}
    for a, b, t in rows:
        if (eq is None or a == eq[0]) and t <= qts and t >= out.get((a, b), t):
            out[(a, b)] = t
    return out


def as_dict(res):
    return dict(zip(zip(res["a"].tolist(), res["b"].tolist()), res["begin_ts"].tolist()))


@pytest.mark.parametrize("shape", sorted(PAD_ROWS))
@pytest.mark.parametrize("block_rows", [1, 2, 4])
def test_prefix_scan_padding_decides_bounds(shape, block_rows):
    """sort_lo = INT64_MIN and sort_hi = INT64_MAX encode to all-0x00 and
    all-0xFF s0 bytes, and beginTS = INT64_MIN / INT64_MAX to a ``t`` of
    all 0xFF / 0x00 bytes. The rows at the ends of the range then equal
    the padded probes, so only 0x00 padding on the lower bound and 0xFF
    padding on the upper bound return them."""
    rows = PAD_ROWS[shape]
    a, b, ts = (np.array(c, np.int64) for c in zip(*rows))
    run = make_run(shape, a, b, ts, block_rows=block_rows)
    eq = (3,) if shape == "I1" else None
    ix = UmziIndex(run.spec, UmziConfig(K=100, T=2))
    ix.add_groomed_run(run)
    for lo, hi in ((I64_MIN, I64_MAX), (I64_MAX, I64_MAX), (I64_MIN, I64_MIN)):
        for qts in (I64_MIN, 0, I64_MAX):
            want = newest([r for r in rows if lo <= r[0 if eq is None else 1] <= hi], eq, qts)
            assert as_dict(run.search(eq, (lo,), (hi,), qts)) == want
            for method in ("set", "pq"):
                assert as_dict(q.range_scan(ix, eq, (lo,), (hi,), qts, method=method)) == want
    assert newest(rows, eq, I64_MIN)  # the all-0xFF row is visible alone
