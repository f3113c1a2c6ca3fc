"""Single-run search — paper §7.1.1, including the Fig. 2 worked example."""
import numpy as np
import pandas as pd
import pytest

from repro.core.run import GROOMED, IndexRun, IndexSpec


def paper_fig2_run(block_rows=4):
    """The example of Fig. 2: device is the equality column, msg the sort
    column; entries (device, msg, beginTS) as printed in the paper."""
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=3, block_rows=block_rows)
    device = np.asarray([1, 8, 4, 4, 4, 5, 3, 3], np.int64)
    msg = np.asarray([1, 2, 1, 1, 2, 1, 0, 1], np.int64)
    ts = np.asarray([100, 101, 97, 94, 102, 97, 103, 104], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=1,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(8, np.int64), rid_block=np.zeros(8, np.int64),
        rid_off=np.arange(8, dtype=np.int64),
    )
    return spec, run


class TestPaperFig2Example:
    """§7.1.1's worked query: device = 4, 1 <= msg <= 3, queryTS = 100."""

    def test_returns_most_recent_visible_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 100)
        # Entry (4,1,97) returned; (4,1,94) older version filtered; (4,2,102)
        # beyond queryTS; (5,1,...) beyond upper bound.
        assert res["device"].tolist() == [4]
        assert res["msg"].tolist() == [1]
        assert res["begin_ts"].tolist() == [97]

    def test_higher_query_ts_sees_second_key(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 102)
        assert sorted(zip(res["msg"], res["begin_ts"])) == [(1, 97), (2, 102)]

    def test_time_travel_to_oldest_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (1,), 94)
        assert res["begin_ts"].tolist() == [94]

    def test_before_any_version(self):
        _, run = paper_fig2_run()
        res = run.search((4,), (1,), (3,), 90)
        assert len(res["begin_ts"]) == 0

    def test_synopsis_matches_paper(self):
        _, run = paper_fig2_run()
        assert run.synopsis["msg"] == (0, 2)
        assert run.synopsis["device"] == (1, 8)


def oracle_search(df, dev, lo, hi, qts):
    d = df[(df.device == dev) & (df.msg >= lo) & (df.msg <= hi) & (df.ts <= qts)]
    d = d.sort_values("ts").groupby("msg").last()
    return sorted(zip(d.index.tolist(), d.ts.tolist()))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("hash_bits", [2, 8])
@pytest.mark.parametrize("qts", [50, 200, 10**6])
def test_search_vs_pandas_oracle(seed, hash_bits, qts):
    g = np.random.default_rng(seed)
    n = 600
    device = g.integers(0, 12, n).astype(np.int64)
    msg = g.integers(0, 25, n).astype(np.int64)
    ts = g.integers(1, 300, n).astype(np.int64)
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=hash_bits, block_rows=37)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"device": device, "msg": msg, "ts": ts})
    for dev in (0, 5, 11, 99):
        for lo, hi in [(0, 24), (5, 10), (7, 7), (20, 3)]:
            res = run.search((dev,), (lo,), (hi,), qts)
            got = sorted(zip(res["msg"].tolist(), res["begin_ts"].tolist()))
            assert got == oracle_search(df, dev, lo, hi, qts), (dev, lo, hi, qts)


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_sort_range(seed):
    g = np.random.default_rng(seed)
    n = 300
    device = g.integers(0, 5, n).astype(np.int64)
    msg = g.integers(-50, 50, n).astype(np.int64)  # negative sort values
    ts = g.integers(1, 100, n).astype(np.int64)
    spec = IndexSpec(eq_cols=("device",), sort_cols=("msg",), hash_bits=4, block_rows=16)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"device": device}, sorts={"msg": msg}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"device": device, "msg": msg, "ts": ts})
    res = run.search((2,), None, None, 10**6)
    got = sorted(zip(res["msg"].tolist(), res["begin_ts"].tolist()))
    assert got == oracle_search(df, 2, -(10**9), 10**9, 10**6)
    # one-sided bounds
    res_lo = run.search((2,), (0,), None, 10**6)
    assert sorted(zip(res_lo["msg"].tolist(), res_lo["begin_ts"].tolist())) == oracle_search(
        df, 2, 0, 10**9, 10**6
    )
    res_hi = run.search((2,), None, (0,), 10**6)
    assert sorted(zip(res_hi["msg"].tolist(), res_hi["begin_ts"].tolist())) == oracle_search(
        df, 2, -(10**9), 0, 10**6
    )


def test_search_requires_all_equality_columns():
    spec, run = paper_fig2_run()
    with pytest.raises(ValueError, match="equality columns"):
        run.search(None, (0,), (3,), 100)
    with pytest.raises(ValueError, match="equality columns"):
        run.search((), (0,), (3,), 100)


def test_pure_hash_index_point_lookup():
    """I3-style: equality column only, no sort columns (§4.1)."""
    spec = IndexSpec(eq_cols=("k",), hash_bits=6, block_rows=8)
    n = 500
    g = np.random.default_rng(0)
    k = g.integers(0, 100, n).astype(np.int64)
    ts = g.integers(1, 1000, n).astype(np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": k}, sorts={}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"k": k, "ts": ts})
    for key in range(0, 100, 7):
        res = run.lookup((key,), None, 10**6)
        sub = df[df.k == key]
        if len(sub) == 0:
            assert len(res["begin_ts"]) == 0
        else:
            assert res["begin_ts"].tolist() == [sub.ts.max()]


def test_pure_range_index():
    """Hash index degenerates away: sort columns only (§4.1)."""
    spec = IndexSpec(sort_cols=("s",), hash_bits=4, block_rows=8)
    s = np.asarray([5, 1, 9, 3, 7, 1], np.int64)
    ts = np.asarray([10, 20, 30, 40, 50, 60], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={}, sorts={"s": s}, begin_ts=ts,
        rid_zone=np.zeros(6), rid_block=np.zeros(6), rid_off=np.arange(6),
    )
    res = run.search(None, (1,), (5,), 10**6)
    assert sorted(zip(res["s"].tolist(), res["begin_ts"].tolist())) == [
        (1, 60), (3, 40), (5, 10)
    ]


def test_included_columns_returned():
    spec = IndexSpec(eq_cols=("d",), sort_cols=("m",), include_cols=("v",), hash_bits=4, block_rows=8)
    d = np.asarray([1, 1, 2], np.int64)
    m = np.asarray([0, 1, 0], np.int64)
    ts = np.asarray([5, 6, 7], np.int64)
    v = np.asarray([100, 200, 300], np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"d": d}, sorts={"m": m}, begin_ts=ts,
        rid_zone=np.zeros(3), rid_block=np.zeros(3), rid_off=np.arange(3),
        includes={"v": v},
    )
    res = run.search((1,), (0,), (1,), 10**6)
    assert sorted(zip(res["m"].tolist(), res["v"].tolist())) == [(0, 100), (1, 200)]


def test_rid_decoding():
    spec, run = paper_fig2_run()
    res = run.search((3,), (0,), (1,), 10**6)
    assert set(res["rid_off"].tolist()) == {6, 7}  # original input offsets
    assert (res["rid_zone"] == 0).all()


# Index shapes of §8.1 over two key columns a, b — I1 = a | b, I2 = (a, b),
# I3 = a alone, and a pure range index over (a, b) — with their block size.
# Tiny blocks and buckets make most searches span several blocks.
SHAPES = {
    "I1": (("a",), ("b",), 3),
    "I2": (("a", "b"), (), 7),
    "I3": (("a",), (), 1),
    "range": ((), ("a", "b"), 8),
}


def shaped_index(shape, source, tmp_path):
    """Four overlapping runs; ``source`` picks where their blocks live:
    resident (no hierarchy), SSD-cached, or purged to shared storage."""
    from repro.core.index import UmziConfig, UmziIndex
    from repro.storage import CacheManager, StorageHierarchy

    eq_cols, sort_cols, block_rows = SHAPES[shape]
    spec = IndexSpec(eq_cols=eq_cols, sort_cols=sort_cols, include_cols=("v",),
                     hash_bits=2, block_rows=block_rows)
    cache = None if source == "resident" else CacheManager(StorageHierarchy(str(tmp_path)))
    ix = UmziIndex(spec, UmziConfig(K=100, T=2), cache)
    frames = []
    for gb in range(4):
        g = np.random.default_rng(gb)
        n = 60
        df = pd.DataFrame({
            "a": g.integers(0, 6, n), "b": g.integers(0, 5, n) if len(eq_cols + sort_cols) > 1 else 0,
            "ts": (gb << 16) + np.arange(n), "v": g.integers(0, 10**6, n),
        })
        cols = {c: df[c].values for c in ("a", "b")}
        ix.add_groomed_run(IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={c: cols[c] for c in eq_cols}, sorts={c: cols[c] for c in sort_cols},
            begin_ts=df.ts.values, rid_zone=np.zeros(n), rid_block=np.full(n, gb),
            rid_off=np.arange(n), includes={"v": df.v.values},
        ))
        frames.append(df.assign(gb=gb))
    if source == "purged":
        ix.apply_cache_level(-1)
    return ix, pd.concat(frames, ignore_index=True), eq_cols, sort_cols


def latest(df, key, qts):
    """Pandas oracle: the newest version per key visible at ``qts``."""
    d = df[df.ts <= qts].sort_values("ts").groupby(list(key)).last()
    return {k if isinstance(k, tuple) else (k,): (r.ts, r.v) for k, r in d.iterrows()}


def rows_of(res, key):
    return {tuple(int(res[c][i]) for c in key): (int(res["begin_ts"][i]), int(res["v"][i]))
            for i in range(len(res["begin_ts"]))}


@pytest.mark.parametrize("source", ["resident", "ssd", "purged"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sources_agree_with_oracle(shape, source, tmp_path):
    from repro.core import query as q

    ix, df, eq_cols, sort_cols = shaped_index(shape, source, tmp_path)
    key = eq_cols + sort_cols
    domain = [(a, b)[: len(key)] for a in range(-1, 8) for b in range(-1, 6)]
    domain = sorted(set(domain))
    for qts in (2**62, (2 << 16) + 30):
        want = latest(df, key, qts)
        # point_lookup and batch_lookup (with repeated probe keys)
        for k in domain:
            got = q.point_lookup(ix, k[: len(eq_cols)] or None, k[len(eq_cols):] or None, qts)
            assert (got and (got["begin_ts"], got["v"])) == want.get(k), k
        probes = domain + domain[::3]
        cols = [np.asarray([p[i] for p in probes]) for i in range(len(key))]
        res = q.batch_lookup(ix, cols[: len(eq_cols)], cols[len(eq_cols):], qts)
        assert len(res["begin_ts"]) == len(rows_of(res, key))  # one row per key
        assert rows_of(res, key) == {k: v for k, v in want.items() if k in set(domain)}
        # range_scan (both reconciliations) and the per-run search
        runs = ix.query_snapshot().runs
        run_want = {h.run.run_id: latest(df[df.gb == h.run.gbid_lo], key, qts) for h in runs}
        bounds = [(None, None)]
        if sort_cols:
            bounds += [((0,), (3,)), ((2,), (2,)), (None, (1,)), ((4,), None), ((3,), (1,))]
        for eq in sorted({k[: len(eq_cols)] for k in domain}):
            for lo, hi in bounds:

                def inside(k):
                    s = k[len(eq_cols)] if sort_cols else 0
                    return (k[: len(eq_cols)] == eq and (lo is None or s >= lo[0])
                            and (hi is None or s <= hi[0]))

                exp = {k: v for k, v in want.items() if inside(k)}
                for method in ("set", "pq"):
                    res = q.range_scan(ix, eq or None, lo, hi, qts, method=method)
                    assert rows_of(res, key) == exp, (eq, lo, hi, method)
                for h in runs:
                    res = h.run.search(eq or None, lo, hi, qts, source=ix.source_for(h.run))
                    assert rows_of(res, key) == {
                        k: v for k, v in run_want[h.run.run_id].items() if inside(k)
                    }


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("block_rows", [1, 3, 16])
def test_locate_equals_searchsorted(block_rows, side):
    """The kernel is ``np.searchsorted`` over the whole run's memcmp keys,
    also for probes equal to rows that straddle block boundaries."""
    from repro.core import encoding as enc
    from repro.core.run import key_fields
    from repro.storage.cache import BlockSource

    spec = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=1, block_rows=block_rows)
    g = np.random.default_rng(block_rows)
    n = 200
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 3, n)}, sorts={"s": g.integers(0, 4, n)},
        begin_ts=g.integers(0, 3, n), rid_zone=np.zeros(n), rid_block=np.zeros(n),
        rid_off=np.arange(n),
    )
    fields = key_fields(spec)
    rows = g.integers(0, n, 150)
    keys = [np.concatenate([run.cols[f][rows], g.integers(0, 2**64 - 1, 50, dtype=np.uint64)])
            for f in fields]
    keys[0][150:] = run.cols["h"][g.integers(0, n, 50)]  # unseen tuples in real buckets
    want = np.searchsorted(enc.memcmp_keys([run.cols[f] for f in fields]),
                           enc.memcmp_keys(keys), side)
    right = np.full(len(keys[0]), side == "right")
    got, _end = run._locate(BlockSource(None, run), keys, right)
    assert (got == want).all()


def _counting_reads(monkeypatch, cm):
    """Record every (run, block) the cache is asked for."""
    seen = []
    orig = cm.read_block

    def read_block(run_id, i):
        seen.append((run_id, i))
        return orig(run_id, i)

    monkeypatch.setattr(cm, "read_block", read_block)
    return seen


def test_lookup_reads_log_blocks(tmp_path, monkeypatch):
    """A pure range index's candidate range is the whole run (B blocks);
    each point lookup reads at most ⌈log₂B⌉ + 1 of them."""
    from repro.storage import CacheManager, StorageHierarchy
    from repro.storage.cache import BlockSource

    spec = IndexSpec(sort_cols=("s",), hash_bits=4, block_rows=10)
    n = 1000
    s = np.random.default_rng(0).permutation(2 * n)[:n].astype(np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={}, sorts={"s": s}, begin_ts=np.arange(n), rid_zone=np.zeros(n),
        rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    cm = CacheManager(StorageHierarchy(str(tmp_path)))
    cm.write_run(run, persisted=True, cache_tier="ssd")
    seen = _counting_reads(monkeypatch, cm)
    bound = int(np.ceil(np.log2(run.n_blocks))) + 1
    for key in range(-1, 2 * n + 1, 7):
        seen.clear()
        res = run.lookup(None, (key,), 10**6, source=BlockSource(cm, run))
        assert len(res["s"]) == int(key in set(s.tolist()))
        assert len(seen) <= bound, key


def test_batch_reads_each_touched_block_once(tmp_path, monkeypatch):
    from repro.core import query as q
    from repro.core.index import UmziIndex
    from repro.storage import CacheManager, StorageHierarchy

    spec = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=3, block_rows=16)
    cm = CacheManager(StorageHierarchy(str(tmp_path)))
    ix = UmziIndex(spec, cache=cm)
    g = np.random.default_rng(1)
    n = 500
    ix.add_groomed_run(IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"k": g.integers(0, 50, n)}, sorts={"s": g.integers(0, 20, n)},
        begin_ts=np.arange(n), rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    ))
    seen = _counting_reads(monkeypatch, cm)
    ks, ss = g.integers(0, 60, 400), g.integers(0, 20, 400)
    q.batch_lookup(ix, [ks], [ss], 10**6)
    assert seen and len(seen) == len(set(seen))


def test_two_sort_columns_tuple_filter():
    spec = IndexSpec(eq_cols=("d",), sort_cols=("s1", "s2"), hash_bits=4, block_rows=8)
    g = np.random.default_rng(0)
    n = 400
    d = g.integers(0, 4, n).astype(np.int64)
    s1 = g.integers(0, 10, n).astype(np.int64)
    s2 = g.integers(0, 10, n).astype(np.int64)
    ts = g.integers(1, 50, n).astype(np.int64)
    run = IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0,
        eq={"d": d}, sorts={"s1": s1, "s2": s2}, begin_ts=ts,
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )
    df = pd.DataFrame({"d": d, "s1": s1, "s2": s2, "ts": ts})
    res = run.search((2,), (3, 2), (7, 8), 10**6)
    exp = (
        df[(df.d == 2) & (df.s1 >= 3) & (df.s1 <= 7) & (df.s2 >= 2) & (df.s2 <= 8)]
        .sort_values("ts")
        .groupby(["s1", "s2"])
        .last()
        .reset_index()
    )
    got = sorted(zip(res["s1"].tolist(), res["s2"].tolist(), res["begin_ts"].tolist()))
    want = sorted(zip(exp.s1.tolist(), exp.s2.tolist(), exp.ts.tolist()))
    assert got == want
