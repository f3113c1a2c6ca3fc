"""Cross-run query reconciliation — paper §7.1.2 / §7.2 — against a
pandas oracle, with updates, time travel and both reconciliation methods."""
import numpy as np
import pandas as pd
import pytest

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.core.runlist import RunHandle
from repro.storage import CacheManager, StorageHierarchy, capture_io

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), include_cols=("v",), hash_bits=5, block_rows=64)


def build_workload(n_runs=8, per_run=150, key_space=40, sort_space=20, seed=0, cache=None):
    """Multi-run index with heavy key overlap (updates across runs)."""
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2), cache)  # no merging: keep runs
    frames = []
    for gb in range(n_runs):
        g = np.random.default_rng(seed * 1000 + gb)
        n = per_run
        df = pd.DataFrame({
            "k": g.integers(0, key_space, n).astype(np.int64),
            "s": g.integers(0, sort_space, n).astype(np.int64),
            "ts": (np.int64(gb) << 16) + np.arange(n, dtype=np.int64),
            "v": g.integers(0, 10**9, n).astype(np.int64),
        })
        run = IndexRun.build(
            SPEC, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": df.v.values},
        )
        ix.add_groomed_run(run)
        frames.append(df)
    return ix, pd.concat(frames, ignore_index=True)


def oracle_scan(df, kv, lo, hi, qts):
    d = df[(df.k == kv) & (df.s >= lo) & (df.s <= hi) & (df.ts <= qts)]
    d = d.sort_values("ts").groupby("s").last()
    return sorted(zip(d.index.tolist(), d.ts.tolist(), d.v.tolist()))


@pytest.mark.parametrize("method", ["set", "pq"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("qts", [2**62, (4 << 16) + 50])
def test_range_scan_vs_oracle(method, seed, qts):
    ix, df = build_workload(seed=seed)
    for kv in (0, 7, 39):
        for lo, hi in [(0, 19), (3, 9), (5, 5)]:
            res = q.range_scan(ix, (kv,), (lo,), (hi,), qts, method=method)
            got = sorted(zip(res["s"].tolist(), res["begin_ts"].tolist(), res["v"].tolist()))
            assert got == oracle_scan(df, kv, lo, hi, qts)


def whole_rows(res):
    """Every result column of every row, as a sorted list of tuples."""
    return sorted(zip(*(res[c].tolist() for c in sorted(res))))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_set_and_pq_methods_agree(seed):
    ix, df = build_workload(seed=seed)
    for kv in range(0, 40, 5):
        a = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="set")
        b = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="pq")
        assert sorted(a) == sorted(b)
        assert whole_rows(a) == whole_rows(b)


@pytest.mark.parametrize("seed", [0, 1])
def test_cross_zone_ties_return_groomed_rid(seed):
    """Mid-evolve (step 1 done, covered gbid not yet bumped) the PG run
    repeats the groomed versions of gbids 0–1 with PG RIDs; both methods
    must answer every duplicated key with the groomed RID (§5.4)."""
    ix, df = build_workload(n_runs=4, seed=seed)
    mig = df[df.ts < (2 << 16)]
    n = len(mig)
    ix.postgroomed.prepend(RunHandle(IndexRun.build(
        SPEC, zone=POSTGROOMED, level=6, gbid_lo=0, gbid_hi=1,
        eq={"k": mig.k.values}, sorts={"s": mig.s.values}, begin_ts=mig.ts.values,
        rid_zone=np.ones(n), rid_block=np.zeros(n), rid_off=np.arange(n),
        includes={"v": mig.v.values},
    )))
    duplicated = 0
    for kv in range(40):
        a = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="set")
        b = q.range_scan(ix, (kv,), (0,), (19,), 2**62, method="pq")
        assert whole_rows(a) == whole_rows(b)
        got = sorted(zip(a["s"].tolist(), a["begin_ts"].tolist(), a["v"].tolist()))
        assert got == oracle_scan(df, kv, 0, 19, 2**62)
        dup = np.isin(a["begin_ts"], mig.ts.values)
        duplicated += int(dup.sum())
        assert (a["rid_zone"][dup] == 0).all()
    assert duplicated > 0


def test_range_scan_unknown_method():
    ix, _ = build_workload()
    with pytest.raises(ValueError, match="unknown reconciliation"):
        q.range_scan(ix, (1,), (0,), (5,), 2**62, method="hash")


@pytest.mark.parametrize("seed", [0, 5])
def test_point_lookup_matches_scan(seed):
    ix, df = build_workload(seed=seed)
    g = np.random.default_rng(seed)
    for _ in range(40):
        kv, sv = int(g.integers(0, 40)), int(g.integers(0, 20))
        got = q.point_lookup(ix, (kv,), (sv,), 2**62)
        exp = {s: (ts, v) for s, ts, v in oracle_scan(df, kv, 0, 10**9, 2**62)}
        if sv in exp:
            assert got is not None
            assert (got["begin_ts"], got["v"]) == exp[sv]
        else:
            assert got is None


@pytest.mark.parametrize("batch", [1, 17, 200])
@pytest.mark.parametrize("seed", [0, 1])
def test_batch_lookup_matches_point_lookups(batch, seed, tmp_path):
    g = np.random.default_rng(seed + 99)
    ks = g.integers(0, 40, batch).astype(np.int64)
    ss = g.integers(0, 20, batch).astype(np.int64)
    # every probe key again, plus the first one a third time
    ks, ss = np.concatenate([ks, ks, ks[:1]]), np.concatenate([ss, ss, ss[:1]])
    for cache in (None, CacheManager(StorageHierarchy(str(tmp_path)))):
        ix, df = build_workload(seed=seed, cache=cache)
        res = q.batch_lookup(ix, [ks], [ss], 2**62)
        got = {(int(k), int(s)): int(t) for k, s, t in zip(res["k"], res["s"], res["begin_ts"])}
        assert len(got) == len(res["begin_ts"])  # one row per distinct key found
        for kv, sv in set(zip(ks.tolist(), ss.tolist())):
            single = q.point_lookup(ix, (kv,), (sv,), 2**62)
            if single is None:
                assert (kv, sv) not in got
            else:
                assert got[(kv, sv)] == single["begin_ts"]


def test_batch_lookup_pure_range_index():
    """No equality columns: the probes' hash column is all zeros."""
    spec = IndexSpec(sort_cols=("s",), hash_bits=4, block_rows=4)
    ix = UmziIndex(spec)
    n = 20
    ix.add_groomed_run(IndexRun.build(
        spec, zone=GROOMED, level=0, gbid_lo=0, gbid_hi=0, eq={},
        sorts={"s": np.arange(n) * 3 % 17}, begin_ts=np.arange(n),
        rid_zone=np.zeros(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    ))
    res = q.batch_lookup(ix, [], [np.array([3, 7, 99])], 2**62)
    assert sorted(zip(res["s"].tolist(), res["begin_ts"].tolist())) == [(3, 18), (7, 8)]


def test_nonpersisted_level_reads_are_mem_tier_reads(tmp_path):
    """One I/O accounting (§6.1): a run in a non-persisted level is read
    from the mem tier, and the query's capture agrees with IOStats."""
    cache = CacheManager(StorageHierarchy(str(tmp_path)))
    cfg = UmziConfig(K=2, T=2, nonpersisted_levels=frozenset({1}))
    ix = UmziIndex(SPEC, cfg, cache)
    for gb in range(2):  # K=2: the two level-0 runs merge into one level-1 run
        n = 100
        g = np.random.default_rng(gb)
        ix.add_groomed_run(IndexRun.build(
            SPEC, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": g.integers(0, 40, n)}, sorts={"s": g.integers(0, 20, n)},
            begin_ts=(gb << 16) + np.arange(n), rid_zone=np.zeros(n),
            rid_block=np.full(n, gb), rid_off=np.arange(n), includes={"v": np.arange(n)},
        ))
        ix.maintain()
    runs = ix.query_snapshot().runs
    assert [h.level for h in runs] == [1]
    assert cache.state(runs[0].run.run_id).local == "mem"
    before = cache.h.stats.snapshot()["reads"]
    with capture_io() as cap:
        q.batch_lookup(ix, [np.arange(40)], [np.full(40, 3)], 2**62)
        q.range_scan(ix, (5,), (0,), (19,), 2**62)
        q.point_lookup(ix, (7,), (3,), 2**62)
    after = cache.h.stats.snapshot()["reads"]
    delta = {t: after[t] - before[t] for t in after}
    assert cap.reads == delta
    assert delta["mem"] > 0 and delta["ssd"] == delta["shared"] == 0


def test_batch_lookup_with_timestamp():
    ix, df = build_workload(seed=2)
    qts = (3 << 16) + 10
    ks = np.arange(40, dtype=np.int64)
    ss = np.full(40, 4, dtype=np.int64)
    res = q.batch_lookup(ix, [ks], [ss], qts)
    got = {int(k): int(t) for k, t in zip(res["k"], res["begin_ts"])}
    for kv in range(40):
        exp = dict((s, t) for s, t, _ in oracle_scan(df, kv, 4, 4, qts))
        if 4 in exp:
            assert got[kv] == exp[4]
        else:
            assert kv not in got


def test_batch_lookup_runs_override():
    """The runs= override restricts the search (used by the post-groomer
    to consult only the PG portion)."""
    ix, df = build_workload(n_runs=4, seed=3)
    snap = ix.query_snapshot().runs
    oldest_only = snap[-1:]
    ks = df.k.values[:50].astype(np.int64)
    ss = df.s.values[:50].astype(np.int64)
    full = q.batch_lookup(ix, [ks], [ss], 2**62)
    restricted = q.batch_lookup(ix, [ks], [ss], 2**62, runs=oldest_only)
    # restricted search sees only the oldest run's versions
    assert len(restricted["begin_ts"]) <= len(full["begin_ts"])
    if len(restricted["begin_ts"]):
        assert int(restricted["begin_ts"].max()) < (1 << 16)


def test_synopsis_pruning_skips_runs():
    """Sequentially partitioned runs: a narrow batch only searches the
    runs whose synopsis admits it (the Fig. 10 pruning effect)."""
    ix = UmziIndex(SPEC, UmziConfig(K=100, T=2))
    for gb in range(10):
        n = 100
        ks = np.arange(gb * 100, gb * 100 + n, dtype=np.int64)
        run = IndexRun.build(
            SPEC, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"k": ks}, sorts={"s": np.zeros(n, np.int64)},
            begin_ts=np.arange(n, dtype=np.int64) + (gb << 16),
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": ks},
        )
        ix.add_groomed_run(run)
    probes_k = np.arange(250, 260, dtype=np.int64)  # inside run gb=2 only
    admits = [
        h.run.synopsis_admits_batch((int(probes_k.min()),), (int(probes_k.max()),))
        for h in ix.query_snapshot().runs
    ]
    assert sum(admits) == 1
    res = q.batch_lookup(ix, [probes_k], [np.zeros(10, np.int64)], 2**62)
    assert len(res["begin_ts"]) == 10


def test_empty_index_queries():
    ix = UmziIndex(SPEC)
    assert len(q.range_scan(ix, (1,), (0,), (5,), 2**62)["begin_ts"]) == 0
    assert q.point_lookup(ix, (1,), (2,), 2**62) is None
    res = q.batch_lookup(ix, [np.asarray([1, 2])], [np.asarray([0, 0])], 2**62)
    assert len(res["begin_ts"]) == 0


def test_i2_style_two_equality_columns():
    spec = IndexSpec(eq_cols=("a", "b"), include_cols=("v",), hash_bits=5, block_rows=32)
    ix = UmziIndex(spec, UmziConfig(K=100, T=2))
    frames = []
    for gb in range(4):
        g = np.random.default_rng(gb)
        n = 200
        df = pd.DataFrame({
            "a": g.integers(0, 10, n).astype(np.int64),
            "b": g.integers(0, 10, n).astype(np.int64),
            "ts": (gb << 16) + np.arange(n),
            "v": g.integers(0, 100, n).astype(np.int64),
        })
        run = IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={"a": df.a.values, "b": df.b.values}, sorts={},
            begin_ts=df.ts.values.astype(np.int64),
            rid_zone=np.zeros(n), rid_block=np.full(n, gb), rid_off=np.arange(n),
            includes={"v": df.v.values},
        )
        ix.add_groomed_run(run)
        frames.append(df)
    df = pd.concat(frames, ignore_index=True)
    for av in range(10):
        for bv in (0, 5, 9):
            got = q.point_lookup(ix, (av, bv), None, 2**62)
            sub = df[(df.a == av) & (df.b == bv)]
            if len(sub):
                last = sub.loc[sub.ts.idxmax()]
                assert got is not None and got["begin_ts"] == last.ts and got["v"] == last.v
            else:
                assert got is None
