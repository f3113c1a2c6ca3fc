"""Separate-per-zone-index baseline — demonstrates the §1 motivation:
without a unified view, queries see duplicates during zone migration and
must pay per-query reconciliation; Umzi's 3-step evolve never does."""
import numpy as np
import pandas as pd

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, POSTGROOMED, IndexRun, IndexSpec
from repro.core.separate import SeparateZoneIndexes

SPEC = IndexSpec(eq_cols=("k",), sort_cols=("s",), hash_bits=4, block_rows=64)
CFG = UmziConfig(K=100, T=2)


def entries(gbid, n=100):
    g = np.random.default_rng(gbid)
    return pd.DataFrame({
        "k": g.integers(0, 10, n).astype(np.int64),
        "s": g.integers(0, 10, n).astype(np.int64),
        "ts": (np.int64(gbid) << 16) + np.arange(n, dtype=np.int64),
    })


def groomed_run(df, gbid):
    n = len(df)
    return IndexRun.build(
        SPEC, zone=GROOMED, level=0, gbid_lo=gbid, gbid_hi=gbid,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.zeros(n), rid_block=np.full(n, gbid), rid_off=np.arange(n),
    )


def pg_run(df, lo, hi):
    n = len(df)
    return IndexRun.build(
        SPEC, zone=POSTGROOMED, level=6, gbid_lo=lo, gbid_hi=hi,
        eq={"k": df.k.values}, sorts={"s": df.s.values}, begin_ts=df.ts.values,
        rid_zone=np.ones(n), rid_block=np.zeros(n), rid_off=np.arange(n),
    )


def test_naive_union_returns_duplicates_mid_migration():
    """Between the PG-side add and the groomed-side drop, the divided
    view returns the same key version twice."""
    sep = SeparateZoneIndexes(SPEC, CFG)
    df = entries(0)
    sep.add_groomed_run(groomed_run(df, 0))
    sep.add_postgroomed_run(pg_run(df, 0, 0))  # migration half-done
    res = sep.query_naive((3,), (0,), (9,), 2**62)
    keys = list(zip(res["s"].tolist(), res["begin_ts"].tolist()))
    assert len(keys) != len(set(keys))  # duplicates visible to the query!


def test_correct_union_needs_extra_reconciliation():
    sep = SeparateZoneIndexes(SPEC, CFG)
    df = entries(0)
    sep.add_groomed_run(groomed_run(df, 0))
    sep.add_postgroomed_run(pg_run(df, 0, 0))
    res = sep.query_correct((3,), (0,), (9,), 2**62)
    keys = res["s"].tolist()
    assert len(keys) == len(set(keys))  # fixed, but at per-query cost


def test_umzi_unified_view_never_duplicates_mid_evolve():
    """Umzi mid-evolve (after step 1, before step 3): reconciliation
    removes cross-zone duplicates by construction (§5.4)."""
    ix = UmziIndex(SPEC, CFG)
    df = entries(0)
    ix.add_groomed_run(groomed_run(df, 0))
    # evolve step 1 only: PG run added, covered gbid NOT yet bumped
    from repro.core.runlist import RunHandle

    ix.postgroomed.prepend(RunHandle(pg_run(df, 0, 0)))
    for method in ("set", "pq"):
        res = q.range_scan(ix, (3,), (0,), (9,), 2**62, method=method)
        keys = list(zip(res["s"].tolist(), res["begin_ts"].tolist()))
        assert len(keys) == len(set(keys))


def test_separate_drop_then_consistent():
    sep = SeparateZoneIndexes(SPEC, CFG)
    df = entries(0)
    sep.add_groomed_run(groomed_run(df, 0))
    sep.add_postgroomed_run(pg_run(df, 0, 0))
    sep.drop_covered_groomed_runs(0)
    res = sep.query_naive((3,), (0,), (9,), 2**62)
    keys = list(zip(res["s"].tolist(), res["begin_ts"].tolist()))
    assert len(keys) == len(set(keys))  # clean again once GC completes


def test_correct_union_matches_umzi():
    sep = SeparateZoneIndexes(SPEC, CFG)
    ix = UmziIndex(SPEC, CFG)
    dfs = []
    for gb in range(3):
        df = entries(gb)
        sep.add_groomed_run(groomed_run(df, gb))
        ix.add_groomed_run(groomed_run(df, gb))
        dfs.append(df)
    all_df = pd.concat(dfs, ignore_index=True)
    for kv in range(10):
        a = sep.query_correct((kv,), (0,), (9,), 2**62)
        b = q.range_scan(ix, (kv,), (0,), (9,), 2**62, method="pq")
        assert sorted(zip(a["s"].tolist(), a["begin_ts"].tolist())) == sorted(
            zip(b["s"].tolist(), b["begin_ts"].tolist())
        )


def loop_reference(u, key):
    """Row-at-a-time max-beginTS per key; a tie keeps the earlier row."""
    keep = {}
    for i in range(len(u["begin_ts"])):
        k = tuple(int(u[c][i]) for c in key)
        if k not in keep or int(u["begin_ts"][i]) > int(u["begin_ts"][keep[k]]):
            keep[k] = i
    sel = sorted(keep.values())
    return {c: v[sel] for c, v in u.items()}


def test_query_correct_equals_loop_reference_at_edge_values():
    """Every pair of int64 edge values as the groomed and the PG beginTS
    of one key, ties included: the vectorized reconciliation equals the
    row loop (a tie keeps the groomed RID)."""
    edge = [-(2**63), -(2**63) + 1, -1, 0, 1, 255, 256, 2**63 - 1]
    k, s = np.repeat(edge, 8), np.tile(edge, 8)
    sep = SeparateZoneIndexes(SPEC, CFG)
    sep.add_groomed_run(groomed_run(pd.DataFrame({"k": k, "s": s, "ts": k}), 0))
    sep.add_postgroomed_run(pg_run(pd.DataFrame({"k": k, "s": s, "ts": s}), 0, 0))
    for kv in edge:
        for qts in (2**63 - 1, 0):
            u = sep.query_naive((kv,), None, None, qts)
            want = loop_reference(u, ("k", "s"))
            got = sep.query_correct((kv,), None, None, qts)
            for c in u:
                assert got[c].tolist() == want[c].tolist(), c
