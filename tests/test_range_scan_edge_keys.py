"""Range scans over edge-value keys (§4.2, §7.1.2).

Keys such as 0, 256 or INT64_MIN order-encode to memcmp bytes that end
in ``0x00``, which numpy's fixed-width ``S`` dtype treats as padding.
Set and priority-queue reconciliation must still agree with each other
and with a pandas oracle, for every index shape, over several runs with
updates and at a time-travel ``query_ts``.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import query as q
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, IndexRun, IndexSpec

I64_MIN, I64_MAX = -(2**63), 2**63 - 1
EDGE = [I64_MIN, I64_MIN + 1, -1, 0, 1, 255, 256, I64_MAX]

# I1 = a | b, I2 = (a, b), I3 = a alone, pure range over (a, b).
SHAPES = {
    "I1": (("a",), ("b",)),
    "I2": (("a", "b"), ()),
    "I3": (("a",), ()),
    "range": ((), ("a", "b")),
}

edge = st.sampled_from(EDGE)
runs_st = st.lists(st.lists(st.tuples(edge, edge), min_size=1, max_size=12), min_size=2, max_size=4)


def build(shape, runs):
    eq_cols, sort_cols = SHAPES[shape]
    spec = IndexSpec(eq_cols=eq_cols, sort_cols=sort_cols, include_cols=("v",),
                     hash_bits=2, block_rows=3)
    ix = UmziIndex(spec, UmziConfig(K=100, T=2))  # no merging: keep runs
    frames = []
    for gb, rows in enumerate(runs):
        n = len(rows)
        df = pd.DataFrame(rows, columns=["a", "b"], dtype=np.int64)
        if len(eq_cols + sort_cols) == 1:
            df["b"] = 0
        df["ts"] = (gb << 16) + np.arange(n)
        df["v"] = gb * 1000 + np.arange(n)
        df["rid_block"], df["rid_off"] = gb, np.arange(n)
        cols = {c: df[c].values for c in ("a", "b")}
        ix.add_groomed_run(IndexRun.build(
            spec, zone=GROOMED, level=0, gbid_lo=gb, gbid_hi=gb,
            eq={c: cols[c] for c in eq_cols}, sorts={c: cols[c] for c in sort_cols},
            begin_ts=df.ts.values, rid_zone=np.zeros(n), rid_block=df.rid_block.values,
            rid_off=df.rid_off.values, includes={"v": df.v.values},
        ))
        frames.append(df)
    return ix, pd.concat(frames, ignore_index=True)


def oracle(df, eq_cols, sort_cols, eq, lo, hi, qts):
    """Newest version per key visible at ``qts`` within the scan's range."""
    d = df[df.ts <= qts]
    for c, x in zip(eq_cols, eq or ()):
        d = d[d[c] == x]
    if sort_cols and lo:
        d = d[d[sort_cols[0]] >= lo[0]]
    if sort_cols and hi:
        d = d[d[sort_cols[0]] <= hi[0]]
    key = list(eq_cols + sort_cols)
    d = d.sort_values("ts").groupby(key).last().reset_index()
    d["rid_zone"] = 0
    cols = key + ["ts", "v", "rid_zone", "rid_block", "rid_off"]
    return sorted(zip(*(d[c].tolist() for c in cols)))


def rows(res, key):
    cols = list(key) + ["begin_ts", "v", "rid_zone", "rid_block", "rid_off"]
    return sorted(zip(*(res[c].tolist() for c in cols)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=15, deadline=None)
@given(runs=runs_st, lo=edge, hi=edge, cut=st.integers(0, 3))
def test_edge_keys_set_equals_pq_equals_oracle(shape, runs, lo, hi, cut):
    eq_cols, sort_cols = SHAPES[shape]
    key = eq_cols + sort_cols
    ix, df = build(shape, runs)
    eqs = sorted({tuple(r)[: len(eq_cols)] for r in df[["a", "b"]].itertuples(index=False)})
    bounds = [(None, None), ((lo,), (hi,)), ((lo,), None)] if sort_cols else [(None, None)]
    for qts in (2**62, (cut << 16) + 5):  # latest, and time travel into run ``cut``
        for eq in eqs:
            for b_lo, b_hi in bounds:
                args = (eq or None, b_lo, b_hi, qts)
                a = q.range_scan(ix, *args, method="set")
                b = q.range_scan(ix, *args, method="pq")
                want = oracle(df, eq_cols, sort_cols, eq, b_lo, b_hi, qts)
                assert rows(a, key) == rows(b, key) == want
