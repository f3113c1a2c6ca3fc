"""Index queries over the multi-run structure — paper §7.

Two query types: **range scans** (all equality columns bound + bounds on
the sort columns) and **point lookups** (entire key bound). Both take a
``query_ts`` and return only the most recent version per key with
``beginTS <= query_ts`` (snapshot semantics, §7).

Every query searches each run through the one kernel in
:mod:`repro.core.run`, reading the run's data blocks through the
per-query :class:`~repro.storage.cache.BlockSource` that
``UmziIndex.source_for`` hands out; the I/O a query is charged is the
blocks that source reads.

Reconciliation across runs is implemented both ways the paper describes
(§7.1.2): the **set approach** (search newest→oldest, remember returned
keys) and the **priority-queue approach** (k-way merge of per-run sorted
results). The set approach's "set" is an array of the §4.2 memcmp keys
returned so far, against which one vectorized membership test checks all
of a run's rows; the priority queue merges entry by entry.

Batched point lookups visit runs newest→oldest, searching each run once
for all still-pending probes (§7.2); run-level synopsis pruning uses the
batch's key envelope, which is what makes sequential batches
much cheaper than random ones (Fig. 10 vs 11).
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core import encoding as enc
from repro.core.index import UmziIndex
from repro.core.run import IndexSpec, encode_keys, result_names


def _concat(index: UmziIndex, parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    names = result_names(index.spec)
    if not parts:
        return {c: np.empty(0, np.int64) for c in names}
    return {c: np.concatenate([p[c] for p in parts]) for c in names}


def _key_tuple(index: UmziIndex, res: dict[str, np.ndarray], i: int) -> tuple:
    s = index.spec
    return tuple(int(res[c][i]) for c in s.eq_cols + s.sort_cols)


def row_keys(spec: IndexSpec, res: dict[str, np.ndarray], *extra: np.ndarray) -> np.ndarray:
    """The §4.2 memcmp key of each result row: its order-encoded equality
    and sort columns, then any ``extra`` uint64 columns."""
    return enc.memcmp_keys([enc.to_ordered_u64(res[c]) for c in spec.key_cols] + list(extra))


# ----------------------------------------------------------------- range scan
def range_scan(
    index: UmziIndex,
    eq_values: tuple[int, ...] | None,
    sort_lo: tuple[int, ...] | None,
    sort_hi: tuple[int, ...] | None,
    query_ts: int,
    method: str = "pq",
) -> dict[str, np.ndarray]:
    """Unified multi-zone range scan; ``method`` ∈ {'set', 'pq'} (§7.1.2).

    Both methods return identical rows (tested); they differ in how
    duplicates across runs/zones are removed.
    """
    snap = index.query_snapshot()
    candidates = [
        h
        for h in snap.runs
        if h.run.synopsis_admits(eq_values, sort_lo, sort_hi)
    ]
    if method == "set":
        return _scan_set(index, candidates, eq_values, sort_lo, sort_hi, query_ts)
    if method == "pq":
        return _scan_pq(index, candidates, eq_values, sort_lo, sort_hi, query_ts)
    raise ValueError(f"unknown reconciliation method {method!r}")


def _scan_set(index, candidates, eq_values, sort_lo, sort_hi, query_ts):
    """Set approach: newest→oldest, keep first (= most recent) per key.
    ``seen`` holds the memcmp keys returned so far; a run's result has one
    row per key, so one ``np.isin`` and one mask keep its new keys' rows."""
    seen = np.empty(0, f"S{8 * len(index.spec.key_cols)}")
    keep_parts: list[dict[str, np.ndarray]] = []
    for h in candidates:  # snapshot order is newest-first
        src = index.source_for(h.run)
        res = h.run.search(eq_values, sort_lo, sort_hi, query_ts, source=src)
        keys = row_keys(index.spec, res)
        new = ~np.isin(keys, seen, assume_unique=True)
        if new.any():
            keep_parts.append({c: v[new] for c, v in res.items()})
            seen = np.concatenate((seen, keys[new]))
    return _concat(index, keep_parts)


def _scan_pq(index, candidates, eq_values, sort_lo, sort_hi, query_ts):
    """Priority-queue approach: k-way merge of per-run sorted results,
    emitting the most recent version per key (merge-sort style, §7.1.2)."""
    streams = []
    for rank, h in enumerate(candidates):
        src = index.source_for(h.run)
        res = h.run.search(eq_values, sort_lo, sort_hi, query_ts, source=src)
        if len(res["begin_ts"]):
            streams.append((rank, res))
    heap: list[tuple] = []
    for rank, res in streams:
        # (key, -beginTS, run_rank) ordering: global key order; within a
        # key the most recent version first; ties broken by run recency.
        k = _key_tuple(index, res, 0)
        heapq.heappush(heap, (k, -int(res["begin_ts"][0]), rank, 0, res))
    out_parts: list[dict[str, np.ndarray]] = []
    last_key: tuple | None = None
    while heap:
        k, _negts, rank, i, res = heapq.heappop(heap)
        if k != last_key:
            out_parts.append({c: v[i : i + 1] for c, v in res.items()})
            last_key = k
        if i + 1 < len(res["begin_ts"]):
            nk = _key_tuple(index, res, i + 1)
            heapq.heappush(
                heap, (nk, -int(res["begin_ts"][i + 1]), rank, i + 1, res)
            )
    return _concat(index, out_parts)


# --------------------------------------------------------------- point lookup
def point_lookup(
    index: UmziIndex,
    eq_values: tuple[int, ...] | None,
    sort_values: tuple[int, ...] | None,
    query_ts: int,
) -> dict[str, int] | None:
    """§7.2 — newest→oldest with early exit on the first match."""
    keys = encode_keys([[v] for v in eq_values or ()], [[v] for v in sort_values or ()], 1)
    for h in index.query_snapshot().runs:
        if not h.run.synopsis_admits(eq_values, sort_values, sort_values):
            continue
        res, hit = h.run.probe(keys, query_ts, index.source_for(h.run))
        if hit[0]:
            # Early exit (§7.2): runs are visited newest→oldest, so the
            # first visible match is the most recent version of the key.
            return {c: int(v[0]) for c, v in res.items()}
    return None


# --------------------------------------------------------------- batch lookup
def batch_lookup(
    index: UmziIndex,
    eq_probes: list[np.ndarray],
    sort_probes: list[np.ndarray],
    query_ts: int,
    runs=None,
) -> dict[str, np.ndarray]:
    """§7.2 — batched point lookups.

    Runs are visited newest→oldest, each searched **once** for every
    still-pending probe, until every key is found or the runs are
    exhausted. Returns one row per distinct key found (probe order not
    preserved; join on the key).

    ``runs`` overrides the candidate run list (newest-first); the
    post-groomer uses this to consult only the post-groomed portion of
    the index when collecting to-be-replaced RIDs (§2.1/§5.4).
    """
    nprobe = len(eq_probes[0]) if eq_probes else len(sort_probes[0])
    keys = encode_keys(eq_probes, sort_probes, nprobe)
    raw_eq = [np.asarray(p, np.int64) for p in eq_probes]
    found = np.zeros(nprobe, dtype=bool)
    parts: list[dict[str, np.ndarray]] = []
    candidates = index.query_snapshot().runs if runs is None else tuple(runs)
    for hd in candidates:
        pending = np.flatnonzero(~found)
        if not len(pending):
            break
        if raw_eq:
            eq_min = tuple(int(c[pending].min()) for c in raw_eq)
            eq_max = tuple(int(c[pending].max()) for c in raw_eq)
            if not hd.run.synopsis_admits_batch(eq_min, eq_max):
                continue
        res, hit = hd.run.probe(
            [k[pending] for k in keys], query_ts, index.source_for(hd.run)
        )
        parts.append(res)
        found[pending[hit]] = True
    return _concat(index, parts)
