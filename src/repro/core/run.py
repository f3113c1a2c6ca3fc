"""Index-run format and single-run search — paper §4.2 and §7.1.1.

An index run is logically a sorted table of

    ``hash(eqCols) | eqCols… | sortCols… | beginTS (desc) | RID | includes…``

physically stored as one **header block** (metadata, the groomed-block-ID
range this run covers, a per-key-column min/max **synopsis**, and a
2ⁿ-entry **hash offset array**) plus fixed-size **data blocks**.

All ordering fields — hash, equality columns, sort columns, and
*descending* beginTS (the timestamp is stored complemented) — are kept
in order-preserving uint64 encodings (:mod:`repro.core.encoding`) and
stored once per row as the §4.2 memcmp key: the fields' big-endian
8-byte words, row-major, in one fixed-width bytes column ``cols[KEY]``
whose bytewise order is the paper's order. ``cols["h"]``, ``cols["k0"]``
… ``cols["t"]`` are zero-copy strided ``>u8`` views of that column. A
data block holds the rows' stored keys, then ``z, b, o, i…`` column by
column; decoding it copies nothing.

Every search — a range scan's bounds, a point lookup, a batch of point
lookups — goes through one kernel, ``IndexRun._locate``: the offset array
(most-significant ``hash_bits`` of each probe hash) gives the initial
row range, the data blocks are binary-searched, and one vectorized
``np.searchsorted`` over each touched block's stored keys places all
pending probes; only the probes are encoded. Rows are read only through
a per-query ``BlockSource`` (:mod:`repro.storage.cache`), which reads
each data block once. A range scan then filters ``beginTS <= queryTS``
and keeps the first (= most recent) entry per key — the worked example
of Fig. 2 in the paper is test-encoded in ``tests/test_run_search.py``.
"""
from __future__ import annotations

import json
import uuid
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core import encoding as enc

if TYPE_CHECKING:
    from repro.storage.cache import BlockSource

GROOMED = "groomed"
POSTGROOMED = "postgroomed"

# RID zone codes (paper footnote 2: an RID = zone + block ID + offset).
ZONE_CODES = {GROOMED: 0, POSTGROOMED: 1}

_U64_MAX = np.iinfo(np.uint64).max

KEY = "key"  # the stored memcmp key column (see the module docstring)


@dataclass(frozen=True)
class IndexSpec:
    """Index definition (paper §4.1): equality + sort + included columns.

    ``hash_bits`` is *n* for the 2ⁿ-entry offset array; ``block_rows`` is
    the fixed data-block size in entries.
    """

    eq_cols: tuple[str, ...] = ()
    sort_cols: tuple[str, ...] = ()
    include_cols: tuple[str, ...] = ()
    hash_bits: int = 8
    block_rows: int = 4096

    def __post_init__(self):
        if not self.eq_cols and not self.sort_cols:
            raise ValueError("index needs at least one key column")
        if not 0 < self.hash_bits <= 32:
            raise ValueError("hash_bits must be in (0, 32]")
        if self.block_rows < 1:
            raise ValueError("block_rows must be positive")
        overlap = set(self.eq_cols) & set(self.sort_cols)
        if overlap:
            raise ValueError(f"column in both eq and sort: {overlap}")

    @property
    def key_cols(self) -> tuple[str, ...]:
        return self.eq_cols + self.sort_cols

    @cached_property
    def fields(self) -> tuple[str, ...]:
        """Every field of an entry (all uint64): the ordering fields (stored
        as the memcmp key), then ``z, b, o`` (the RID) and the includes."""
        return (
            ("h",)
            + tuple(f"k{i}" for i in range(len(self.eq_cols)))
            + tuple(f"s{i}" for i in range(len(self.sort_cols)))
            + ("t", "z", "b", "o")
            + tuple(f"i{i}" for i in range(len(self.include_cols)))
        )

    def to_json(self) -> dict:
        return {
            "eq_cols": list(self.eq_cols),
            "sort_cols": list(self.sort_cols),
            "include_cols": list(self.include_cols),
            "hash_bits": self.hash_bits,
            "block_rows": self.block_rows,
        }

    @classmethod
    def from_json(cls, d: dict) -> "IndexSpec":
        return cls(
            eq_cols=tuple(d["eq_cols"]),
            sort_cols=tuple(d["sort_cols"]),
            include_cols=tuple(d["include_cols"]),
            hash_bits=d["hash_bits"],
            block_rows=d["block_rows"],
        )


def key_fields(spec: IndexSpec) -> tuple[str, ...]:
    """The fields that order a run: hash, equality, sort columns, then
    inverted beginTS — newest version of a key first (§4.2)."""
    return spec.fields[: len(spec.key_cols) + 2]


def stored_fields(spec: IndexSpec) -> tuple[str, ...]:
    """The columns a run stores, in data-block order: ``KEY``, ``z, b, o, i…``."""
    return (KEY,) + spec.fields[len(spec.key_cols) + 2 :]


def with_key_views(spec: IndexSpec, cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``cols`` (the :func:`stored_fields`) plus each key field as a
    zero-copy strided ``>u8`` view of the stored key ``cols[KEY]``."""
    words = enc.key_words(cols[KEY])
    return {**cols, **{f: words[:, i] for i, f in enumerate(key_fields(spec))}}


def encode_keys(eq: list, sort: list, n: int) -> list[np.ndarray]:
    """Order-encoded key columns ``[h, eq…, sort…]`` of ``n`` rows from
    raw int64 equality and sort columns (§4.2)."""
    eq = [np.asarray(c, np.int64) for c in eq]
    return (
        [enc.hash_columns(eq, n)]
        + [enc.to_ordered_u64(c) for c in eq]
        + [enc.to_ordered_u64(np.asarray(c, np.int64)) for c in sort]
    )


def result_names(spec: IndexSpec) -> list[str]:
    """The user-facing columns of a query result, in order."""
    return (
        list(spec.eq_cols)
        + list(spec.sort_cols)
        + ["begin_ts", "rid_zone", "rid_block", "rid_off"]
        + list(spec.include_cols)
    )


def _ts_key(query_ts: int) -> np.uint64:
    """``query_ts`` encoded like a run's ``t`` column (order-encoded, then
    inverted): a version is visible at ``query_ts`` iff its ``t`` is >=
    this."""
    return np.uint64((1 << 63) - 1 - query_ts)


def _resident(run: IndexRun) -> BlockSource:
    from repro.storage.cache import BlockSource  # storage.cache imports this module

    return BlockSource(None, run)


class IndexRun:
    """One sorted, immutable index run (header + data blocks)."""

    def __init__(
        self,
        spec: IndexSpec,
        *,
        run_id: str,
        zone: str,
        level: int,
        gbid_lo: int,
        gbid_hi: int,
        cols: dict[str, np.ndarray],
        offset_array: np.ndarray,
        synopsis: dict[str, tuple[int, int]],
        ancestors: tuple[str, ...] = (),
    ):
        self.spec = spec
        self.run_id = run_id
        self.zone = zone
        self.level = level
        self.gbid_lo = gbid_lo
        self.gbid_hi = gbid_hi
        self.cols = with_key_views(spec, cols)
        self.offset_array = offset_array
        self.synopsis = synopsis
        self.ancestors = tuple(ancestors)
        self.n_entries = len(cols[KEY])
        self.key_fields = key_fields(spec)
        self._ends = np.append(offset_array, self.n_entries)  # bucket i: [ends[i], ends[i+1])

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        spec: IndexSpec,
        *,
        zone: str,
        level: int,
        gbid_lo: int,
        gbid_hi: int,
        eq: dict[str, np.ndarray] | None = None,
        sorts: dict[str, np.ndarray] | None = None,
        begin_ts: np.ndarray,
        rid_zone: np.ndarray,
        rid_block: np.ndarray,
        rid_off: np.ndarray,
        includes: dict[str, np.ndarray] | None = None,
        ancestors: tuple[str, ...] = (),
        run_id: str | None = None,
    ) -> "IndexRun":
        """Build a run from unsorted raw int64 entry columns (paper §5.2).

        Scans the entries, sorts them in the paper's order, and computes
        the offset array and the synopsis on the fly.
        """
        eq = eq or {}
        sorts = sorts or {}
        includes = includes or {}
        if set(eq) != set(spec.eq_cols) or set(sorts) != set(spec.sort_cols):
            raise ValueError("entry columns do not match the index spec")
        n = len(begin_ts)

        eq_arrays = [np.asarray(eq[c], dtype=np.int64) for c in spec.eq_cols]
        sort_arrays = [np.asarray(sorts[c], dtype=np.int64) for c in spec.sort_cols]
        order = encode_keys(eq_arrays, sort_arrays, n) + [
            enc.invert_ts(enc.to_ordered_u64(np.asarray(begin_ts, np.int64)))
        ]
        rest = [np.asarray(c, dtype=np.uint64) for c in (rid_zone, rid_block, rid_off)] + [
            enc.to_ordered_u64(np.asarray(includes[c], np.int64)) for c in spec.include_cols
        ]

        # np.lexsort (last key first) beats sorting packed keys on unsorted
        # input; packing the sorted fields, not permuting packed keys, saves RSS.
        perm = np.lexsort(order[::-1])
        order = [c[perm] for c in order]
        offset_array = cls._offsets(order[0], spec.hash_bits)
        cols = {KEY: enc.memcmp_keys(order)}
        cols.update((f, c[perm]) for f, c in zip(stored_fields(spec)[1:], rest))

        synopsis = {  # (0, -1): an empty range
            c: (int(arr.min()), int(arr.max())) if n else (0, -1)
            for c, arr in zip(spec.key_cols, eq_arrays + sort_arrays)
        }

        return cls(
            spec,
            run_id=run_id or f"{zone[0]}-{gbid_lo:08d}-{gbid_hi:08d}-L{level}-{uuid.uuid4().hex[:8]}",
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            cols=cols,
            offset_array=offset_array,
            synopsis=synopsis,
            ancestors=ancestors,
        )

    @staticmethod
    def _offsets(h_sorted: np.ndarray, bits: int) -> np.ndarray:
        """2ⁿ-entry offset array: bucket i → first row whose top-n bits ≥ i."""
        top = (h_sorted >> np.uint64(64 - bits)).astype(np.int64)
        return np.searchsorted(top, np.arange(1 << bits, dtype=np.int64), side="left")

    # ------------------------------------------------------------ merge build
    @classmethod
    def merge_runs(
        cls,
        runs: list["IndexRun"],
        *,
        level: int,
        ancestors: tuple[str, ...] = (),
        run_id: str | None = None,
    ) -> "IndexRun":
        """Merge several runs of one zone into a new sorted run (§5.3).

        All versions are retained — Umzi is a multi-version index, and the
        groomed/post-groomed duplicate elimination happens at query time
        (§5.4), never inside a zone merge. Only *identical* entries
        (same key, beginTS and RID — possible when an evolve raced a
        merge) collapse.
        """
        if not runs:
            raise ValueError("nothing to merge")
        spec = runs[0].spec
        zone = runs[0].zone
        if any(r.zone != zone for r in runs):
            raise ValueError("Umzi only merges runs within the same zone (§4.3)")
        # The inputs are sorted runs, which a stable sort (timsort) of the
        # concatenated keys finds and merges; equal keys keep input order.
        key = np.concatenate([r.cols[KEY] for r in runs])
        perm = np.argsort(key, kind="stable")
        cols = {
            f: np.concatenate([r.cols[f] for r in runs])[perm]
            for f in stored_fields(spec)[1:]
        }
        cols[KEY] = key[perm]
        same = cols[KEY][1:] == cols[KEY][:-1]
        for f in ("z", "b", "o"):
            same &= cols[f][1:] == cols[f][:-1]
        if same.any():
            keep = np.concatenate(([True], ~same))
            cols = {f: a[keep] for f, a in cols.items()}
        gbid_lo = min(r.gbid_lo for r in runs)
        gbid_hi = max(r.gbid_hi for r in runs)
        synopsis = {}
        for c in spec.key_cols:
            los = [r.synopsis[c][0] for r in runs if r.n_entries]
            his = [r.synopsis[c][1] for r in runs if r.n_entries]
            synopsis[c] = (min(los), max(his)) if los else (0, -1)
        return cls(
            spec,
            run_id=run_id
            or f"{zone[0]}-{gbid_lo:08d}-{gbid_hi:08d}-L{level}-{uuid.uuid4().hex[:8]}",
            zone=zone,
            level=level,
            gbid_lo=gbid_lo,
            gbid_hi=gbid_hi,
            cols=cols,
            offset_array=cls._offsets(enc.key_words(cols[KEY])[:, 0], spec.hash_bits),
            synopsis=synopsis,
            ancestors=ancestors,
        )

    # --------------------------------------------------------------- synopsis
    def synopsis_admits(
        self,
        eq_values: tuple[int, ...] | None,
        sort_lo: tuple[int, ...] | None,
        sort_hi: tuple[int, ...] | None,
    ) -> bool:
        """Run-pruning check (§4.2/§7): every constrained key column must
        overlap the synopsis range, else the run is skipped."""
        if self.n_entries == 0:
            return False
        if eq_values is not None:
            for c, v in zip(self.spec.eq_cols, eq_values):
                lo, hi = self.synopsis[c]
                if not (lo <= int(v) <= hi):
                    return False
        if self.spec.sort_cols:
            c0 = self.spec.sort_cols[0]
            lo, hi = self.synopsis[c0]
            if sort_lo is not None and int(sort_lo[0]) > hi:
                return False
            if sort_hi is not None and int(sort_hi[0]) < lo:
                return False
        return True

    def synopsis_admits_batch(
        self, eq_min: tuple[int, ...], eq_max: tuple[int, ...]
    ) -> bool:
        """Batch variant: does [batch min, batch max] of each equality
        column overlap the synopsis? Sequential batches are narrow and
        prune most runs; random batches span everything (Fig. 10 vs 11)."""
        if self.n_entries == 0:
            return False
        for c, vmin, vmax in zip(self.spec.eq_cols, eq_min, eq_max):
            lo, hi = self.synopsis[c]
            if int(vmax) < lo or int(vmin) > hi:
                return False
        return True

    # ----------------------------------------------------------------- search
    def _locate(
        self, src: BlockSource, keys: list[np.ndarray], right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The search kernel (§7.1.1): ``np.searchsorted(run, probes)`` for
        probe tuples over a prefix of :func:`key_fields` (``keys``, one
        column per field), with ``side='right'`` for the probes flagged in ``right``
        and ``'left'`` for the others, reading only the data blocks the
        search touches. Also returns the end of each probe's hash bucket.

        Only the probes are encoded: a prefix probe is padded to a full key
        with 0x00 bytes (a 'left' bound) or 0xFF bytes (a 'right' bound),
        which places it before or after every row sharing its prefix. The
        offset array bounds each probe to the rows whose hash shares its
        top ``hash_bits`` (§4.2), its bucket. A bucket spanning several
        blocks is bisected on the blocks' first keys, one block per step,
        so a probe reads at most ⌈log₂B⌉ + 1 of B blocks. One
        ``searchsorted`` per side over each remaining block's stored keys
        then places all of its probes, in place; ``src`` reads each block
        once however many probes touch it (§8.3.2).
        """
        br = self.spec.block_rows
        pad = [np.where(right, np.uint64(_U64_MAX), np.uint64(0))]
        probe = enc.memcmp_keys(keys + pad * (len(self.key_fields) - len(keys)))
        h = keys[0]
        top = (h >> np.uint64(64 - self.spec.hash_bits)).astype(np.intp)
        a, b = self._ends[top], self._ends[top + 1]
        pos = a.copy()  # an empty bucket is its own insertion point
        live = np.flatnonzero(a < b)
        if not len(live):
            return pos, b
        lo, hi = a[live] // br, (b[live] - 1) // br
        while True:
            act = np.flatnonzero(lo < hi)
            if not len(act):
                break
            mid = (lo[act] + hi[act] + 1) // 2
            first = src.take(mid * br, (KEY,))[KEY]
            p = probe[live[act]]
            before = (first > p) | ((first == p) & ~right[live[act]])
            lo[act] = np.where(before, lo[act], mid)
            hi[act] = np.where(before, mid - 1, hi[act])
        # Group the probes by block once: each group's rows are the union
        # of its probes' buckets within the block. Within a group, probes
        # in hash order let searchsorted walk the block's keys in order.
        order = np.lexsort((h[live], lo))
        live, lo = live[order], lo[order]
        start = np.flatnonzero(np.concatenate(([True], lo[1:] != lo[:-1])))
        blocks = lo[start]
        r0 = np.maximum(np.minimum.reduceat(a[live], start), blocks * br).tolist()
        r1 = np.minimum(np.maximum.reduceat(b[live], start), blocks * br + br).tolist()
        bounds = start.tolist() + [len(live)]
        any_right = right.any()
        for i, j in enumerate(blocks.tolist()):
            g = live[bounds[i] : bounds[i + 1]]
            rows = src.block(j)[KEY][r0[i] - j * br : r1[i] - j * br]
            pos[g] = r0[i] + np.searchsorted(rows, probe[g], "left")
            if any_right:
                g = g[right[g]]
                pos[g] = r0[i] + np.searchsorted(rows, probe[g], "right")
        return pos, b

    def probe(
        self, keys: list[np.ndarray], query_ts: int, source: BlockSource | None = None
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """§7.2 — the most recent version visible at ``query_ts`` of each
        full key; ``keys`` are its :func:`encode_keys` columns.

        Returns the decoded rows, one per distinct key found, and the mask
        of the probes found.
        """
        if len(keys) != len(self.key_fields) - 1:
            raise ValueError("a point lookup binds every key column (§7.2)")
        n = len(keys[0])
        if self.n_entries == 0:
            return self._empty_result(), np.zeros(n, dtype=bool)
        src = source or _resident(self)
        # Versions of a key run newest-first, so the first row at or after
        # (key, query_ts) is the latest visible one — if it has the key.
        ts = np.full(n, _ts_key(query_ts), np.uint64)
        pos, end = self._locate(src, keys + [ts], np.zeros(n, dtype=bool))
        cand = np.flatnonzero(pos < end)
        # A hit is a stored key whose words before ``t`` are the probe's key.
        stored = enc.key_words(src.take(pos[cand], (KEY,))[KEY])[:, :-1]
        hit = np.zeros(n, dtype=bool)
        hit[cand] = (stored == np.column_stack(keys)[cand]).all(1)
        if not hit.any():
            return self._empty_result(), hit
        rows = src.take(np.unique(pos[hit]), stored_fields(self.spec))
        return self._decode(with_key_views(self.spec, rows)), hit

    def search(
        self,
        eq_values: tuple[int, ...] | None,
        sort_lo: tuple[int, ...] | None,
        sort_hi: tuple[int, ...] | None,
        query_ts: int,
        source: BlockSource | None = None,
    ) -> dict[str, np.ndarray]:
        """§7.1.1 — most recent visible version per key within this run.

        ``eq_values`` must bind *all* equality columns (or None iff the
        index has none). ``sort_lo``/``sort_hi`` are inclusive bounds on
        the sort-column tuple (None = unbounded). Entries with
        ``beginTS > query_ts`` are invisible.
        """
        spec = self.spec
        if spec.eq_cols and (eq_values is None or len(eq_values) != len(spec.eq_cols)):
            raise ValueError("all equality columns must be specified (§7)")
        if self.n_entries == 0:
            return self._empty_result()
        src = source or _resident(self)

        # Two probes on the prefix (hash, eq…, s0): the lower bound (side
        # 'left') and the upper bound (side 'right'); an unbounded side
        # takes s0's extreme value.
        lo = -(2**63) if sort_lo is None else sort_lo[0]
        hi = 2**63 - 1 if sort_hi is None else sort_hi[0]
        keys = encode_keys([[v, v] for v in eq_values or ()], [[lo, hi]] if spec.sort_cols else [], 2)
        (a, b), _end = self._locate(src, keys, np.asarray([False, True]))
        if a >= b:
            return self._empty_result()
        sub = src.slice(a, b)

        # Visible versions only; sort columns beyond s0 get an exact filter.
        keep = sub["t"] >= _ts_key(query_ts)
        for i in range(1, len(spec.sort_cols)):
            col = enc.from_ordered_u64(sub[f"s{i}"])
            if sort_lo is not None and len(sort_lo) > i:
                keep &= col >= int(sort_lo[i])
            if sort_hi is not None and len(sort_hi) > i:
                keep &= col <= int(sort_hi[i])
        rows = np.flatnonzero(keep)
        if not len(rows):
            return self._empty_result()

        # First entry per key == most recent visible version (ts sorted
        # desc): the first row whose stored key differs before ``t``.
        w = enc.key_words(sub[KEY])[rows, :-1]
        rows = rows[np.concatenate(([True], (w[1:] != w[:-1]).any(1)))]
        return self._decode(with_key_views(spec, {f: sub[f][rows] for f in stored_fields(spec)}))

    def lookup(
        self,
        eq_values: tuple[int, ...] | None,
        sort_values: tuple[int, ...] | None,
        query_ts: int,
        source: BlockSource | None = None,
    ) -> dict[str, np.ndarray]:
        """Point lookup: full key, ≤ 1 entry (§7.2) — :meth:`probe` with
        one probe."""
        keys = encode_keys(
            [[v] for v in eq_values or ()], [[v] for v in sort_values or ()], 1
        )
        return self.probe(keys, query_ts, source)[0]

    # ----------------------------------------------------------------- decode
    def _empty_result(self) -> dict[str, np.ndarray]:
        return {c: np.empty(0, np.int64) for c in result_names(self.spec)}

    def _decode(self, sub: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Encoded internal fields → user-facing named int64 columns."""
        spec = self.spec
        out: dict[str, np.ndarray] = {}
        for i, c in enumerate(spec.eq_cols):
            out[c] = enc.from_ordered_u64(sub[f"k{i}"])
        for i, c in enumerate(spec.sort_cols):
            out[c] = enc.from_ordered_u64(sub[f"s{i}"])
        out["begin_ts"] = enc.from_ordered_u64(enc.invert_ts(sub["t"]))
        out["rid_zone"] = sub["z"].astype(np.int64)
        out["rid_block"] = sub["b"].astype(np.int64)
        out["rid_off"] = sub["o"].astype(np.int64)
        for i, c in enumerate(spec.include_cols):
            out[c] = enc.from_ordered_u64(sub[f"i{i}"])
        return out

    # ------------------------------------------------------------ persistence
    @property
    def n_blocks(self) -> int:
        return max(1, -(-self.n_entries // self.spec.block_rows))

    def header_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "zone": self.zone,
            "level": self.level,
            "gbid_lo": self.gbid_lo,
            "gbid_hi": self.gbid_hi,
            "n_entries": self.n_entries,
            "n_blocks": self.n_blocks,
            "spec": self.spec.to_json(),
            "offset_array": [int(x) for x in self.offset_array],
            "synopsis": {k: [int(v[0]), int(v[1])] for k, v in self.synopsis.items()},
            "ancestors": list(self.ancestors),
        }

    def block_bytes(self, i: int) -> bytes:
        """Serialize data block i: the rows' stored keys (row-major), then
        each other field's row-slice, concatenated."""
        a = i * self.spec.block_rows
        b = min(self.n_entries, a + self.spec.block_rows)
        return b"".join(self.cols[f][a:b].tobytes() for f in stored_fields(self.spec))

    @staticmethod
    def decode_block(spec: IndexSpec, data: bytes, rows: int) -> dict[str, np.ndarray]:
        """Zero-copy views of a data block: the stored key column, its
        field views, and every other field."""
        width = 8 * len(key_fields(spec))
        cols = {KEY: np.frombuffer(data, dtype=f"S{width}", count=rows)}
        off = rows * width
        for f in stored_fields(spec)[1:]:
            cols[f] = np.frombuffer(data, dtype=np.uint64, count=rows, offset=off)
            off += rows * 8
        return with_key_views(spec, cols)

    @classmethod
    def from_header_and_blocks(
        cls, header: dict, blocks: list[bytes]
    ) -> "IndexRun":
        """Rebuild a fully-resident run from its persisted form (§5.5)."""
        spec = IndexSpec.from_json(header["spec"])
        n, br = header["n_entries"], spec.block_rows
        parts = [
            cls.decode_block(spec, blk, min(br, n - i * br)) for i, blk in enumerate(blocks)
        ]
        return cls(
            spec,
            run_id=header["run_id"],
            zone=header["zone"],
            level=header["level"],
            gbid_lo=header["gbid_lo"],
            gbid_hi=header["gbid_hi"],
            cols={f: np.concatenate([d[f] for d in parts]) for f in stored_fields(spec)},
            offset_array=np.asarray(header["offset_array"], dtype=np.int64),
            synopsis={k: (v[0], v[1]) for k, v in header["synopsis"].items()},
            ancestors=tuple(header["ancestors"]),
        )

    def header_bytes(self) -> bytes:
        return json.dumps(self.header_json()).encode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IndexRun({self.run_id}, zone={self.zone}, L{self.level}, "
            f"gbids=[{self.gbid_lo},{self.gbid_hi}], n={self.n_entries})"
        )
