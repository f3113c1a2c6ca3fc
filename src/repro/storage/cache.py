"""Run persistence + multi-tier cache management — paper §6.

Responsibilities, mapped to the paper:

* **Persistence** (§5.5/§6.1): runs in *persisted* levels write header +
  data blocks to shared storage; runs in *non-persisted* levels live only
  in local memory (optionally spilled to SSD) and carry their ancestor
  run IDs so recovery can fall back to the persisted ancestors.
* **Caching** (§6.2): data blocks of recent runs are cached on SSD (or in
  memory); a *current cached level* separates cached from purged runs.
  Purging a run drops its data blocks from the local tiers but keeps the
  header block "for queries to locate data blocks". New runs below the
  cached level are written through to the SSD cache.
* **Query reads** (§7): every query reads a run's data blocks through one
  :class:`BlockSource`, which reads each block once per query and drops
  them when the query ends. A block of a purged run is transferred
  shared → SSD on its first read and stays cached.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.run import IndexRun, stored_fields, with_key_views
from repro.storage.tiers import SSD_LATENCY, StorageHierarchy, charge_capture


def _header_key(run_id: str) -> str:
    return f"runs/{run_id}/header"


def _block_key(run_id: str, i: int) -> str:
    return f"runs/{run_id}/block.{i:05d}"


@dataclass
class _RunState:
    header: dict
    persisted: bool  # data blocks exist on shared storage
    local: str  # "mem" | "ssd" | "none" — where data blocks are cached locally


class CacheManager:
    """Mediates every block read/write between the index and the tiers."""

    def __init__(self, hierarchy: StorageHierarchy):
        self.h = hierarchy
        self._runs: dict[str, _RunState] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ write
    def write_run(
        self, run: IndexRun, *, persisted: bool, cache_tier: str = "ssd"
    ) -> None:
        """Store a freshly built run.

        ``persisted``: also written to shared storage (mandatory for level
        0 and all persisted levels, §6.1). ``cache_tier``: 'mem' | 'ssd' |
        'none' — 'none' models a run created above the current cached
        level (no write-through, §6.2); its header still goes to shared.
        """
        if not persisted and cache_tier == "none":
            raise ValueError("a non-persisted run must be cached locally (§6.1)")
        hdr = run.header_bytes()
        blocks = [run.block_bytes(i) for i in range(run.n_blocks)]
        if persisted:
            self.h.shared.put(_header_key(run.run_id), hdr)
            for i, blk in enumerate(blocks):
                self.h.shared.put(_block_key(run.run_id, i), blk)
        if cache_tier == "mem":
            self.h.mem.put(_header_key(run.run_id), hdr)
            for i, blk in enumerate(blocks):
                self.h.mem.put(_block_key(run.run_id, i), blk)
        elif cache_tier == "ssd":
            self.h.ssd.put(_header_key(run.run_id), hdr)
            for i, blk in enumerate(blocks):
                self.h.ssd.put(_block_key(run.run_id, i), blk)
        with self._lock:
            self._runs[run.run_id] = _RunState(
                header=run.header_json(), persisted=persisted, local=cache_tier
            )

    # ------------------------------------------------------------------- read
    def read_block(self, run_id: str, i: int) -> bytes:
        """mem → SSD → shared; a shared-storage hit caches the block on SSD
        (block-basis transfer, §7)."""
        key = _block_key(run_id, i)
        if self.h.mem.exists(key):
            return self.h.mem.get(key)
        if self.h.ssd.exists(key):
            return self.h.ssd.get(key)
        data = self.h.shared.get(key)
        try:
            self.h.ssd.put(key, data)
        except FileExistsError:  # pragma: no cover - concurrent fetch race
            pass
        with self._lock:
            st = self._runs.get(run_id)
            if st is not None and st.local == "none":
                st.local = "ssd"  # partially cached now
        return data

    def state(self, run_id: str) -> _RunState:
        with self._lock:
            return self._runs[run_id]

    def known_runs(self) -> list[str]:
        with self._lock:
            return sorted(self._runs)

    # ------------------------------------------------------------ purge/load
    def purge_run(self, run_id: str) -> None:
        """Drop data blocks from the local tiers; keep the header (§6.2).

        Only legal for persisted runs — purging a non-persisted run would
        lose data.
        """
        with self._lock:
            st = self._runs[run_id]
            if not st.persisted:
                raise ValueError(f"cannot purge non-persisted run {run_id}")
            n_blocks = st.header["n_blocks"]
            st.local = "none"
        for i in range(n_blocks):
            self.h.mem.delete(_block_key(run_id, i))
            self.h.ssd.delete(_block_key(run_id, i))

    def load_run(self, run_id: str) -> None:
        """Prefetch all data blocks shared → SSD (reverse of purging)."""
        with self._lock:
            st = self._runs[run_id]
            n_blocks = st.header["n_blocks"]
        for i in range(n_blocks):
            key = _block_key(run_id, i)
            if not self.h.ssd.exists(key) and not self.h.mem.exists(key):
                try:
                    self.h.ssd.put(key, self.h.shared.get(key))
                except FileExistsError:  # pragma: no cover
                    pass
        with self._lock:
            self._runs[run_id].local = "ssd"

    def delete_run(self, run_id: str, *, from_shared: bool = True) -> None:
        """GC a merged/evolved-away run from every tier it occupies."""
        with self._lock:
            st = self._runs.pop(run_id, None)
        n_blocks = st.header["n_blocks"] if st else 0
        for tier in (self.h.mem, self.h.ssd) + ((self.h.shared,) if from_shared else ()):
            tier.delete(_header_key(run_id))
            for i in range(n_blocks):
                tier.delete(_block_key(run_id, i))

    # ------------------------------------------------------------ recovery IO
    def list_shared_headers(self) -> list[dict]:
        """All run headers present on shared storage (recovery, §5.5)."""
        out = []
        for key in self.h.shared.list("runs/"):
            if key.endswith("/header"):
                out.append(json.loads(self.h.shared.get(key)))
        return out

    def read_shared_run(self, header: dict) -> IndexRun:
        blocks = [
            self.h.shared.get(_block_key(header["run_id"], i))
            for i in range(header["n_blocks"])
        ]
        return IndexRun.from_header_and_blocks(header, blocks)


class BlockSource:
    """One query's reader of one run's data blocks — the only way the
    search kernel (``IndexRun.search``/``probe``) reaches entries.

    A block is read once per source, on first touch: through
    :meth:`CacheManager.read_block` when the run lives in a hierarchy
    (any tier, mem included), or — for a run with no hierarchy, whose
    blocks are already resident — from the run's own columns, charged to
    ``capture_io`` as one SSD read: §8.3 runs every query with the runs
    cached on the local SSD. The blocks read are released with the source
    when the query ends (§7).
    """

    def __init__(self, cache: CacheManager | None, run: IndexRun):
        self.cache = cache
        self.run = run
        self.fields = run.spec.fields
        self._blocks: dict[int, dict[str, np.ndarray]] = {}

    def block(self, bi: int) -> dict[str, np.ndarray]:
        """Every field of block ``bi``, read on this source's first touch."""
        blk = self._blocks.get(bi)
        if blk is None:
            a = bi * self.run.spec.block_rows
            rows = min(self.run.spec.block_rows, self.run.n_entries - a)
            if self.cache is None:
                blk = {f: col[a : a + rows] for f, col in self.run.cols.items()}
                charge_capture("ssd", rows * 8 * len(self.fields), SSD_LATENCY)
            else:
                data = self.cache.read_block(self.run.run_id, bi)
                blk = IndexRun.decode_block(self.run.spec, data, rows)
            self._blocks[bi] = blk
        return blk

    def slice(self, a: int, b: int) -> dict[str, np.ndarray]:
        """Every field of the rows [a, b)."""
        br = self.run.spec.block_rows
        parts = [
            (self.block(bi), max(a - bi * br, 0), min(b - bi * br, br))
            for bi in range(a // br, (b - 1) // br + 1)
        ]
        return with_key_views(self.run.spec, {
            f: np.concatenate([blk[f][lo:hi] for blk, lo, hi in parts])
            for f in stored_fields(self.run.spec)
        })

    def take(self, rows: np.ndarray, fields=None) -> dict[str, np.ndarray]:
        """``fields`` (default: all) at the row positions ``rows``."""
        fields = fields or self.fields
        br = self.run.spec.block_rows
        blocks = rows // br
        touched = np.unique(blocks).tolist()
        parts = [self.block(bi) for bi in touched]
        if self.cache is None:  # resident blocks are slices of the run's columns
            return {f: self.run.cols[f][rows] for f in fields}
        if len(parts) == 1:
            return {f: parts[0][f][rows - touched[0] * br] for f in fields}
        out = {f: np.empty(len(rows), self.run.cols[f].dtype) for f in fields}
        for bi, blk in zip(touched, parts):
            at = blocks == bi
            for f in fields:
                out[f][at] = blk[f][rows[at] - bi * br]
        return out
