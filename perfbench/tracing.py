"""Span and counter recorder for the traced benchmark run.

The wrappers are installed from the benchmark's own files around the
public callables of each layer (``Tracer.install_layers``) and removed
again after every traced round, so untraced rounds and ``--trace 0`` runs
execute the program unmodified. Spans live in memory as tuples
``(id, name, parent_id, start, end)``; the parent is carried in a
contextvar, so nested calls into other layers become child spans.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent_span", default=None
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording
    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = _PARENT.get()
        token = _PARENT.set(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            _PARENT.reset(token)
            self.spans.append((sid, name, parent, t0, t1))

    def _wrap_fn(self, fn, name, before, after, spanned):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            if spanned:
                with tracer.span(name(args, kwargs) if callable(name) else name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if after:
                after(ctx, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr, name=None, *, before=None, after=None, spanned=True):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name (or a function of the call's arguments);
        ``before(args, kwargs)`` returns a context handed to
        ``after(ctx, args, kwargs, result)``, which records counters.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrap_fn(raw.__func__, name, before, after, spanned))
        else:
            new = self._wrap_fn(raw, name, before, after, spanned)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------ layers
    def install_layers(self) -> None:
        """Wrap the public callables of every layer the benchmark drives."""
        from repro.core import encoding, query, recovery
        from repro.core.index import UmziIndex
        from repro.core.merge import MergePolicy
        from repro.core.run import IndexRun
        from repro.sparkio.datasource import UmziReader
        from repro.storage.cache import CacheManager
        from repro.wildfire import Groomer, Indexer, PostGroomer, TableShard

        count = self.count

        # core.encoding
        self.wrap(encoding, "hash_columns", "encoding.hash_columns")

        # core.run
        def entries(key):
            return lambda _c, _a, _k, run: count(key, run.n_entries)

        self.wrap(IndexRun, "build", "run.build", after=entries("run.build.entries"))
        self.wrap(
            IndexRun, "merge_runs", "run.merge_runs",
            after=entries("run.merge_runs.entries"),
        )
        self.wrap(IndexRun, "search", "run.search")
        self.wrap(IndexRun, "decode_block", "run.decode_block")
        self.wrap(IndexRun, "block_bytes", "run.block_bytes")

        def synopsis(_c, _a, _k, admitted):
            count("query.runs_considered")
            if not admitted:
                count("query.runs_pruned")

        for attr in ("synopsis_admits", "synopsis_admits_batch"):
            self.wrap(IndexRun, attr, after=synopsis, spanned=False)

        # core.merge
        self.wrap(
            MergePolicy, "step", "merge.step",
            after=lambda _c, _a, _k, events: count("merge.events", len(events)),
        )

        # core.index
        self.wrap(UmziIndex, "maintain", "index.maintain")
        self.wrap(
            UmziIndex, "evolve", "index.evolve",
            before=lambda a, _k: len(a[0].groomed.snapshot()),
            after=lambda n0, a, _k, _r: count(
                "index.gc_runs", n0 - len(a[0].groomed.snapshot())
            ),
        )
        self.wrap(UmziIndex, "apply_cache_level", "index.apply_cache_level")

        def visible(_c, _a, _k, snap):
            count("index.snapshots")
            count("index.visible_runs", len(snap.runs))

        self.wrap(UmziIndex, "query_snapshot", after=visible, spanned=False)

        # core.query
        def batch_hits(_c, a, k, res):
            probes = a[1] if len(a) > 1 else k["eq_probes"]
            count("query.probes", len(probes[0]) if probes else len(a[2][0]))
            count("query.hits", len(res["begin_ts"]))

        def point_hit(_c, _a, _k, res):
            count("query.probes")
            count("query.hits", res is not None)

        self.wrap(query, "batch_lookup", "query.batch_lookup", after=batch_hits)
        self.wrap(query, "point_lookup", "query.point_lookup", after=point_hit)
        self.wrap(
            query, "range_scan",
            lambda a, k: "query.range_scan." + k.get("method", a[5] if len(a) > 5 else "pq"),
        )

        # core.recovery
        def recovered(before, a, _k, index):
            after = a[2].h.stats.snapshot()
            count(
                "recovery.runs_recovered",
                len(index.groomed.snapshot()) + len(index.postgroomed.snapshot()),
            )
            count("recovery.shared_reads", after["reads"]["shared"] - before["reads"]["shared"])
            count(
                "recovery.shared_bytes_read",
                after["bytes_read"]["shared"] - before["bytes_read"]["shared"],
            )

        self.wrap(
            recovery, "recover", "recovery.recover",
            before=lambda a, _k: a[2].h.stats.snapshot(), after=recovered,
        )

        # storage.cache
        self.wrap(CacheManager, "write_run", "cache.write_run")
        self.wrap(
            CacheManager, "read_block", "cache.read_block",
            before=lambda a, _k: a[0].h.stats.reads["shared"],
            after=lambda n0, a, _k, _r: count(
                "cache.read_block.misses", a[0].h.stats.reads["shared"] > n0
            ),
        )
        self.wrap(CacheManager, "read_shared_run", "cache.read_shared_run")
        self.wrap(
            CacheManager, "purge_run",
            after=lambda _c, _a, _k, _r: count("index.runs_purged"), spanned=False,
        )

        # wildfire
        self.wrap(TableShard, "ingest", "shard.ingest")
        self.wrap(Groomer, "groom", "groomer.groom")
        self.wrap(PostGroomer, "post_groom", "postgroomer.post_groom")
        self.wrap(
            Indexer, "poll", "indexer.poll",
            before=lambda a, _k: self.note_max(
                "indexer.psn_lag_max", a[0].pg.max_psn - a[0].index.indexed_psn
            ),
        )

        # sparkio: only the in-process replay of the reader is visible here;
        # Spark's Python workers import the unwrapped module. read() is a
        # generator, so the replay records its span around consuming it.
        self.wrap(UmziReader, "partitions", "sparkio.partitions")

    # ------------------------------------------------------------ analysis
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by its child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, parent, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _name, _parent, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def top_level_seconds(self) -> float:
        return sum(t1 - t0 for _s, _n, parent, t0, t1 in self.spans if parent is None)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [list(s) for s in self.spans],
                    "counters": dict(self.counters),
                    "maxima": dict(self.maxima),
                },
                f,
            )


def layer_metrics(tracer: Tracer, io: dict, user_bytes: int, rounds: int) -> dict:
    """Per-layer metrics, per traced round, from spans, counters and the
    tier statistics (``io``: summed ``IOStats.snapshot()`` deltas)."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s[1]].append(s)
    self_t = tracer.self_times()
    names = {s[0]: s[1] for s in tracer.spans}
    parents = {s[0]: s[2] for s in tracer.spans}

    def under(sid: int, ancestor: str) -> bool:
        p = parents[sid]
        while p is not None:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    def total(name):
        return sum(t1 - t0 for _s, _n, _p, t0, t1 in by_name[name]) / rounds

    def self_total(name):
        return sum(self_t[s[0]] for s in by_name[name]) / rounds

    def calls(name):
        return len(by_name[name]) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    n_batches = len(by_name["query.batch_lookup"])
    blocks_in_lookups = sum(
        1 for s in by_name["cache.read_block"] if under(s[0], "query.batch_lookup")
    )
    pg_lookup_s = sum(
        s[4] - s[3]
        for s in by_name["query.batch_lookup"]
        if under(s[0], "postgroomer.post_groom")
    )
    df_s = total("sparkio.df_pushed") + total("sparkio.df_full")
    return {
        "query.batch_lookup.self_s": (self_total("query.batch_lookup"), "s"),
        "query.point_lookup.self_s": (self_total("query.point_lookup"), "s"),
        "query.range_scan.pq.self_s": (self_total("query.range_scan.pq"), "s"),
        "query.range_scan.set.self_s": (self_total("query.range_scan.set"), "s"),
        "query.runs_considered": (c["query.runs_considered"] / rounds, "count"),
        "query.runs_pruned": (c["query.runs_pruned"] / rounds, "count"),
        "query.prune_ratio": (ratio(c["query.runs_pruned"], c["query.runs_considered"]), "ratio"),
        "query.probe_hit_ratio": (ratio(c["query.hits"], c["query.probes"]), "ratio"),
        "run.build.s": (total("run.build"), "s"),
        "run.build.entries": (c["run.build.entries"] / rounds, "count"),
        "run.merge_runs.s": (total("run.merge_runs"), "s"),
        "run.merge_runs.entries": (c["run.merge_runs.entries"] / rounds, "count"),
        "run.search.s": (total("run.search"), "s"),
        "run.search.calls": (calls("run.search"), "count"),
        "run.decode_block.s": (total("run.decode_block"), "s"),
        "run.decode_block.calls": (calls("run.decode_block"), "count"),
        "run.block_bytes.s": (total("run.block_bytes"), "s"),
        "encoding.hash_columns.s": (total("encoding.hash_columns"), "s"),
        "encoding.hash_columns.calls": (calls("encoding.hash_columns"), "count"),
        "merge.step.self_s": (self_total("merge.step"), "s"),
        "merge.events": (c["merge.events"] / rounds, "count"),
        "index.evolve.self_s": (self_total("index.evolve"), "s"),
        "index.evolve.calls": (calls("index.evolve"), "count"),
        "index.gc_runs": (c["index.gc_runs"] / rounds, "count"),
        "index.visible_runs_mean": (ratio(c["index.visible_runs"], c["index.snapshots"]), "count"),
        "index.apply_cache_level.s": (total("index.apply_cache_level"), "s"),
        "index.runs_purged": (c["index.runs_purged"] / rounds, "count"),
        "recovery.recover.self_s": (self_total("recovery.recover"), "s"),
        "recovery.runs_recovered": (c["recovery.runs_recovered"] / rounds, "count"),
        "recovery.shared_reads": (c["recovery.shared_reads"] / rounds, "count"),
        "recovery.shared_bytes_read": (c["recovery.shared_bytes_read"] / rounds, "bytes"),
        "cache.write_run.s": (total("cache.write_run"), "s"),
        "cache.read_block.s": (total("cache.read_block"), "s"),
        "cache.read_block.calls": (calls("cache.read_block"), "count"),
        "cache.blocks_per_lookup": (ratio(blocks_in_lookups, n_batches), "count"),
        "cache.hit_ratio": (
            ratio(
                len(by_name["cache.read_block"]) - c["cache.read_block.misses"],
                len(by_name["cache.read_block"]),
            ),
            "ratio",
        ),
        "tiers.virtual_io_s": (io["simulated_seconds"] / rounds, "s"),
        "tiers.mem.reads": (io["reads"]["mem"] / rounds, "count"),
        "tiers.ssd.reads": (io["reads"]["ssd"] / rounds, "count"),
        "tiers.shared.reads": (io["reads"]["shared"] / rounds, "count"),
        "tiers.shared.bytes_read": (io["bytes_read"]["shared"] / rounds, "bytes"),
        "tiers.ssd.bytes_written": (io["bytes_written"]["ssd"] / rounds, "bytes"),
        "tiers.shared.bytes_written": (io["bytes_written"]["shared"] / rounds, "bytes"),
        "tiers.shared.write_amp": (ratio(io["bytes_written"]["shared"], user_bytes), "ratio"),
        "shard.ingest.s": (total("shard.ingest"), "s"),
        "groomer.groom.self_s": (self_total("groomer.groom"), "s"),
        "postgroomer.post_groom.self_s": (self_total("postgroomer.post_groom"), "s"),
        "postgroomer.pg_lookup_s": (pg_lookup_s / rounds, "s"),
        "indexer.poll.self_s": (self_total("indexer.poll"), "s"),
        "indexer.psn_lag_max": (tracer.maxima["indexer.psn_lag_max"], "count"),
        "sparkio.partitions.s": (total("sparkio.partitions"), "s"),
        "sparkio.runs_scanned": (c["sparkio.runs_scanned"] / rounds, "count"),
        "sparkio.runs_skipped": (c["sparkio.runs_skipped"] / rounds, "count"),
        "sparkio.read.s": (total("sparkio.read"), "s"),
        "sparkio.blocks_read": (c["sparkio.blocks_read"] / rounds, "count"),
        "sparkio.rows_emitted": (c["sparkio.rows_emitted"] / rounds, "count"),
        "sparkio.engine_s": (
            max(0.0, df_s - total("sparkio.partitions") - total("sparkio.read")) if df_s else 0.0,
            "s",
        ),
        "sparkio.baseline_scan_s": (total("sparkio.baseline"), "s"),
    }
