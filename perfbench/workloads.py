"""The three benchmark workloads and their oracles.

Every workload is one client in a closed loop: ``round(i, rec, tracer)``
runs one deterministic round of operations built from the seed, times each
operation through ``rec.op`` and checks its answer against a
latest-version-per-key oracle outside the timed region. ``setup(rec)``
builds the program state, repeated where it is cheap, and times each step
into ``rec``'s set-up series. ``io`` sums the ``IOStats`` of every storage hierarchy the
rounds used, so the traced run can take per-round tier deltas.

Probe batches are checked with key-set semantics: a found key must appear
and carry the oracle's version, and no other key may appear. The memory
path returns one row per probe including repeated probe keys while the
block path returns one row per distinct key, and ``batch_lookup``'s callers
join on the key, so both are accepted.
"""
from __future__ import annotations

import os
import shlex
import shutil
import sys
import tempfile
import time

import numpy as np
import pandas as pd

from repro.core import query, recovery
from repro.core.index import UmziConfig, UmziIndex
from repro.core.run import GROOMED, IndexRun
from repro.experiments import defs
from repro.storage import CacheManager, StorageHierarchy
from repro.synth_data import iot_update_cycle
from repro.wildfire import Groomer, Indexer, PostGroomer, TableSchema, TableShard
from repro.wildfire.groomer import TS_CYCLE_BITS

QTS = 2**62  # snapshot timestamp: the latest version of every key
SPLIT = defs.SPLIT  # flat key k <-> (c1, c2) = (k // SPLIT, k % SPLIT)
USER_BYTES_PER_ROW = 3 * 8  # (c1, c2, v), all 8-byte longs
SCHEMA = TableSchema("iot", ("c1", "c2", "v"), ("c1", "c2"), ("c1",), ("c1",))


def _empty_io() -> dict:
    tiers = ("mem", "ssd", "shared")
    return {
        "reads": dict.fromkeys(tiers, 0),
        "writes": dict.fromkeys(tiers, 0),
        "bytes_read": dict.fromkeys(tiers, 0),
        "bytes_written": dict.fromkeys(tiers, 0),
        "simulated_seconds": 0.0,
    }


def io_add(acc: dict, snap: dict, sign: int = 1) -> None:
    for k, v in snap.items():
        if isinstance(v, dict):
            for t, n in v.items():
                acc[k][t] += sign * n
        else:
            acc[k] += sign * v


def io_delta(after: dict, before: dict) -> dict:
    out = _empty_io()
    io_add(out, after)
    io_add(out, before, -1)
    return out


def check_keyed(res: dict, probe_keys: np.ndarray, exp_keys, exp_cols: dict) -> str | None:
    """Key-set check of a lookup or scan result against the oracle.

    ``exp_keys`` (sorted, unique) are the probe keys the oracle finds and
    ``exp_cols`` their expected column values in the same order.
    """
    got = res["c1"] * SPLIT + res["c2"]
    if not np.isin(got, probe_keys).all():
        return "returned a key that was not probed"
    ukeys = np.unique(got)
    if not np.array_equal(ukeys, exp_keys):
        return f"found {len(ukeys)} distinct keys, oracle finds {len(exp_keys)}"
    pos = np.searchsorted(exp_keys, got)
    for col, exp in exp_cols.items():
        bad = int(np.count_nonzero(res[col] != exp[pos]))
        if bad:
            return f"{bad} rows with a wrong {col}"
    return None


def _one_row(res: dict | None) -> dict:
    """A point_lookup answer (one row or None) as result columns."""
    return {c: np.array([res[c]] if res else [], np.int64) for c in ("c1", "c2", "begin_ts", "v")}


def _timed_build(rec, steps) -> None:
    """Time each step of one build, ``(fn, rows)``, into the "build_step"
    series as a write of ``rows`` rows, and the build into "build" as their
    sum. Each step is paired with its own reference time; the build's is
    the one that scales it by the sum of its steps' scaled times."""
    walls, refs = [], []
    for fn, rows in steps:
        ref = rec.ref_for("build_step")
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        refs.append(ref)
        rec.sample("build_step", walls[-1], ref)
        rec.value("write_rows", rows)
    ref = None if None in refs else sum(walls) / sum(w / r for w, r in zip(walls, refs))
    rec.sample("build", sum(walls), ref)


def _timed(rec, series: str, fn):
    """A set-up step: timed into ``series``, not an operation."""
    ref = rec.ref_for(series)
    t0 = time.perf_counter()
    out = fn()
    rec.sample(series, time.perf_counter() - t0, ref)
    return out


# --------------------------------------------------------------- lookup_mem
class LookupMem:
    """20 level-0 I1 runs x 100K randomly ingested keys, no storage
    hierarchy (the memory path); batch_lookup + interleaved point_lookup."""

    RUNS, RUN_ROWS = 20, 100_000
    # Uniform keys over 2M ids leave 1 - 1/e of the key space ingested, so
    # about 37% of uniform probes miss.
    KEY_SPACE = 2_000_000
    BATCH, POINTS = 1000, 25
    SETUPS = 7

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.io = _empty_io()
        self.user_bytes = 0
        rng = np.random.default_rng([seed, 0])
        n = self.RUN_ROWS
        self.keys = [rng.integers(0, self.KEY_SPACE, n) for _ in range(self.RUNS)]
        self.vals = [rng.integers(0, 1 << 40, n) for _ in range(self.RUNS)]
        self.ts = [(np.int64(r) << 24) + np.arange(n, dtype=np.int64) for r in range(self.RUNS)]
        k, t, v = (np.concatenate(x) for x in (self.keys, self.ts, self.vals))
        order = np.lexsort((t, k))
        k, t, v = k[order], t[order], v[order]
        last = np.append(k[1:] != k[:-1], True)
        self.okeys, self.ots, self.ov = k[last], t[last], v[last]
        self.index = None

    def _build_run(self, spec, index, r: int) -> None:
        n, keys = self.RUN_ROWS, self.keys[r]
        index.add_groomed_run(
            IndexRun.build(
                spec, zone=GROOMED, level=0, gbid_lo=r, gbid_hi=r,
                eq={"c1": keys // SPLIT}, sorts={"c2": keys % SPLIT},
                begin_ts=self.ts[r], rid_zone=np.zeros(n, np.int64),
                rid_block=np.full(n, r, np.int64), rid_off=np.arange(n, dtype=np.int64),
                includes={"v": self.vals[r]},
            )
        )

    def setup(self, rec) -> None:
        """SETUPS builds of the index, one run at a time; the last is kept."""
        for _ in range(self.SETUPS):
            self.index = None
            spec = defs.make_spec("I1")
            index = UmziIndex(spec)
            _timed_build(rec, (
                (lambda r=r: self._build_run(spec, index, r), self.RUN_ROWS)
                for r in range(self.RUNS)
            ))
            self.index = index

    def _expect(self, keys: np.ndarray):
        u = np.unique(keys)
        pos = np.minimum(np.searchsorted(self.okeys, u), len(self.okeys) - 1)
        hit = self.okeys[pos] == u
        return u[hit], {"begin_ts": self.ots[pos[hit]], "v": self.ov[pos[hit]]}

    def round(self, i: int, rec, tracer=None) -> None:
        rng = np.random.default_rng([self.seed, 1, i])
        ix = self.index
        qk = rng.integers(0, self.KEY_SPACE, self.BATCH)
        exp = self._expect(qk)
        rec.op(
            "lookup",
            lambda: query.batch_lookup(ix, [qk // SPLIT], [qk % SPLIT], QTS),
            check=lambda res: check_keyed(res, qk, *exp),
            io="lookup_io",
        )
        for k in rng.integers(0, self.KEY_SPACE, self.POINTS):
            k = int(k)
            exp_k = self._expect(np.array([k]))
            rec.op(
                "point_lookup",
                lambda k=k: query.point_lookup(ix, (k // SPLIT,), (k % SPLIT,), QTS),
                check=lambda res, k=k, exp_k=exp_k: check_keyed(
                    _one_row(res), np.array([k]), *exp_k
                ),
            )

    def close(self) -> None:
        self.index = None


# --------------------------------------------------------------- htap_cycle
class HtapCycle:
    """The §8.4 ingest -> groom -> maintain (-> post-groom + poll) loop with
    the IoT update model; a round is one whole pass from an empty shard,
    ending with crash_node() -> recover() -> a verification batch."""

    CYCLES, PER_CYCLE, PG_EVERY = 20, 4000, 8  # last cycle is no post-groom boundary
    P = 0.1
    BATCHES, BATCH, NEW_FRAC = 1, 1000, 0.1
    CACHE_LEVEL = 1  # purges levels >= 2 and every post-groomed run
    CONFIG = UmziConfig()
    SETUPS = 9

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.io = _empty_io()
        self.user_bytes = 0
        self.spec = defs.make_spec("I1")
        never_lo = self.CYCLES * self.PER_CYCLE  # iot_update_cycle never reaches it
        latest = np.full(never_lo, -1, np.int64)
        self.cycles = []
        next_key = 0
        for c in range(self.CYCLES):
            keys, next_key = iot_update_cycle(
                c, self.PER_CYCLE, p=self.P, next_new_key=next_key, seed=seed
            )
            v = np.random.default_rng([seed, 2, c]).integers(0, 1 << 40, len(keys))
            frame = pd.DataFrame({"c1": keys // SPLIT, "c2": keys % SPLIT, "v": v})
            uk, first = np.unique(keys[::-1], return_index=True)  # last write wins
            latest[uk] = v[::-1][first]
            batches = [
                self._probe_batch(np.random.default_rng([seed, 3, c, b]), next_key, never_lo, latest)
                for b in range(self.BATCHES)
            ]
            self.cycles.append((frame, batches))
        self.verify_batch = self._probe_batch(
            np.random.default_rng([seed, 4]), next_key, never_lo, latest
        )
        self.live_keys = int(np.count_nonzero(latest >= 0))

    def _probe_batch(self, rng, next_key, never_lo, latest):
        n_new = int(self.BATCH * self.NEW_FRAC)
        qk = np.concatenate([
            rng.integers(0, next_key, self.BATCH - n_new),
            rng.integers(never_lo, 2 * never_lo, n_new),
        ])
        u = np.unique(qk[qk < never_lo])
        u = u[latest[u] >= 0]
        return qk, (u, {"v": latest[u]})

    def _open(self, root: str):
        hier = StorageHierarchy(root)
        cache = CacheManager(hier)
        index = UmziIndex(self.spec, self.CONFIG, cache)
        shard = TableShard(SCHEMA, hier)
        groomer = Groomer(shard, index, hier, maintain=False)
        pg = PostGroomer(SCHEMA, index, hier)
        return hier, cache, index, shard, groomer, pg, Indexer(SCHEMA, index, hier, pg)

    def _warm_up(self) -> None:
        """Fresh objects plus one pass of every step on a throwaway
        hierarchy, so lazy imports and first-call costs stay out of the loop."""
        root = tempfile.mkdtemp(dir=self.tmp)
        try:
            hier, cache, index, shard, groomer, pg, indexer = self._open(root)
            frame, [(qk, _exp), *_] = self.cycles[0]
            shard.ingest(frame)
            groomer.groom()
            index.maintain()
            pg.post_groom(upto_gbid=groomer.next_gbid - 1)
            indexer.poll()
            index.apply_cache_level(self.CACHE_LEVEL)
            query.batch_lookup(index, [qk // SPLIT], [qk % SPLIT], QTS)
            hier.crash_node()
            recovery.recover(self.spec, self.CONFIG, cache)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def setup(self, rec) -> None:
        for _ in range(self.SETUPS):
            _timed(rec, "setup", self._warm_up)

    def _lookup(self, rec, index, batch, metric, io=None) -> None:
        qk, exp = batch
        rec.op(
            metric,
            lambda: query.batch_lookup(index, [qk // SPLIT], [qk % SPLIT], QTS),
            check=lambda res: check_keyed(res, qk, *exp),
            io=io,
        )

    def round(self, i: int, rec, tracer=None) -> None:
        root = tempfile.mkdtemp(dir=self.tmp)
        try:
            hier, cache, index, shard, groomer, pg, indexer = self._open(root)
            for c, (frame, batches) in enumerate(self.cycles):
                post_groom = (c + 1) % self.PG_EVERY == 0

                def write(frame=frame, post_groom=post_groom):
                    shard.ingest(frame)
                    groomer.groom()
                    index.maintain()
                    if post_groom:
                        pg.post_groom(upto_gbid=groomer.next_gbid - 1)
                        indexer.poll()

                rec.op("cycle_write", write)
                self.user_bytes += len(frame) * USER_BYTES_PER_ROW
                index.apply_cache_level(self.CACHE_LEVEL)
                for batch in batches:
                    self._lookup(rec, index, batch, "lookup", io="lookup_io")
            rec.value("write_rows", sum(len(f) for f, _b in self.cycles))
            hier.crash_node()
            recovered = rec.op(
                "recovery", lambda: recovery.recover(self.spec, self.CONFIG, cache)
            )
            if recovered is not None:
                self._lookup(rec, recovered, self.verify_batch, "verify_lookup")
            rec.value(
                "space_amp",
                hier.shared.used_bytes() / (self.live_keys * USER_BYTES_PER_ROW),
            )
            io_add(self.io, hier.stats.snapshot())
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def close(self) -> None:
        pass


# ------------------------------------------------------------ analytic_scan
class AnalyticScan:
    """A Wildfire-built I1 table (device = c1, message number = c2) with every
    run cached on the SSD tier; range scans over one device's message
    window with both reconciliation methods, and `umzi` DataFrame scans."""

    DEVICES, CYCLES, MSGS = 2, 13, 1000  # MSGS new messages per device per cycle
    PG_EVERY = 4  # the last cycle stays groomed, so both zones are visible
    FIX_FRAC = 0.05  # re-sent messages of the last 3 cycles (cross-run versions)
    WINDOWS = (100, 300, 1_000, 3_000, 10_000)
    SCAN_SETS = 8  # windows of each size per round
    DF_WINDOW = 1_000
    SETUPS = 5  # a table build takes seconds

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.io = _empty_io()
        self.user_bytes = 0
        self.spec = defs.make_spec("I1")
        self.total_msgs = self.CYCLES * self.MSGS
        shape = (self.DEVICES, self.total_msgs)
        self.ov = np.zeros(shape, np.int64)
        self.ots = np.zeros(shape, np.int64)
        rng = np.random.default_rng([seed, 5])
        self.frames = []
        for c in range(self.CYCLES):
            dev = np.repeat(np.arange(self.DEVICES), self.MSGS)
            msg = np.tile(np.arange(c * self.MSGS, (c + 1) * self.MSGS), self.DEVICES)
            n_fix = int(self.FIX_FRAC * len(dev))
            dev = np.concatenate([dev, rng.integers(0, self.DEVICES, n_fix)])
            msg = np.concatenate([
                msg, rng.integers(max(0, c - 2) * self.MSGS, (c + 1) * self.MSGS, n_fix)
            ])
            v = rng.integers(0, 1 << 40, len(dev))
            ts = (np.int64(c + 1) << TS_CYCLE_BITS) + np.arange(len(dev), dtype=np.int64)
            # Rows are applied in commit order, so the last write of a key wins.
            flat = (dev * self.total_msgs + msg)[::-1]
            uk, first = np.unique(flat, return_index=True)
            self.ov.flat[uk] = v[::-1][first]
            self.ots.flat[uk] = ts[::-1][first]
            self.frames.append(pd.DataFrame({"c1": dev, "c2": msg, "v": v}))
        self.rows = sum(len(f) for f in self.frames)
        self.index = self.hier = self.spark = None

    # ----------------------------------------------------------------- setup
    def _build(self, rec) -> None:
        """One table build, timed a cycle at a time."""
        if self.hier is not None:
            shutil.rmtree(os.path.dirname(self.hier.shared.root), ignore_errors=True)
        hier = StorageHierarchy(tempfile.mkdtemp(dir=self.tmp))
        index = UmziIndex(self.spec, UmziConfig(), CacheManager(hier))
        shard = TableShard(SCHEMA, hier)
        groomer = Groomer(shard, index, hier)
        pg = PostGroomer(SCHEMA, index, hier)
        indexer = Indexer(SCHEMA, index, hier, pg)

        def cycle(c, frame):
            shard.ingest(frame)
            groomer.groom()
            if (c + 1) % self.PG_EVERY == 0:
                pg.post_groom(upto_gbid=groomer.next_gbid - 1)
                indexer.poll()

        _timed_build(rec, (
            (lambda c=c, f=f: cycle(c, f), len(f)) for c, f in enumerate(self.frames)
        ))
        self.index, self.hier = index, hier

    def build_table(self, rec) -> None:
        for _ in range(self.SETUPS):
            self._build(rec)

    def setup(self, rec) -> None:
        self.build_table(rec)
        self.spark = _timed(rec, "spark_start", lambda: start_spark(self.tmp))

        def warm_up():
            rng = np.random.default_rng([self.seed, 7])
            self._df_pushed(rec, rng, "df_pushed_warmup")
            self._df_full(rec, "df_full_warmup")
            self._baseline(rec, "baseline_warmup")

        _timed(rec, "warmup", warm_up)

    # ---------------------------------------------------------------- oracle
    def _check_window(self, res, d, lo, hi) -> str | None:
        """Exact rows: every message of device d in [lo, hi], once, with
        the oracle's latest begin_ts and v."""
        if not (res["c1"] == d).all():
            return "row of another device"
        order = np.argsort(res["c2"], kind="stable")
        if not np.array_equal(res["c2"][order], np.arange(lo, hi + 1)):
            return f"{len(res['c2'])} rows, oracle has {hi - lo + 1}"
        for col, oracle in (("begin_ts", self.ots), ("v", self.ov)):
            bad = int(np.count_nonzero(np.asarray(res[col])[order] != oracle[d, lo : hi + 1]))
            if bad:
                return f"{bad} rows with a wrong {col}"
        return None

    def _check_total(self, row) -> str | None:
        n, s = int(row[0]), int(row[1])
        if n != self.ov.size or s != int(self.ov.sum()):
            return f"count {n} / sum(v) {s}, oracle {self.ov.size} / {int(self.ov.sum())}"
        return None

    # ----------------------------------------------------------------- round
    def scan_round(self, i: int, rec) -> None:
        """SCAN_SETS windows of each size, at stratified random positions:
        window j starts in the j-th slice of the message range, so every
        round sees the same mix of windows over merged and fresh runs."""
        rng = np.random.default_rng([self.seed, 6, i])
        ix = self.index
        for j in range(self.SCAN_SETS):
            for w in self.WINDOWS:
                d = int(rng.integers(0, self.DEVICES))
                lo = int((j + rng.random()) * (self.total_msgs - w + 1) / self.SCAN_SETS)
                self._scan_window(rec, ix, d, lo, lo + w - 1)

    def _scan_window(self, rec, ix, d, lo, hi) -> None:
        for method in ("pq", "set"):
            rec.op(
                f"scan_{method}",
                lambda method=method: query.range_scan(
                    ix, (d,), (lo,), (hi,), QTS, method=method
                ),
                check=lambda res: self._check_window(res, d, lo, hi),
                io=f"scan_{method}_io",
            )

    def round(self, i: int, rec, tracer=None) -> None:
        before = self.hier.stats.snapshot()
        self.scan_round(i, rec)
        rng = np.random.default_rng([self.seed, 8, i])
        d, lo, hi = self._df_pushed(rec, rng, "df_pushed", tracer)
        self._df_full(rec, "df_full", tracer)
        if tracer is not None:
            self._baseline(rec, "baseline", tracer)
            self._replay_reader(tracer, d, lo, hi)
        io_add(self.io, io_delta(self.hier.stats.snapshot(), before))

    def _view(self):
        from repro.sparkio.scan import unified_view

        return unified_view(
            self.spark, self.hier.shared.root, query_ts=QTS, key_cols=["c1", "c2"]
        )

    def _df_pushed(self, rec, rng, metric, tracer=None):
        from pyspark.sql import functions as F

        d = int(rng.integers(0, self.DEVICES))
        lo = int(rng.integers(0, self.total_msgs - self.DF_WINDOW + 1))
        hi = lo + self.DF_WINDOW - 1
        pred = (F.col("c1") == d) & (F.col("c2") >= lo) & (F.col("c2") <= hi)
        rec.op(
            metric,
            _spanned(tracer, "sparkio.df_pushed", lambda: self._view().filter(pred)
                     .select("c1", "c2", "begin_ts", "v").toPandas()),
            check=lambda pdf: self._check_window(
                {c: pdf[c].to_numpy() for c in pdf.columns}, d, lo, hi
            ),
        )
        return d, lo, hi

    def _df_full(self, rec, metric, tracer=None) -> None:
        from pyspark.sql import functions as F

        rec.op(
            metric,
            _spanned(tracer, "sparkio.df_full", lambda: self._view()
                     .agg(F.count("*"), F.sum("v")).collect()[0]),
            check=self._check_total,
        )

    def _baseline(self, rec, metric, tracer=None) -> None:
        from pyspark.sql import functions as F
        from repro.sparkio.scan import full_scan_baseline

        rec.op(
            metric,
            _spanned(tracer, "sparkio.baseline", lambda: full_scan_baseline(
                self.spark, self.hier.shared.root, SCHEMA.name,
                query_ts=QTS, key_cols=["c1", "c2"],
            ).agg(F.count("*"), F.sum("v")).collect()[0]),
            check=self._check_total,
        )

    def _replay_reader(self, tracer, d, lo, hi) -> None:
        """Run the DataSource reader's partitions() and read() in this
        process for the pushed and the full scan: Spark runs them in its
        Python workers, where the wrappers cannot see them."""
        from pyspark.sql.datasource import EqualTo, GreaterThanOrEqual, LessThanOrEqual
        from repro.sparkio.datasource import UmziDataSource

        pushed = [
            EqualTo(("c1",), d), GreaterThanOrEqual(("c2",), lo),
            LessThanOrEqual(("c2",), hi), LessThanOrEqual(("begin_ts",), QTS),
        ]
        for filters in (pushed, [LessThanOrEqual(("begin_ts",), QTS)]):
            src = UmziDataSource({"path": self.hier.shared.root, "query_ts": str(QTS)})
            reader = src.reader(src.schema())
            list(reader.pushFilters(filters))
            parts = reader.partitions()
            tracer.count("sparkio.runs_scanned", len(parts))
            tracer.count("sparkio.runs_skipped", reader.skipped_runs)
            for p in parts:
                tracer.count("sparkio.blocks_read", p.header["n_blocks"])
                with tracer.span("sparkio.read"):  # read() is a generator
                    batches = list(reader.read(p))
                tracer.count("sparkio.rows_emitted", sum(b.num_rows for b in batches))

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


def _spanned(tracer, name, fn):
    if tracer is None:
        return fn

    def run():
        with tracer.span(name):
            return fn()

    return run


# -------------------------------------------------------------------- Spark
def start_spark(tmp: str):
    """Local Spark with at most nproc task threads, no UI, no progress
    bars, and every scratch file under ``tmp``."""
    n = min(4, os.cpu_count() or 1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(query.__file__)))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(src), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    spark_tmp = os.path.join(tmp, "spark")
    os.makedirs(spark_tmp, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = spark_tmp  # overrides spark.local.dir when set
    java_opts = f"-Djava.io.tmpdir={spark_tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the spark-submit launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{n}]",
        "--driver-memory 1g",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.local.dir=' + spark_tmp)}",
        f"--conf spark.sql.shuffle.partitions={n}",
        "--conf spark.sql.execution.arrow.pyspark.enabled=true",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM to exit (it exits when its stdin,
    the gateway pipe, closes)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


WORKLOADS = {
    "lookup_mem": LookupMem,
    "htap_cycle": HtapCycle,
    "analytic_scan": AnalyticScan,
}
