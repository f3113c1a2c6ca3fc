"""Demo job: the unified multi-zone DataFrame scan (`umzi` DataSource).

Builds a Wildfire-lite table with both zones populated, then runs the
same snapshot query three ways and prints row counts and timings —
each query's cold first run, then its warmed median of 3:

  1. `umzi` DataSource scan with a pushed equality filter (data skipping
     prunes runs across both zones via their synopses);
  2. `umzi` DataSource full scan + Catalyst window reconciliation;
  3. no-index full-scan baseline over the zone Parquet blocks.

Usage: spark-submit jobs/run_unified_scan.py
"""
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))
from _common import get_spark, main_banner

import numpy as np
import pandas as pd

from repro.core.index import UmziConfig, UmziIndex
from repro.experiments import defs
from repro.sparkio.scan import full_scan_baseline, unified_view
from repro.storage import CacheManager, StorageHierarchy
from repro.wildfire import Groomer, Indexer, PostGroomer, TableSchema, TableShard

if __name__ == "__main__":
    main_banner("scan", "unified multi-zone DataFrame scan demo")
    spark = get_spark()
    schema = TableSchema("iot", ("c1", "c2", "v"), ("c1", "c2"), ("c1",), ("c2",))
    tmp = tempfile.mkdtemp(prefix="umzi-scan-")
    hier = StorageHierarchy(tmp)
    ix = UmziIndex(defs.make_spec("I1"), UmziConfig(K=3, T=2), CacheManager(hier))
    shard = TableShard(schema)
    groomer = Groomer(shard, ix, hier)
    pg = PostGroomer(schema, ix, hier)
    indexer = Indexer(schema, ix, hier, pg)
    for cyc in range(8):
        keys = np.arange(cyc * 2000, cyc * 2000 + 4000, dtype=np.int64)
        eq, sorts = defs.key_columns("I1", keys)
        g = np.random.default_rng(cyc)
        shard.ingest(pd.DataFrame({"c1": eq["c1"], "c2": sorts["c2"],
                                   "v": g.integers(0, 10**6, 4000).astype(np.int64)}))
        groomer.groom()
        if (cyc + 1) % 4 == 0:
            pg.post_groom(upto_gbid=groomer.next_gbid - 1, spark=spark)
            indexer.poll()
    print("index state:", ix.describe())

    def view():
        return unified_view(spark, hier.shared.root, query_ts=2**62, key_cols=["c1", "c2"])

    queries = [
        ("umzi scan, pushed filter c1=7", lambda: view().filter("c1 = 7").count()),
        ("umzi scan, full snapshot     ", lambda: view().count()),
        ("no-index Parquet baseline    ", lambda: full_scan_baseline(
            spark, hier.shared.root, "iot", query_ts=2**62, key_cols=["c1", "c2"]).count()),
    ]
    # Each query runs once cold (JVM, plan and file caches filling), then
    # three more times; the warmed median is the steady-state cost.
    rows = {}
    for name, run in queries:
        t0 = time.perf_counter()
        rows[name] = run()
        cold = time.perf_counter() - t0
        warm = []
        for _ in range(3):
            t0 = time.perf_counter()
            assert run() == rows[name], "a repeated query must return the same rows"
            warm.append(time.perf_counter() - t0)
        print(f"{name}: {rows[name]:>8} rows  cold {cold:6.2f}s")
        print(f"{name}: {rows[name]:>8} rows  warm {np.median(warm):6.2f}s (median of 3)")
    full, base = (rows[name] for name, _ in queries[1:])
    assert full == base, "unified view must equal the full-scan baseline"
