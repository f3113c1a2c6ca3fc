"""The benchmark's own tests: with one client and no timers, the program's
counts repeat exactly for a seed, every answer matches the oracle, and the
benchmark refuses to run without the program's sources.

Run with ``python3 -m pytest perfbench -q`` from the repository root (the
repository's default pytest paths do not include this directory).
"""
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import Recorder, pct  # noqa: E402
from tracing import Tracer  # noqa: E402


def _counts(name: str, seed: int, tmp: str) -> dict:
    wl = workloads.WORKLOADS[name](seed, str(tmp))
    rec = Recorder()
    tracer = Tracer()
    if name == "analytic_scan":
        wl.build_table(rec)  # the Spark part has no program counts to repeat
    else:
        wl.setup(rec)
    tracer.install_layers()
    try:
        for i in range(2):
            if name == "analytic_scan":
                wl.scan_round(i, rec)
            else:
                wl.round(i, rec, tracer)
    finally:
        tracer.uninstall()
    assert rec.failures == []
    io = wl.hier.stats.snapshot() if name == "analytic_scan" else wl.io
    op_io = {"lookup_mem": "lookup_io", "htap_cycle": "lookup_io", "analytic_scan": "scan_pq_io"}
    wl.close()
    return {
        "tiers": io,
        "op_io_p50": pct(rec.samples[op_io[name]], 50),
        "cache.read_block.calls": sum(1 for s in tracer.spans if s[1] == "cache.read_block"),
        "merge.events": tracer.counters["merge.events"],
        "query.runs_pruned": tracer.counters["query.runs_pruned"],
        "space_amp": rec.values["space_amp"],
        "attempted": rec.attempted,
    }


@pytest.mark.parametrize("name", ["lookup_mem", "htap_cycle", "analytic_scan"])
def test_counts_repeat_for_a_seed(name, tmp_path):
    first = _counts(name, 11, tmp_path)
    assert first == _counts(name, 11, tmp_path)
    assert first["attempted"] > 0 and first["op_io_p50"] > 0


def test_htap_cycle_moves_data_through_every_tier(tmp_path):
    c = _counts("htap_cycle", 3, tmp_path)
    assert c["tiers"]["reads"]["shared"] > 0  # purged runs are fetched again
    assert c["merge.events"] > 0 and c["space_amp"][0] > 1


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup_mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
