#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the Umzi reproduction.

    python3 perfbench/run.py --workload lookup_mem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from ``src/``.
Each workload is one client in a closed loop for ``--seconds`` (whole
rounds, at least one), every answer is checked against an oracle, and the
last stdout line is a JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. ``--workload all`` runs each workload in its
own process. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("lookup_mem", "htap_cycle", "analytic_scan")


# The series that bounded metrics are computed from, with the reference
# kernel (see SpeedProbe) that resembles each: reads are Python loops of
# small numpy calls; writes and set-ups sort, build frames and write files.
KERNEL_OF = {
    "lookup": "read", "point_lookup": "read", "scan_pq": "read", "scan_set": "read",
    "cycle_write": "write", "build_step": "write", "build": "write",
    "setup": "write", "spark_start": "write", "warmup": "write",
}
# Set-up steps that run for many seconds on the JVM's threads: one kernel
# time is too noisy a reference for them, so they are paired with the
# median of the kernel's times so far (the set-up builds').
RUN_MEDIAN = frozenset({"spark_start", "warmup"})
# The kernels' median times, in ms, on the 4-core container where the
# bounds were set.
REF_MS = {"read": 10.0, "write": 9.0}


class SpeedProbe:
    """Tracks the host's speed during a run with two fixed reference
    computations that do not use the program.

    The host's speed drifts over seconds, by up to a third, with the load
    of its other tenants. Before an operation, outside its timed region,
    the kernel that resembles it is timed, at most every ``EVERY_S``
    seconds; the operation is paired with that kernel's latest time, and
    ``Recorder.seconds`` scales it to the kernel's REF_MS. On this container
    the scaling cut the run-to-run spread of read times about threefold and
    of write times about twofold.
    """

    EVERY_S = 0.1

    def __init__(self, tmp: str) -> None:
        import numpy as np
        import pandas as pd

        rng = np.random.default_rng(0)
        self._np = np
        self._a = np.sort(rng.integers(0, 1 << 40, 1 << 16)).astype(np.uint64)
        self._frame = pd.DataFrame(
            {"a": rng.integers(0, 1000, 20_000), "b": rng.integers(0, 1 << 30, 20_000)}
        )
        self._blob = rng.bytes(128 << 10)
        self._paths = [os.path.join(tmp, f"speedprobe{i}") for i in range(4)]
        self.samples: dict[str, list[float]] = {"read": [], "write": []}
        self._last = dict.fromkeys(self.samples, float("-inf"))

    def _read(self) -> None:
        a = self._a
        for i in range(1500):
            lo = (i * 37) % 60000
            self._np.searchsorted(a[lo : lo + 4096], a[lo + 100])
            len({j: j for j in range(8)})

    def _write(self) -> None:
        self._frame.sort_values(["a", "b"]).groupby("a")["b"].max()
        for path in self._paths:  # as DirTier writes a blob
            with open(path + ".tmp", "wb") as f:
                f.write(self._blob)
            os.replace(path + ".tmp", path)
        for path in self._paths:
            os.unlink(path)

    def ref_ms(self, kind: str) -> float:
        """The ``kind`` kernel's time, in ms, at this moment of the run."""
        if time.perf_counter() - self._last[kind] >= self.EVERY_S:
            t0 = time.perf_counter()
            self._read() if kind == "read" else self._write()
            self.samples[kind].append((time.perf_counter() - t0) * 1e3)
            self._last[kind] = time.perf_counter()
        return self.samples[kind][-1]


class Recorder:
    """Timed operations, their oracle checks, and plain measured values."""

    def __init__(self, tmp: str | None = None) -> None:
        """With ``tmp``, each sample of a KERNEL_OF series is paired with a
        SpeedProbe time (the write kernel writes its files in ``tmp``);
        without, no reference kernel runs."""
        from repro.storage import capture_io

        self._capture_io = capture_io
        self.probe = SpeedProbe(tmp) if tmp else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.refs: dict[str, list[float]] = defaultdict(list)  # kernel ms per sample
        self.values: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, metric, fn, check=None, io=None):
        """Time ``fn()`` (wall into ``metric``, virtual I/O into ``io``),
        then check its result outside the timed region. Returns the result,
        or None when the operation raised."""
        self.attempted += 1
        ref = self.ref_for(metric)
        try:
            with self._capture_io() as cap:
                t0 = time.perf_counter()
                res = fn()
                wall = time.perf_counter() - t0
        except Exception as e:  # an operation that raised counts as failed
            self.failures.append(f"{metric}: raised {type(e).__name__}: {e}")
            return None
        self.sample(metric, wall, ref)
        if io:
            self.samples[io].append(cap.seconds)
        if check is not None:
            try:
                err = check(res)
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
            if err:
                self.failures.append(f"{metric}: {err}")
        return res

    def ref_for(self, metric: str) -> float | None:
        """The time of ``metric``'s reference kernel now, if it is scaled."""
        kind = KERNEL_OF.get(metric)
        if not (kind and self.probe):
            return None
        if metric in RUN_MEDIAN:
            return statistics.median(self.probe.samples[kind])
        return self.probe.ref_ms(kind)

    def sample(self, metric: str, wall: float, ref: float | None) -> None:
        self.samples[metric].append(wall)
        self.refs[metric].append(ref)

    def seconds(self, metric: str) -> list[float]:
        """The wall times of ``metric`` as the bounded metrics report them:
        each scaled by REF_MS / the time of its kernel taken just before it."""
        if metric not in KERNEL_OF:
            return self.samples[metric]
        ref = REF_MS[KERNEL_OF[metric]]
        return [w * ref / r for w, r in zip(self.samples[metric], self.refs[metric])]

    def value(self, name: str, v: float) -> None:
        self.values[name].append(v)

    def merge(self, other: "Recorder") -> None:
        for k, v in other.samples.items():
            self.samples[k] += v
        for k, v in other.refs.items():
            self.refs[k] += v
        for k, v in other.values.items():
            self.values[k] += v
        self.attempted += other.attempted
        self.failures += other.failures


def pct(xs, q):
    """q-th percentile; above the median only when at least 10 samples
    lie beyond it, else None."""
    if not xs or (q > 50 and len(xs) * (100 - q) / 100 < 10):
        return None
    s = sorted(xs)
    k = (len(s) - 1) * q / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


# Printed end-to-end metrics per workload: (name, unit, recorder series,
# statistic, scale). They are the ones the workload's questions are about.
def _timing(name, series, q, unit="ms"):
    return (name, unit, series, q, 1e3 if unit == "ms" else 1.0)


REPORT = {
    "lookup_mem": [
        _timing("lookup_ms_p50", "lookup", 50),
        _timing("lookup_ms_p90", "lookup", 90),
        _timing("lookup_io_ms_p50", "lookup_io", 50),
        _timing("point_lookup_ms_p50", "point_lookup", 50),
        _timing("point_lookup_ms_p99", "point_lookup", 99),
    ],
    "htap_cycle": [
        _timing("lookup_ms_p50", "lookup", 50),
        _timing("lookup_ms_p90", "lookup", 90),
        _timing("lookup_io_ms_p50", "lookup_io", 50),
        _timing("cycle_write_ms_p50", "cycle_write", 50),
        _timing("recovery_s", "recovery", 50, "s"),
        _timing("verify_lookup_ms_p50", "verify_lookup", 50),
    ],
    "analytic_scan": [
        _timing("scan_pq_ms_p50", "scan_pq", 50),
        _timing("scan_pq_ms_p90", "scan_pq", 90),
        _timing("scan_pq_io_ms_p50", "scan_pq_io", 50),
        _timing("scan_set_ms_p50", "scan_set", 50),
        _timing("df_scan_pushed_s_p50", "df_pushed", 50, "s"),
        _timing("df_scan_full_s_p50", "df_full", 50, "s"),
        _timing("spark_start_s", "spark_start", 50, "s"),
        _timing("warmup_s", "warmup", 50, "s"),
    ],
}
VALUES = {  # medians of per-pass values: (name, unit, series)
    "htap_cycle": [("space_amp", "ratio", "space_amp")],
}
# The end-to-end metrics in BENCHMARK.json are role names shared by all
# workloads: op = the workload's main read, op2 = its second operation,
# write = the timed writes behind write_rows_per_s (the rows are recorded as
# the "write_rows" values), op_io = the main read's virtual I/O (a per-layer
# count: it repeats exactly).
ROLES = {
    "lookup_mem": {"op": "lookup", "op_io": "lookup_io", "op2": "point_lookup",
                   "write": "build_step"},
    "htap_cycle": {"op": "lookup", "op_io": "lookup_io", "op2": "cycle_write",
                   "write": "cycle_write"},
    "analytic_scan": {"op": "scan_pq", "op_io": "scan_pq_io", "op2": "scan_set",
                      "write": "build_step"},
}
WRITE_RATE = {"lookup_mem": "build_rows_per_s", "htap_cycle": "ingest_rows_per_s",
              "analytic_scan": "build_rows_per_s"}
# setup_s: the sum of the medians of these set-up series.
SETUP = {"lookup_mem": ("build",), "htap_cycle": ("setup",),
         "analytic_scan": ("build", "spark_start", "warmup")}


def end_to_end(name: str, rec: Recorder) -> dict:
    """The bounded metrics. Operation times and the write rate are scaled
    to the reference speed (see SpeedProbe); ``report`` prints them raw."""
    role = ROLES[name]
    rows = sum(rec.values["write_rows"])
    return {
        "setup_s": (sum(statistics.median(rec.seconds(s)) for s in SETUP[name]), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_ms_p50": (pct(rec.seconds(role["op"]), 50) * 1e3, "ms"),
        "op2_ms_p50": (pct(rec.seconds(role["op2"]), 50) * 1e3, "ms"),
        "write_rows_per_s": (rows / sum(rec.seconds(role["write"])), "rows/s"),
    }


def report(name: str, rec: Recorder) -> None:
    setup_s = sum(statistics.median(rec.samples[s]) for s in SETUP[name])
    print(f"setup_s                  {setup_s:.4f} s (sum of medians of {', '.join(SETUP[name])})")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"rss_peak_mb              {rss:.1f} MB")
    for metric, unit, series, q, scale in REPORT[name]:
        xs = rec.samples[series]
        v = pct(xs, q)
        shown = f"{v * scale:.4f} {unit}" if v is not None else f"- {unit} (needs >= {int(1000 / (100 - q))} samples)"
        print(f"{metric:<24} {shown} (n={len(xs)})")
    rate = sum(rec.values["write_rows"]) / sum(rec.samples[ROLES[name]["write"]])
    print(f"{WRITE_RATE[name]:<24} {rate:.4f} rows/s (n={len(rec.values['write_rows'])})")
    for metric, unit, series in VALUES.get(name, ()):
        xs = rec.values[series]
        shown = f"{statistics.median(xs):.4f} {unit}" if xs else f"- {unit}"
        print(f"{metric:<24} {shown} (n={len(xs)})")
    failed = len(rec.failures)
    print(
        f"op_error_rate            {failed / rec.attempted if rec.attempted else 0:.6f} ratio "
        f"(failed {failed} of {rec.attempted} attempted)"
    )
    for f in rec.failures[:20]:
        print(f"  failed: {f}")
    for kind, xs in rec.probe.samples.items():
        if xs:
            print(f"{kind + '_kernel_ms':<24} {statistics.median(xs):.4f} ms (n={len(xs)}); "
                  f"the JSON scales {', '.join(m for m, k in KERNEL_OF.items() if k == kind and m in rec.samples)} "
                  f"per sample to {REF_MS[kind]} ms")


def environment() -> dict:
    from importlib.metadata import version

    from repro.storage import tiers

    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0]}
    env.update({p: version(p) for p in ("numpy", "pyarrow", "pyspark")})
    for t in ("MEM", "SSD", "SHARED"):
        lat = getattr(tiers, f"{t}_LATENCY")
        env[f"{t.lower()}_latency"] = f"{lat.seek_s:g}s+{lat.per_byte_s:g}s/B"
    return env


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    sys.path.insert(0, SRC)
    import workloads

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile

    tempfile.tempdir = tmp
    rec = Recorder(tmp)
    wl = None
    try:
        print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}", flush=True)
        print("environment " + " ".join(f"{k}={v}" for k, v in environment().items()), flush=True)
        wl = workloads.WORKLOADS[name](seed, tmp)
        wl.setup(rec)
        if trace:
            metrics = traced_loop(name, wl, rec, seed, seconds, tmp)
        else:
            deadline = time.perf_counter() + seconds
            i = 0
            while i == 0 or time.perf_counter() < deadline:
                wl.round(i, rec)
                i += 1
            print(f"rounds                   {i}")
            report(name, rec)
            metrics = end_to_end(name, rec)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another workload process still uses it
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_loop(name, wl, rec, seed, seconds, tmp) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics come from
    the traced ones, the overhead from comparing the two at the reference
    speed."""
    from tracing import Tracer, layer_metrics
    import workloads

    tracer = Tracer()
    untraced, traced = Recorder(tmp), Recorder(tmp)
    io = workloads._empty_io()
    user_bytes = 0
    traced_wall = 0.0
    rounds = {False: 0, True: 0}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < deadline:
        on = i % 2 == 1
        if on:
            io0, ub0 = copy.deepcopy(wl.io), wl.user_bytes
            tracer.install_layers()
        t0 = time.perf_counter()
        try:
            wl.round(i, traced if on else untraced, tracer if on else None)
        finally:
            wall = time.perf_counter() - t0
            if on:
                tracer.uninstall()
        if on:
            traced_wall += wall
            workloads.io_add(io, workloads.io_delta(wl.io, io0))
            user_bytes += wl.user_bytes - ub0
        rounds[on] += 1
        i += 1
    rec.merge(untraced)
    rec.merge(traced)
    role = ROLES[name]["op"]
    overhead = pct(traced.seconds(role), 50) / pct(untraced.seconds(role), 50) - 1
    # The reference kernels run between operations; they are not the program.
    kernel_s = sum(map(sum, traced.probe.samples.values())) / 1e3
    coverage = tracer.top_level_seconds() / (traced_wall - kernel_s)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"))
    metrics = layer_metrics(tracer, io, user_bytes, rounds[True])
    # Virtual I/O per main read: counted by the program, so it is a count
    # that repeats exactly for a seed rather than a wall time.
    metrics["query.op_io_ms_p50"] = (pct(traced.samples[ROLES[name]["op_io"]], 50) * 1e3, "ms")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.coverage"] = (coverage, "ratio")
    print(f"rounds                   untraced {rounds[False]}, traced {rounds[True]}")
    print(f"trace.overhead           {overhead:+.4f} ratio ({role} p50 traced vs untraced, at reference speed)")
    print(f"trace.coverage           {coverage:.4f} ratio (top-level spans / traced round wall "
          f"less {kernel_s:.3f} s of reference kernels)")
    for k, (v, u) in metrics.items():
        print(f"{k:<32} {v:.6g} {u} (per traced round)")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in NAMES:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = out.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if out.returncode != 0:
                print(f"perfbench: {name} exited with {out.returncode}", file=sys.stderr)
                return out.returncode or 1
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                summary["metrics"][f"{name}/{k}"] = v
        print(json.dumps(summary))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
