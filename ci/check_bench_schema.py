#!/usr/bin/env python3
"""Validate the schema of a BENCH_agg.json produced by the agg_hotpath
benchmark binary (crates/bench/src/bin/agg_hotpath.rs).

The committed BENCH_agg.json at the repo root is the tracked baseline for
the aggregation hot path; this check keeps the file machine-readable so a
schema drift in the emitter fails CI instead of silently breaking the
tooling that diffs baselines.

Usage: check_bench_schema.py <path-to-json>
"""

import json
import sys

MEASUREMENT_KEYS = {
    "phase1_secs": float,
    "phase2_secs": float,
    "total_secs": float,
    "phase1_rows_per_sec": float,
    "phase2_rows_per_sec": float,
    "rows_per_sec": float,
    "groups": int,
    "profile": dict,
}

# The execution profile nested under each measurement, taken from the last
# rep's QueryProfile (rexa-obs).
PROFILE_KEYS = {
    "probe_busy_secs": float,
    "merge_busy_secs": float,
    "finalize_busy_secs": float,
    "ht_resets": int,
    "partitions": int,
    "partitions_external": int,
    "spill_bytes_written": int,
    "spill_bytes_read": int,
    "evictions": int,
    # Phase-1 path the run took: "thread_local" or "instream".
    "strategy": str,
    # The partitions phase 2 merged (one entry per non-empty partition).
    "partition_strategies": list,
    # Per-worker phase-1 attribution (one entry per worker thread).
    "workers": list,
}

# One entry of profile.partition_strategies: a partition phase 2 merged.
PARTITION_STRATEGY_KEYS = {
    "partition": int,
    "strategy": str,
}
PARTITION_STRATEGIES = {"hash"}

# One entry of profile.workers: where phase-1 time and work actually went.
WORKER_KEYS = {
    "worker": int,
    "busy_secs": float,
    "morsels": int,
    "chunks": int,
    "ht_resets": int,
}

# Each workload carries its measurement modes and, when it has two, a
# scale-free ratio between them: the grouping-shape workloads measure the
# vectorized path alone, "sorted"/"clustered" compare a forced hash phase 1
# against the in-stream fast path (forced / detected), and "external"
# measures the spilling shape with synchronous spill I/O.
EXPECTED_WORKLOADS = {
    "thin_int": (("vectorized",), None),
    "wide_multi_key": (("vectorized",), None),
    "string_key": (("vectorized",), None),
    "sorted": (("hash", "instream"), "instream_speedup"),
    "clustered": (("hash", "detect"), "detect_speedup"),
    "external": (("sync",), None),
}

# The threads_sweep section (optional: present when the baseline was
# produced with --threads-sweep) carries these workloads, in order.
SWEEP_MODES = {"thin_int": ("vectorized",)}


def fail(msg):
    print(f"schema check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_keys(m, keys, where):
    if not isinstance(m, dict):
        fail(f"{where}: expected object, got {type(m).__name__}")
    for key, ty in keys.items():
        if key not in m:
            fail(f"{where}: missing key {key!r}")
        v = m[key]
        if ty in (dict, list, str):
            if not isinstance(v, ty):
                fail(f"{where}.{key}: expected {ty.__name__}, got {type(v).__name__}")
            if ty is str and not v:
                fail(f"{where}.{key}: empty string")
            continue
        # ints are acceptable where floats are expected (JSON "0").
        if ty is float and not isinstance(v, (int, float)):
            fail(f"{where}.{key}: expected number, got {type(v).__name__}")
        if ty is int and not isinstance(v, int):
            fail(f"{where}.{key}: expected integer, got {type(v).__name__}")
        if v < 0:
            fail(f"{where}.{key}: negative value {v}")
    extra = set(m) - set(keys)
    if extra:
        fail(f"{where}: unexpected keys {sorted(extra)}")


def check_measurement(m, where):
    check_keys(m, MEASUREMENT_KEYS, where)
    check_keys(m["profile"], PROFILE_KEYS, f"{where}.profile")
    workers = m["profile"]["workers"]
    for i, w in enumerate(workers):
        check_keys(w, WORKER_KEYS, f"{where}.profile.workers[{i}]")
    if [w["worker"] for w in workers] != list(range(len(workers))):
        fail(f"{where}.profile.workers: indices not dense 0..{len(workers) - 1}")
    for i, p in enumerate(m["profile"]["partition_strategies"]):
        pw = f"{where}.profile.partition_strategies[{i}]"
        check_keys(p, PARTITION_STRATEGY_KEYS, pw)
        if p["strategy"] not in PARTITION_STRATEGIES:
            fail(f"{pw}.strategy: unknown strategy {p['strategy']!r}")


def check_threads_sweep(sweep):
    check_keys(sweep, {"threads": list, "workloads": list}, "threads_sweep")
    counts = sweep["threads"]
    if not counts or any(not isinstance(t, int) or t <= 0 for t in counts):
        fail(f"threads_sweep.threads: expected positive integers, got {counts!r}")
    names = [w.get("workload") for w in sweep["workloads"]]
    if names != list(SWEEP_MODES):
        fail(f"threads_sweep.workloads: expected {list(SWEEP_MODES)}, got {names}")
    for w in sweep["workloads"]:
        name = w["workload"]
        modes = SWEEP_MODES[name]
        for key in ("rows", "groups"):
            if not isinstance(w.get(key), int) or w[key] <= 0:
                fail(f"threads_sweep.{name}.{key}: expected positive integer")
        points = w.get("points")
        if not isinstance(points, list):
            fail(f"threads_sweep.{name}.points: expected array")
        if [p.get("threads") for p in points] != counts:
            fail(f"threads_sweep.{name}: points do not cover threads {counts}")
        for p in points:
            t = p["threads"]
            where = f"threads_sweep.{name}@t{t}"
            for mode in modes:
                if mode not in p:
                    fail(f"{where}: missing {mode!r} measurement")
                check_measurement(p[mode], f"{where}.{mode}")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_bench_schema.py <path-to-json>")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if doc.get("bench") != "agg_hotpath":
        fail(f"bench: expected 'agg_hotpath', got {doc.get('bench')!r}")
    for key in ("rows", "reps", "threads"):
        if not isinstance(doc.get(key), int) or doc[key] <= 0:
            fail(f"{key}: expected positive integer, got {doc.get(key)!r}")

    workloads = doc.get("workloads")
    if not isinstance(workloads, list):
        fail("workloads: expected array")
    names = [w.get("workload") for w in workloads]
    if names != list(EXPECTED_WORKLOADS):
        fail(f"workloads: expected {list(EXPECTED_WORKLOADS)}, got {names}")

    for w in workloads:
        name = w["workload"]
        for key in ("rows", "groups"):
            if not isinstance(w.get(key), int) or w[key] <= 0:
                fail(f"{name}.{key}: expected positive integer, got {w.get(key)!r}")
        modes, speedup_key = EXPECTED_WORKLOADS[name]
        for mode in modes:
            if mode not in w:
                fail(f"{name}: missing {mode!r} measurement")
            check_measurement(w[mode], f"{name}.{mode}")
        extra = set(w) - {"workload", "rows", "groups", *modes} - {speedup_key}
        if extra:
            fail(f"{name}: unexpected keys {sorted(extra)}")
        if speedup_key is None:
            continue
        speedup = w.get(speedup_key)
        if not isinstance(speedup, (int, float)) or speedup < 0:
            fail(f"{name}.{speedup_key}: expected non-negative number, got {speedup!r}")
        if w[modes[0]]["groups"] != w[modes[1]]["groups"]:
            fail(f"{name}: {modes[0]} and {modes[1]} disagree on group count")

    sweep = doc.get("threads_sweep")
    swept = ""
    if sweep is not None:
        check_threads_sweep(sweep)
        swept = f" + threads sweep over {sweep['threads']}"

    print(f"schema check OK: {len(workloads)} workloads{swept}")


if __name__ == "__main__":
    main()
