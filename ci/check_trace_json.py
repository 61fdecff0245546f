#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON export produced by the span-tracing
subsystem (crates/obs/src/span.rs, `QueryProfile::chrome_trace_json`).

The export must load in Perfetto / about://tracing, so this check pins the
shape down: well-formed trace events, balanced async begin/end pairs,
worker-thread metadata present, and — for a spilling run — at least one
async I/O span overlapping a compute span on a different track, which is
the visual the tracing subsystem exists to show (background spill writes
and read-ahead running under the probe/merge).

Usage: check_trace_json.py <path-to-trace.json> [--no-overlap]

`--no-overlap` skips the I/O-overlap requirement for runs that are not
expected to spill.
"""

import json
import sys

# Metadata names the exporter always emits.
META_NAMES = {"process_name", "thread_name", "thread_sort_index"}
# Event phases the exporter can produce.
PHASES = {"M", "X", "b", "e", "i"}


def fail(msg):
    print(f"trace check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event(e, where):
    if not isinstance(e, dict):
        fail(f"{where}: expected object, got {type(e).__name__}")
    ph = e.get("ph")
    if ph not in PHASES:
        fail(f"{where}: unknown phase {ph!r}")
    for key in ("pid", "tid"):
        if not isinstance(e.get(key), int) or e[key] < 0:
            fail(f"{where}: {key} must be a non-negative integer")
    if not isinstance(e.get("name"), str) or not e["name"]:
        fail(f"{where}: missing event name")
    if ph == "M":
        if e["name"] not in META_NAMES:
            fail(f"{where}: unknown metadata record {e['name']!r}")
        if not isinstance(e.get("args"), dict):
            fail(f"{where}: metadata must carry args")
        return
    ts = e.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        fail(f"{where}: ts must be a non-negative number, got {ts!r}")
    if not isinstance(e.get("cat"), str) or not e["cat"]:
        fail(f"{where}: missing category")
    if ph == "X":
        dur = e.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{where}: X event dur must be a non-negative number")
    if ph in ("b", "e") and (not isinstance(e.get("id"), int) or e["id"] < 0):
        fail(f"{where}: async event needs a non-negative integer id")
    if ph == "i" and e.get("s") not in ("t", "p", "g"):
        fail(f"{where}: instant event needs a scope ('s')")


def main():
    args = sys.argv[1:]
    require_overlap = True
    paths = []
    i = 0
    while i < len(args):
        if args[i] == "--no-overlap":
            require_overlap = False
        else:
            paths.append(args[i])
        i += 1
    if len(paths) != 1:
        fail("usage: check_trace_json.py <path-to-trace.json> [--no-overlap]")
    with open(paths[0]) as f:
        doc = json.load(f)

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents: expected a non-empty array")
    for i, e in enumerate(events):
        check_event(e, f"traceEvents[{i}]")

    # Track metadata: the process is named, every referenced tid has a
    # thread_name, and the worker threads are among them.
    meta = [e for e in events if e["ph"] == "M"]
    if not any(
        e["name"] == "process_name" and e["args"].get("name") == "rexa" for e in meta
    ):
        fail("missing process_name metadata for 'rexa'")
    thread_names = {
        e["tid"]: e["args"].get("name") for e in meta if e["name"] == "thread_name"
    }
    used_tids = {e["tid"] for e in events if e["ph"] != "M"}
    unnamed = used_tids - set(thread_names)
    if unnamed:
        fail(f"events on unnamed tids {sorted(unnamed)}")
    workers = [t for t, n in thread_names.items() if n and n.startswith("worker")]
    if not workers:
        fail(f"no worker threads among tracks {sorted(thread_names.values())}")

    # Async begin/end balance: every id begins exactly once, ends exactly
    # once, on the same tid, and does not end before it begins.
    begins = {}
    for e in events:
        if e["ph"] != "b":
            continue
        if e["id"] in begins:
            fail(f"async id {e['id']} begun twice")
        begins[e["id"]] = e
    ended = set()
    for e in events:
        if e["ph"] != "e":
            continue
        b = begins.get(e["id"])
        if b is None:
            fail(f"async end id {e['id']} without a begin")
        if e["id"] in ended:
            fail(f"async id {e['id']} ended twice")
        if e["tid"] != b["tid"]:
            fail(f"async id {e['id']} begins on tid {b['tid']}, ends on {e['tid']}")
        if e["ts"] < b["ts"]:
            fail(f"async id {e['id']} ends at {e['ts']} before begin {b['ts']}")
        ended.add(e["id"])
    dangling = set(begins) - ended
    if dangling:
        fail(f"async ids never ended: {sorted(dangling)[:10]}")

    # The headline property: in a spilling run, background I/O visibly
    # overlaps compute. Find one async io span whose [begin, end] interval
    # intersects an X compute span on a different track.
    ends = {e["id"]: e for e in events if e["ph"] == "e"}
    async_io = [
        (b["ts"], ends[i]["ts"], b["tid"])
        for i, b in begins.items()
        if b.get("cat") == "io"
    ]
    compute = [
        (e["ts"], e["ts"] + e["dur"], e["tid"])
        for e in events
        if e["ph"] == "X" and e.get("cat") == "compute"
    ]
    overlap = sum(
        1
        for io_start, io_end, io_tid in async_io
        for c_start, c_end, c_tid in compute
        if io_tid != c_tid and io_start < c_end and c_start < io_end
    )
    if require_overlap:
        if not async_io:
            fail("no async io spans (expected a spilling run; use --no-overlap otherwise)")
        if overlap == 0:
            fail("no async io span overlaps a compute span on another track")

    n_spans = sum(1 for e in events if e["ph"] != "M")
    print(
        f"trace check OK: {n_spans} events on {len(thread_names)} tracks "
        f"({len(workers)} workers, {len(async_io)} async io spans, "
        f"{overlap} io/compute overlap pairs)"
    )


if __name__ == "__main__":
    main()
