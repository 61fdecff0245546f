#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON export produced by the span-tracing
subsystem (crates/obs/src/span.rs, `QueryProfile::chrome_trace_json`).

The export must load in Perfetto / about://tracing, so this check pins the
shape down: well-formed trace events (complete `X`, instant `i` and
metadata `M` only; anything else, async `b`/`e` included, fails), every
event on a named track, and worker-thread metadata present.

Usage: check_trace_json.py <path-to-trace.json>
"""

import json
import sys

# Metadata names the exporter always emits.
META_NAMES = {"process_name", "thread_name", "thread_sort_index"}
# Event phases the exporter can produce.
PHASES = {"M", "X", "i"}


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
    if ph == "i" and e.get("s") not in ("t", "p", "g"):
        fail(f"{where}: instant event needs a scope ('s')")


def main():
    paths = sys.argv[1:]
    if len(paths) != 1:
        fail("usage: check_trace_json.py <path-to-trace.json>")
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

    n_spans = sum(1 for e in events if e["ph"] != "M")
    print(
        f"trace check OK: {n_spans} events on {len(thread_names)} tracks "
        f"({len(workers)} workers)"
    )


if __name__ == "__main__":
    main()
