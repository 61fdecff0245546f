#!/usr/bin/env python3
"""Compare an agg_hotpath run against the committed BENCH_agg.json baseline
and fail on phase-1 throughput regressions.

Two comparison modes, chosen automatically:

* **Same row count** (a real baseline-vs-candidate diff): each workload's
  per-mode `phase1_rows_per_sec` must not drop by more than the tolerance.
* **Different row counts** (the CI smoke run vs the full baseline):
  absolute throughputs are not comparable across scales, so only the
  scale-free ratios are compared — `instream_speedup`/`detect_speedup`
  (hash over the in-stream path); the single-mode workloads (the grouping
  shapes and `external`) have none. Ratio checks are
  advisory by default (printed, never fatal) because tiny smoke runs are
  noise-dominated; pass `--ratio-tolerance PCT` to enforce them.

Usage:
  compare_bench.py <baseline.json> <candidate.json>
                   [--tolerance PCT] [--ratio-tolerance PCT]

Regenerating the baseline (quiet machine, release build):

  cargo run --release -p rexa-bench --bin agg_hotpath -- \\
      --threads-sweep 1,2,4,8
  python3 ci/check_bench_schema.py BENCH_agg.json
  git add BENCH_agg.json

Exit status is 1 when any enforced comparison regresses beyond tolerance.
"""

import json
import sys

DEFAULT_TOLERANCE = 10.0  # percent

# Per-workload measurement modes carrying phase1_rows_per_sec.
MODES = {
    "thin_int": ("vectorized",),
    "wide_multi_key": ("vectorized",),
    "string_key": ("vectorized",),
    "sorted": ("hash", "instream"),
    "clustered": ("hash", "detect"),
    "external": ("sync",),
}
RATIO_KEYS = {
    "sorted": "instream_speedup",
    "clustered": "detect_speedup",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") != "agg_hotpath":
        print(f"{path}: not an agg_hotpath result", file=sys.stderr)
        sys.exit(1)
    return doc


def by_name(doc):
    return {w["workload"]: w for w in doc.get("workloads", [])}


def main():
    args = sys.argv[1:]
    tolerance = DEFAULT_TOLERANCE
    ratio_tolerance = None
    paths = []
    i = 0
    while i < len(args):
        if args[i] == "--tolerance":
            i += 1
            tolerance = float(args[i])
        elif args[i] == "--ratio-tolerance":
            i += 1
            ratio_tolerance = float(args[i])
        else:
            paths.append(args[i])
        i += 1
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    base_doc, cand_doc = load(paths[0]), load(paths[1])
    base, cand = by_name(base_doc), by_name(cand_doc)
    missing = [w for w in base if w not in cand]
    if missing:
        print(f"candidate is missing workloads {missing}", file=sys.stderr)
        sys.exit(1)

    same_scale = base_doc.get("rows") == cand_doc.get("rows")
    mode_word = (
        f"absolute (rows match: {base_doc.get('rows')}, tolerance {tolerance:.1f}%)"
        if same_scale
        else f"ratio-only (rows {base_doc.get('rows')} vs {cand_doc.get('rows')})"
    )
    print(f"comparing {paths[1]} against {paths[0]}: {mode_word}")

    failures = []
    rows = []
    for name, b in base.items():
        c = cand[name]
        if same_scale:
            for mode in MODES[name]:
                bv = b[mode]["phase1_rows_per_sec"]
                cv = c[mode]["phase1_rows_per_sec"]
                if bv <= 0:
                    continue  # phase too fast to time in the baseline
                delta = (cv - bv) / bv * 100.0
                ok = delta >= -tolerance
                rows.append((f"{name}/{mode}", bv, cv, delta, ok, True))
                if not ok:
                    failures.append(f"{name}/{mode}")
        ratio_key = RATIO_KEYS.get(name)
        bv, cv = b.get(ratio_key), c.get(ratio_key)
        if bv and cv and bv > 0:
            delta = (cv - bv) / bv * 100.0
            enforced = ratio_tolerance is not None
            ok = (not enforced) or delta >= -ratio_tolerance
            rows.append((f"{name}/{ratio_key}", bv, cv, delta, ok, enforced))
            if not ok:
                failures.append(f"{name}/{ratio_key}")

    width = max(len(r[0]) for r in rows) if rows else 10
    for label, bv, cv, delta, ok, enforced in rows:
        flag = ("ok" if ok else "REGRESSED") if enforced else "info"
        print(f"  {label:<{width}}  {bv:>14.1f} -> {cv:>14.1f}  {delta:+7.1f}%  {flag}")

    if failures:
        print(
            f"perf gate FAILED: {len(failures)} regression(s) beyond tolerance: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        sys.exit(1)
    enforced_n = sum(1 for r in rows if r[5])
    print(f"perf gate OK: {enforced_n} enforced comparisons within tolerance")


if __name__ == "__main__":
    main()
