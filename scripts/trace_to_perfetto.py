#!/usr/bin/env python3
"""Validate (and lightly summarize) a neo Chrome trace-event JSON file.

The tracer (src/obs/trace.h) exports Chrome trace-event JSON meant to load
in Perfetto / chrome://tracing. This script is the CI gate for that
contract: `--check` validates the schema the viewers actually rely on and
exits non-zero on any violation, so a formatting regression fails the
build instead of producing a file Perfetto silently refuses to load.

It also validates the other telemetry-plane artifacts:

  * merged multi-rank traces (Tracer::WriteChromeJson over a whole
    world: every rank is a thread of one process) — same schema, plus
    `--expect-ranks N` requires slices from every rank pid 1..N (pid 0 is
    the shared pool and does not count);
  * post-mortem flight-recorder bundles (`--bundle`) — the versioned
    JSON obs::FlightRecorder::DumpBundle writes on failure paths.

Usage:
    trace_to_perfetto.py --check trace.json     # validate, exit 0/1
    trace_to_perfetto.py --check --expect-ranks 4 merged.json
    trace_to_perfetto.py --bundle flight_rank2.json
    trace_to_perfetto.py --summary trace.json   # per-pid/category totals
"""

import argparse
import collections
import json
import sys


def fail(msg):
    print(f"trace check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event(i, ev):
    if not isinstance(ev, dict):
        fail(f"event {i} is not an object")
    ph = ev.get("ph")
    if ph not in ("X", "M"):
        fail(f"event {i}: unsupported phase {ph!r}")
    if "pid" not in ev or not isinstance(ev["pid"], int):
        fail(f"event {i}: missing/non-integer pid")
    if ph == "M":
        if ev.get("name") != "process_name":
            fail(f"event {i}: unexpected metadata event {ev.get('name')!r}")
        if "name" not in ev.get("args", {}):
            fail(f"event {i}: process_name metadata without args.name")
        return
    # Complete ("X") events: the fields Perfetto's slice track needs.
    for key in ("name", "cat", "ts", "dur", "tid"):
        if key not in ev:
            fail(f"event {i}: X event missing {key!r}")
    if not isinstance(ev["name"], str) or not isinstance(ev["cat"], str):
        fail(f"event {i}: name/cat must be strings")
    for key in ("ts", "dur"):
        if not isinstance(ev[key], (int, float)):
            fail(f"event {i}: {key} must be numeric")
    if ev["dur"] < 0:
        fail(f"event {i}: negative dur {ev['dur']}")
    if not isinstance(ev["tid"], int):
        fail(f"event {i}: tid must be an integer")


def check_nesting(events):
    """Slices on one (pid, tid) track must nest: no partial overlap."""
    tracks = collections.defaultdict(list)
    for ev in events:
        if ev["ph"] == "X":
            tracks[(ev["pid"], ev["tid"])].append(ev)
    for (pid, tid), slices in tracks.items():
        slices.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for ev in slices:
            end = ev["ts"] + ev["dur"]
            while stack and stack[-1] <= ev["ts"]:
                stack.pop()
            if stack and end > stack[-1] + 1e-6:
                fail(
                    f"track pid={pid} tid={tid}: slice "
                    f"{ev['name']!r} [{ev['ts']}, {end}] overlaps the "
                    f"enclosing slice ending at {stack[-1]}"
                )
            stack.append(end)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents must be an array")
    return events


def summarize(events):
    by_pid = collections.defaultdict(float)
    by_cat = collections.defaultdict(float)
    names = {}
    slices = 0
    for ev in events:
        if ev["ph"] == "M":
            names[ev["pid"]] = ev["args"]["name"]
            continue
        slices += 1
        by_pid[ev["pid"]] += ev["dur"]
        by_cat[ev["cat"]] += ev["dur"]
    print(f"{slices} slices across {len(by_pid)} processes")
    for pid in sorted(by_pid):
        label = names.get(pid, f"pid {pid}")
        print(f"  {label:<16} {by_pid[pid] / 1e3:10.3f} ms total")
    print("by category:")
    for cat in sorted(by_cat, key=by_cat.get, reverse=True):
        print(f"  {cat:<16} {by_cat[cat] / 1e3:10.3f} ms")


def check_expected_ranks(events, expect_ranks):
    """A merged fleet trace must carry slices from every rank 1..N."""
    slice_pids = {ev["pid"] for ev in events if ev["ph"] == "X"}
    missing = [r for r in range(expect_ranks) if (r + 1) not in slice_pids]
    if missing:
        fail(
            f"merged trace covers pids {sorted(slice_pids)} but has no "
            f"slices for rank(s) {missing} (expected ranks 0.."
            f"{expect_ranks - 1})"
        )


def check_bundle(path):
    """Validate a flight-recorder post-mortem bundle (see
    src/obs/flight_recorder.h for the schema)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if not isinstance(doc, dict):
        fail("bundle top level must be an object")
    if doc.get("neo_flight_recorder") != 1:
        fail(
            "bundle missing/unsupported version header "
            f"neo_flight_recorder={doc.get('neo_flight_recorder')!r}"
        )
    if not isinstance(doc.get("rank"), int):
        fail("bundle: missing/non-integer rank")
    for key in ("cause", "last_op"):
        if not isinstance(doc.get(key), str):
            fail(f"bundle: missing/non-string {key!r}")
    if not isinstance(doc.get("dumped_at_ns"), int):
        fail("bundle: missing/non-integer dumped_at_ns")
    for key, fields in (
        ("ops", {"name": str, "t_ns": int}),
        ("steps", {"step": int, "seconds": (int, float),
                   "loss": (int, float)}),
        ("events", {"t_ns": int, "kind": str, "detail": str}),
        ("metric_deltas", {"t_ns": int, "counters": dict}),
    ):
        entries = doc.get(key)
        if not isinstance(entries, list):
            fail(f"bundle: {key!r} must be an array")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                fail(f"bundle: {key}[{i}] is not an object")
            for field, types in fields.items():
                if not isinstance(entry.get(field), types):
                    fail(f"bundle: {key}[{i}] missing/ill-typed {field!r}")
    if doc["ops"] and doc["last_op"] != doc["ops"][-1]["name"]:
        fail(
            f"bundle: last_op {doc['last_op']!r} disagrees with the final "
            f"ops entry {doc['ops'][-1]['name']!r}"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("bundle: 'metrics' must be an object")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f"bundle: metrics.{section} must be an object")
    print(
        f"{path}: OK (rank {doc['rank']}, {len(doc['ops'])} ops, "
        f"{len(doc['steps'])} steps, {len(doc['events'])} events, "
        f"last_op {doc['last_op']!r})"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--check", action="store_true", help="validate schema and exit"
    )
    parser.add_argument(
        "--summary", action="store_true", help="print per-pid/cat totals"
    )
    parser.add_argument(
        "--expect-ranks",
        type=int,
        default=0,
        metavar="N",
        help="require slices from every rank 0..N-1 (merged fleet traces)",
    )
    parser.add_argument(
        "--bundle",
        action="store_true",
        help="validate a flight-recorder post-mortem bundle instead",
    )
    args = parser.parse_args()

    if args.bundle:
        check_bundle(args.trace)
        return

    events = load(args.trace)
    if not events:
        fail("trace contains no events")
    for i, ev in enumerate(events):
        check_event(i, ev)
    check_nesting(events)
    if args.expect_ranks > 0:
        check_expected_ranks(events, args.expect_ranks)
    if args.summary:
        summarize(events)
    if args.check:
        print(f"{args.trace}: OK ({len(events)} events)")


if __name__ == "__main__":
    main()
