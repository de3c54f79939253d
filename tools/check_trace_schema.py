#!/usr/bin/env python3
"""Validates a pase JSONL file: a pase-trace (the --trace=<path> output) or
a pase-telemetry summary (the --telemetry=<path> output). The format is
auto-detected from the header's "schema" field.

Standard library only, so it runs anywhere the benches do:

    python3 tools/check_trace_schema.py trace.jsonl
    python3 tools/check_trace_schema.py telemetry.jsonl

pase-trace checks:
  * line 1 is a header object with schema == "pase-trace", a supported
    version, a category list, and event/dropped counts;
  * the event count in the header matches the number of event lines;
  * every event line is a JSON object with a finite numeric "t" and a known
    "type", carrying exactly the fields that type promises;
  * timestamps never decrease (the sinks serialize in merged order).

pase-telemetry checks:
  * the header carries the sampling geometry (period, samples_per_window,
    samples, end_time, queues, groups, windows, top_k);
  * every record line has a known "type" with exactly the promised fields;
  * group ids are dense and each window/total references a declared group;
  * windows arrive group-major in window order, utilization stats are finite
    with mean <= p99 <= max, and there is exactly one total per group;
  * heavy-hitter ranks are dense and byte counts never increase with rank.

Exit status 0 on success; 1 with a message naming the first offending line
otherwise.
"""

import json
import math
import sys

SCHEMA_NAME = "pase-trace"
SUPPORTED_VERSIONS = {1}

TELEMETRY_SCHEMA_NAME = "pase-telemetry"
TELEMETRY_SUPPORTED_VERSIONS = {1}

TELEMETRY_HEADER_FIELDS = {
    "schema", "version", "period", "samples_per_window", "samples",
    "end_time", "queues", "groups", "windows", "top_k",
}

# type -> required fields beyond {"type"}; extra fields are an error so the
# schema stays deliberate.
TELEMETRY_RECORD_FIELDS = {
    "group": {"id", "name"},
    "window": {"w", "group", "t0", "t1", "samples", "util_mean", "util_max",
               "util_p99", "depth_mean", "depth_max", "depth_p99", "drops",
               "marks", "bytes"},
    "total": {"group", "samples", "util_mean", "util_max", "util_p99",
              "depth_mean", "depth_max", "drops", "marks", "bytes"},
    "hot_link": {"rank", "name", "bytes", "error"},
    "hot_flow": {"rank", "flow", "bytes", "error"},
}

KNOWN_CATEGORIES = {"flow", "packet", "arb", "endpoint", "engine"}

# type -> required fields beyond {"t", "type"}; extra fields are an error so
# the schema stays deliberate.
EVENT_FIELDS = {
    "flow.start": {"flow", "size", "deadline"},
    "flow.first_byte": {"flow"},
    "flow.complete": {"flow", "fct"},
    "flow.deadline_miss": {"flow", "late_by"},
    "pkt.drop": {"flow", "seq", "queue", "bytes"},
    "pkt.ecn_mark": {"flow", "seq", "queue", "bytes"},
    "arb.decision": {"flow", "prio", "half", "rref"},
    "ep.cwnd": {"flow", "cwnd", "srtt"},
    "ep.alpha": {"flow", "alpha", "frac"},
    "ep.rate": {"flow", "rate", "paused"},
    "engine.sample": {"domain", "events", "heap_closures"},
    "engine.round": {"rounds", "posts", "horizon", "drains"},
}


def fail(lineno, message):
    print(f"check_trace_schema: line {lineno}: {message}", file=sys.stderr)
    sys.exit(1)


def check_header(line):
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        fail(1, f"header is not valid JSON: {e}")
    if not isinstance(header, dict):
        fail(1, "header must be a JSON object")
    if header.get("schema") != SCHEMA_NAME:
        fail(1, f"schema is {header.get('schema')!r}, expected {SCHEMA_NAME!r}")
    if header.get("version") not in SUPPORTED_VERSIONS:
        fail(1, f"unsupported version {header.get('version')!r}")
    cats = header.get("categories")
    if not isinstance(cats, str):
        fail(1, "header is missing the categories string")
    for cat in filter(None, cats.split(",")):
        if cat not in KNOWN_CATEGORIES:
            fail(1, f"unknown category {cat!r}")
    for key in ("events", "dropped"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            fail(1, f"header {key!r} must be a non-negative integer")
    return header


def check_event(lineno, line, last_t):
    try:
        event = json.loads(line)
    except json.JSONDecodeError as e:
        fail(lineno, f"event is not valid JSON: {e}")
    if not isinstance(event, dict):
        fail(lineno, "event must be a JSON object")
    t = event.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or not math.isfinite(t):
        fail(lineno, f"event 't' must be a finite number, got {t!r}")
    if last_t is not None and t < last_t:
        fail(lineno, f"timestamps went backwards ({t} after {last_t})")
    etype = event.get("type")
    if etype not in EVENT_FIELDS:
        fail(lineno, f"unknown event type {etype!r}")
    fields = set(event) - {"t", "type"}
    expected = EVENT_FIELDS[etype]
    if fields != expected:
        missing = sorted(expected - fields)
        extra = sorted(fields - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        fail(lineno, f"{etype} fields wrong: {', '.join(detail)}")
    return t


def is_finite_number(v):
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
    )


def check_telemetry_header(line):
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        fail(1, f"header is not valid JSON: {e}")
    if not isinstance(header, dict):
        fail(1, "header must be a JSON object")
    if set(header) != TELEMETRY_HEADER_FIELDS:
        fail(1, f"header fields must be exactly {sorted(TELEMETRY_HEADER_FIELDS)}")
    if header["version"] not in TELEMETRY_SUPPORTED_VERSIONS:
        fail(1, f"unsupported version {header['version']!r}")
    if not is_finite_number(header["period"]) or header["period"] <= 0:
        fail(1, "header 'period' must be a positive number")
    if not is_finite_number(header["end_time"]) or header["end_time"] < 0:
        fail(1, "header 'end_time' must be a non-negative number")
    for key in ("samples_per_window", "samples", "queues", "groups",
                "windows", "top_k"):
        if not isinstance(header[key], int) or isinstance(header[key], bool) \
                or header[key] < 0:
            fail(1, f"header {key!r} must be a non-negative integer")
    return header


def check_telemetry_stats(lineno, rec):
    """Shared window/total stat sanity: finite, ordered, non-negative."""
    for key in ("util_mean", "util_max", "util_p99", "depth_mean"):
        if not is_finite_number(rec[key]) or rec[key] < 0:
            fail(lineno, f"{rec['type']} {key!r} must be a non-negative number")
    if rec["util_mean"] > rec["util_max"] + 1e-9:
        fail(lineno, "util_mean exceeds util_max")
    if rec["util_p99"] > rec["util_max"] + 1e-9:
        fail(lineno, "util_p99 exceeds util_max")
    for key in ("samples", "depth_max", "drops", "marks", "bytes"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool) \
                or rec[key] < 0:
            fail(lineno, f"{rec['type']} {key!r} must be a non-negative integer")


def check_telemetry(lines):
    header = check_telemetry_header(lines[0])
    group_names = {}
    windows = 0
    totals_seen = set()
    prev_window_key = None
    hot_ranks = {"hot_link": [], "hot_flow": []}
    hot_bytes = {"hot_link": [], "hot_flow": []}
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(lineno, f"record is not valid JSON: {e}")
        if not isinstance(rec, dict):
            fail(lineno, "record must be a JSON object")
        rtype = rec.get("type")
        if rtype not in TELEMETRY_RECORD_FIELDS:
            fail(lineno, f"unknown record type {rtype!r}")
        fields = set(rec) - {"type"}
        expected = TELEMETRY_RECORD_FIELDS[rtype]
        if fields != expected:
            missing = sorted(expected - fields)
            extra = sorted(fields - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            fail(lineno, f"{rtype} fields wrong: {', '.join(detail)}")
        if rtype == "group":
            if rec["id"] != len(group_names):
                fail(lineno, f"group ids must be dense, got {rec['id']}")
            if not isinstance(rec["name"], str) or not rec["name"]:
                fail(lineno, "group name must be a non-empty string")
            group_names[rec["id"]] = rec["name"]
        elif rtype == "window":
            if rec["group"] not in group_names:
                fail(lineno, f"window references undeclared group {rec['group']}")
            key = (rec["w"], rec["group"])
            if prev_window_key is not None and key <= prev_window_key:
                fail(lineno, "windows must arrive in (window, group) order")
            prev_window_key = key
            if not is_finite_number(rec["t0"]) or not is_finite_number(rec["t1"]) \
                    or rec["t1"] < rec["t0"]:
                fail(lineno, "window [t0, t1) must be a forward interval")
            check_telemetry_stats(lineno, rec)
            windows += 1
        elif rtype == "total":
            if rec["group"] not in group_names:
                fail(lineno, f"total references undeclared group {rec['group']}")
            if rec["group"] in totals_seen:
                fail(lineno, f"duplicate total for group {rec['group']}")
            totals_seen.add(rec["group"])
            check_telemetry_stats(lineno, rec)
        elif rtype in ("hot_link", "hot_flow"):
            ranks = hot_ranks[rtype]
            if rec["rank"] != len(ranks):
                fail(lineno, f"{rtype} ranks must be dense, got {rec['rank']}")
            ranks.append(rec["rank"])
            prev = hot_bytes[rtype]
            if prev and rec["bytes"] > prev[-1]:
                fail(lineno, f"{rtype} bytes must be non-increasing by rank")
            prev.append(rec["bytes"])
    if len(group_names) != header["groups"]:
        fail(1, f"header says {header['groups']} groups, file declares "
                f"{len(group_names)}")
    if header["groups"] and windows != header["windows"] * header["groups"]:
        fail(1, f"header says {header['windows']} windows x "
                f"{header['groups']} groups, file has {windows} window rows")
    if totals_seen != set(group_names):
        fail(1, "every group needs exactly one total record")
    for rtype in ("hot_link", "hot_flow"):
        if len(hot_ranks[rtype]) > header["top_k"]:
            fail(1, f"more {rtype} records than header top_k")
    print(
        f"check_trace_schema: OK — pase-telemetry, {len(group_names)} groups, "
        f"{header['windows']} windows, {header['samples']} samples, "
        f"top-{header['top_k']} hitters"
    )
    return 0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1], "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"check_trace_schema: {e}", file=sys.stderr)
        return 1
    if not lines:
        fail(1, "empty file (expected a header line)")
    if f'"schema":"{TELEMETRY_SCHEMA_NAME}"' in lines[0] or \
            TELEMETRY_SCHEMA_NAME in lines[0][:128]:
        return check_telemetry(lines)
    header = check_header(lines[0])
    events = lines[1:]
    if header["events"] != len(events):
        fail(1, f"header says {header['events']} events, file has {len(events)}")
    last_t = None
    for i, line in enumerate(events, start=2):
        last_t = check_event(i, line, last_t)
    print(
        f"check_trace_schema: OK — {len(events)} events, "
        f"{header['dropped']} dropped, categories [{header['categories']}]"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
