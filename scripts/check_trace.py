#!/usr/bin/env python3
"""Structural gate over the observability artifacts a run leaves behind.

Usage:
    scripts/check_trace.py trace.json [--min-flows N] \
        [--prometheus FILE] [--blackbox FILE ...]

Validates, in order:

  Trace (Chrome trace-event JSON, the harness/report.hh exporter):
    - top-level shape: {"traceEvents": [...]} with only M/X/s/t/f
      phase records, each carrying the fields its phase requires
      (X: name/ts/dur/tid; flow records: id/ts/tid).
    - span linkage: every X event carrying args.parent != "0" must
      name another X event's args.span — a dangling parent means a
      TraceScope closed against a stack the exporter never saw.
    - flow pairing: per flow id, exactly one "s", exactly one "f",
      any number of "t" steps, and the start is the earliest record
      of the flow (ts order). An orphan step or a flow with no finish
      means a request path dropped its context mid-hop.
    - --min-flows N: at least N distinct flow ids (a serving run that
      traced nothing is a failure, not a pass).

  --prometheus FILE (text exposition format):
    - every sample line's metric has a preceding # TYPE line;
    - histogram `_bucket` series are cumulative (monotone in le order),
      the +Inf bucket equals `_count`, and `_sum` is present;
    - uvolt_telemetry_trace_dropped is present and 0: a span dropped
      by a full per-thread buffer would silently cut both the trace
      and the profile folded from it.

  --blackbox FILE (flight-recorder dump, repeatable):
    - schema "uvolt-blackbox-v1", a non-empty event list, and every
      event carrying seq/ns/level/component/message with seq strictly
      increasing (the cross-shard merge order).

Exit status: 0 all pass, 1 structural failure(s), 2 bad input.
"""

import argparse
import json
import sys

BLACKBOX_SCHEMA = "uvolt-blackbox-v1"
TRACE_DROPPED = "uvolt_telemetry_trace_dropped"
FLOW_PHASES = {"s", "t", "f"}
KNOWN_PHASES = {"M", "X"} | FLOW_PHASES


def fail(messages, text):
    messages.append(text)


def check_trace(path, min_flows, messages):
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"check_trace: cannot read {path}: {error}")

    events = document.get("traceEvents")
    if not isinstance(events, list):
        fail(messages, f"{path}: no traceEvents array")
        return

    spans = set()
    parents = []  # (event index, parent id)
    flows = {}  # id -> list of (ts, ph)
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(messages, f"{path}: event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            fail(messages,
                 f"{path}: event {index} has unknown ph {phase!r}")
            continue
        if phase == "M":
            continue
        missing = [key for key in ("name", "ts", "tid")
                   if key not in event]
        if phase == "X" and "dur" not in event:
            missing.append("dur")
        if phase in FLOW_PHASES and "id" not in event:
            missing.append("id")
        if missing:
            fail(messages,
                 f"{path}: {phase} event {index} missing "
                 f"{', '.join(missing)}")
            continue
        if phase == "X":
            args = event.get("args", {})
            span = args.get("span")
            if span is not None and span != "0":
                spans.add(span)
            parent = args.get("parent")
            if parent is not None and parent != "0":
                parents.append((index, parent))
        else:
            flows.setdefault(event["id"], []).append(
                (float(event["ts"]), phase))

    for index, parent in parents:
        if parent not in spans:
            fail(messages,
                 f"{path}: event {index} parent {parent} names no "
                 f"recorded span")

    for flow_id, points in sorted(flows.items()):
        phases = [ph for _, ph in points]
        starts = phases.count("s")
        finishes = phases.count("f")
        if starts != 1 or finishes != 1:
            fail(messages,
                 f"{path}: flow {flow_id} has {starts} start(s) and "
                 f"{finishes} finish(es) (want exactly 1 + 1)")
            continue
        # Equal timestamps resolve in s -> t -> f order: a start and a
        # step in the same microsecond are fine, a finish strictly
        # before the start is not.
        rank = {"s": 0, "t": 1, "f": 2}
        ordered = sorted(points, key=lambda p: (p[0], rank[p[1]]))
        if ordered[0][1] != "s":
            fail(messages,
                 f"{path}: flow {flow_id} does not start with its "
                 f"\"s\" record (earliest is \"{ordered[0][1]}\")")

    if len(flows) < min_flows:
        fail(messages,
             f"{path}: {len(flows)} flow(s), need at least {min_flows}")
    return len(flows)


def check_prometheus(path, messages):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise SystemExit(f"check_trace: cannot read {path}: {error}")

    typed = set()
    dropped = None
    histograms = {}  # base name -> {"buckets": [(le, v)], "sum": x,
    #                                "count": n}
    samples = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                fail(messages, f"{path}:{number}: malformed TYPE line")
                continue
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        try:
            series, value_text = line.rsplit(" ", 1)
            value = float(value_text)
        except ValueError:
            fail(messages, f"{path}:{number}: malformed sample line")
            continue
        samples += 1
        name = series.split("{", 1)[0]
        if name == TRACE_DROPPED:
            dropped = value
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if name not in typed and base not in typed:
            fail(messages,
                 f"{path}:{number}: sample for {name} has no # TYPE")
        if name.endswith("_bucket"):
            le = series.split('le="', 1)
            if len(le) != 2:
                fail(messages,
                     f"{path}:{number}: _bucket without an le label")
                continue
            bound_text = le[1].split('"', 1)[0]
            bound = (float("inf") if bound_text == "+Inf"
                     else float(bound_text))
            histograms.setdefault(base, {"buckets": [], "sum": None,
                                         "count": None})
            histograms[base]["buckets"].append((bound, value))
        elif name.endswith("_sum"):
            histograms.setdefault(base, {"buckets": [], "sum": None,
                                         "count": None})
            histograms[base]["sum"] = value
        elif name.endswith("_count"):
            histograms.setdefault(base, {"buckets": [], "sum": None,
                                         "count": None})
            histograms[base]["count"] = value

    if samples == 0:
        fail(messages, f"{path}: no samples at all")
    if dropped is None:
        fail(messages, f"{path}: no {TRACE_DROPPED} sample")
    elif dropped != 0:
        fail(messages,
             f"{path}: {TRACE_DROPPED} = {dropped:g}: spans were lost")
    for base, parts in sorted(histograms.items()):
        buckets = parts["buckets"]
        if not buckets:
            fail(messages, f"{path}: histogram {base} has no buckets")
            continue
        values = [v for _, v in buckets]
        if values != sorted(values):
            fail(messages,
                 f"{path}: histogram {base} buckets are not cumulative")
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds) or bounds[-1] != float("inf"):
            fail(messages,
                 f"{path}: histogram {base} le bounds not ascending to "
                 f"+Inf")
        if parts["count"] is None:
            fail(messages, f"{path}: histogram {base} missing _count")
        elif buckets[-1][0] == float("inf") and \
                buckets[-1][1] != parts["count"]:
            fail(messages,
                 f"{path}: histogram {base} +Inf bucket "
                 f"{buckets[-1][1]} != _count {parts['count']}")
        if parts["sum"] is None:
            fail(messages, f"{path}: histogram {base} missing _sum")


def check_blackbox(path, messages):
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"check_trace: cannot read {path}: {error}")

    if document.get("schema") != BLACKBOX_SCHEMA:
        fail(messages,
             f"{path}: schema {document.get('schema')!r} is not "
             f"{BLACKBOX_SCHEMA}")
        return
    events = document.get("events")
    if not isinstance(events, list) or not events:
        fail(messages, f"{path}: empty or missing event list")
        return
    last_seq = 0
    for index, event in enumerate(events):
        missing = [key for key in
                   ("seq", "ns", "level", "component", "message")
                   if key not in event]
        if missing:
            fail(messages,
                 f"{path}: event {index} missing {', '.join(missing)}")
            continue
        if event["seq"] <= last_seq:
            fail(messages,
                 f"{path}: event {index} seq {event['seq']} not "
                 f"strictly increasing")
        last_seq = event["seq"]


def main():
    parser = argparse.ArgumentParser(
        description="validate trace / prometheus / blackbox artifacts")
    parser.add_argument("trace", help="Chrome trace-event JSON path")
    parser.add_argument("--min-flows", type=int, default=0,
                        help="fail unless at least N distinct flows")
    parser.add_argument("--prometheus", default=None,
                        help="Prometheus text snapshot to validate")
    parser.add_argument("--blackbox", action="append", default=[],
                        help="flight-recorder dump to validate "
                             "(repeatable)")
    arguments = parser.parse_args()

    messages = []
    flow_count = check_trace(arguments.trace, arguments.min_flows,
                             messages)
    if arguments.prometheus:
        check_prometheus(arguments.prometheus, messages)
    for box in arguments.blackbox:
        check_blackbox(box, messages)

    for message in messages:
        print(f"FAIL {message}")
    if not messages:
        extras = []
        if arguments.prometheus:
            extras.append("prometheus ok")
        if arguments.blackbox:
            extras.append(f"{len(arguments.blackbox)} blackbox(es) ok")
        detail = f" ({', '.join(extras)})" if extras else ""
        print(f"OK {arguments.trace}: {flow_count} well-formed "
              f"flow(s){detail}")
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
