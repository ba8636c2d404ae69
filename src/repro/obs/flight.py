"""Flight recorder: Chrome-trace / Perfetto timelines of telemetry streams.

:func:`chrome_trace` turns a telemetry record stream — live events, a JSONL
file, or several files merged through ``Telemetry.absorb`` — into
Chrome-trace / Perfetto JSON.  Spans become ``ph: "X"`` complete events on a
``(pid, source)`` lane, everything else with a timestamp becomes an instant
event.  Timestamps are the collectors' monotonic clocks (CLOCK_MONOTONIC is
system-wide on Linux), normalized so the earliest record is t=0: parent and
forked-worker spans land on one shared axis.
"""

import json

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Record fields that become structure (lane, timing) rather than args.
_STRUCTURAL_FIELDS = frozenset(
    ("type", "seq", "source_seq", "name", "path", "seconds", "ts", "pid",
     "source", "job", "trace_id")
)


def _scalar(value):
    return value is None or isinstance(value, (bool, int, float, str))


def chrome_trace(records):
    """Telemetry records -> a Chrome-trace / Perfetto JSON object.

    ``records`` is anything :func:`repro.obs.exporters.read_jsonl` returns
    (or a live collector's ``events`` list).  Every record carrying a
    monotonic ``ts`` lands on a ``(pid, source)`` lane: spans with a
    duration become ``ph: "X"`` complete events, and any other stamped
    record becomes a thread-scoped instant event.  Timestamps are shifted
    so the earliest record is t=0.
    """
    if hasattr(records, "events"):
        records = list(records.events)
    stamped = [
        r for r in records
        if r.get("type") != "snapshot"
        and isinstance(r.get("ts"), (int, float))
        and not isinstance(r.get("ts"), bool)
    ]
    origin = min((r["ts"] for r in stamped), default=0.0)

    def micros(ts):
        return (ts - origin) * 1e6

    lanes = {}  # (pid, lane label) -> tid (per-pid, 1-based)
    per_pid = {}

    def lane_tid(pid, label):
        key = (pid, label)
        tid = lanes.get(key)
        if tid is None:
            tid = per_pid.get(pid, 0) + 1
            per_pid[pid] = tid
            lanes[key] = tid
        return tid

    events = []
    for record in stamped:
        kind = record.get("type")
        pid = record.get("pid", 0)
        label = record.get("source") or record.get("job") or "main"
        if kind == "span" and isinstance(record.get("seconds"), (int, float)):
            args = {
                key: value
                for key, value in record.items()
                if key not in _STRUCTURAL_FIELDS and _scalar(value)
            }
            args["path"] = record.get("path", record.get("name", ""))
            events.append({
                "name": record.get("name", "span"),
                "cat": "span",
                "ph": "X",
                "ts": micros(record["ts"]),
                "dur": record["seconds"] * 1e6,
                "pid": pid,
                "tid": lane_tid(pid, label),
                "args": args,
            })
        else:
            args = {
                key: value
                for key, value in record.items()
                if key not in _STRUCTURAL_FIELDS and _scalar(value)
            }
            events.append({
                "name": kind,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": micros(record["ts"]),
                "pid": pid,
                "tid": lane_tid(pid, label),
                "args": args,
            })

    metadata = []
    for pid in sorted(per_pid):
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "repro pid %s" % pid},
        })
    for (pid, label), tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(records, destination):
    """Serialize :func:`chrome_trace` output; returns the event count.

    ``destination`` is a path or a writable text handle.
    """
    trace = chrome_trace(records)
    if hasattr(destination, "write"):
        json.dump(trace, destination, sort_keys=True)
        destination.write("\n")
    else:
        with open(destination, "w") as handle:
            json.dump(trace, handle, sort_keys=True)
            handle.write("\n")
    return len(trace["traceEvents"])
