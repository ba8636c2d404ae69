"""Telemetry exporters: JSONL event streams, Prometheus text, summary tables.

The JSONL export is the machine-readable evidence trail of a run: one line
per recorded event (``engine.run`` records with per-round rows, ``span``
completions, ``pipeline.run`` / ``selfstab.run`` summaries, corruption
events, ...) followed by one final ``snapshot`` line holding the aggregated
counters, gauges and histograms.  Every line round-trips through
``json.loads``; the schema is documented in ``docs/observability.md``.

:func:`comparable_view` strips the fields that legitimately differ between
the reference and batch backends (wall-clock timings, the backend label) so
telemetry parity can be asserted bit-for-bit in tests.
"""

import json

__all__ = [
    "JsonlWriter",
    "comparable_view",
    "prometheus_text",
    "read_jsonl",
    "summary_table",
    "write_jsonl",
]

# Fields whose values are wall-clock or backend-identity dependent (the
# batch engine hands palettes off as ndarrays where the reference engine
# hands off lists), plus the flight-recorder stamps (timestamps, process
# ids, trace ids and per-worker labels); stripped by comparable_view so
# reference-vs-batch telemetry can be compared exactly.
NONDETERMINISTIC_FIELDS = frozenset(
    (
        "seconds",
        "wall_seconds",
        "backend",
        "handoff",
        "ts",
        "pid",
        "source",
        "trace_id",
        "worker",
    )
)


class JsonlWriter:
    """A streaming, per-record-flushed JSONL sink.

    Each :meth:`write` serializes one record, writes it with a trailing
    newline and flushes the handle, so a process killed mid-run (the
    timeout pool rebuild path) leaves at worst one torn *final* line —
    which :func:`read_jsonl` repairs — never a silently truncated stream.
    """

    def __init__(self, destination):
        if hasattr(destination, "write"):
            self._handle = destination
            self._owns = False
        else:
            self._handle = open(destination, "w")
            self._owns = True
        self.lines = 0

    def write(self, record):
        """Serialize, write and flush one record; returns the line count."""
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.lines += 1
        return self.lines

    def close(self):
        """Close the handle if this writer opened it (idempotent)."""
        if self._owns:
            self._handle.close()
            self._owns = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_jsonl(telemetry, destination):
    """Write every event plus the final snapshot as JSON Lines.

    ``destination`` is a path or a writable text handle; returns the number
    of lines written.  Writes are flushed per record (:class:`JsonlWriter`),
    so a crash mid-export cannot leave more than one torn line.
    """
    records = list(telemetry.events) + [telemetry.snapshot()]
    with JsonlWriter(destination) as writer:
        for record in records:
            writer.write(record)
    return len(records)


def read_jsonl(source, strict=False):
    """Load a JSONL telemetry stream back into a list of records.

    A torn *final* line — the signature a killed writer leaves behind — is
    silently dropped (the stream up to it is intact because the exporter
    flushes per record).  Corruption anywhere else still raises
    ``ValueError`` with the offending line number; ``strict=True`` raises
    for the torn tail too.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as handle:
            lines = handle.read().splitlines()
    numbered = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    records = []
    for pos, (lineno, line) in enumerate(numbered):
        try:
            records.append(json.loads(line))
        except ValueError:
            if pos == len(numbered) - 1 and not strict:
                break  # torn final line: repairable truncation, drop it
            raise ValueError(
                "unparseable JSONL record at line %d" % lineno
            ) from None
    return records


def comparable_view(records):
    """Records with timing / backend-identity fields recursively removed.

    The result is deterministic for a deterministic workload, so telemetry
    from ``backend="reference"`` and ``backend="batch"`` can be compared for
    equality (the acceptance contract of the batch engines extends to their
    telemetry).  Flight-recorder stamps (``ts`` / ``pid`` / ``source`` /
    ``trace_id`` / per-worker fields) are stripped too.
    """
    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(item)
                for key, item in value.items()
                if key not in NONDETERMINISTIC_FIELDS
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return [strip(record) for record in records]


def _prom_name(name):
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_labels(tags):
    if not tags:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, str(value).replace('"', '\\"'))
        for key, value in sorted(tags.items())
    )
    return "{%s}" % inner


def prometheus_text(snapshot):
    """Render one aggregated snapshot in Prometheus text exposition format.

    Accepts either a snapshot record (``{"type": "snapshot", ...}``) or a
    live collector (its :meth:`snapshot` is taken).  Histograms are emitted
    as ``_count`` / ``_sum`` / ``_min`` / ``_max`` series.
    """
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    lines = []
    for row in snapshot.get("counters", []):
        name = _prom_name(row["name"])
        lines.append("# TYPE %s counter" % name)
        lines.append("%s%s %s" % (name, _prom_labels(row["tags"]), row["value"]))
    for row in snapshot.get("gauges", []):
        name = _prom_name(row["name"])
        lines.append("# TYPE %s gauge" % name)
        lines.append("%s%s %s" % (name, _prom_labels(row["tags"]), row["value"]))
    for row in snapshot.get("histograms", []):
        name = _prom_name(row["name"])
        labels = _prom_labels(row["tags"])
        lines.append("# TYPE %s summary" % name)
        lines.append("%s_count%s %s" % (name, labels, row["count"]))
        lines.append("%s_sum%s %s" % (name, labels, row["total"]))
        if row["min"] is not None:
            lines.append("%s_min%s %s" % (name, labels, row["min"]))
            lines.append("%s_max%s %s" % (name, labels, row["max"]))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_rows(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines = [fmt % header, fmt % tuple("-" * w for w in widths)]
    lines.extend(fmt % tuple(str(c) for c in row) for row in rows)
    return lines


def _tag_text(row):
    return " ".join("%s=%s" % kv for kv in sorted(row["tags"].items())) or "-"


def summary_table(records):
    """Human summary of a telemetry stream (records from :func:`read_jsonl`,
    or a live collector — its events plus snapshot are summarized)."""
    if hasattr(records, "snapshot"):
        records = list(records.events) + [records.snapshot()]
    sections = []

    runs = [r for r in records if r.get("type") == "engine.run"]
    if runs:
        rows = [
            (
                r.get("stage", "?"),
                r.get("backend", "?"),
                r.get("rounds_used", 0),
                r.get("total_messages", 0),
                r.get("total_bits", 0),
                "%.4f" % r.get("wall_seconds", 0.0),
            )
            for r in runs
        ]
        sections.append("engine runs")
        sections.extend(
            _format_rows(
                ("stage", "backend", "rounds", "messages", "bits", "seconds"), rows
            )
        )

    spans = [r for r in records if r.get("type") == "span"]
    if spans:
        rows = [
            (
                r.get("path", r.get("name", "?")),
                r.get("stage", "-"),
                "%.4f" % (r.get("seconds") or 0.0),
            )
            for r in spans
        ]
        sections.append("")
        sections.append("spans")
        sections.extend(_format_rows(("path", "stage", "seconds"), rows))

    stabilizations = [r for r in records if r.get("type") == "selfstab.run"]
    if stabilizations:
        rows = [
            (
                r.get("algorithm", "?"),
                r.get("rounds_used", 0),
                r.get("legal", "?"),
                r.get("touched", 0),
                r.get("max_message_bits", 0),
            )
            for r in stabilizations
        ]
        sections.append("")
        sections.append("self-stabilization runs")
        sections.extend(
            _format_rows(("algorithm", "rounds", "legal", "touched", "bits"), rows)
        )

    snapshots = [r for r in records if r.get("type") == "snapshot"]
    if snapshots:
        snapshot = snapshots[-1]
        for kind in ("counters", "gauges"):
            if snapshot[kind]:
                rows = [
                    (row["name"], _tag_text(row), row["value"])
                    for row in snapshot[kind]
                ]
                sections.append("")
                sections.append(kind)
                sections.extend(_format_rows(("name", "tags", "value"), rows))
        if snapshot["histograms"]:
            rows = [
                (
                    row["name"],
                    _tag_text(row),
                    row["count"],
                    "%.4g" % row["mean"] if row["count"] else "-",
                    "%.4g" % row["min"] if row["min"] is not None else "-",
                    "%.4g" % row["max"] if row["max"] is not None else "-",
                )
                for row in snapshot["histograms"]
            ]
            sections.append("")
            sections.append("histograms")
            sections.extend(
                _format_rows(("name", "tags", "count", "mean", "min", "max"), rows)
            )

    if not sections:
        return "no telemetry records\n"
    return "\n".join(sections) + "\n"
