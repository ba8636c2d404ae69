"""Telemetry core: a process-wide registry of counters, gauges, histograms
and nestable timed spans.

Observability is opt-in: the module-level collector defaults to
:class:`NullTelemetry`, whose every method is a no-op and whose ``span``
returns one shared, stateless context manager — instrumented hot paths pay a
single attribute check (``tel.enabled``) and nothing else.  Call
:func:`configure` (or use the :func:`capture` context manager in tests) to
swap in a live :class:`Telemetry` that records everything.

Instrumentation vocabulary
--------------------------
counters
    Monotonic totals (``engine.runs``, ``selfstab.corruptions``), keyed by
    name plus a canonicalized tag set.
gauges
    Last-write-wins values (``selfstab.max_message_bits``).
histograms
    Aggregated observations (count / total / min / max), e.g. per-run wall
    times and adjustment radii.
spans
    Timed, nestable regions: ``with tel.span("pipeline.stage", stage=name)``.
    On exit a span appends one event carrying its slash-joined nesting path
    and duration, and feeds a ``span.<name>`` histogram.
events
    Free-form structured records (one ``engine.run`` record per engine run,
    with per-round rows) — the rows of the JSONL export.

Flight-recorder identity
------------------------
Every live collector knows *who* it is: the recording pid, an optional
``source`` lane label (the job runner sets it to the job id inside workers),
and a ``trace_id`` shared by every collector of one distributed run.  Events
and span completions are stamped with a monotonic ``ts`` (the collector's
clock — ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, which is
system-wide, so timestamps from forked workers are directly comparable to
the parent's) plus ``pid``/``source``, which is what lets
:mod:`repro.obs.flight` reassemble a cross-process timeline.  ``absorb``
keeps foreign stamps untouched.

The registry is deliberately not thread-safe: the engines are synchronous
and single-threaded, and keeping the hot path lock-free is the point.
"""

import os
import time
import uuid
from contextlib import contextmanager

__all__ = [
    "Histogram",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "active",
    "capture",
    "configure",
    "counter",
    "disable",
    "event",
    "gauge",
    "histogram",
    "span",
]


class _NullSpan:
    """The shared do-nothing span; reused so disabled spans allocate nothing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **fields):
        """Ignore extra fields (mirror of :meth:`Span.set`)."""
        return self


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled collector: records nothing, allocates nothing."""

    enabled = False

    def span(self, name, **tags):
        """Return the shared no-op span."""
        return _NULL_SPAN

    def counter(self, name, value=1, **tags):
        """No-op."""

    def gauge(self, name, value, **tags):
        """No-op."""

    def histogram(self, name, value, **tags):
        """No-op."""

    def event(self, kind, **fields):
        """No-op."""

    def absorb(self, records, **extra):
        """Discard foreign records (mirror of :meth:`Telemetry.absorb`)."""
        return 0

    def trace_context(self):
        """No trace to propagate (mirror of :meth:`Telemetry.trace_context`)."""
        return None

    def snapshot(self):
        """An empty aggregate snapshot (keeps exporters total)."""
        return {"type": "snapshot", "counters": [], "gauges": [], "histograms": []}


_NULL = NullTelemetry()


class Histogram:
    """Streaming aggregate of one metric: count, total, min, max."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def record(self, value):
        """Fold one observation into the aggregate."""
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other):
        """Fold another aggregate in (a :class:`Histogram` or its dict form).

        Count and total add; min and max combine.  Used when stitching a
        worker process's exported snapshot into the parent collector.
        """
        if isinstance(other, Histogram):
            count, total = other.count, other.total
            minimum, maximum = other.minimum, other.maximum
        else:
            count, total = other["count"], other["total"]
            minimum, maximum = other["min"], other["max"]
        if not count:
            return
        self.count += count
        self.total += total
        if minimum is not None and (self.minimum is None or minimum < self.minimum):
            self.minimum = minimum
        if maximum is not None and (self.maximum is None or maximum > self.maximum):
            self.maximum = maximum

    @property
    def mean(self):
        """Average observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self):
        """JSON-serializable aggregate."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class Span:
    """One timed region; produced by :meth:`Telemetry.span`, used as a
    context manager.  ``set(**fields)`` attaches extra tags any time before
    the block exits (they land on the span's event)."""

    __slots__ = ("_telemetry", "name", "tags", "path", "seconds", "ts", "_start")

    def __init__(self, telemetry, name, tags):
        self._telemetry = telemetry
        self.name = name
        self.tags = tags
        self.path = name
        self.seconds = None
        self.ts = None
        self._start = None

    def set(self, **fields):
        """Attach extra fields to the span's completion event."""
        self.tags.update(fields)
        return self

    def __enter__(self):
        stack = self._telemetry._span_stack
        if stack:
            self.path = stack[-1].path + "/" + self.name
        stack.append(self)
        self.ts = self._start = self._telemetry._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        telemetry = self._telemetry
        self.seconds = telemetry._clock() - self._start
        telemetry._span_stack.pop()
        telemetry._finish_span(self, exc_type.__name__ if exc_type else None)
        return False


class Telemetry:
    """A live collector: every record lands in memory, exporters serialize it.

    ``clock`` is injectable for deterministic tests; it must be a monotonic
    zero-argument callable returning seconds.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, source=None, trace_id=None):
        self._clock = clock
        self.pid = os.getpid()
        self.source = source
        self.trace_id = uuid.uuid4().hex[:16] if trace_id is None else trace_id
        self.events = []
        self.counters = {}
        self.gauges = {}
        self.histograms = {}
        self._span_stack = []

    # -- recording ---------------------------------------------------------------

    @staticmethod
    def _key(name, tags):
        return (name, tuple(sorted(tags.items())))

    def span(self, name, **tags):
        """A nestable timed region; use as ``with tel.span(...) as sp:``."""
        return Span(self, name, tags)

    def counter(self, name, value=1, **tags):
        """Add ``value`` to a monotonic counter."""
        key = self._key(name, tags)
        self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, name, value, **tags):
        """Set a last-write-wins value."""
        self.gauges[self._key(name, tags)] = value

    def histogram(self, name, value, **tags):
        """Fold one observation into the named histogram."""
        key = self._key(name, tags)
        agg = self.histograms.get(key)
        if agg is None:
            agg = self.histograms[key] = Histogram()
        agg.record(value)

    def event(self, kind, **fields):
        """Append one structured record (a future JSONL line).

        Records are stamped with a monotonic ``ts`` plus the collector's
        ``pid`` / ``source`` lane — via ``setdefault``, so callers replaying
        buffered observations or relaying foreign records keep the original
        stamps.
        """
        record = {"type": kind, "seq": len(self.events)}
        record.update(fields)
        record.setdefault("ts", self._clock())
        record.setdefault("pid", self.pid)
        if self.source is not None:
            record.setdefault("source", self.source)
        self.events.append(record)
        return record

    def absorb(self, records, **extra):
        """Stitch another collector's exported records into this one.

        ``records`` is an iterable of dicts in the JSONL export format (see
        :func:`repro.obs.exporters.write_jsonl`): ``snapshot`` records merge
        into this collector's counters / gauges / histograms (counters add,
        gauges last-write-wins, histograms fold via :meth:`Histogram.merge`);
        every other record is appended to the event stream with a fresh local
        ``seq`` — the foreign sequence number, if any, is preserved as
        ``source_seq`` so per-worker ordering stays reconstructible.

        ``extra`` fields are stamped onto every absorbed event; the parallel
        job runner uses this to tag each worker record with its job id.
        Returns the number of records absorbed.
        """
        absorbed = 0
        for record in records:
            kind = record.get("type")
            if kind == "snapshot":
                for row in record.get("counters", ()):
                    self.counter(row["name"], row["value"], **row.get("tags", {}))
                for row in record.get("gauges", ()):
                    self.gauge(row["name"], row["value"], **row.get("tags", {}))
                for row in record.get("histograms", ()):
                    key = self._key(row["name"], row.get("tags", {}))
                    agg = self.histograms.get(key)
                    if agg is None:
                        agg = self.histograms[key] = Histogram()
                    agg.merge(row)
            else:
                stitched = dict(record)
                if "seq" in stitched:
                    stitched["source_seq"] = stitched.pop("seq")
                stitched.update(extra)
                stitched["seq"] = len(self.events)
                self.events.append(stitched)
            absorbed += 1
        return absorbed

    def trace_context(self):
        """The identity to propagate into worker processes (a plain dict).

        Workers created for this run pass it back into :func:`capture` so
        every collector of the run shares one ``trace_id`` and the exported
        records stitch into a single timeline.
        """
        return {"trace_id": self.trace_id, "source": self.source}

    def _finish_span(self, span, error):
        record = {
            "type": "span",
            "seq": len(self.events),
            "name": span.name,
            "path": span.path,
            "seconds": span.seconds,
            "ts": span.ts,
            "pid": self.pid,
        }
        if self.source is not None:
            record["source"] = self.source
        for key, value in span.tags.items():
            record.setdefault(key, value)
        if error is not None:
            record["error"] = error
        self.events.append(record)
        self.histogram("span." + span.name, span.seconds)

    # -- aggregation --------------------------------------------------------------

    @staticmethod
    def _rows(table, serialize=lambda value: value):
        return [
            {"name": name, "tags": dict(tags), "value": serialize(value)}
            for (name, tags), value in sorted(table.items(), key=lambda kv: kv[0])
        ]

    def snapshot(self):
        """Aggregated counters / gauges / histograms as one JSON-ready record."""
        return {
            "type": "snapshot",
            "pid": self.pid,
            "trace_id": self.trace_id,
            "counters": self._rows(self.counters),
            "gauges": self._rows(self.gauges),
            "histograms": [
                {"name": name, "tags": dict(tags), **agg.to_dict()}
                for (name, tags), agg in sorted(
                    self.histograms.items(), key=lambda kv: kv[0]
                )
            ],
        }

    def counter_value(self, name, **tags):
        """Current value of one counter (0 when never touched)."""
        return self.counters.get(self._key(name, tags), 0)

    def events_of(self, kind):
        """All recorded events of one type, in order."""
        return [record for record in self.events if record["type"] == kind]


# -- the process-wide collector -----------------------------------------------------

_active = _NULL


def active():
    """The current process-wide collector (the no-op one by default)."""
    return _active


def configure(telemetry=None, source=None, trace_id=None):
    """Install (and return) a live collector process-wide.

    ``source`` / ``trace_id`` seed the fresh collector's flight-recorder
    identity when no explicit ``telemetry`` instance is supplied.
    """
    global _active
    if telemetry is None:
        telemetry = Telemetry(source=source, trace_id=trace_id)
    _active = telemetry
    return _active


def disable():
    """Restore the no-op collector; returns the collector that was active."""
    global _active
    previous = _active
    _active = _NULL
    return previous


@contextmanager
def capture(source=None, trace_id=None):
    """Scoped collection: installs a fresh collector, restores the old one.

    ``source`` labels this collector's lane in the merged timeline and
    ``trace_id`` joins it to an existing distributed trace (worker processes
    pass the parent's :meth:`Telemetry.trace_context` values here).

    >>> with capture() as tel:
    ...     run_something()
    >>> tel.events_of("engine.run")
    """
    global _active
    previous = _active
    telemetry = configure(source=source, trace_id=trace_id)
    try:
        yield telemetry
    finally:
        _active = previous


def span(name, **tags):
    """Module-level convenience: a span on the active collector."""
    return _active.span(name, **tags)


def counter(name, value=1, **tags):
    """Module-level convenience: a counter bump on the active collector."""
    _active.counter(name, value, **tags)


def gauge(name, value, **tags):
    """Module-level convenience: a gauge write on the active collector."""
    _active.gauge(name, value, **tags)


def histogram(name, value, **tags):
    """Module-level convenience: a histogram sample on the active collector."""
    _active.histogram(name, value, **tags)


def event(kind, **fields):
    """Module-level convenience: an event on the active collector."""
    return _active.event(kind, **fields)
