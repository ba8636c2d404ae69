"""Flight recorder: trace timelines and a sampling profiler.

Two pieces, both layered on the :mod:`repro.obs.core` registry and both
opt-in (a disabled collector pays its usual single flag check and nothing
here runs at all):

timeline export
    :func:`chrome_trace` turns a telemetry record stream — live events, a
    JSONL file, or several files merged through ``Telemetry.absorb`` — into
    Chrome-trace / Perfetto JSON.  Spans become ``ph: "X"`` complete events
    on a ``(pid, source)`` lane, profiler samples become ``ph: "C"`` counter
    tracks, everything else with a timestamp becomes an instant event.
    Timestamps are the collectors' monotonic clocks (CLOCK_MONOTONIC is
    system-wide on Linux), normalized so the earliest record is t=0: parent
    and forked-worker spans land on one shared axis.

sampling profiler
    :class:`SamplingProfiler` is a background thread that buffers periodic
    readings — RSS, CPU time, graph-cache occupancy — and flushes them into
    the collector as ``profile.sample`` events at
    :meth:`~SamplingProfiler.stop`.  Buffering keeps the registry
    single-threaded and the instrumented run unlocked.  Enabled by
    ``REPRO_PROFILE=1`` (CLI: ``--profile``); the cadence is
    ``REPRO_PROFILE_INTERVAL`` seconds.
"""

import json
import os
import threading
import time

from repro.obs.core import active

__all__ = [
    "SamplingProfiler",
    "chrome_trace",
    "cpu_seconds",
    "maybe_profiler",
    "profile_interval",
    "profiler_enabled",
    "rss_bytes",
    "write_chrome_trace",
]

_PROFILE_ENV = "REPRO_PROFILE"
_INTERVAL_ENV = "REPRO_PROFILE_INTERVAL"

_TRUTHY = ("1", "true", "yes", "on")


def profiler_enabled():
    """Whether ``REPRO_PROFILE`` asks for background sampling."""
    return os.environ.get(_PROFILE_ENV, "").strip().lower() in _TRUTHY


def profile_interval(default=0.05):
    """Sampling cadence in seconds (``REPRO_PROFILE_INTERVAL``, floor 1ms)."""
    raw = os.environ.get(_INTERVAL_ENV, "").strip()
    if raw:
        try:
            return max(float(raw), 0.001)
        except ValueError:
            pass
    return default


# -- resource readings ----------------------------------------------------------------

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


def rss_bytes():
    """Current resident set size in bytes (None when unreadable).

    ``/proc/self/statm`` gives the live value; the ``resource`` fallback is
    the *peak* (``ru_maxrss``) — still a usable upper envelope on platforms
    without procfs.
    """
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - no procfs, no resource module
        return None


def cpu_seconds():
    """User + system CPU seconds consumed by this process."""
    times = os.times()
    return times.user + times.system


class SamplingProfiler:
    """Opt-in background sampler feeding ``profile.sample`` telemetry events.

    The sampling thread only appends to a private buffer; records reach the
    collector in one batch at :meth:`stop` (each keeping its original sample
    ``ts`` thanks to ``event``'s setdefault stamping), so the deliberately
    lock-free :class:`~repro.obs.core.Telemetry` is never touched from two
    threads.  One sample is always taken at start and one at stop, so even a
    sub-interval run gets a memory envelope.
    """

    def __init__(self, telemetry=None, interval=None, clock=time.perf_counter):
        self.telemetry = active() if telemetry is None else telemetry
        self.interval = profile_interval() if interval is None else interval
        self._clock = clock
        self._samples = []
        self._stop = threading.Event()
        self._thread = None

    def _take_sample(self):
        sample = {
            "ts": self._clock(),
            "rss_bytes": rss_bytes(),
            "cpu_seconds": cpu_seconds(),
        }
        try:
            from repro.parallel.jobs import graph_cache_stats

            stats = graph_cache_stats()
            sample["graph_cache_entries"] = stats["entries"]
            sample["graph_cache_bytes"] = stats["bytes"]
        except Exception:
            pass
        self._samples.append(sample)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self._take_sample()

    def start(self):
        """Begin sampling (no-op for a disabled collector); returns self."""
        if self._thread is None and self.telemetry.enabled:
            self._stop.clear()
            self._take_sample()
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self):
        """Stop the thread and flush every buffered sample into the collector.

        Returns the number of samples recorded.  Also publishes peak-RSS /
        peak-CPU gauges so the aggregate snapshot carries the envelope even
        when nobody renders the timeline.
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
            self._take_sample()
        samples, self._samples = self._samples, []
        telemetry = self.telemetry
        if getattr(telemetry, "_flight_profiler", None) is self:
            telemetry._flight_profiler = None
        if not samples or not telemetry.enabled:
            return 0
        for sample in samples:
            telemetry.event("profile.sample", **sample)
        rss = [s["rss_bytes"] for s in samples if s.get("rss_bytes") is not None]
        if rss:
            telemetry.gauge("profile.peak_rss_bytes", max(rss))
        telemetry.gauge("profile.samples", len(samples))
        return len(samples)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


def maybe_profiler(telemetry=None):
    """A started profiler when ``REPRO_PROFILE`` is on, else None.

    At most one profiler per collector: nested calls (engine inside CLI
    inside a worker) return None instead of double-sampling.
    """
    telemetry = active() if telemetry is None else telemetry
    if not telemetry.enabled or not profiler_enabled():
        return None
    if getattr(telemetry, "_flight_profiler", None) is not None:
        return None
    profiler = SamplingProfiler(telemetry)
    telemetry._flight_profiler = profiler
    return profiler.start()


# -- Chrome-trace / Perfetto export ---------------------------------------------------

#: Record fields that become structure (lane, timing) rather than args.
_STRUCTURAL_FIELDS = frozenset(
    ("type", "seq", "source_seq", "name", "path", "seconds", "ts", "pid",
     "source", "job", "trace_id")
)

#: profile.sample fields that are identity, not counter series.
_SAMPLE_SKIP = frozenset(("type", "seq", "source_seq", "ts", "pid", "source", "job"))


def _scalar(value):
    return value is None or isinstance(value, (bool, int, float, str))


def chrome_trace(records):
    """Telemetry records -> a Chrome-trace / Perfetto JSON object.

    ``records`` is anything :func:`repro.obs.exporters.read_jsonl` returns
    (or a live collector's ``events`` list).  Every record carrying a
    monotonic ``ts`` lands on a ``(pid, source)`` lane: spans with a
    duration become ``ph: "X"`` complete events, ``profile.sample`` records
    fan out into ``ph: "C"`` counter tracks (one per numeric field), and any
    other stamped record becomes a thread-scoped instant event.  Timestamps
    are shifted so the earliest record is t=0.
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
        elif kind == "profile.sample":
            for key, value in sorted(record.items()):
                if key in _SAMPLE_SKIP or isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)):
                    events.append({
                        "name": key,
                        "cat": "profile",
                        "ph": "C",
                        "ts": micros(record["ts"]),
                        "pid": pid,
                        "tid": 0,
                        "args": {key.rsplit(".", 1)[-1]: value},
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
