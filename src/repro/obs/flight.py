"""Flight recorder: trace timelines, a sampling profiler, a worker watchdog.

Three pieces, all layered on the :mod:`repro.obs.core` registry and all
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
    readings — RSS, CPU time, graph-cache occupancy, plus anything
    registered via :func:`register_sampler` (the oocore engine adds
    shard-residency gauges) — and flushes them into the collector as
    ``profile.sample`` events at :meth:`~SamplingProfiler.stop`.  Buffering
    keeps the registry single-threaded and the instrumented run unlocked.
    Enabled by ``REPRO_PROFILE=1`` (CLI: ``--profile``); the cadence is
    ``REPRO_PROFILE_INTERVAL`` seconds.

worker health watchdog
    Pool workers touch a :class:`HeartbeatBoard` file between chunks
    (:func:`beat` — one tiny write, no locks, crash-proof); the parent's
    :class:`WorkerWatchdog` polls the board while waiting on results and
    surfaces ``worker.stalled`` / ``worker.restarted`` events and per-worker
    counters long before the per-job timeout fires.  Stall threshold:
    ``REPRO_STALL_SECONDS`` (clamped under the runner timeout);
    ``REPRO_DISABLE_WATCHDOG=1`` switches the whole mechanism off.
"""

import json
import os
import shutil
import tempfile
import threading
import time

from repro.obs.core import active

__all__ = [
    "HeartbeatBoard",
    "SamplingProfiler",
    "WorkerWatchdog",
    "beat",
    "chrome_trace",
    "cpu_seconds",
    "maybe_profiler",
    "profile_interval",
    "profiler_enabled",
    "register_sampler",
    "rss_bytes",
    "stall_seconds",
    "unregister_sampler",
    "watchdog_enabled",
    "write_chrome_trace",
]

_PROFILE_ENV = "REPRO_PROFILE"
_INTERVAL_ENV = "REPRO_PROFILE_INTERVAL"
_STALL_ENV = "REPRO_STALL_SECONDS"
_WATCHDOG_ENV = "REPRO_DISABLE_WATCHDOG"

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


def stall_seconds(default=5.0):
    """Heartbeat age that counts as a stall (``REPRO_STALL_SECONDS``)."""
    raw = os.environ.get(_STALL_ENV, "").strip()
    if raw:
        try:
            return max(float(raw), 0.05)
        except ValueError:
            pass
    return default


def watchdog_enabled():
    """Whether the pool watchdog may run (``REPRO_DISABLE_WATCHDOG=1`` off)."""
    return os.environ.get(_WATCHDOG_ENV, "").strip().lower() not in _TRUTHY


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


# -- extra sample sources -------------------------------------------------------------

_SAMPLERS = {}


def register_sampler(name, fn):
    """Register a callable contributing extra fields to every profiler sample.

    ``fn`` takes no arguments and returns a dict of JSON-scalar fields (or
    None); failures are swallowed so a broken gauge can never kill a run.
    The oocore engine registers its shard-residency gauges here for the
    duration of a run.
    """
    _SAMPLERS[name] = fn


def unregister_sampler(name):
    """Remove a sampler registered with :func:`register_sampler`."""
    _SAMPLERS.pop(name, None)


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
        for fn in list(_SAMPLERS.values()):
            try:
                extra = fn()
            except Exception:
                continue
            if extra:
                for key, value in extra.items():
                    sample.setdefault(key, value)
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


# -- worker heartbeats ----------------------------------------------------------------


def beat(board_path, ident=None):
    """Worker-side heartbeat: one tiny file write, silently best-effort.

    Writes the current ``time.monotonic()`` (system-wide on Linux, so the
    parent's watchdog can age it against its own clock) to
    ``<board_path>/<pid>``.  Failures are swallowed: a heartbeat must never
    be able to fail a job.
    """
    if not board_path:
        return
    ident = os.getpid() if ident is None else ident
    try:
        with open(os.path.join(board_path, str(ident)), "w") as handle:
            handle.write(repr(time.monotonic()))
    except OSError:
        pass


class HeartbeatBoard:
    """A directory of per-worker heartbeat files shared parent <-> workers.

    File-based on purpose: it works across fork without shared memory or
    NumPy, a crashed worker simply stops writing, and a torn write is one
    unparseable file the reader skips until the next beat lands.
    """

    def __init__(self, path=None):
        if path is None:
            self.path = tempfile.mkdtemp(prefix="repro-hb-")
            self._owns = True
        else:
            self.path = path
            self._owns = False

    def beat(self, ident=None):
        """Record a heartbeat for ``ident`` (default: this pid)."""
        beat(self.path, ident)

    def read(self):
        """Latest beat per worker: ``{pid: monotonic_seconds}``."""
        beats = {}
        try:
            names = os.listdir(self.path)
        except OSError:
            return beats
        for name in names:
            try:
                with open(os.path.join(self.path, name)) as handle:
                    beats[int(name)] = float(handle.read())
            except (OSError, ValueError):
                continue  # torn write or foreign file: wait for the next beat
        return beats

    def clear(self):
        """Drop every recorded beat (after a pool rebuild: fresh pids)."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(self.path, name))
            except OSError:
                pass

    def close(self):
        """Remove the board directory if this instance created it."""
        if self._owns:
            shutil.rmtree(self.path, ignore_errors=True)
            self._owns = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class WorkerWatchdog:
    """Parent-side monitor turning heartbeat silence into telemetry.

    :meth:`poll` is called from the runner's result-wait loop; a worker
    whose last beat is older than ``stall_after`` gets one
    ``worker.stalled`` event (plus a ``parallel.worker.stalls`` counter
    bump) — *before* the job timeout machinery fires, which is the whole
    point.  After the pool is torn down and rebuilt the runner calls
    :meth:`notice_restart`, which emits ``worker.restarted`` for every
    worker that was stalled and resets the board for the fresh pids.
    """

    def __init__(self, telemetry, board, stall_after=None, clock=time.monotonic):
        self.telemetry = telemetry
        self.board = board
        self.stall_after = stall_seconds() if stall_after is None else max(
            float(stall_after), 0.05
        )
        self.poll_interval = max(self.stall_after / 4.0, 0.02)
        self._clock = clock
        self._last = {}
        self._stalled = set()
        self.stalls = 0
        self.restarts = 0

    def poll(self):
        """Scan the board once; returns the sorted list of stalled pids."""
        now = self._clock()
        telemetry = self.telemetry
        for pid, ts in self.board.read().items():
            previous = self._last.get(pid)
            if previous is None or ts > previous:
                self._last[pid] = ts
                if pid in self._stalled:
                    # It came back on its own before the timeout tore it down.
                    self._stalled.discard(pid)
                    telemetry.event("worker.recovered", worker=pid)
                continue
            age = now - ts
            if age >= self.stall_after and pid not in self._stalled:
                self._stalled.add(pid)
                self.stalls += 1
                telemetry.event(
                    "worker.stalled", worker=pid, stalled_seconds=age
                )
                telemetry.counter("parallel.worker.stalls")
        return sorted(self._stalled)

    def record_job(self, worker):
        """Count one delivered job against ``worker`` (utilization tally)."""
        if worker is not None:
            self.telemetry.counter("parallel.worker.jobs", worker=worker)

    def notice_restart(self):
        """The pool was rebuilt: stalled workers are gone, board is stale."""
        for pid in sorted(self._stalled):
            self.restarts += 1
            self.telemetry.event("worker.restarted", worker=pid)
            self.telemetry.counter("parallel.worker.restarts")
        self._stalled.clear()
        self._last.clear()
        self.board.clear()


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
