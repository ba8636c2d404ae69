"""The flight recorder: timeline export and the memory readings.

The Chrome-trace exporter must place spans from different processes on
distinct ``(pid, source)`` lanes with monotonic timestamps, and every
out-of-core run must leave its memory readings (residency gauges, peak RSS)
in the snapshot.  The JSONL torn-tail repair and the ``comparable_view``
stripping contract (flight stamps never break parity checks) ride along, as
does the multi-stream ``absorb`` merge that the ``obs summary`` /
``obs timeline`` CLI builds on.
"""

import io
import json
import os
import sys
import time

import pytest

from repro import obs
from repro.obs import flight
from repro.cli import main as cli_main
from repro.parallel import JobSpec, register_algorithm, run_many
from repro.parallel.jobs import _ALGORITHMS
from repro.parallel.runner import _multiprocessing_context
from repro.runtime.csr import numpy_available

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import check_regression  # noqa: E402


def _fork_available():
    context = _multiprocessing_context()
    return (
        context is not None
        and getattr(context, "get_start_method", lambda: "")() == "fork"
    )


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def scratch_algorithm():
    registered = []

    def add(name, fn):
        register_algorithm(name, fn)
        registered.append(name)
        return fn

    yield add
    for name in registered:
        _ALGORITHMS.pop(name, None)


# -- identity stamping -----------------------------------------------------------------


class TestStamping:
    def test_events_and_spans_carry_ts_and_pid(self):
        with obs.capture(source="tester") as tel:
            tel.event("thing.happened", value=3)
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        for record in tel.events:
            assert isinstance(record["ts"], float)
            assert record["pid"] == os.getpid()
            assert record["source"] == "tester"
        spans = [r for r in tel.events if r["type"] == "span"]
        outer = next(r for r in spans if r["path"] == "outer")
        inner = next(r for r in spans if r["path"] == "outer/inner")
        # A span's ts is its *start*: inner nests inside outer on the axis.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["seconds"] <= outer["ts"] + outer["seconds"] + 1e-6

    def test_explicit_stamps_win_over_setdefault(self):
        with obs.capture() as tel:
            tel.event("replayed", ts=123.5, pid=42)
        record = tel.events[-1]
        assert record["ts"] == 123.5 and record["pid"] == 42

    def test_trace_context_round_trip(self):
        with obs.capture(source="parent") as tel:
            context = tel.trace_context()
            assert context["trace_id"] == tel.trace_id
            assert context["source"] == "parent"
        assert obs.active().trace_context() is None  # null collector

    def test_snapshot_carries_identity(self):
        with obs.capture() as tel:
            tel.counter("x")
        snapshot = tel.snapshot()
        assert snapshot["pid"] == os.getpid()
        assert snapshot["trace_id"] == tel.trace_id


# -- absorb re-sequencing (two interleaved workers, nested spans) ----------------------


class TestAbsorbMerge:
    def _worker_stream(self, source, base):
        clock = iter([base + t for t in (0.0, 0.01, 0.02, 0.03, 0.05, 0.08)])
        tel = obs.Telemetry(clock=lambda: next(clock), source=source)
        tel.pid = hash(source) % 10000 + 1000  # simulate a foreign pid
        with tel.span("job"):
            with tel.span("engine.run"):
                tel.event("engine.tick", round=0)
        return tel, list(tel.events) + [tel.snapshot()]

    def test_interleaved_absorb_preserves_pairing(self):
        tel_a, records_a = self._worker_stream("w-a", 100.0)
        tel_b, records_b = self._worker_stream("w-b", 100.005)
        parent = obs.Telemetry(source="main")
        # Interleave record-by-record: absorb must not rely on contiguity.
        for ra, rb in zip(records_a, records_b):
            parent.absorb([ra], job="a")
            parent.absorb([rb], job="b")
        merged = parent.events
        # Fresh local seq, foreign seq preserved.
        assert [r["seq"] for r in merged] == list(range(len(merged)))
        assert all("source_seq" in r for r in merged)
        for source, tel in (("w-a", tel_a), ("w-b", tel_b)):
            mine = [r for r in merged if r.get("source") == source]
            assert mine, "worker stream lost in merge"
            # Stamps survive verbatim (absorb never re-stamps).
            assert {r["pid"] for r in mine} == {tel.pid}
            spans = {r["path"]: r for r in mine if r["type"] == "span"}
            outer, inner = spans["job"], spans["job/engine.run"]
            # Open/close pairing still reconstructible after the merge:
            # the child interval nests inside the parent interval.
            assert outer["ts"] <= inner["ts"]
            assert inner["ts"] + inner["seconds"] <= outer["ts"] + outer["seconds"]
            tick = next(r for r in mine if r["type"] == "engine.tick")
            assert outer["ts"] <= tick["ts"] <= outer["ts"] + outer["seconds"]
        # Counter snapshots folded: each stream contributed one span pair.
        snapshot = parent.snapshot()
        span_rows = [
            row for row in snapshot["counters"] if row["name"] == "span.count"
        ]
        if span_rows:  # span.count only exists if core counts spans
            assert sum(row["value"] for row in span_rows) >= 4

    def test_absorbed_streams_render_on_distinct_lanes(self):
        _, records_a = self._worker_stream("w-a", 50.0)
        _, records_b = self._worker_stream("w-b", 50.002)
        parent = obs.Telemetry(source="main")
        parent.absorb(records_a)
        parent.absorb(records_b)
        trace = flight.chrome_trace(parent.events)
        lanes = {
            (e["pid"], e["tid"])
            for e in trace["traceEvents"]
            if e.get("ph") == "X"
        }
        assert len(lanes) == 2


# -- JSONL durability (satellite: flushed writer, torn-tail reader) --------------------


class TestJsonlDurability:
    def test_writer_flushes_per_record(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            writer = obs.JsonlWriter(handle)
            writer.write({"type": "a", "seq": 0})
            # Visible to a concurrent reader *before* the writer closes.
            with open(path) as reader:
                assert json.loads(reader.read()) == {"type": "a", "seq": 0}
            writer.write({"type": "b", "seq": 1})
        assert len(obs.read_jsonl(str(path))) == 2

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with obs.capture() as tel:
            tel.event("alpha")
            tel.event("beta")
        obs.write_jsonl(tel, str(path))
        intact = obs.read_jsonl(str(path))
        with open(path, "a") as handle:
            handle.write('{"type": "gamma", "tr')  # killed mid-write
        assert obs.read_jsonl(str(path)) == intact
        with pytest.raises(ValueError, match="unparseable JSONL record"):
            obs.read_jsonl(str(path), strict=True)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"type": "a"}\nnot json at all\n{"type": "b"}\n')
        with pytest.raises(ValueError, match="line 2"):
            obs.read_jsonl(str(path))


# -- comparable_view (satellite: flight stamps never break parity) ---------------------


class TestComparableView:
    def test_flight_stamps_are_stripped(self):
        with obs.capture(source="main") as tel:
            with tel.span("engine.run", stage="linial"):
                pass
            tel.event("engine.run", stage="linial", rounds_used=3)
        view = obs.comparable_view(tel.events)
        for record in view:
            for field in ("ts", "pid", "source", "trace_id", "worker"):
                assert field not in record
        assert view[0]["path"] == "engine.run"  # structure retained


# -- Chrome-trace export ---------------------------------------------------------------


class TestChromeTrace:
    def test_span_becomes_complete_event(self):
        records = [
            {
                "type": "span", "seq": 0, "name": "engine.run",
                "path": "pipeline.run/engine.run", "seconds": 0.25,
                "ts": 100.0, "pid": 11, "source": "job-1", "stage": "linial",
            },
            {"type": "span", "seq": 1, "name": "pipeline.run",
             "path": "pipeline.run", "seconds": 0.5, "ts": 99.9, "pid": 11,
             "source": "job-1"},
        ]
        trace = flight.chrome_trace(records)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        engine = next(e for e in complete if e["name"] == "engine.run")
        # Normalized to the earliest ts (99.9), in microseconds.
        assert engine["ts"] == pytest.approx(0.1e6)
        assert engine["dur"] == pytest.approx(0.25e6)
        assert engine["pid"] == 11
        assert engine["args"]["stage"] == "linial"
        names = [
            e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
        ]
        assert "job-1" in names  # lane labelled by source

    def test_unstamped_and_snapshot_records_are_skipped(self):
        records = [
            {"type": "span", "seq": 0, "name": "x", "seconds": 0.1},  # no ts
            {"type": "snapshot", "counters": [], "gauges": [],
             "histograms": [], "ts": 5.0},
            {"type": "note", "seq": 1, "ts": 2.0, "pid": 3, "detail": "hi"},
        ]
        trace = flight.chrome_trace(records)
        kinds = [e["ph"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert kinds == ["i"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        with obs.capture(source="main") as tel:
            with tel.span("alpha"):
                pass
        destination = tmp_path / "trace.json"
        count = flight.write_chrome_trace(tel.events, str(destination))
        with open(destination) as handle:
            trace = json.load(handle)
        assert len(trace["traceEvents"]) == count
        assert trace["displayTimeUnit"] == "ms"


# -- end-to-end through the pool -------------------------------------------------------


class TestPoolIntegration:
    def test_worker_spans_from_two_pids_on_distinct_lanes(
        self, scratch_algorithm, tmp_path
    ):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the tracer")

        def traced(graph, backend="auto", seed=1, **params):
            with obs.active().span("traced.work"):
                time.sleep(0.3)
            return _ALGORITHMS["cor36"](graph, backend=backend, seed=seed)

        scratch_algorithm("flight-traced", traced)
        specs = [
            JobSpec(
                algorithm="flight-traced",
                graph={"family": "path", "n": 8, "seed": s},
                seed=s,
            )
            for s in (1, 2)
        ]
        with obs.capture(source="main") as tel:
            run_many(specs, workers=2, mode="process")
        jsonl = tmp_path / "pool.jsonl"
        obs.write_jsonl(tel, str(jsonl))
        trace_path = tmp_path / "pool-trace.json"
        code, text = run_cli(
            ["obs", "timeline", str(jsonl), "-o", str(trace_path)]
        )
        assert code == 0 and "trace events" in text
        with open(trace_path) as handle:
            trace = json.load(handle)
        spans = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "traced.work"
        ]
        # Two jobs on two workers travel one per chunk, 0.3s each: both
        # pids must appear.
        pids = {e["pid"] for e in spans}
        assert len(pids) == 2, "expected spans from two worker pids"
        lanes = {(e["pid"], e["tid"]) for e in spans}
        assert len(lanes) == 2
        for event in spans:
            assert isinstance(event["ts"], float) and event["ts"] >= 0.0
            assert event["dur"] >= 0.29e6


# -- the oocore memory readings (snapshot gauges and counters of every run) ------------


@pytest.mark.skipif(not numpy_available(), reason="oocore tier needs NumPy")
class TestOocoreProfiling:
    def test_profiled_greedy_at_one_million(self):
        from repro.oocore.engine import oocore_greedy
        from repro.oocore.writers import ensure_sharded

        sharded = ensure_sharded(
            {"family": "regular", "n": 1_000_000, "degree": 4, "seed": 9}
        )
        with obs.capture() as tel:
            colors = oocore_greedy(sharded)
        assert len(colors) == 1_000_000
        assert max(colors) <= 4  # first-fit on a 4-regular graph
        gauges = {row["name"]: row["value"] for row in tel.snapshot()["gauges"]}
        assert gauges["oocore.peak_rss_bytes"] > 0
        assert tel.counter_value("oocore.shard_io.bytes_read", stage="greedy") > 0

    def test_engine_run_registers_residency_sampler(self, monkeypatch, tmp_path):
        # Whichever front door starts it, every oocore stage run records its
        # shard residency as snapshot gauges tagged with the stage.
        import repro

        monkeypatch.setenv("REPRO_OOCORE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_OOCORE_SHARDS", "4")
        n = 4000
        with obs.capture() as tel:
            outcome = repro.run({
                "algorithm": "cor36",
                "graph": {"family": "regular", "n": n, "degree": 4, "seed": 3},
                "backend": "oocore",
            })
        assert outcome.ok, outcome.error
        gauges = {
            (row["name"], row["tags"].get("stage")): row["value"]
            for row in tel.snapshot()["gauges"]
        }
        stages = [r["stage"] for r in tel.events if r["type"] == "engine.run"]
        assert stages
        for stage in stages:
            assert gauges[("oocore.shards", stage)] == 4
            plane_bytes = gauges[("oocore.plane_bytes", stage)]
            assert plane_bytes > 0 and plane_bytes % (16 * n) == 0
            assert gauges[("oocore.halo_slots", stage)] > 0
            assert gauges[("oocore.cache_bytes", stage)] > 0


# -- the telemetry-overhead gate -------------------------------------------------------


@pytest.mark.skipif(not numpy_available(), reason="probe runs the batch tier")
class TestOverheadGate:
    def test_measure_overhead_shape(self):
        measured = check_regression.measure_overhead(repeats=2)
        assert measured["null_seconds"] > 0
        assert measured["telemetry_seconds"] > 0
        assert measured["ratio"] > 0

    def test_generous_limit_passes_and_tight_limit_fails(self):
        failures, lines = check_regression.check_overhead(1000.0)
        assert failures == [] and len(lines) == 1
        failures, _ = check_regression.check_overhead(1e-9)
        assert failures and "overhead" in failures[0]


# -- CLI surface -----------------------------------------------------------------------


class TestCliSurface:
    def test_timeline_from_telemetry_file(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        code, _ = run_cli(
            ["color", "--n", "32", "--degree", "4", "--telemetry", str(jsonl)]
        )
        assert code == 0
        trace_path = tmp_path / "trace.json"
        code, text = run_cli(["obs", "timeline", str(jsonl), "-o", str(trace_path)])
        assert code == 0
        with open(trace_path) as handle:
            trace = json.load(handle)
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans
        assert all(e["pid"] for e in spans)

    def test_timeline_to_stdout(self, tmp_path):
        jsonl = tmp_path / "run.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(jsonl)])
        code, text = run_cli(["obs", "timeline", str(jsonl)])
        assert code == 0
        trace = json.loads(text)
        assert "traceEvents" in trace

    def test_summary_merges_multiple_files(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(first)])
        run_cli(["color", "--n", "32", "--degree", "4", "--telemetry", str(second)])
        code, merged = run_cli(["obs", "summary", str(first), str(second)])
        assert code == 0
        _, single = run_cli(["obs", "summary", str(first)])
        # Two engine-run streams fold into one table with both runs' rows
        # (counters/histograms merge instead, so compare the runs section).
        merged_runs = merged.split("\nspans")[0]
        single_runs = single.split("\nspans")[0]
        assert merged_runs.count("additive-group") == 2 * single_runs.count(
            "additive-group"
        )

    def test_summary_reads_stdin(self, tmp_path, monkeypatch):
        jsonl = tmp_path / "run.jsonl"
        run_cli(["color", "--n", "24", "--degree", "4", "--telemetry", str(jsonl)])
        monkeypatch.setattr("sys.stdin", io.StringIO(jsonl.read_text()))
        code, text = run_cli(["obs", "summary", "-"])
        assert code == 0
        assert "engine runs" in text
