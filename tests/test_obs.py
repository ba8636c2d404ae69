"""Tests for the structured telemetry layer (repro.obs) and the bench
regression gate built on top of it."""

import io
import json
import os
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.core import AdditiveGroupColoring
from repro.recipes import delta_plus_one_coloring
from repro.graphgen import circulant_graph, random_regular
from repro.obs.core import NullTelemetry, Telemetry, _NULL_SPAN
from repro.obs.exporters import (
    comparable_view,
    prometheus_text,
    read_jsonl,
    summary_table,
    write_jsonl,
)
from repro.runtime import ColoringEngine
from repro.runtime.backends import resolve_backend
from repro.runtime.csr import numpy_available
from repro.runtime.metrics import MetricsLog, RoundMetrics

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import check_regression  # noqa: E402

requires_numpy = pytest.mark.requires_numpy


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestTelemetryCore:
    def test_counters_aggregate_by_name_and_tags(self):
        tel = Telemetry()
        tel.counter("runs", stage="ag")
        tel.counter("runs", 4, stage="ag")
        tel.counter("runs", stage="linial")
        assert tel.counter_value("runs", stage="ag") == 5
        assert tel.counter_value("runs", stage="linial") == 1
        assert tel.counter_value("runs", stage="missing") == 0

    def test_gauges_last_write_wins(self):
        tel = Telemetry()
        tel.gauge("bits", 7)
        tel.gauge("bits", 12)
        assert tel.snapshot()["gauges"] == [
            {"name": "bits", "tags": {}, "value": 12}
        ]

    def test_histograms_aggregate(self):
        tel = Telemetry()
        for value in (2.0, 4.0, 6.0):
            tel.histogram("radius", value)
        (row,) = tel.snapshot()["histograms"]
        assert row["count"] == 3
        assert row["total"] == 12.0
        assert row["min"] == 2.0
        assert row["max"] == 6.0
        assert row["mean"] == 4.0

    def test_spans_nest_and_record_paths(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner", stage="ag") as inner:
                inner.set(rounds=3)
        paths = [e["path"] for e in tel.events_of("span")]
        assert paths == ["outer/inner", "outer"]
        inner_event = tel.events_of("span")[0]
        assert inner_event["stage"] == "ag"
        assert inner_event["rounds"] == 3
        assert inner_event["seconds"] >= 0.0
        # Span durations feed the span.<name> histograms.
        names = {row["name"] for row in tel.snapshot()["histograms"]}
        assert names == {"span.outer", "span.inner"}

    def test_span_records_error_type(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            with tel.span("failing"):
                raise ValueError("boom")
        (record,) = tel.events_of("span")
        assert record["error"] == "ValueError"

    def test_events_are_ordered(self):
        tel = Telemetry()
        tel.event("a", x=1)
        tel.event("b", x=2)
        assert [e["seq"] for e in tel.events] == [0, 1]


class TestNullCollector:
    def test_default_collector_is_disabled(self):
        tel = obs.active()
        assert isinstance(tel, NullTelemetry)
        assert not tel.enabled

    def test_noop_span_is_shared_and_nests(self):
        tel = NullTelemetry()
        outer = tel.span("outer", stage="x")
        inner = tel.span("inner")
        assert outer is inner is _NULL_SPAN
        with outer:
            with inner as sp:
                sp.set(rounds=1)

    def test_noop_collector_records_nothing_during_a_run(self):
        graph = random_regular(24, 4, seed=9)
        assert isinstance(obs.active(), NullTelemetry)
        delta_plus_one_coloring(graph)
        assert obs.active().snapshot()["counters"] == []

    def test_capture_restores_previous_collector(self):
        before = obs.active()
        with obs.capture() as tel:
            assert obs.active() is tel
            assert tel.enabled
        assert obs.active() is before

    def test_configure_and_disable(self):
        tel = obs.configure()
        try:
            assert obs.active() is tel
        finally:
            previous = obs.disable()
        assert previous is tel
        assert not obs.active().enabled


class TestEngineTelemetry:
    def test_run_record_matches_metrics_exactly(self):
        # Acceptance point: n=2000, Delta=32 — the JSONL record's totals and
        # per-round rows must equal MetricsLog bit for bit.
        graph = circulant_graph(2000, tuple(range(1, 17)))
        assert graph.max_degree == 32
        with obs.capture() as tel:
            result = delta_plus_one_coloring(graph)
        runs = tel.events_of("engine.run")
        assert len(runs) == 3  # linial, additive-group, standard-reduction
        for record, (stage, stage_result) in zip(runs, result.stage_results):
            metrics = stage_result.metrics
            assert record["stage"] == stage.name
            assert record["rounds_used"] == stage_result.rounds_used
            assert record["total_messages"] == metrics.total_messages
            assert record["total_bits"] == metrics.total_bits
            assert len(record["rounds"]) == len(metrics.rounds)
            for row, round_metrics in zip(record["rounds"], metrics.rounds):
                assert row["round"] == round_metrics.round_index
                assert row["messages"] == round_metrics.messages
                assert row["bits"] == round_metrics.bits
                assert row["changed"] == round_metrics.changed_vertices
                assert 0 <= row["finalized"] <= graph.n
                assert row["conflicts"] >= 0
        # The pipeline summary agrees with the stage records.
        (pipeline_record,) = tel.events_of("pipeline.run")
        assert pipeline_record["total_messages"] == result.total_messages
        assert pipeline_record["total_bits"] == result.total_bits
        assert pipeline_record["total_rounds"] == result.total_rounds

    def test_per_stage_spans_present(self):
        graph = random_regular(40, 6, seed=3)
        with obs.capture() as tel:
            delta_plus_one_coloring(graph)
        spans = tel.events_of("span")
        stage_spans = [s for s in spans if s["name"] == "pipeline.stage"]
        assert [s["stage"] for s in stage_spans] == [
            "linial",
            "additive-group",
            "standard-reduction",
        ]
        assert all(s["path"] == "pipeline.run/pipeline.stage" for s in stage_spans)
        assert all("handoff" in s and "out_palette" in s for s in stage_spans)
        assert spans[-1]["name"] == "pipeline.run"

    def test_last_round_is_conflict_free_and_fully_final(self):
        graph = random_regular(30, 4, seed=5)
        with obs.capture() as tel:
            engine = ColoringEngine(graph)
            engine.run(AdditiveGroupColoring(), list(range(graph.n)))
        (record,) = tel.events_of("engine.run")
        assert record["backend"] == "reference"
        last = record["rounds"][-1]
        assert last["conflicts"] == 0
        assert last["finalized"] == graph.n

    @staticmethod
    def _deterministic_records(tel):
        # Events, with timing/backend fields stripped, plus the snapshot's
        # counters and gauges.  Histograms stay out: engine.run_seconds and
        # the span.* duration histograms aggregate wall-clock values that
        # legitimately differ between backends.
        snapshot = tel.snapshot()
        return comparable_view(
            list(tel.events)
            + [{"counters": snapshot["counters"], "gauges": snapshot["gauges"]}]
        )

    @requires_numpy
    def test_telemetry_identical_across_backends(self):
        if not numpy_available():
            pytest.skip("NumPy unavailable")
        graph = circulant_graph(300, (1, 2, 3, 4))
        with obs.capture() as ref_tel:
            delta_plus_one_coloring(graph, backend="reference")
        with obs.capture() as bat_tel:
            delta_plus_one_coloring(graph, backend="batch")
        assert self._deterministic_records(ref_tel) == self._deterministic_records(
            bat_tel
        )

    @requires_numpy
    def test_fallback_to_scalar_is_reported(self):
        if not numpy_available():
            pytest.skip("NumPy unavailable")
        from repro.baselines import KuhnWattenhoferReduction

        class ScalarOnlyKW(KuhnWattenhoferReduction):
            step_batch = None  # opt out of the inherited batch kernel

        graph = random_regular(24, 4, seed=11)
        engine = resolve_backend("engine", "batch")(graph)
        stage = ScalarOnlyKW()
        with obs.capture() as tel:
            engine.run(stage, [v % 7 for v in range(graph.n)], in_palette_size=7)
        (fallback,) = tel.events_of("engine.fallback")
        assert fallback["reason"] == "no-step-batch"
        assert tel.counter_value("engine.fallback_scalar", stage=stage.name) == 1
        (run_record,) = tel.events_of("engine.run")
        assert run_record["backend"] == "reference"


class TestSelfStabTelemetry:
    def _engine(self, seed=21, backend="reference"):
        from repro.selfstab import SelfStabColoring
        from tests.test_selfstab_coloring import build_dynamic

        graph = build_dynamic(24, 4, 0.2, seed=seed)
        algorithm = SelfStabColoring(24, 4)
        return resolve_backend("selfstab", backend)(graph, algorithm)

    def test_stabilization_record(self):
        engine = self._engine()
        with obs.capture() as tel:
            rounds = engine.run_to_quiescence()
        (record,) = tel.events_of("selfstab.run")
        assert record["rounds_used"] == rounds
        assert record["stabilized"] is True
        assert record["legal"] is True
        assert record["max_message_bits"] == engine.max_message_bits
        assert len(record["rounds"]) == rounds
        assert record["rounds"][-1]["changed"] == 0
        (span,) = tel.events_of("span")
        assert span["name"] == "selfstab.stabilize"

    def test_corruption_events_and_radius_histogram(self):
        engine = self._engine(seed=22)
        engine.run_to_quiescence()
        victim = engine.graph.vertices()[0]
        with obs.capture() as tel:
            engine.corrupt(victim, ("junk",))
            engine.reset_touched()
            engine.run_to_quiescence()
            engine.adjustment_radius([victim])
        assert tel.counter_value(
            "selfstab.corruptions", algorithm=engine.algorithm.name
        ) == 1
        (corrupt_event,) = tel.events_of("selfstab.corrupt")
        assert corrupt_event["vertex"] == victim
        radii = [
            row
            for row in tel.snapshot()["histograms"]
            if row["name"] == "selfstab.adjustment_radius"
        ]
        assert len(radii) == 1 and radii[0]["count"] == 1

    @requires_numpy
    def test_selfstab_telemetry_identical_across_backends(self):
        if not numpy_available():
            pytest.skip("NumPy unavailable")
        records = {}
        for backend in ("reference", "batch"):
            engine = self._engine(seed=23, backend=backend)
            with obs.capture() as tel:
                engine.run_to_quiescence()
            snapshot = tel.snapshot()
            records[backend] = comparable_view(
                list(tel.events)
                + [{"counters": snapshot["counters"], "gauges": snapshot["gauges"]}]
            )
            # SelfStabColoring is batch-capable: the batch engine must not
            # silently route rounds through the scalar fallback.
            assert tel.counter_value(
                "selfstab.fallback_scalar", algorithm=engine.algorithm.name
            ) == 0
        assert records["reference"] == records["batch"]


class TestExporters:
    def _collect(self):
        graph = random_regular(24, 4, seed=13)
        with obs.capture() as tel:
            delta_plus_one_coloring(graph)
        return tel

    def test_jsonl_round_trips(self, tmp_path):
        tel = self._collect()
        path = tmp_path / "run.jsonl"
        lines = write_jsonl(tel, str(path))
        raw = path.read_text().splitlines()
        assert len(raw) == lines == len(tel.events) + 1
        records = [json.loads(line) for line in raw]
        assert records[-1]["type"] == "snapshot"
        assert read_jsonl(str(path)) == records

    def test_jsonl_accepts_handles(self):
        tel = self._collect()
        sink = io.StringIO()
        write_jsonl(tel, sink)
        records = read_jsonl(io.StringIO(sink.getvalue()))
        assert records[-1]["type"] == "snapshot"

    def test_prometheus_text(self):
        tel = self._collect()
        text = prometheus_text(tel)
        assert '# TYPE repro_engine_runs counter' in text
        assert 'repro_engine_runs{stage="additive-group"} 1' in text
        assert "repro_span_pipeline_run_count" in text
        assert "repro_span_pipeline_run_sum" in text

    def test_summary_table(self):
        tel = self._collect()
        tel.gauge("cache.bytes", 512, pool="a")
        tel.gauge("peak", 7)
        text = summary_table(tel)
        assert "engine runs" in text
        assert "additive-group" in text
        assert "pipeline.run/pipeline.stage" in text
        assert "counters" in text
        lines = text.splitlines()
        start = lines.index("gauges")
        # The counters' (name, tags, value) layout, untagged rows as "-".
        assert [line.split() for line in lines[start + 1:start + 5]] == [
            ["name", "tags", "value"],
            ["-----------", "------", "-----"],
            ["cache.bytes", "pool=a", "512"],
            ["peak", "-", "7"],
        ]

    def test_summary_spans_are_labelled_by_stage(self):
        lines = summary_table(self._collect()).splitlines()
        start = lines.index("spans")
        assert lines[start + 1].split() == ["path", "stage", "seconds"]
        rows = [line.split() for line in lines[start + 3:lines.index("", start)]]
        engine_rows = [
            row[1] for row in rows
            if row[0] == "pipeline.run/pipeline.stage/engine.run"
        ]
        assert engine_rows == ["linial", "additive-group", "standard-reduction"]
        assert [row[1] for row in rows if row[0] == "pipeline.run"] == ["-"]

    def test_summary_table_empty_stream(self):
        assert summary_table([]) == "no telemetry records\n"

    def test_comparable_view_strips_nondeterminism(self):
        records = [
            {
                "type": "engine.run",
                "backend": "batch",
                "wall_seconds": 0.5,
                "rounds": [{"round": 0, "seconds": 0.1, "changed": 3}],
            }
        ]
        (stripped,) = comparable_view(records)
        assert stripped == {"type": "engine.run", "rounds": [{"round": 0, "changed": 3}]}


class TestMetricsDetail:
    def _log(self):
        log = MetricsLog()
        log.record(RoundMetrics(0, 10, 40, 5))
        log.record(RoundMetrics(1, 10, 40, 2))
        return log

    def test_detail_false_omits_rounds(self):
        log = self._log()
        summary = log.to_dict(detail=False)
        assert "rounds" not in summary
        assert summary["total_rounds"] == 2
        assert summary["total_messages"] == 20
        assert summary["total_bits"] == 80

    def test_detail_default_keeps_rounds(self):
        log = self._log()
        assert len(log.to_dict()["rounds"]) == 2

    def test_cli_json_uses_detail_false(self):
        code, text = run_cli(["color", "--n", "24", "--degree", "4", "--json"])
        assert code == 0
        payload = json.loads(text)[0]["summary"]["payload"]
        for stage in payload["stages"]:
            assert "rounds" not in stage["metrics"]
            assert "total_messages" in stage["metrics"]
        assert payload["total_messages"] == sum(
            s["metrics"]["total_messages"] for s in payload["stages"]
        )


class TestCLITelemetry:
    def test_color_telemetry_flag(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, text = run_cli(
            ["color", "--n", "48", "--degree", "6", "--telemetry", str(path)]
        )
        assert code == 0
        assert "telemetry: wrote" in text
        records = read_jsonl(str(path))
        assert any(r["type"] == "engine.run" for r in records)
        assert any(r["type"] == "pipeline.run" for r in records)
        assert records[-1]["type"] == "snapshot"
        # The global collector is restored to the no-op one afterwards.
        assert not obs.active().enabled

    def test_selfstab_telemetry_flag(self, tmp_path):
        path = tmp_path / "selfstab.jsonl"
        code, text = run_cli(
            ["selfstab", "--n", "24", "--delta", "4", "--bursts", "1",
             "--corruptions", "4", "--telemetry", str(path)]
        )
        assert code == 0
        records = read_jsonl(str(path))
        kinds = {r["type"] for r in records}
        assert "selfstab.run" in kinds
        assert "selfstab.corrupt" in kinds

    def test_json_output_stays_pure_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, text = run_cli(
            ["color", "--n", "24", "--degree", "4", "--json",
             "--telemetry", str(path)]
        )
        assert code == 0
        json.loads(text)  # no telemetry note mixed into the payload
        assert path.exists()

    def test_obs_summary_and_prom(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_cli(["color", "--n", "48", "--degree", "6", "--telemetry", str(path)])
        code, text = run_cli(["obs", "summary", str(path)])
        assert code == 0
        assert "engine runs" in text
        code, text = run_cli(["obs", "prom", str(path)])
        assert code == 0
        assert "repro_engine_runs" in text

    def test_obs_prom_without_snapshot_fails(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "engine.run"}\n')
        code, text = run_cli(["obs", "prom", str(path)])
        assert code == 1


class TestRegressionGate:
    BASE = {
        "benchmark": "engine-speed",
        "entries": [
            {
                "n": 2000, "delta": 16, "m": 16000, "rounds": 2,
                "batch_seconds": 0.01, "speedup": 10.0,
            }
        ],
    }

    def _measured(self, **overrides):
        entry = dict(self.BASE["entries"][0])
        entry.update(overrides)
        return [entry]

    def test_within_tolerance_passes(self):
        failures, _ = check_regression.compare(
            "engine", self.BASE["entries"],
            self._measured(batch_seconds=0.012, speedup=9.0), tolerance=0.5,
        )
        assert failures == []

    def test_wall_clock_regression_fails(self):
        failures, _ = check_regression.compare(
            "engine", self.BASE["entries"],
            self._measured(batch_seconds=0.02), tolerance=0.5,
        )
        assert any("wall-clock regression" in f for f in failures)

    def test_speedup_regression_fails(self):
        failures, _ = check_regression.compare(
            "engine", self.BASE["entries"],
            self._measured(speedup=5.0), tolerance=0.5,
        )
        assert any("speedup regression" in f for f in failures)

    def test_deterministic_drift_ignores_tolerance(self):
        failures, _ = check_regression.compare(
            "engine", self.BASE["entries"],
            self._measured(rounds=3), tolerance=100.0,
        )
        assert any("deterministic field" in f for f in failures)

    def test_missing_baseline_entry_is_skipped(self):
        failures, lines = check_regression.compare(
            "engine", self.BASE["entries"],
            self._measured(n=4000), tolerance=0.5,
        )
        assert failures == []
        assert any("no baseline entry" in line for line in lines)

    def test_structural_validation_catches_bad_baseline(self, tmp_path):
        (tmp_path / "BENCH_engine.json").write_text("{not json")
        payload, errors = check_regression.load_baseline("engine", str(tmp_path))
        assert payload is None and errors
        (tmp_path / "BENCH_engine.json").write_text('{"entries": []}')
        payload, errors = check_regression.load_baseline("engine", str(tmp_path))
        assert errors

    @requires_numpy
    def test_doctored_baseline_fails_end_to_end(self, tmp_path, capsys):
        if not numpy_available():
            pytest.skip("NumPy unavailable")
        # Doctor the committed baseline to a wall time no run can meet: a
        # baseline derived from a fresh timing lets a scheduler stall in
        # that timing pass the gate.  The gate must exit non-zero, and for
        # the wall-clock regression.
        with open(os.path.join(check_regression.REPO_ROOT, "BENCH_engine.json")) as fh:
            baseline = json.load(fh)
        for entry in baseline["entries"]:
            entry["batch_seconds"] = 1e-9
        (tmp_path / "BENCH_engine.json").write_text(json.dumps(baseline))
        code = check_regression.main(
            ["--smoke", "--bench", "engine", "--baseline-dir", str(tmp_path)]
        )
        report = capsys.readouterr().out
        assert code == 1
        regressions = report.split("REGRESSIONS", 1)[1]
        assert "engine n=2000 delta=16: wall-clock regression" in regressions, report

    @requires_numpy
    def test_committed_baselines_pass_smoke(self, capsys):
        if not numpy_available():
            pytest.skip("NumPy unavailable")
        # Generous tolerance: this must hold on any healthy machine, exactly
        # like the CI gate.
        code = check_regression.main(["--smoke", "--tolerance", "4.0"])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out
