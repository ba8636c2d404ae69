"""Tests for the command-line interface."""

import io
import json
import os

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def single_payload(text):
    """The result payload of a one-job ``--json`` list."""
    outcomes = json.loads(text)
    assert len(outcomes) == 1 and outcomes[0]["ok"]
    return outcomes[0]["summary"]["payload"]


class TestColorCommand:
    def test_default_regular(self):
        code, text = run_cli(["color", "--n", "48", "--degree", "6"])
        assert code == 0
        assert "Delta=6" in text
        assert "total rounds:" in text

    def test_exact_algorithm(self):
        code, text = run_cli(
            ["color", "--n", "40", "--degree", "4", "--algorithm", "exact"]
        )
        assert code == 0
        assert "max color:   4" in text

    def test_sublinear_algorithm(self):
        code, text = run_cli(
            ["color", "--family", "gnp", "--n", "40", "--prob", "0.2",
             "--algorithm", "sublinear"]
        )
        assert code == 0
        assert "colors used:" in text

    def test_set_local_flag(self):
        code, text = run_cli(
            ["color", "--n", "36", "--degree", "4", "--set-local"]
        )
        assert code == 0

    def test_set_local_rejected_for_sublinear(self, capsys):
        # The Theorem 6.4 route takes no visibility: it would run in LOCAL.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["color", "--n", "40", "--degree", "4",
                     "--algorithm", "sublinear", "--set-local"])
        assert exit_info.value.code == 2
        assert "--set-local is not supported" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family_args",
        [
            ["--family", "cycle", "--n", "20"],
            ["--family", "path", "--n", "15"],
            ["--family", "grid", "--rows", "4", "--cols", "5"],
            ["--family", "unit-disk", "--n", "40", "--radius", "0.2"],
            ["--family", "tree", "--n", "30"],
        ],
    )
    def test_all_families(self, family_args):
        code, text = run_cli(["color"] + family_args)
        assert code == 0
        assert "colors used:" in text


class TestEdgeColorCommand:
    def test_exact(self):
        code, text = run_cli(["edge-color", "--n", "32", "--degree", "4"])
        assert code == 0
        assert "CONGEST rounds:" in text
        assert "bits per edge:" in text

    def test_inexact(self):
        code, text = run_cli(
            ["edge-color", "--n", "32", "--degree", "4", "--no-exact"]
        )
        assert code == 0


class TestMISAndMatching:
    def test_mis(self):
        code, text = run_cli(["mis", "--family", "grid", "--rows", "5", "--cols", "5"])
        assert code == 0
        assert "MIS size:" in text

    def test_matching(self):
        code, text = run_cli(["matching", "--n", "24", "--degree", "4"])
        assert code == 0
        assert "matching size:" in text


class TestSelfStabCommand:
    def test_demo_runs(self):
        code, text = run_cli(
            ["selfstab", "--n", "24", "--delta", "4", "--bursts", "2",
             "--corruptions", "6", "--churn", "1"]
        )
        assert code == 0
        assert "cold start:" in text
        assert "burst 2:" in text
        assert "final palette:" in text

    def test_output_is_pinned(self):
        # Recorded when the command drew its own G(n, p); at prob 0.2 the
        # degree cap of 5 drops most edges, so the cap check is exercised.
        code, text = run_cli(
            ["selfstab", "--n", "60", "--delta", "5", "--prob", "0.2",
             "--seed", "7", "--bursts", "3", "--corruptions", "9"]
        )
        assert code == 0
        assert text == (
            "cold start: stabilized in 17 rounds (bound budget 234)\n"
            "burst 1: re-stabilized in 16 rounds (legal: True)\n"
            "burst 2: re-stabilized in 16 rounds (legal: True)\n"
            "burst 3: re-stabilized in 15 rounds (legal: True)\n"
            "final palette: 6 <= Delta+1 = 6\n"
        )

    def test_delta_flag_is_the_bound_not_the_realized_degree(self):
        # The capped G(40, 0.05) has max degree 6; Delta must come from
        # --delta, which churn may rewire up to (output of the original demo).
        code, text = run_cli(
            ["selfstab", "--n", "40", "--delta", "20", "--prob", "0.05",
             "--churn", "2"]
        )
        assert code == 0
        assert text == (
            "cold start: stabilized in 5 rounds (bound budget 774)\n"
            "burst 1: re-stabilized in 5 rounds (legal: True)\n"
            "burst 2: re-stabilized in 5 rounds (legal: True)\n"
            "burst 3: re-stabilized in 6 rounds (legal: True)\n"
            "final palette: 21 <= Delta+1 = 21\n"
        )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "--family", "hypergraph"])


class TestJsonOutput:
    def test_color_json(self):
        code, text = run_cli(
            ["color", "--n", "24", "--degree", "4", "--json"]
        )
        assert code == 0
        payload = single_payload(text)
        assert payload["num_colors"] <= 5
        assert "stages" in payload

    def test_sublinear_json(self):
        code, text = run_cli(
            ["color", "--family", "gnp", "--n", "24", "--prob", "0.2",
             "--algorithm", "sublinear", "--json"]
        )
        assert code == 0
        payload = single_payload(text)
        assert "stage_rounds" in payload
        assert "ag_side_rounds" in payload

    def test_edge_color_json(self):
        code, text = run_cli(["edge-color", "--n", "16", "--degree", "4", "--json"])
        assert code == 0
        payload = single_payload(text)
        assert "edge_colors" in payload
        assert payload["palette_size"] >= 1

    def test_color_json_stage_metrics_are_totals_only(self):
        # The JSON summary uses MetricsLog.to_dict(detail=False): per-stage
        # communication totals without the O(rounds) per-round rows.
        code, text = run_cli(["color", "--n", "24", "--degree", "4", "--json"])
        assert code == 0
        payload = single_payload(text)
        assert payload["stages"]
        for stage in payload["stages"]:
            metrics = stage["metrics"]
            assert "rounds" not in metrics
            assert set(metrics) == {"total_rounds", "total_messages", "total_bits"}
        assert payload["total_bits"] == sum(
            s["metrics"]["total_bits"] for s in payload["stages"]
        )


class TestParallelCommands:
    def test_color_seed_fanout(self):
        code, text = run_cli(
            ["color", "--n", "48", "--degree", "4", "--seeds", "2", "--workers", "2"]
        )
        assert code == 0
        assert "jobs: 2 ok, 0 failed" in text
        assert "cor36-regular-n48-degree4-s1" in text

    def test_color_set_local_fanout_equals_single_runs(self):
        # SET-LOCAL is a job parameter, so it composes with the fan-out.
        def outcomes(extra):
            code, text = run_cli(
                ["color", "--n", "32", "--degree", "4", "--set-local", "--json"]
                + extra
            )
            assert code == 0
            records = json.loads(text)
            for record in records:
                assert record["ok"]
                assert record["job"]["params"] == {"visibility": "set-local"}
                del record["seconds"]
            return records

        fanout = outcomes(["--seeds", "2", "--workers", "2"])
        singles = outcomes(["--seed", "1"]) + outcomes(["--seed", "2"])
        assert len(fanout) == 2
        assert fanout == singles

    def test_sweep_table(self):
        code, text = run_cli(
            ["sweep", "--n", "32,48", "--degree", "4", "--seeds", "2", "--workers", "2"]
        )
        assert code == 0
        assert "jobs: 4 ok, 0 failed" in text

    def test_sweep_json(self):
        code, text = run_cli(
            ["sweep", "--n", "24", "--degree", "4", "--seeds", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert len(payload) == 1
        assert payload[0]["ok"]
        assert payload[0]["summary"]["num_colors"] <= 5

    def test_sweep_telemetry_stream_is_merged(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        code, text = run_cli(
            ["sweep", "--n", "24,32", "--degree", "4", "--seeds", "1",
             "--workers", "2", "--telemetry", path]
        )
        assert code == 0
        from repro import obs

        records = obs.read_jsonl(path)
        job_events = [r for r in records if r.get("type") == "parallel.job"]
        assert len(job_events) == 2
        engine_runs = [r for r in records if r.get("type") == "engine.run"]
        assert engine_runs and all("job" in r for r in engine_runs)
        assert any(r.get("type") == "snapshot" for r in records)

    def test_oocore_flags_are_scoped_to_the_command(self):
        from repro.oocore.store import memory_budget
        from repro.parallel import register_algorithm
        from repro.parallel.jobs import _ALGORITHMS

        seen = []

        def probe(graph, backend="auto", seed=1, **params):
            seen.append((os.environ.get("REPRO_OOCORE_SHARDS"), memory_budget()))
            return _ALGORITHMS["cor36"](graph, backend=backend, seed=seed)

        register_algorithm("env-probe", probe)
        before = dict(os.environ)
        try:
            code, text = run_cli(
                ["sweep", "--n", "24", "--degree", "4", "--algorithm", "env-probe",
                 "--shards", "4", "--memory-budget", "64M"]
            )
        finally:
            _ALGORITHMS.pop("env-probe", None)
        assert code == 0, text
        # The job saw both flags; the caller's environment is untouched.
        assert seen == [("4", 64 << 20)]
        assert dict(os.environ) == before

    def test_color_workers_flag(self):
        code, text = run_cli(
            ["color", "--n", "48", "--degree", "4", "--seeds", "2", "--workers", "2"]
        )
        assert code == 0
        assert "jobs: 2 ok, 0 failed" in text

    def test_sweep_workers_flag(self):
        code, text = run_cli(
            ["sweep", "--n", "32,48", "--degree", "4", "--seeds", "2", "--workers", "2"]
        )
        assert code == 0
        assert "jobs: 4 ok, 0 failed" in text

    def test_jobs_alias_removed(self):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--n", "32", "--degree", "4", "--jobs", "2"])
        with pytest.raises(SystemExit):
            run_cli(["color", "--n", "32", "--degree", "4", "--jobs", "2"])

    def test_sweep_prints_a_dash_for_a_result_without_num_colors(self):
        from repro.parallel import register_algorithm
        from repro.parallel.jobs import _ALGORITHMS

        class Bare:
            """The three result-protocol members and nothing else."""

            def __init__(self, n):
                self.colors = list(range(n))
                self.rounds = 3

            def to_dict(self):
                return {"colors": self.colors, "rounds": self.rounds}

        register_algorithm("bare", lambda graph, backend="auto", seed=1: Bare(graph.n))
        try:
            code, text = run_cli(
                ["sweep", "--n", "24", "--degree", "4", "--algorithm", "bare"]
            )
        finally:
            _ALGORITHMS.pop("bare", None)
        assert code == 0, text
        assert "rounds=3     colors=-" in text
        assert "jobs: 1 ok, 0 failed" in text

    @pytest.mark.requires_numpy
    def test_oocore_budget_overrun_fails_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_DIR", str(tmp_path))
        code, text = run_cli(
            ["color", "--n", "2000", "--degree", "8", "--oocore",
             "--memory-budget", "1K"]
        )
        assert code == 1
        assert "FAILED (MemoryBudgetError, 1 attempt)" in text

    def test_sweep_unknown_algorithm_fails_cleanly(self):
        code, text = run_cli(
            ["sweep", "--n", "24", "--degree", "4", "--algorithm", "nope"]
        )
        assert code == 1
        assert "FAILED" in text
