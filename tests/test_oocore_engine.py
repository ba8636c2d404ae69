"""Differential parity of the out-of-core engine against the batch engine.

Everything observable must match at sizes where both engines run: colors,
per-stage rounds, per-round metrics rows, error types and messages, and the
early-exit behavior.  The oocore tier earns its keep purely by scaling —
never by changing an answer.
"""

import os
import tempfile

import pytest

from repro.analysis import is_proper_coloring
from repro.graphgen import gnp_graph, random_regular
from repro.runtime.csr import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the out-of-core tier needs NumPy"
)


def _sharded(graph, shards=4):
    from repro.oocore.writers import shard_static_graph

    return shard_static_graph(
        graph, tempfile.mkdtemp(prefix="oocore-engine-test-"), shards=shards
    )


def _metric_rows(result):
    return [
        (r.round_index, r.messages, r.bits, r.changed_vertices)
        for r in result.metrics.rounds
    ]


def _stage_classes():
    from repro.core.ag import AdditiveGroupColoring
    from repro.core.reductions import StandardColorReduction
    from repro.linial.core import LinialColoring

    return [LinialColoring, AdditiveGroupColoring, StandardColorReduction]


# (shards, stage index, n, degree, Linial rounds or None).  On (60, 4) the
# Linial plan is empty; (5000, 8) runs two Linial rounds whose shards hold
# more halo rows than owned ones, so the point scan shrinks its matrix
# inside each shard-local one.  AG and the reduction from 5000 colors
# would run thousands of rounds, so that input runs the Linial stage only.
_PARITY_CASES = [
    (shards, stage_index, 60, 4, None)
    for shards in (1, 3, 7)
    for stage_index in (0, 1, 2)
] + [(3, 0, 5000, 8, 2), (7, 0, 5000, 8, 2)]


class TestStageParity:
    @pytest.mark.parametrize(
        "shards, stage_index, n, degree, linial_rounds",
        _PARITY_CASES,
        ids=[
            "%d-%d" % case[:2] if case[2] == 60 else "%d-%d-n%d" % case[:3]
            for case in _PARITY_CASES
        ],
    )
    def test_single_stage_matches_batch(
        self, shards, stage_index, n, degree, linial_rounds
    ):
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        make = _stage_classes()[stage_index]
        graph = random_regular(n, degree, seed=5)
        sharded = _sharded(graph, shards=shards)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph).run(make(), initial)
        oocore = OocoreColoringEngine(sharded).run(make(), initial)
        assert oocore.int_colors == batch.int_colors
        assert oocore.rounds_used == batch.rounds_used
        assert _metric_rows(oocore) == _metric_rows(batch)
        assert oocore.num_colors == batch.num_colors
        if linial_rounds is not None:
            assert oocore.rounds_used == linial_rounds

    def test_gnp_pipeline_parity(self):
        from repro.recipes import delta_plus_one_coloring

        graph = gnp_graph(90, 0.08, seed=3)
        sharded = _sharded(graph, shards=4)
        batch = delta_plus_one_coloring(graph, backend="batch")
        oocore = delta_plus_one_coloring(sharded, backend="oocore")
        assert list(oocore.colors) == list(batch.colors)
        assert oocore.rounds_by_stage() == batch.rounds_by_stage()
        assert oocore.total_bits == batch.total_bits
        assert is_proper_coloring(graph, oocore.colors)

    def test_check_proper_each_round(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(40, 4, seed=2)
        sharded = _sharded(graph)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph, check_proper_each_round=True).run(
            AdditiveGroupColoring(), initial
        )
        oocore = OocoreColoringEngine(
            sharded, check_proper_each_round=True
        ).run(AdditiveGroupColoring(), initial)
        assert oocore.int_colors == batch.int_colors

    def test_improper_initial_raises_identically(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.errors import ImproperColoringError
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(30, 3, seed=4)
        sharded = _sharded(graph)
        improper = [0] * graph.n  # monochromatic everywhere
        with pytest.raises(ImproperColoringError) as batch_err:
            BatchColoringEngine(graph, check_proper_each_round=True).run(
                AdditiveGroupColoring(), improper, in_palette_size=graph.n
            )
        with pytest.raises(ImproperColoringError) as oocore_err:
            OocoreColoringEngine(sharded, check_proper_each_round=True).run(
                AdditiveGroupColoring(), improper, in_palette_size=graph.n
            )
        assert str(oocore_err.value) == str(batch_err.value)

    def test_max_rounds_parity(self):
        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        # Truncating AG mid-run leaves working vertices; the final decode
        # must fail identically in both engines.
        graph = random_regular(40, 5, seed=7)
        sharded = _sharded(graph)
        initial = list(range(graph.n))
        with pytest.raises(ValueError) as batch_err:
            BatchColoringEngine(graph).run(
                AdditiveGroupColoring(), initial, max_rounds=2
            )
        with pytest.raises(ValueError) as oocore_err:
            OocoreColoringEngine(sharded).run(
                AdditiveGroupColoring(), initial, max_rounds=2
            )
        assert str(oocore_err.value) == str(batch_err.value)

    def test_in_memory_graph_is_auto_sharded(self):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(40, 4, seed=6)
        initial = list(range(graph.n))
        batch = BatchColoringEngine(graph).run(LinialColoring(), initial)
        oocore = OocoreColoringEngine(graph, shards=3).run(
            LinialColoring(), initial
        )
        assert oocore.int_colors == batch.int_colors


class TestEngineContract:
    def test_record_history_rejected(self):
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            OocoreColoringEngine(sharded, record_history=True)

    def test_scalar_only_stage_rejected(self):
        from repro.oocore.engine import OocoreColoringEngine

        class ScalarOnly:
            name = "scalar-only"

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(RuntimeError):
            OocoreColoringEngine(sharded).run(ScalarOnly(), list(range(20)))

    def test_wrong_initial_length(self):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            OocoreColoringEngine(sharded).run(LinialColoring(), [0, 1, 2])

    def test_memory_budget_enforced(self, monkeypatch):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.store import MemoryBudgetError

        sharded = _sharded(random_regular(60, 4, seed=5), shards=2)
        monkeypatch.setenv("REPRO_OOCORE_BUDGET", "1K")
        with pytest.raises(MemoryBudgetError):
            OocoreColoringEngine(sharded).run(
                LinialColoring(), list(range(60))
            )

    def test_generous_budget_runs(self, monkeypatch):
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(60, 4, seed=5), shards=4)
        monkeypatch.setenv("REPRO_OOCORE_BUDGET", "64M")
        result = OocoreColoringEngine(sharded).run(
            LinialColoring(), list(range(60))
        )
        assert len(result.int_colors) == 60

    def test_colors_plane_persisted(self):
        import numpy as np

        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(30, 3, seed=2))
        result = OocoreColoringEngine(sharded).run(
            LinialColoring(), list(range(30))
        )
        assert np.array_equal(
            np.array(sharded.colors_plane(mode="r")), result.int_colors_array
        )

    def test_empty_graph(self):
        from repro.graphgen import gnp_graph
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(gnp_graph(0, 0.5, seed=1), shards=2)
        result = OocoreColoringEngine(sharded).run(LinialColoring(), [])
        assert result.int_colors == []


class TestBackendRegistration:
    def test_backend_listed(self):
        from repro.runtime.backends import backend_names

        assert "oocore" in backend_names("engine")

    def test_resolve_and_run(self):
        from repro.runtime.backends import resolve_backend

        sharded = _sharded(random_regular(30, 3, seed=2))
        engine = resolve_backend("engine", "oocore")(sharded)
        from repro.linial.core import LinialColoring

        result = engine.run(LinialColoring(), list(range(30)))
        assert len(result.int_colors) == 30

    def test_job_runner_parity(self):
        from repro.parallel import JobSpec, execute_job

        spec = {"family": "regular", "n": 100, "degree": 6, "seed": 3}
        oocore = execute_job(JobSpec(algorithm="cor36", graph=spec, backend="oocore"))
        batch = execute_job(JobSpec(algorithm="cor36", graph=spec, backend="batch"))
        assert oocore["ok"], oocore["error"]
        assert (
            oocore["summary"]["payload"]["colors"]
            == batch["summary"]["payload"]["colors"]
        )
        assert oocore["summary"]["rounds"] == batch["summary"]["rounds"]

    def test_process_pool_builds_no_graph_in_the_parent(self, monkeypatch):
        # Two oocore jobs on one topology: each worker opens the shard
        # directory itself, so the parent never holds the whole graph.
        from repro.parallel import JobSpec, run_many
        from repro.parallel.jobs import clear_graph_cache, graph_cache_stats
        from repro.parallel.runner import _multiprocessing_context

        context = _multiprocessing_context()
        if context is None or context.get_start_method() != "fork":
            pytest.skip("process mode unavailable")
        monkeypatch.setenv("REPRO_OOCORE_DIR", tempfile.mkdtemp(prefix="oocore-pool-"))
        graph = {"family": "regular", "n": 400, "degree": 8, "seed": 4}
        specs = [
            JobSpec(algorithm=algorithm, graph=graph, backend="oocore")
            for algorithm in ("cor36", "exact")
        ]
        clear_graph_cache()
        oocore = run_many(specs, workers=2, mode="process")
        assert graph_cache_stats()["misses"] == 0
        batch = run_many(
            [JobSpec(s.algorithm, graph=graph, backend="batch") for s in specs],
            mode="inline",
        )
        assert all(o.ok for o in oocore), [o.error for o in oocore]
        assert [o.colors for o in oocore] == [o.colors for o in batch]


    @pytest.mark.parametrize(
        "algorithm",
        ["bek", "edge", "bitround-edge", "random-trial", "selfstab",
         "selfstab-coloring", "selfstab-rank"],
    )
    def test_in_memory_only_jobs_reject_a_sharded_graph(self, algorithm, monkeypatch):
        # These jobs walk the whole edge list or CSR; on a sharded graph
        # they fail at the entry with one typed error, not mid-run.
        from repro.parallel import JobSpec, execute_job

        monkeypatch.setenv("REPRO_OOCORE_DIR", tempfile.mkdtemp(prefix="oocore-reject-"))
        graph = {"family": "regular", "n": 200, "degree": 8, "seed": 1}
        envelope = execute_job(JobSpec(algorithm=algorithm, graph=graph, backend="oocore"))
        assert not envelope["ok"]
        assert envelope["error"]["kind"] == "TypeError"
        assert "has no out-of-core tier" in envelope["error"]["message"]

    def test_no_tier_record_names_the_routines_that_reject_shards(self, monkeypatch):
        # job_graph fails these jobs before sharding; the record must name
        # exactly the builtins whose routines reject a sharded graph.
        from repro.oocore.writers import ensure_sharded
        from repro.parallel.jobs import _NO_OOCORE_TIER, algorithm_names, resolve_algorithm

        monkeypatch.setenv("REPRO_OOCORE_DIR", tempfile.mkdtemp(prefix="oocore-record-"))
        graph = ensure_sharded({"family": "regular", "n": 200, "degree": 8, "seed": 1})
        rejecting = set()
        for name in algorithm_names():
            try:
                resolve_algorithm(name)(graph, backend="oocore")
            except TypeError as exc:
                assert "has no out-of-core tier" in str(exc), name
                rejecting.add(name)
        recorded = {
            name for name in algorithm_names() if resolve_algorithm(name) in _NO_OOCORE_TIER
        }
        assert recorded == rejecting
        assert len(recorded) == 7

    def test_every_job_on_oocore_equals_batch_or_fails_once(self, monkeypatch):
        # The tier matrix: an oocore job either runs the routine's oocore
        # tier to the batch job's summary, or fails once with the typed
        # error.  Never the reference tier, never a mid-run AttributeError.
        from repro.api import JobSpec, algorithm_names, run

        monkeypatch.setenv("REPRO_OOCORE_DIR", tempfile.mkdtemp(prefix="oocore-matrix-"))
        graph = {"family": "regular", "n": 200, "degree": 8, "seed": 1}
        ran = set()
        for name in algorithm_names():
            oocore = run(JobSpec(algorithm=name, graph=graph, backend="oocore"))
            if not oocore.ok:
                assert oocore.attempts == 1, name
                assert oocore.error["kind"] == "TypeError", (name, oocore.error)
                assert "has no out-of-core tier" in oocore.error["message"], name
                continue
            batch = run(JobSpec(algorithm=name, graph=graph, backend="batch"))
            assert oocore.summary == batch.summary, name
            ran.add(name)
        assert ran >= {
            "bitround", "cor36", "defective", "exact", "greedy",
            "kuhn-wattenhofer", "one-plus-eps", "sublinear",
        }

    def test_bitround_runs_its_stages_on_the_oocore_engine(self):
        from repro import obs
        from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol

        graph = random_regular(400, 16, seed=1)
        batch = run_vertex_coloring_bit_protocol(graph, backend="batch")
        for source in (_sharded(graph), graph):
            with obs.capture() as tel:
                oocore = run_vertex_coloring_bit_protocol(source, backend="oocore")
            assert oocore.to_dict() == batch.to_dict()
            runs = tel.events_of("engine.run")
            assert [run["stage"] for run in runs] == [
                "linial", "additive-group", "standard-reduction",
            ]
            assert {run["backend"] for run in runs} == {"oocore"}

    @pytest.mark.parametrize("backend", ["auto", "batch"])
    def test_sharded_graph_runs_the_recipes_out_of_core(self, backend):
        from repro.apps import locally_iterative_mis
        from repro.recipes import (
            delta_plus_one_coloring,
            delta_plus_one_exact_no_reduction,
            one_plus_eps_delta_coloring,
            sublinear_delta_plus_one_coloring,
        )

        graph = random_regular(120, 6, seed=2)
        sharded = _sharded(graph, shards=3)
        for recipe in (
            delta_plus_one_coloring,
            delta_plus_one_exact_no_reduction,
            one_plus_eps_delta_coloring,
            sublinear_delta_plus_one_coloring,
        ):
            expected = recipe(graph, backend="batch").to_dict()
            assert recipe(sharded, backend=backend).to_dict() == expected, recipe
        mis = locally_iterative_mis(sharded)
        assert mis.members == locally_iterative_mis(graph).members

    def test_results_are_one_class_on_every_tier(self):
        import repro.oocore
        from repro.linial.core import LinialColoring
        from repro.runtime.engine import RunResult

        graph = random_regular(30, 3, seed=2)
        sharded = _sharded(graph)
        results = [
            _engine(backend, source).run(LinialColoring(), list(range(30)))
            for backend, source in (
                ("reference", graph), ("batch", graph), ("oocore", sharded),
            )
        ]
        assert {type(result) for result in results} == {RunResult}
        assert results[1].int_colors == results[2].int_colors == results[0].int_colors
        assert results[1].colors == results[2].colors == results[0].colors
        assert "OocoreRunResult" not in repro.oocore.__all__
        kept = RunResult.from_columns(None, None, results[1].int_colors_array, 0, None)
        assert kept.int_colors == results[0].int_colors
        with pytest.raises(RuntimeError, match="int_colors_array"):
            kept.colors


def _engine(backend, graph):
    from repro.runtime.backends import resolve_backend

    return resolve_backend("engine", backend)(graph)


class TestShardedGreedy:
    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_bit_identical_to_first_fit(self, shards):
        from repro.baselines.greedy import greedy_coloring

        graph = random_regular(70, 6, seed=4)
        sharded = _sharded(graph, shards=shards)
        assert greedy_coloring(sharded) == greedy_coloring(graph)

    def test_gnp_parity(self):
        from repro.baselines.greedy import greedy_coloring

        graph = gnp_graph(80, 0.12, seed=6)
        sharded = _sharded(graph, shards=4)
        assert greedy_coloring(sharded) == greedy_coloring(graph)

    def test_in_memory_graph_is_sharded_into_scratch(self, monkeypatch):
        from repro.baselines.greedy import greedy_coloring

        scratch = tempfile.mkdtemp(prefix="oocore-greedy-")
        monkeypatch.setenv("REPRO_OOCORE_DIR", scratch)
        graph = gnp_graph(60, 0.1, seed=2)
        assert greedy_coloring(graph, backend="oocore") == greedy_coloring(graph)
        assert os.listdir(scratch) == []

    def test_custom_order_rejected(self):
        from repro.baselines.greedy import greedy_coloring

        sharded = _sharded(random_regular(20, 3, seed=1))
        with pytest.raises(ValueError):
            greedy_coloring(sharded, order=list(reversed(range(20))))


class TestTelemetry:
    def test_oocore_counters_emitted(self):
        from repro import obs
        from repro.linial.core import LinialColoring
        from repro.oocore.engine import OocoreColoringEngine

        sharded = _sharded(random_regular(40, 4, seed=3))
        with obs.capture() as tel:
            OocoreColoringEngine(sharded).run(LinialColoring(), list(range(40)))
        names = {c["name"] for c in tel.snapshot()["counters"]}
        assert "oocore.shard_io.bytes_read" in names
        assert "oocore.shard_io.bytes_written" in names
        assert "oocore.halo.bytes" in names
        events = [e for e in tel.events if e.get("type") == "engine.run"]
        assert events and events[-1]["backend"] == "oocore"

    @pytest.mark.parametrize(
        "budget, expected",
        [
            # Every local stays cached: one pass over the 3 176 bytes of
            # shard files, plus the plane bytes.
            (None, 8936),
            # No local fits the cache: 4 passes over the shard files, plus
            # the same plane bytes.
            ("9000", 18464),
        ],
    )
    def test_shard_bytes_counted_once(self, budget, expected, monkeypatch):
        from repro import obs
        from repro.core.ag import AdditiveGroupColoring
        from repro.oocore.engine import OocoreColoringEngine

        if budget is not None:
            monkeypatch.setenv("REPRO_OOCORE_BUDGET", budget)
        sharded = _sharded(random_regular(60, 4, seed=5), shards=3)
        with obs.capture() as tel:
            OocoreColoringEngine(sharded).run(AdditiveGroupColoring(), list(range(60)))
        read = tel.counter_value("oocore.shard_io.bytes_read", stage="additive-group")
        assert read == expected

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_engine_run_records_match_every_tier(self, shards):
        # Per-round changed/finalized/conflicts rows included: a cross-shard
        # edge must be counted from both endpoints' new colors.
        from repro import obs
        from repro.oocore.engine import OocoreColoringEngine
        from repro.runtime.engine import ColoringEngine
        from repro.runtime.fast_engine import BatchColoringEngine

        graph = random_regular(300, 8, seed=1)

        def records(engine):
            colors, palette = list(range(graph.n)), graph.n
            with obs.capture() as tel:
                for make in _stage_classes():
                    stage = make()
                    result = engine.run(stage, colors, in_palette_size=palette)
                    colors, palette = result.int_colors, stage.out_palette_size
            return obs.comparable_view(tel.events_of("engine.run"))

        reference = records(ColoringEngine(graph))
        assert records(BatchColoringEngine(graph)) == reference
        sharded = _sharded(graph, shards=shards)
        assert records(OocoreColoringEngine(sharded)) == reference


class TestCLI:
    def test_color_command_oocore(self, tmp_path):
        import io

        from repro.cli import main
        from repro.obs import read_jsonl

        telemetry = tmp_path / "oocore.jsonl"
        before = dict(os.environ)
        out = io.StringIO()
        rc = main(
            [
                "color", "--n", "100", "--degree", "5", "--oocore",
                "--shards", "4", "--memory-budget", "64M",
                "--telemetry", str(telemetry),
            ],
            out=out,
        )
        assert rc == 0
        assert "colors used: 6" in out.getvalue()
        # The run saw both flags: four shards, and a local-CSR cache of a
        # quarter of the 64 MiB budget ...
        gauges = read_jsonl(str(telemetry))[-1]["gauges"]
        assert {g["value"] for g in gauges if g["name"] == "oocore.shards"} == {4}
        assert {
            g["value"] for g in gauges if g["name"] == "oocore.cache_bytes"
        } == {16 << 20}
        # ... yet the env knobs the flags set are scoped to the command.
        assert dict(os.environ) == before
        # `obs summary` lists the run's memory readings in a gauges table.
        out = io.StringIO()
        assert main(["obs", "summary", str(telemetry)], out=out) == 0
        table = out.getvalue().split("\ngauges\n")[1].split("\n\n")[0]
        rows = {line.split()[0]: line.split() for line in table.splitlines()[2:]}
        assert rows["oocore.peak_rss_bytes"][1] == "-"  # untagged
        assert int(rows["oocore.peak_rss_bytes"][2]) > 0
        assert rows["oocore.shards"][1:] == ["stage=standard-reduction", "4"]
