"""Backend registry, shared result protocol, deprecation shims, obs.absorb."""

import pytest

from repro import graphgen, obs
from repro.obs.core import Histogram, Telemetry
from repro.runtime.backends import backend_names, choose_tier, resolve_backend
from repro.runtime.csr import numpy_available
from repro.runtime.engine import ColoringEngine
from repro.runtime.results import Result, is_result, summarize


def _graph(n=40, d=4, seed=1):
    return graphgen.random_regular(n, d, seed=seed)


class TestBackendRegistry:
    def test_kinds_and_names(self):
        for kind in ("engine", "selfstab"):
            names = backend_names(kind)
            assert names[0] == "auto"
            assert set(names) >= {"auto", "batch", "reference"}
        assert backend_names("engine") == ["auto", "batch", "oocore", "reference"]
        assert backend_names("selfstab") == ["auto", "batch", "reference"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown backend kind"):
            backend_names("gpu")
        with pytest.raises(ValueError, match="unknown backend kind"):
            resolve_backend("gpu", "auto")

    def test_unknown_backend_message_is_compatible(self):
        # tests elsewhere match on the "unknown backend" substring; keep it.
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("engine", "cuda")

    def test_reference_engine_construction(self):
        engine = resolve_backend("engine", "reference")(_graph())
        assert type(engine) is ColoringEngine

    def test_batch_requires_numpy(self):
        factory = resolve_backend("engine", "batch")
        if numpy_available():
            from repro.runtime.fast_engine import BatchColoringEngine

            assert isinstance(factory(_graph()), BatchColoringEngine)
        else:
            with pytest.raises(RuntimeError, match="NumPy"):
                factory(_graph())

    def test_selfstab_construction(self):
        from repro.runtime.graph import DynamicGraph
        from repro.selfstab import SelfStabExactColoring

        graph = DynamicGraph.from_static(_graph())
        algorithm = SelfStabExactColoring(graph.n_bound, graph.delta_bound)
        engine = resolve_backend("selfstab", "auto")(graph, algorithm)
        assert engine.run_to_quiescence() >= 0


class _UntouchableGraph:
    """A graph stand-in that fails on any attribute read."""

    def __getattr__(self, name):
        raise AssertionError("graph.%s was read before the backend was checked" % name)


def _entry_points():
    from repro.baselines import (
        bek_delta_plus_one,
        greedy_coloring,
        luby_mis,
        random_trial_coloring,
    )
    from repro.bitround.edge_coloring import run_edge_coloring_bit_protocol
    from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol
    from repro.defective.kuhn_edge import kuhn_defective_edge_coloring
    from repro.edge import edge_coloring_congest
    from repro.edge.line_graph import build_line_graph
    from repro.linial.core import LinialColoring
    from repro.recipes import (
        delta_plus_one_coloring,
        delta_plus_one_exact_no_reduction,
        one_plus_eps_delta_coloring,
        sublinear_delta_plus_one_coloring,
    )
    from repro.runtime.pipeline import ColoringPipeline

    pipeline = ColoringPipeline([LinialColoring()])
    return {
        "delta_plus_one_coloring": delta_plus_one_coloring,
        "delta_plus_one_exact_no_reduction": delta_plus_one_exact_no_reduction,
        "one_plus_eps_delta_coloring": one_plus_eps_delta_coloring,
        "sublinear_delta_plus_one_coloring": sublinear_delta_plus_one_coloring,
        "ColoringPipeline.run": lambda graph, backend: pipeline.run(
            graph, [0], backend=backend
        ),
        "greedy_coloring": greedy_coloring,
        "random_trial_coloring": lambda graph, backend: random_trial_coloring(
            graph, 1, backend=backend
        ),
        "luby_mis": lambda graph, backend: luby_mis(graph, 1, backend=backend),
        "bek_delta_plus_one": bek_delta_plus_one,
        "kuhn_defective_edge_coloring": kuhn_defective_edge_coloring,
        "build_line_graph": build_line_graph,
        "edge_coloring_congest": edge_coloring_congest,
        "run_vertex_coloring_bit_protocol": run_vertex_coloring_bit_protocol,
        "run_edge_coloring_bit_protocol": run_edge_coloring_bit_protocol,
    }


class TestTierChoice:
    """One rule maps (backend, graph) to a tier for every entry point."""

    @pytest.mark.parametrize("name", sorted(_entry_points()))
    def test_unknown_backend_fails_before_any_work(self, name):
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            _entry_points()[name](_UntouchableGraph(), backend="cuda")

    @pytest.mark.parametrize("backend", ("auto", "batch", "reference"))
    @pytest.mark.parametrize("name", sorted(_entry_points()))
    def test_dynamic_graph_fails_in_every_entry_point(self, name, backend):
        # Only the self-stabilizing engines take a DynamicGraph; every static
        # routine refuses it, with the same error with or without NumPy.
        from repro.runtime.graph import DynamicGraph

        dynamic = DynamicGraph.from_static(_graph(20, 3))
        with pytest.raises(TypeError, match=r"snapshot\(\)"):
            _entry_points()[name](dynamic, backend=backend)

    def test_in_memory_table(self):
        graph = _graph()
        with_numpy = numpy_available()
        assert choose_tier("reference", graph, oocore=True) == "reference"
        assert choose_tier("auto", graph) == ("batch" if with_numpy else "reference")
        for backend, tier in (("batch", "batch"), ("oocore", "oocore")):
            if with_numpy:
                assert choose_tier(backend, graph, oocore=True) == tier
            else:
                with pytest.raises(RuntimeError, match="needs NumPy"):
                    choose_tier(backend, graph, oocore=True)

    def test_oocore_needs_the_routine_to_have_that_tier(self):
        with pytest.raises(TypeError, match="has no out-of-core tier"):
            choose_tier("oocore", _graph())

    @pytest.mark.skipif(not numpy_available(), reason="sharding needs NumPy")
    def test_sharded_table(self, tmp_path):
        from repro.oocore.writers import shard_static_graph

        sharded = shard_static_graph(_graph(), str(tmp_path), shards=2)
        assert choose_tier("reference", sharded, oocore=True) == "reference"
        for backend in ("auto", "batch", "oocore"):
            assert choose_tier(backend, sharded, oocore=True) == "oocore"
        for backend in ("auto", "batch", "oocore", "reference"):
            with pytest.raises(TypeError, match="has no out-of-core tier"):
                choose_tier(backend, sharded)


class TestHPartitionCompletionTier:
    """The H-partition completion reads class subgraphs, which a sharded
    graph does not build: one-plus-eps with it has no out-of-core tier, and
    says so at its entry with the tier rule's TypeError."""

    @pytest.mark.skipif(not numpy_available(), reason="sharding needs NumPy")
    def test_oocore_job_fails_once_before_any_stage(self, monkeypatch, tmp_path):
        from repro.api import JobSpec, run
        from repro.oocore.engine import OocoreColoringEngine

        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the tier was refused")

        monkeypatch.setenv("REPRO_OOCORE_DIR", str(tmp_path))
        monkeypatch.setattr(OocoreColoringEngine, "run", no_stage)
        graph = {"family": "regular", "n": 300, "degree": 6, "seed": 1}
        outcome = run(JobSpec("one-plus-eps", graph=graph, backend="oocore",
                              params={"completion": "hpartition"}))
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error["kind"] == "TypeError", outcome.error
        assert "has no out-of-core tier" in outcome.error["message"]

    @pytest.mark.skipif(not numpy_available(), reason="sharding needs NumPy")
    def test_sharded_or_oocore_graph_is_refused_under_every_backend(self, tmp_path):
        from repro.oocore.writers import shard_static_graph
        from repro.recipes import one_plus_eps_delta_coloring

        graph = _graph()
        sharded = shard_static_graph(graph, str(tmp_path), shards=2)
        cases = [(graph, "oocore")] + [
            (sharded, backend) for backend in ("auto", "batch", "oocore", "reference")
        ]
        for target, backend in cases:
            with pytest.raises(TypeError, match="has no out-of-core tier"):
                one_plus_eps_delta_coloring(
                    target, completion="hpartition", backend=backend
                )
        in_memory = one_plus_eps_delta_coloring(graph, completion="hpartition")
        reference = one_plus_eps_delta_coloring(
            graph, completion="hpartition", backend="reference"
        )
        assert in_memory.to_dict() == reference.to_dict()


class TestDeprecationShims:
    def test_make_engine_shim_is_gone(self):
        # The 2.0 removal promised by the deprecation cycle: the registry is
        # the only construction path now.
        import repro.runtime
        import repro.runtime.fast_engine as fast_engine

        assert not hasattr(fast_engine, "make_engine")
        assert not hasattr(repro.runtime, "make_engine")
        assert "make_engine" not in repro.runtime.__all__

    def test_make_selfstab_engine_shim_is_gone(self):
        import repro.selfstab
        import repro.selfstab.fast_engine as fast_engine

        assert not hasattr(fast_engine, "make_selfstab_engine")
        assert not hasattr(repro.selfstab, "make_selfstab_engine")
        assert "make_selfstab_engine" not in repro.selfstab.__all__


class TestResultProtocol:
    def test_every_result_class_satisfies_protocol(self):
        from repro.recipes import delta_plus_one_coloring, one_plus_eps_delta_coloring

        graph = _graph()
        pipeline_result = delta_plus_one_coloring(graph)
        sublinear_result = one_plus_eps_delta_coloring(graph)
        engine = resolve_backend("engine", "reference")(graph)
        from repro.core.ag import AdditiveGroupColoring

        run_result = engine.run(AdditiveGroupColoring(), list(range(graph.n)))
        from repro.edge import edge_coloring_congest

        edge_result = edge_coloring_congest(_graph(24, 4))
        for result in (pipeline_result, sublinear_result, run_result, edge_result):
            assert is_result(result)
            assert isinstance(result, Result)
            envelope = summarize(result, detail=True)
            assert envelope["kind"] == type(result).__name__
            assert envelope["rounds"] == result.rounds
            assert envelope["payload"] == result.to_dict()

    def test_lowmem_report_protocol(self):
        from repro.lowmem import delta_plus_one_coloring_low_memory

        report = delta_plus_one_coloring_low_memory(_graph(24, 4))
        assert is_result(report)
        assert summarize(report)["num_colors"] == report.num_colors

    def test_rounds_aliases_agree(self):
        from repro.recipes import delta_plus_one_coloring

        result = delta_plus_one_coloring(_graph())
        assert result.rounds == result.total_rounds

    def test_summarize_rejects_non_results(self):
        with pytest.raises(TypeError, match="does not satisfy the result protocol"):
            summarize((1, 2, 3))
        assert not is_result(object())

    def test_duck_typed_membership(self):
        class Duck:
            colors = [0]
            rounds = 1

            def to_dict(self):
                return {"colors": [0]}

        assert isinstance(Duck(), Result)
        assert summarize(Duck())["rounds"] == 1


class TestAbsorb:
    def test_absorb_events_and_snapshot(self):
        worker = Telemetry(clock=lambda: 0.0)
        worker.counter("engine.runs", 2, backend="batch")
        worker.gauge("selfstab.max_message_bits", 17)
        worker.histogram("span.run", 1.5)
        worker.histogram("span.run", 0.5)
        worker.event("engine.run", stage="ag", rounds=3)
        records = list(worker.events) + [worker.snapshot()]

        parent = Telemetry(clock=lambda: 0.0)
        parent.event("parent.start")
        parent.histogram("span.run", 4.0)
        absorbed = parent.absorb(records, job="j1")
        assert absorbed == len(records)
        stitched = parent.events_of("engine.run")
        assert stitched[0]["job"] == "j1"
        assert stitched[0]["source_seq"] == 0
        assert stitched[0]["seq"] == 1
        assert parent.counter_value("engine.runs", backend="batch") == 2
        agg = parent.histograms[parent._key("span.run", {})]
        assert agg.count == 3
        assert agg.total == 6.0
        assert agg.minimum == 0.5 and agg.maximum == 4.0

    def test_absorb_is_additive_across_workers(self):
        parent = Telemetry(clock=lambda: 0.0)
        for _ in range(3):
            worker = Telemetry(clock=lambda: 0.0)
            worker.counter("parallel.work")
            parent.absorb([worker.snapshot()])
        assert parent.counter_value("parallel.work") == 3

    def test_null_telemetry_absorb_is_noop(self):
        null = obs.core.NullTelemetry()
        assert null.absorb([{"type": "x"}]) == 0

    def test_histogram_merge_from_histogram(self):
        a, b = Histogram(), Histogram()
        a.record(1.0)
        b.record(3.0)
        b.record(5.0)
        a.merge(b)
        assert (a.count, a.total, a.minimum, a.maximum) == (3, 9.0, 1.0, 5.0)
        empty = Histogram()
        a.merge(empty)  # merging an empty aggregate changes nothing
        assert a.count == 3
