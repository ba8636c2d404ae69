"""The sharded job runner: determinism, timeout, retry, fallback, stitching.

The load-bearing property is *bit-identity*: a job is a pure function of its
spec, so sequential and multi-process execution must produce byte-equal
outcomes (wall time aside).  Everything else — per-job timeouts that reclaim
a stuck worker, bounded retries, the inline fallback, telemetry stitched
into the parent stream — is exercised around that invariant.
"""

import os
import time

import pytest

import repro
from repro import obs
from repro.parallel import (
    JobRunner,
    JobSpec,
    build_graph,
    execute_job,
    register_algorithm,
    run_many,
    sweep_specs,
)
from repro.parallel.jobs import _ALGORITHMS, algorithm_names
from repro.parallel.runner import _multiprocessing_context
from repro.runtime.csr import numpy_available


def _fork_available():
    context = _multiprocessing_context()
    return context is not None and getattr(context, "get_start_method", lambda: "")() == "fork"


def _specs(count, n=120, degree=6, topology=None):
    """``count`` jobs; ``topology`` pins one graph seed across all of them."""
    return [
        JobSpec(
            algorithm="cor36",
            graph={"family": "regular", "n": n, "degree": degree, "seed": s if topology is None else topology},
            seed=s,
        )
        for s in range(1, count + 1)
    ]


def _deterministic(outcome):
    data = outcome.to_dict()
    data.pop("seconds")
    return data


@pytest.fixture
def scratch_algorithm():
    """Register a throwaway algorithm; unregister afterwards."""
    registered = []

    def add(name, fn):
        register_algorithm(name, fn)
        registered.append(name)
        return fn

    yield add
    for name in registered:
        _ALGORITHMS.pop(name, None)


class TestDeterminism:
    def test_parallel_bit_identical_to_sequential(self):
        if not numpy_available():
            pytest.skip("auto mode falls back to inline without NumPy")
        if not _fork_available():
            pytest.skip("no usable multiprocessing context")
        specs = _specs(6)
        sequential = run_many(specs, workers=1)
        parallel = run_many(specs, workers=4, mode="process")
        assert [_deterministic(o) for o in parallel] == [
            _deterministic(o) for o in sequential
        ]
        assert all(o.ok for o in sequential)

    def test_shared_topology_jobs_bit_identical(self):
        if not numpy_available() or not _fork_available():
            pytest.skip("process mode unavailable")
        # Three jobs on one topology: each worker builds the graph from the
        # spec through its own cache, and must agree with the inline run.
        specs = _specs(3, topology=1)
        inline = run_many(specs, mode="inline")
        process = run_many(specs, workers=2, mode="process")
        assert [_deterministic(o) for o in process] == [_deterministic(o) for o in inline]
        assert all(o.ok for o in inline)

    def test_chunked_dispatch_preserves_order_and_results(self):
        if not numpy_available() or not _fork_available():
            pytest.skip("process mode unavailable")
        # Nine jobs on two workers travel in chunks of two; a timeout makes
        # every chunk one job.
        specs = _specs(9, n=60, degree=4)
        indices = list(range(len(specs)))
        assert [len(c) for c in JobRunner(workers=2)._chunks(indices)] == [2, 2, 2, 2, 1]
        assert [len(c) for c in JobRunner(workers=2, timeout=60)._chunks(indices)] == [1] * 9
        chunked = run_many(specs, workers=2, mode="process")
        single = run_many(specs, workers=2, timeout=60, mode="process")
        inline = run_many(specs, mode="inline")
        expected = [_deterministic(o) for o in inline]
        assert [_deterministic(o) for o in chunked] == expected
        assert [_deterministic(o) for o in single] == expected
        for outcomes in (chunked, single, inline):
            assert [o.spec.seed for o in outcomes] == [s.seed for s in specs]

    def test_inline_mode_matches_process_mode(self):
        specs = _specs(3, n=60, degree=4)
        inline = run_many(specs, mode="inline")
        assert all(o.ok for o in inline)
        if numpy_available() and _fork_available():
            process = run_many(specs, workers=2, mode="process")
            assert [_deterministic(o) for o in process] == [
                _deterministic(o) for o in inline
            ]

    def test_outcome_surface(self):
        outcome = repro.run(
            {"algorithm": "cor36", "graph": {"family": "regular", "n": 80, "degree": 6, "seed": 2}, "seed": 2}
        )
        assert outcome.ok
        graph = build_graph({"family": "regular", "n": 80, "degree": 6, "seed": 2})
        assert outcome.num_colors <= graph.max_degree + 1
        assert len(outcome.colors) == 80
        assert outcome.rounds > 0
        assert outcome.attempts == 1
        assert outcome.to_dict()["job"]["seed"] == 2


class TestTimeout:
    def test_stuck_job_times_out_and_pool_recovers(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("sleeper", sleeper)
        stuck = JobSpec(algorithm="sleeper", graph={"family": "path", "n": 4})
        fine = JobSpec(algorithm="cor36", graph={"family": "regular", "n": 60, "degree": 4, "seed": 1}, seed=1)
        with JobRunner(workers=2, timeout=0.5, retries=0, mode="process") as runner:
            with obs.capture() as tel:
                outcomes = runner.map_jobs([stuck, fine])
            assert not outcomes[0].ok
            assert outcomes[0].timed_out
            assert outcomes[0].error["kind"] == "TimeoutError"
            # The timeout is the record of the stuck worker.
            assert tel.counter_value("parallel.timeouts") == 1
            assert [e["timed_out"] for e in tel.events_of("parallel.job")] == [True, False]
            # The pool was terminated to reclaim the stuck worker; the
            # runner must still finish (and re-run) the undelivered job.
            assert outcomes[1].ok
            # ... and stay usable for the next batch.
            again = runner.submit(fine)
            assert again.ok

    def test_timeout_respects_retry_budget(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("sleeper2", sleeper)
        spec = JobSpec(algorithm="sleeper2", graph={"family": "path", "n": 4})
        with JobRunner(workers=2, timeout=0.3, retries=1, mode="process") as runner:
            outcome = runner.submit(spec)
        assert outcome.timed_out
        assert outcome.attempts == 2  # first try + one bounded retry


class TestOocoreJobGraph:
    def test_job_without_the_tier_fails_before_sharding(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_DIR", str(tmp_path))
        graph = {"family": "regular", "n": 20000, "degree": 8, "seed": 3}
        outcome = repro.run(JobSpec("random-trial", graph=graph, backend="oocore"))
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error["kind"] == "TypeError"
        assert "has no out-of-core tier" in outcome.error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not numpy_available(), reason="sharding needs NumPy")
    def test_custom_algorithm_gets_the_shards(self, tmp_path, monkeypatch, scratch_algorithm):
        from repro.oocore.store import ShardedCSRGraph

        monkeypatch.setenv("REPRO_OOCORE_DIR", str(tmp_path))
        seen = []

        def probe(graph, backend="auto", seed=1):
            seen.append(type(graph))
            raise TypeError("probe ran")

        scratch_algorithm("random-trial-probe", probe)
        # Re-registered under a builtin's name: the record keys on the builtin.
        monkeypatch.setitem(_ALGORITHMS, "random-trial", _ALGORITHMS["random-trial"])
        register_algorithm("random-trial", probe)
        graph = {"family": "regular", "n": 200, "degree": 8, "seed": 3}
        for name in ("random-trial-probe", "random-trial"):
            outcome = repro.run(JobSpec(name, graph=graph, backend="oocore"))
            assert outcome.error["message"] == "probe ran"
        assert seen == [ShardedCSRGraph, ShardedCSRGraph]


class TestRetry:
    # Only a timeout is re-dispatched: a job is a pure function of its
    # spec, so an error would repeat on every attempt.

    def test_persistent_failure_is_bounded(self, scratch_algorithm):
        def boom(graph, backend="auto", seed=1, **params):
            raise RuntimeError("always broken")

        scratch_algorithm("boom", boom)
        outcome = repro.run({"algorithm": "boom"}, retries=2)
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error["kind"] == "RuntimeError"
        assert "always broken" in outcome.error["message"]

    def test_transient_failure_recovers_inline(self, scratch_algorithm):
        calls = {"count": 0}

        def flaky(graph, backend="auto", seed=1, **params):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient")
            from repro.recipes import delta_plus_one_coloring

            return delta_plus_one_coloring(graph, backend=backend)

        scratch_algorithm("flaky", flaky)
        outcome = repro.run({"algorithm": "flaky", "graph": {"family": "regular", "n": 60, "degree": 4, "seed": 1}}, retries=1)
        # The first failure is final: the job ran once and was not re-run.
        assert not outcome.ok
        assert outcome.attempts == 1
        assert outcome.error["message"] == "transient"
        assert calls["count"] == 1

    def test_failure_in_the_pool_runs_once(self, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the algorithm")

        def boom(graph, backend="auto", seed=1, **params):
            raise RuntimeError("always broken")

        scratch_algorithm("boom-pool", boom)
        specs = [JobSpec(algorithm="boom-pool", graph={"family": "path", "n": 4}, seed=s) for s in (1, 2)]
        with JobRunner(workers=2, retries=2, mode="process") as runner:
            outcomes = runner.map_jobs(specs)
        assert [(o.ok, o.attempts) for o in outcomes] == [(False, 1), (False, 1)]

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_misspelled_param_is_a_type_error(self, algorithm):
        # Every registry wrapper names its params, so a typo cannot run as
        # the no-params job under its own id.
        graph = {"family": "regular", "n": 30, "degree": 4, "seed": 1}
        outcome = repro.run(
            {"algorithm": algorithm, "graph": graph, "params": {"visiblity": "local"}}
        )
        assert not outcome.ok
        assert outcome.error["kind"] == "TypeError"
        assert "visiblity" in outcome.error["message"]
        assert outcome.attempts == 1

    def test_unknown_algorithm_is_an_error_outcome(self):
        outcome = repro.run({"algorithm": "no-such-thing"}, retries=0)
        assert not outcome.ok
        assert outcome.error["kind"] == "ValueError"
        assert "unknown algorithm" in outcome.error["message"]

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_removed_numba_backend_is_an_error_outcome(self, algorithm):
        # A stored run or spec naming the removed numba tier must fail with
        # the registry's error for every algorithm, not run on another tier.
        graph = {"family": "regular", "n": 30, "degree": 4, "seed": 1}
        outcome = repro.run(
            {"algorithm": algorithm, "graph": graph, "backend": "numba"}, retries=0
        )
        assert not outcome.ok
        assert outcome.error["kind"] == "ValueError"
        assert "unknown backend" in outcome.error["message"]

    def test_unknown_runner_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown runner mode"):
            JobRunner(mode="threads")


class TestTelemetryStitching:
    def test_worker_segments_merge_into_parent_stream(self):
        specs = _specs(3, n=60, degree=4)
        with obs.capture() as tel:
            outcomes = run_many(specs, workers=2)
        assert all(o.ok for o in outcomes)
        job_events = tel.events_of("parallel.job")
        assert [e["job"] for e in job_events] == [s.job_id for s in specs]
        assert tel.counter_value("parallel.jobs", ok=True) == 3
        # Worker-side engine events arrive tagged with their job id and in
        # job order, with fresh parent-local sequence numbers.
        engine_events = tel.events_of("engine.run")
        assert engine_events, "worker telemetry was not stitched"
        assert {e["job"] for e in engine_events} == {s.job_id for s in specs}
        seqs = [e["seq"] for e in tel.events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        assert all("source_seq" in e for e in engine_events)
        if numpy_available() and _fork_available():
            # Process mode: each job names the pool worker that ran it.
            assert all(e["worker"] not in (None, os.getpid()) for e in job_events)

    def test_no_parent_collector_means_no_worker_capture(self):
        envelope = execute_job(_specs(1, n=40, degree=4)[0], collect_telemetry=False)
        assert envelope["ok"]
        assert envelope["telemetry"] == []


class TestSweep:
    def test_sweep_specs_cartesian_product(self):
        specs = sweep_specs([100, 200], [4, 8], [1, 2, 3])
        assert len(specs) == 12
        assert {(s.graph["n"], s.graph["degree"], s.seed) for s in specs} == {
            (n, d, s) for n in (100, 200) for d in (4, 8) for s in (1, 2, 3)
        }

    def test_run_sweep_outcomes(self):
        outcomes = repro.run_sweep([60], [4], [1, 2], workers=2)
        assert len(outcomes) == 2
        assert all(o.ok for o in outcomes)

    def test_selfstab_job(self):
        outcome = repro.run(
            {"algorithm": "selfstab", "graph": {"family": "regular", "n": 24, "degree": 4, "seed": 1}, "seed": 1}
        )
        assert outcome.ok, outcome.error
        assert outcome.summary["payload"]["legal"]
        assert outcome.num_colors <= 5


class TestSpecRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = JobSpec(
            algorithm="exact",
            graph={"family": "gnp", "n": 50, "prob": 0.2, "seed": 7},
            backend="reference",
            seed=7,
            params={"check_proper_each_round": True},
            label="my-job",
        )
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.job_id == "my-job"

    def test_job_id_is_descriptive(self):
        spec = JobSpec(algorithm="cor36", graph={"family": "regular", "n": 99, "degree": 5}, seed=4)
        assert spec.job_id == "cor36-regular-n99-degree5-s4"

    def test_job_id_tells_params_apart(self):
        graph = {"family": "regular", "n": 99, "degree": 5}
        pairs = [
            ("cor36", None, {"visibility": "set-local"}),
            ("edge", {"exact": True}, {"exact": False}),
            ("one-plus-eps", None, {"k": 3}),
        ]
        for algorithm, first, second in pairs:
            a = JobSpec(algorithm=algorithm, graph=graph, seed=4, params=first)
            b = JobSpec(algorithm=algorithm, graph=graph, seed=4, params=second)
            assert a.job_id != b.job_id
        spec = JobSpec(graph=graph, seed=4, params={"k": 3, "exact": False})
        assert spec.job_id == "cor36-regular-n99-degree5-s4-exact=False-k=3"

    def test_selfstab_delta_param_is_the_rom_bound(self):
        graph = {"family": "gnp-capped", "n": 40, "prob": 0.05, "degree": 20, "seed": 1}
        realized = build_graph(graph).max_degree
        default = repro.run(
            JobSpec(algorithm="selfstab", graph=graph, params={"churn": 2})
        )
        wide = repro.run(
            JobSpec(algorithm="selfstab", graph=graph, params={"churn": 2, "delta": 20})
        )
        assert default.ok and wide.ok
        assert max(default.colors) <= realized < max(wide.colors) <= 20

    def test_unknown_graph_family(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            build_graph({"family": "mobius"})

    def test_edges_family(self):
        graph = build_graph({"family": "edges", "n": 3, "edges": [(0, 1), (1, 2)]})
        assert graph.n == 3 and graph.m == 2
