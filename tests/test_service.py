"""The experiment service: registry durability, lifecycle, live HTTP, versioning.

Covers the service contract end to end:

* registry round-trip — a spec stored in SQLite re-runs bit-identically,
  and rows survive close/reopen (daemon restart durability);
* status transitions — ``queued -> running -> done`` on success, terminal
  ``failed`` / ``timeout`` on error and per-job budget expiry, each logged
  in ``run_events``;
* the live daemon on a unix socket — submit, poll, re-run, list/filter,
  telemetry tail, concurrent submits through :class:`ServiceClient`;
* the tolerant reader — records stamped with a newer ``schema_version``
  warn and read the known fields instead of failing.
"""

import json
import threading
import time
import warnings

import pytest

from repro.parallel.jobs import _ALGORITHMS, JobSpec, register_algorithm
from repro.runtime.results import (
    SCHEMA_VERSION,
    SchemaVersionWarning,
    check_schema_version,
)
from repro.service import ExperimentService, RunRegistry, ServiceClient
from repro.service.app import make_server
from repro.service.client import ServiceError
from repro.service.registry import MIGRATIONS, TERMINAL_STATUSES
from repro.service.wire import decode_body, spec_from_body


def _spec(n=48, seed=3, **extra):
    data = {
        "algorithm": "cor36",
        "graph": {"family": "regular", "n": n, "degree": 4, "seed": seed},
        "seed": seed,
    }
    data.update(extra)
    return JobSpec.from_dict(data)


def _fork_available():
    try:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def _wait_terminal(registry, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = registry.get(run_id)
        if record["status"] in TERMINAL_STATUSES:
            return record
        time.sleep(0.02)
    raise AssertionError("run %d never reached a terminal status" % run_id)


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


@pytest.fixture
def service(tmp_path):
    """An inline-mode service on a scratch registry, executor running."""
    svc = ExperimentService(
        str(tmp_path / "registry.sqlite"), workers=1, mode="inline"
    ).start()
    yield svc
    svc.close()


@pytest.fixture
def live(tmp_path):
    """A daemon serving on a unix socket + a client talking to it."""
    svc = ExperimentService(
        str(tmp_path / "registry.sqlite"), workers=1, mode="inline"
    ).start()
    sock = str(tmp_path / "svc.sock")
    server = make_server(svc, socket_path=sock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServiceClient("unix:" + sock), svc
    server.shutdown()
    server.server_close()
    svc.close()


class _FakeOutcome:
    """A duck-typed JobOutcome for registry-level transition tests."""

    def __init__(self, ok=True, timed_out=False, summary=None, error=None):
        self.ok = ok
        self.timed_out = timed_out
        self.summary = summary
        self.error = error
        self.seconds = 0.01
        self.attempts = 1


class TestRegistry:
    def test_migrations_apply_once_and_persist(self, tmp_path):
        path = str(tmp_path / "registry.sqlite")
        with RunRegistry(path) as registry:
            assert registry.schema_version == len(MIGRATIONS)
            registry.create_run(_spec())
        # Reopening applies nothing new and keeps the stored run.
        with RunRegistry(path) as registry:
            assert registry.schema_version == len(MIGRATIONS)
            (record,) = registry.list_runs()
            assert record["status"] == "queued"

    def test_stored_spec_roundtrips_bit_identically(self, tmp_path):
        spec = _spec(seed=11)
        with RunRegistry(str(tmp_path / "r.sqlite")) as registry:
            record = registry.create_run(spec)
            assert JobSpec.from_dict(record["spec"]).to_dict() == spec.to_dict()
            assert record["job_id"] == spec.job_id
            assert record["schema_version"] == SCHEMA_VERSION

    def test_transitions_are_logged_in_order(self, tmp_path):
        with RunRegistry(str(tmp_path / "r.sqlite")) as registry:
            run_id = registry.create_run(_spec())["id"]
            registry.mark_running(run_id)
            registry.finish(run_id, _FakeOutcome(summary={"rounds": 1}))
            events = registry.events(run_id)
            assert [status for status, _ in events] == ["queued", "running", "done"]
            stamps = [ts for _, ts in events]
            assert stamps == sorted(stamps)
            record = registry.get(run_id)
            assert record["started"] is not None
            assert record["finished"] >= record["started"]

    def test_finish_maps_timeout_and_failure(self, tmp_path):
        with RunRegistry(str(tmp_path / "r.sqlite")) as registry:
            t_id = registry.create_run(_spec(seed=1))["id"]
            record = registry.finish(
                t_id, _FakeOutcome(ok=False, timed_out=True, error={"kind": "TimeoutError"})
            )
            assert record["status"] == "timeout"
            f_id = registry.create_run(_spec(seed=2))["id"]
            record = registry.finish(
                f_id, _FakeOutcome(ok=False, error={"kind": "ValueError", "message": "boom"})
            )
            assert record["status"] == "failed"
            assert record["error"]["kind"] == "ValueError"

    def test_list_filters_and_resolve(self, tmp_path):
        with RunRegistry(str(tmp_path / "r.sqlite")) as registry:
            small = registry.create_run(_spec(n=24, seed=1))
            big = registry.create_run(_spec(n=64, seed=1))
            assert [r["id"] for r in registry.list_runs()] == [big["id"], small["id"]]
            assert [r["id"] for r in registry.list_runs(n=24)] == [small["id"]]
            assert registry.list_runs(delta=4, status="queued", algorithm="cor36")
            assert registry.list_runs(algorithm="nope") == []
            assert registry.list_runs(since=time.time() + 60) == []
            assert registry.list_runs(limit=1) == [registry.get(big["id"])]
            # resolve: numeric ids and job-id strings (latest run wins).
            assert registry.resolve(str(small["id"]))["id"] == small["id"]
            again = registry.create_run(_spec(n=24, seed=1))
            assert registry.resolve(small["job_id"])["id"] == again["id"]
            assert registry.resolve("no-such-job") is None


class TestServiceExecution:
    def test_submit_executes_and_persists(self, service):
        record = service.submit(_spec())
        assert record["status"] == "queued"
        done = _wait_terminal(service.registry, record["id"])
        assert done["status"] == "done"
        assert done["summary"]["num_colors"] <= 5
        assert done["summary"]["schema_version"] == SCHEMA_VERSION
        events = [s for s, _ in service.registry.events(record["id"])]
        assert events == ["queued", "running", "done"]

    def test_rerun_is_bit_identical(self, service):
        first = _wait_terminal(service.registry, service.submit(_spec(seed=7))["id"])
        second = _wait_terminal(service.registry, service.rerun(first["id"])["id"])
        assert second["rerun_of"] == first["id"]
        assert second["spec"] == first["spec"]
        assert second["summary"] == first["summary"]

    def test_telemetry_file_streams_and_seals(self, service):
        import os

        done = _wait_terminal(service.registry, service.submit(_spec())["id"])
        path = service.telemetry_path(done)
        assert os.path.exists(path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        kinds = {r.get("type") for r in records}
        assert {"run.started", "run.finished", "snapshot"} <= kinds
        assert records[-1]["type"] == "snapshot"

    def test_failing_algorithm_reaches_failed(self, service, scratch_algorithm):
        def explode(graph, backend="auto", seed=1, **params):
            raise ValueError("deliberate failure")

        scratch_algorithm("svc-explode", explode)
        spec = JobSpec(algorithm="svc-explode", graph={"family": "path", "n": 4})
        record = _wait_terminal(service.registry, service.submit(spec)["id"])
        assert record["status"] == "failed"
        assert record["error"]["kind"] == "ValueError"
        events = [s for s, _ in service.registry.events(record["id"])]
        assert events[0] == "queued" and events[-1] == "failed"
        assert "running" in events

    def test_unparseable_stored_spec_reaches_failed(self, service):
        # A spec naming no registered algorithm still terminates the row.
        spec = JobSpec(algorithm="never-registered", graph={"family": "path", "n": 4})
        record = _wait_terminal(service.registry, service.submit(spec)["id"])
        assert record["status"] == "failed"

    def test_timeout_reaches_timeout_status(self, tmp_path, scratch_algorithm):
        if not _fork_available():
            pytest.skip("fork start method required to inherit the sleeper")

        def sleeper(graph, backend="auto", seed=1, **params):
            time.sleep(30)

        scratch_algorithm("svc-sleeper", sleeper)
        svc = ExperimentService(
            str(tmp_path / "registry.sqlite"),
            workers=2,
            timeout=0.3,
            retries=0,
            mode="process",
        ).start()
        try:
            spec = JobSpec(algorithm="svc-sleeper", graph={"family": "path", "n": 4})
            record = _wait_terminal(svc.registry, svc.submit(spec)["id"], timeout=90)
            assert record["status"] == "timeout"
            events = [s for s, _ in svc.registry.events(record["id"])]
            assert events[-1] == "timeout" and "running" in events
        finally:
            svc.close()

    def test_registry_survives_service_restart(self, tmp_path):
        db = str(tmp_path / "registry.sqlite")
        svc = ExperimentService(db, workers=1, mode="inline").start()
        try:
            first = _wait_terminal(svc.registry, svc.submit(_spec(seed=5))["id"])
            second = _wait_terminal(svc.registry, svc.rerun(first["id"])["id"])
        finally:
            svc.close()
        # A fresh daemon over the same file sees both runs, still done.
        svc = ExperimentService(db, workers=1, mode="inline").start()
        try:
            records = svc.registry.list_runs()
            assert {r["id"] for r in records} == {first["id"], second["id"]}
            assert all(r["status"] == "done" for r in records)
            third = _wait_terminal(svc.registry, svc.rerun(first["id"])["id"])
            assert third["summary"] == first["summary"]
        finally:
            svc.close()


class TestLiveServer:
    def test_health(self, live):
        client, _ = live
        payload = client.health()
        assert payload["status"] == "ok"
        assert "cor36" in payload["algorithms"]

    def test_submit_poll_rerun_roundtrip(self, live):
        client, _ = live
        run = client.submit(_spec(seed=9).to_dict(), wait=True, timeout=60)
        assert run["status"] == "done"
        again = client.rerun(run["id"], wait=True, timeout=60)
        assert again["status"] == "done"
        assert again["rerun_of"] == run["id"]
        assert again["summary"] == run["summary"]
        listed = client.runs(status="done")
        assert {r["id"] for r in listed} == {run["id"], again["id"]}
        assert client.runs(n=48, algorithm="cor36")
        assert client.runs(algorithm="nope") == []
        assert client.get(run["job_id"])["id"] == again["id"]

    def test_submit_unknown_algorithm_is_rejected(self, live):
        client, _ = live
        with pytest.raises(ServiceError) as info:
            client.submit({"algorithm": "nope", "graph": {"family": "path", "n": 4}})
        assert info.value.status == 400
        assert "nope" in info.value.message

    def test_unknown_run_is_404(self, live):
        client, _ = live
        with pytest.raises(ServiceError) as info:
            client.get(999)
        assert info.value.status == 404
        with pytest.raises(ServiceError):
            client.rerun(999)

    def test_tail_returns_the_runs_stream(self, live):
        client, _ = live
        run = client.submit(_spec().to_dict(), wait=True, timeout=60)
        records = list(client.tail(run["id"]))
        kinds = {r.get("type") for r in records}
        assert {"run.started", "run.finished", "snapshot"} <= kinds

    def test_tail_follow_ends_with_the_run(self, live, scratch_algorithm):
        client, _ = live

        def dawdle(graph, backend="auto", seed=1, **params):
            from repro.recipes import delta_plus_one_coloring

            time.sleep(0.3)
            return delta_plus_one_coloring(graph)

        scratch_algorithm("svc-dawdle", dawdle)
        run = client.submit(
            {"algorithm": "svc-dawdle", "graph": {"family": "cycle", "n": 12}}
        )
        records = list(client.tail(run["id"], follow=True))
        assert any(r.get("type") == "run.finished" for r in records)
        assert client.get(run["id"])["status"] == "done"

    def test_concurrent_submits_all_complete(self, live):
        client, svc = live
        results, errors = [], []

        def submit(seed):
            try:
                results.append(client.submit(_spec(n=24, seed=seed).to_dict()))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({r["id"] for r in results}) == 8
        for record in results:
            final = client.wait(record["id"], timeout=120)
            assert final["status"] == "done"
        assert len(client.runs(status="done", n=24)) == 8

    @pytest.mark.parametrize(
        "algorithm, flags",
        [("cor36", []), ("exact", ["--set-local"])],
    )
    def test_cli_library_and_service_agree(self, live, algorithm, flags):
        # One spec through every front door: `color --json`, repro.api.run,
        # and the daemon (by client and by `submit`) give equal summaries.
        import io

        from repro.api import run
        from repro.cli import main

        client, _ = live
        argv = ["--n", "48", "--degree", "4", "--seed", "3", "--algorithm", algorithm]

        def cli(command):
            out = io.StringIO()
            assert main(command, out=out) == 0
            return json.loads(out.getvalue())

        (outcome,) = cli(["color", "--json"] + argv + flags)
        spec = JobSpec.from_dict(outcome["job"])
        assert spec.params == ({"visibility": "set-local"} if flags else {})
        library = run(spec)
        assert library.ok
        record = client.submit(spec.to_dict(), wait=True, timeout=60)
        assert record["status"] == "done"
        submitted = cli(
            ["submit", "--address", client.address, "--wait", "--json"] + argv
        )
        assert submitted["status"] == "done"
        assert outcome["summary"] == library.summary == record["summary"]
        if not flags:  # `submit` has no --set-local
            assert submitted["summary"] == record["summary"]


class TestSchemaVersioning:
    def test_spec_and_summary_are_stamped(self):
        assert _spec().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_newer_spec_warns_and_reads_known_fields(self):
        data = _spec(seed=4).to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        data["from_the_future"] = {"ignored": True}
        with pytest.warns(SchemaVersionWarning, match="newer"):
            spec = JobSpec.from_dict(data)
        assert spec.seed == 4
        assert spec.algorithm == "cor36"

    def test_non_integer_stamp_warns(self):
        with pytest.warns(SchemaVersionWarning, match="non-integer"):
            assert check_schema_version({"schema_version": "v2"}) == SCHEMA_VERSION

    def test_current_stamp_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_schema_version({"schema_version": SCHEMA_VERSION})
            JobSpec.from_dict(_spec().to_dict())

    def test_wire_decode_applies_the_tolerant_reader(self):
        body = json.dumps(
            {"schema_version": SCHEMA_VERSION + 3, "status": "done"}
        ).encode()
        with pytest.warns(SchemaVersionWarning):
            assert decode_body(body)["status"] == "done"
        with pytest.raises(ValueError):
            decode_body(b"not json")

    def test_submit_body_validation(self):
        spec = spec_from_body({"spec": _spec().to_dict()})
        assert spec.algorithm == "cor36"
        assert spec_from_body(_spec().to_dict()).job_id == spec.job_id
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec_from_body({"algorithm": "nope", "graph": {"family": "path", "n": 4}})
        with pytest.raises(ValueError):
            spec_from_body(["not", "a", "dict"])
