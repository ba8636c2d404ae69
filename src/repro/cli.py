"""Command-line interface.

Examples::

    repro-coloring color --family regular --n 96 --degree 8 --algorithm exact
    repro-coloring color --family gnp --n 80 --prob 0.1 --set-local
    repro-coloring color --n 2000 --degree 32 --telemetry run.jsonl
    repro-coloring color --n 500 --degree 8 --seeds 4 --workers 4
    repro-coloring sweep --n 200,500 --degree 8,16 --seeds 3 --workers 4
    repro-coloring edge-color --family regular --n 64 --degree 6
    repro-coloring mis --family grid --rows 8 --cols 9
    repro-coloring selfstab --n 40 --delta 6 --corruptions 12 --churn 2
    repro-coloring obs summary run.jsonl
    repro-coloring obs timeline run.jsonl -o trace.json
    repro-coloring serve --db registry.sqlite --socket svc.sock
    repro-coloring submit --address unix:svc.sock --n 256 --degree 8 --wait
    repro-coloring runs --address unix:svc.sock --status done --limit 10
    repro-coloring rerun 3 --address unix:svc.sock --wait
    repro-coloring tail 3 --address unix:svc.sock --follow
"""

import argparse
import contextlib
import json
import os
import sys

from repro import obs
from repro.analysis import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
    is_proper_edge_coloring,
)
from repro.api import JobSpec, ServiceClient, ServiceError, run_many
from repro.apps import locally_iterative_maximal_matching, locally_iterative_mis
from repro.mathutil import log_star
from repro.parallel import build_graph, sweep_specs
from repro.parallel.jobs import job_graph
from repro.runtime.backends import backend_names

__all__ = ["main", "build_parser"]

#: CLI algorithm name -> job-registry algorithm name.
_JOB_ALGORITHMS = {"cor36": "cor36", "exact": "exact", "sublinear": "one-plus-eps"}


def _add_graph_arguments(parser):
    parser.add_argument(
        "--family",
        choices=["regular", "gnp", "cycle", "path", "grid", "unit-disk", "tree"],
        default="regular",
        help="workload graph family",
    )
    parser.add_argument("--n", type=int, default=64, help="number of vertices")
    parser.add_argument("--degree", type=int, default=6, help="degree (regular)")
    parser.add_argument("--prob", type=float, default=0.1, help="edge prob (gnp)")
    parser.add_argument("--rows", type=int, default=8, help="grid rows")
    parser.add_argument("--cols", type=int, default=8, help="grid cols")
    parser.add_argument("--radius", type=float, default=0.15, help="unit-disk radius")
    parser.add_argument("--seed", type=int, default=1, help="generator seed")


def _graph_spec(args):
    """The :func:`repro.parallel.build_graph` dict matching ``args``."""
    spec = {"family": args.family, "n": args.n, "seed": args.seed}
    if args.family == "regular":
        spec["degree"] = args.degree
    elif args.family == "gnp":
        spec["prob"] = args.prob
    elif args.family == "grid":
        spec["rows"], spec["cols"] = args.rows, args.cols
    elif args.family == "unit-disk":
        spec["radius"] = args.radius
    return spec


def _add_oocore_arguments(parser):
    parser.add_argument(
        "--oocore",
        action="store_true",
        help="run out of core: stream the graph into memory-mapped CSR "
        "shards and use the partition-aware engine (backend=oocore)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="shard count for --oocore (default: a slot-volume heuristic, "
        "env REPRO_OOCORE_SHARDS)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="resident-byte budget for --oocore, e.g. 2G or 512M "
        "(env REPRO_OOCORE_BUDGET); the engine refuses runs that "
        "would not fit",
    )


@contextlib.contextmanager
def _oocore_env(args):
    """Fold --oocore/--shards/--memory-budget into the backend + env knobs.

    The env variables are the single source of truth the oocore tier reads
    (so jobs forked by the runner inherit them); the flags set them for the
    command's duration and the caller's values come back afterwards.
    """
    env = {}
    if getattr(args, "shards", None):
        env["REPRO_OOCORE_SHARDS"] = str(args.shards)
    if getattr(args, "memory_budget", None):
        from repro.oocore.store import parse_bytes

        env["REPRO_OOCORE_BUDGET"] = str(parse_bytes(args.memory_budget))
    if getattr(args, "oocore", False):
        args.backend = "oocore"
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_jobs(args, out, specs, workers=1, **runner):
    """Run ``specs`` through :func:`repro.api.run_many`; outcomes in order.

    With ``--telemetry PATH`` a live collector wraps the run, and its JSONL
    event stream (plus the aggregate snapshot line) is written to ``PATH``.
    """
    path = getattr(args, "telemetry", None)
    if not path:
        return run_many(specs, workers=workers, **runner)
    with obs.capture() as telemetry:
        outcomes = run_many(specs, workers=workers, **runner)
    lines = obs.write_jsonl(telemetry, path)
    if not getattr(args, "json", False):
        out.write("telemetry: wrote %d records to %s\n" % (lines, path))
    return outcomes


def _print_outcomes(args, out, outcomes):
    """Render a list of job outcomes (table or JSON); returns the exit code."""
    failures = [o for o in outcomes if not o.ok]
    if getattr(args, "json", False):
        out.write(json.dumps([o.to_dict() for o in outcomes], indent=2) + "\n")
        return 1 if failures else 0
    for o in outcomes:
        if o.ok:
            colors = "-" if o.num_colors is None else o.num_colors
            out.write(
                "%-40s ok  rounds=%-5d colors=%-4s %.3fs\n"
                % (o.spec.job_id, o.rounds, colors, o.seconds)
            )
        else:
            state = "timeout" if o.timed_out else o.error["kind"]
            out.write(
                "%-40s FAILED (%s, %d attempt%s)\n"
                % (o.spec.job_id, state, o.attempts, "s" if o.attempts > 1 else "")
            )
    out.write(
        "jobs: %d ok, %d failed\n" % (len(outcomes) - len(failures), len(failures))
    )
    return 1 if failures else 0


def _cmd_color(args, out):
    workers = args.workers or 1
    params = {"visibility": "set-local"} if args.set_local else None
    specs = [
        JobSpec(
            algorithm=_JOB_ALGORITHMS[args.algorithm],
            graph=dict(_graph_spec(args), seed=seed),
            backend=args.backend,
            seed=seed,
            params=params,
        )
        for seed in range(args.seed, args.seed + max(1, args.seeds))
    ]
    outcomes = _run_jobs(args, out, specs, workers)
    if workers > 1 or len(specs) > 1 or not outcomes[0].ok:
        return _print_outcomes(args, out, outcomes)
    graph = job_graph(specs[0])
    colors = outcomes[0].colors
    assert is_proper_coloring(graph, colors)
    if args.json:
        return _print_outcomes(args, out, outcomes)
    payload = outcomes[0].summary["payload"]
    # The Theorem 6.4 route reports stage_rounds, the pipelines stages.
    rounds = payload.get("stage_rounds") or {
        stage["name"]: stage["rounds"] for stage in payload["stages"]
    }
    out.write(
        "graph: n=%d m=%d Delta=%d (log* n = %d)\n"
        % (graph.n, graph.m, graph.max_degree, log_star(graph.n))
    )
    out.write("colors used: %d\n" % len(set(colors)))
    out.write("max color:   %d\n" % (max(colors) if colors else 0))
    for stage, r in rounds.items():
        out.write("rounds[%s] = %d\n" % (stage, r))
    out.write("total rounds: %d\n" % sum(rounds.values()))
    return 0


def _cmd_edge_color(args, out):
    spec = JobSpec(
        algorithm="edge",
        graph=_graph_spec(args),
        seed=args.seed,
        params={"exact": False} if args.no_exact else None,
    )
    (outcome,) = _run_jobs(args, out, [spec])
    if not outcome.ok:
        return _print_outcomes(args, out, [outcome])
    graph = job_graph(spec)
    payload = outcome.summary["payload"]
    edge_colors = {
        tuple(int(v) for v in key.split("-")): color
        for key, color in payload["edge_colors"].items()
    }
    assert is_proper_edge_coloring(graph, edge_colors)
    if args.json:
        return _print_outcomes(args, out, [outcome])
    out.write(
        "graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree)
    )
    out.write(
        "edge colors: %d (palette %d, 2*Delta-1 = %d)\n"
        % (outcome.num_colors, payload["palette_size"], max(1, 2 * graph.max_degree - 1))
    )
    out.write("CONGEST rounds: %d\n" % payload["total_rounds"])
    out.write("bits per edge:  %d\n" % payload["total_bits_per_edge"])
    out.write("max message:    %d bits\n" % payload["max_message_bits"])
    return 0


def _cmd_mis(args, out):
    graph = build_graph(_graph_spec(args))
    result = locally_iterative_mis(graph)
    assert is_maximal_independent_set(graph, result.members)
    out.write("graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree))
    out.write("MIS size: %d\n" % len(result.members))
    out.write("rounds: %d (coloring %d + sweep %d)\n"
              % (result.total_rounds, result.coloring_rounds, result.sweep_rounds))
    return 0


def _cmd_matching(args, out):
    graph = build_graph(_graph_spec(args))
    result = locally_iterative_maximal_matching(graph)
    assert is_maximal_matching(graph, result.edges)
    out.write("graph: n=%d m=%d Delta=%d\n" % (graph.n, graph.m, graph.max_degree))
    out.write("matching size: %d\n" % len(result.edges))
    out.write("rounds: %d (edge coloring %d + sweep %d)\n"
              % (result.total_rounds, result.coloring_rounds, result.sweep_rounds))
    return 0


def _cmd_trace(args, out):
    from repro.core import (
        AdditiveGroupColoring,
        ExactDeltaPlusOneHybrid,
        ThreeDimensionalAG,
    )
    from repro.runtime.backends import resolve_backend
    from repro.trace import format_trace, trace_run

    graph = build_graph(_graph_spec(args))
    initial = list(range(graph.n))
    palette = graph.n
    if args.stage == "hybrid":
        # The hybrid wants a near-(2 Delta)-sized palette: AG first.
        engine = resolve_backend("engine", args.backend)(graph)
        ag = AdditiveGroupColoring()
        pre = engine.run(ag, initial)
        initial, palette = pre.int_colors, ag.out_palette_size
        stage = ExactDeltaPlusOneHybrid()
    elif args.stage == "3ag":
        stage = ThreeDimensionalAG()
    else:
        stage = AdditiveGroupColoring()
    trace = trace_run(
        graph, stage, initial, in_palette_size=palette, backend=args.backend
    )
    out.write(format_trace(trace, graph, title="%s stage" % args.stage) + "\n")
    return 0


def _cmd_selfstab(args, out):
    from repro.selfstab import SelfStabExactColoring

    # G(n, p) with the --delta degree cap, which is also the ROM-resident
    # Delta bound churn may rewire up to.
    spec = JobSpec(
        algorithm="selfstab",
        graph={"family": "gnp-capped", "n": args.n, "prob": args.prob,
               "degree": args.delta, "seed": args.seed},
        backend=args.backend,
        seed=args.seed,
        params={"bursts": args.bursts, "corruptions": args.corruptions,
                "churn": args.churn, "delta": args.delta},
    )
    (outcome,) = _run_jobs(args, out, [spec])
    if not outcome.ok:
        return _print_outcomes(args, out, [outcome])
    payload = outcome.summary["payload"]
    bound = SelfStabExactColoring(args.n, args.delta).stabilization_bound()
    out.write("cold start: stabilized in %d rounds (bound budget %d)\n"
              % (payload["cold_rounds"], bound))
    # A recovery ends only on a legal fixed point (or the job fails).
    for burst, rounds in enumerate(payload["burst_rounds"], 1):
        out.write("burst %d: re-stabilized in %d rounds (legal: %s)\n"
                  % (burst, rounds, payload["legal"]))
    colors = payload["colors"]
    palette = (max(colors) + 1) if colors else 0
    out.write("final palette: %d <= Delta+1 = %d\n" % (palette, args.delta + 1))
    return 0


def _cmd_sweep(args, out):
    """Run an ``ns x degrees x seeds`` grid through the sharded job runner."""
    specs = sweep_specs(
        [int(value) for value in args.n.split(",")],
        [int(value) for value in args.degree.split(",")],
        range(args.seed, args.seed + args.seeds),
        algorithm=args.algorithm,
        backend=args.backend,
        family=args.family,
        params={"k": args.k} if args.k else None,
    )
    outcomes = _run_jobs(
        args, out, specs, args.workers or 1, timeout=args.timeout,
        retries=args.retries,
    )
    return _print_outcomes(args, out, outcomes)


def _load_records(paths):
    """Records from one or more telemetry JSONL files (``-`` reads stdin).

    A single input is returned verbatim.  Several inputs are merged through a
    fresh :class:`~repro.obs.Telemetry` via :meth:`~repro.obs.Telemetry.absorb`
    — snapshots fold together, events re-sequence while keeping their original
    flight-recorder stamps — so a parent stream plus per-worker streams read
    as one coherent run.
    """
    batches = [
        obs.read_jsonl(sys.stdin if path == "-" else path) for path in paths
    ]
    if len(batches) == 1:
        return batches[0]
    merged = obs.Telemetry()
    for batch in batches:
        merged.absorb(batch)
    return list(merged.events) + [merged.snapshot()]


def _client(args):
    """A :class:`~repro.service.client.ServiceClient` for ``--address``."""
    return ServiceClient(args.address)


def _print_run_record(args, out, record):
    """Render one run record (one table line, or JSON with ``--json``)."""
    if args.json:
        out.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    summary = record.get("summary") or {}
    detail = ""
    if record["status"] == "done":
        detail = " rounds=%-5s colors=%-4s" % (
            summary.get("rounds"),
            summary.get("num_colors"),
        )
    elif record.get("error"):
        detail = " %s" % record["error"]["kind"]
    out.write(
        "run %-4d %-8s %-40s%s\n"
        % (record["id"], record["status"], record["job_id"], detail)
    )


@contextlib.contextmanager
def _service_errors(out):
    """Map daemon/transport errors to exit-code prose."""
    try:
        yield
    except ServiceError as exc:
        out.write("error: %s\n" % exc)
        raise SystemExit(1)
    except (ConnectionError, FileNotFoundError, OSError) as exc:
        out.write("error: cannot reach the service: %s\n" % exc)
        raise SystemExit(1)


def _cmd_serve(args, out):
    """``repro-coloring serve`` — run the experiment daemon until interrupted."""
    from repro.service.app import serve

    def _ready(address):
        out.write("serving on %s (registry %s)\n" % (address, args.db))
        out.flush()

    serve(
        args.db,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        telemetry_dir=args.telemetry_dir,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        mode=args.mode,
        verbose=args.verbose,
        ready=_ready,
    )
    return 0


def _cmd_submit(args, out):
    """``repro-coloring submit`` — queue one job on a running daemon."""
    spec = JobSpec(
        algorithm=args.algorithm,
        graph=_graph_spec(args),
        backend=args.backend,
        seed=args.seed,
        label=args.label,
    ).to_dict()
    with _service_errors(out):
        record = _client(args).submit(spec, wait=args.wait, timeout=args.wait_timeout)
    _print_run_record(args, out, record)
    return 0 if record["status"] in ("queued", "running", "done") else 1


def _cmd_runs(args, out):
    """``repro-coloring runs`` — list/filter the daemon's run registry."""
    with _service_errors(out):
        records = _client(args).runs(
            algorithm=args.algorithm,
            n=args.n,
            delta=args.delta,
            status=args.status,
            since=args.since,
            job_id=args.job_id,
            limit=args.limit,
        )
    if args.json:
        out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
        return 0
    for record in records:
        _print_run_record(args, out, record)
    out.write("%d run(s)\n" % len(records))
    return 0


def _cmd_rerun(args, out):
    """``repro-coloring rerun`` — re-execute a stored run by id or job id."""
    with _service_errors(out):
        record = _client(args).rerun(args.ref, wait=args.wait, timeout=args.wait_timeout)
    _print_run_record(args, out, record)
    return 0 if record["status"] in ("queued", "running", "done") else 1


def _cmd_tail(args, out):
    """``repro-coloring tail`` — stream a run's telemetry JSONL records."""
    with _service_errors(out):
        for record in _client(args).tail(args.ref, follow=args.follow):
            out.write(json.dumps(record, sort_keys=True) + "\n")
            out.flush()
    return 0


def _cmd_obs_summary(args, out):
    records = _load_records(args.paths)
    out.write(obs.summary_table(records))
    return 0


def _cmd_obs_timeline(args, out):
    records = _load_records(args.paths)
    if args.output and args.output != "-":
        events = obs.write_chrome_trace(records, args.output)
        out.write("timeline: wrote %d trace events to %s\n" % (events, args.output))
    else:
        obs.write_chrome_trace(records, out)
    return 0


def _cmd_obs_prom(args, out):
    records = obs.read_jsonl(args.path)
    snapshots = [r for r in records if r.get("type") == "snapshot"]
    if not snapshots:
        out.write("no snapshot record in %s\n" % args.path)
        return 1
    out.write(obs.prometheus_text(snapshots[-1]))
    return 0


def build_parser():
    """Construct the argparse parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-coloring",
        description="Locally-iterative distributed coloring (PODC'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    color = sub.add_parser("color", help="(Delta+1)-vertex-coloring")
    _add_graph_arguments(color)
    color.add_argument(
        "--algorithm",
        choices=["cor36", "exact", "sublinear"],
        default="cor36",
        help="cor36 = Linial+AG+reduction; exact = Section 7 hybrid; "
        "sublinear = Theorem 6.4 arbdefective route",
    )
    color.add_argument(
        "--set-local",
        action="store_true",
        help="run in the SET-LOCAL model (cor36 and exact only)",
    )
    color.add_argument(
        "--backend",
        choices=backend_names("engine"),
        default="auto",
        help="engine backend: auto picks the vectorized NumPy engine when "
        "available (install with `pip install repro[fast]`)",
    )
    color.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard across N worker processes (with --seeds > 1)",
    )
    color.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="K",
        help="run K seeds (seed, seed+1, ...) through the job runner",
    )
    color.add_argument(
        "--json", action="store_true",
        help="emit the job outcomes as JSON (the sweep schema)",
    )
    color.add_argument(
        "--telemetry",
        metavar="PATH",
        help="collect structured telemetry for the run and write it as "
        "JSONL to PATH (inspect with `repro-coloring obs summary PATH`)",
    )
    _add_oocore_arguments(color)
    color.set_defaults(func=_cmd_color)

    sweep = sub.add_parser(
        "sweep", help="parameter sweep through the sharded job runner"
    )
    sweep.add_argument(
        "--n", default="64,128", help="comma-separated vertex counts"
    )
    sweep.add_argument("--degree", default="6", help="comma-separated degrees")
    sweep.add_argument("--seeds", type=int, default=1, metavar="K",
                       help="seeds per grid point (seed, seed+1, ...)")
    sweep.add_argument("--seed", type=int, default=1, help="first seed")
    sweep.add_argument(
        "--family",
        choices=["regular", "gnp", "cycle", "path", "tree"],
        default="regular",
        help="workload graph family",
    )
    sweep.add_argument(
        "--algorithm",
        default="cor36",
        help="job algorithm name (see repro.parallel.algorithm_names)",
    )
    sweep.add_argument(
        "--backend", choices=backend_names("engine"), default="auto",
        help="engine backend for every job",
    )
    sweep.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="Maus tradeoff knob for the sublinear family: O(k*Delta) "
             "colors against O(Delta/k) + log*(n) rounds (algorithms "
             "one-plus-eps, sublinear, defective)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker process count",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (process mode only)",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="re-dispatches of a timed-out job (a failed job runs once)",
    )
    sweep.add_argument(
        "--json", action="store_true", help="emit every outcome as JSON"
    )
    sweep.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write the merged parent+worker telemetry stream to PATH",
    )
    _add_oocore_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    edge = sub.add_parser("edge-color", help="(2*Delta-1)-edge-coloring (CONGEST)")
    _add_graph_arguments(edge)
    edge.add_argument(
        "--no-exact", action="store_true", help="stop at O(Delta) colors"
    )
    edge.add_argument(
        "--json", action="store_true",
        help="emit the job outcomes as JSON (the sweep schema)",
    )
    edge.set_defaults(func=_cmd_edge_color)

    mis = sub.add_parser("mis", help="maximal independent set")
    _add_graph_arguments(mis)
    mis.set_defaults(func=_cmd_mis)

    matching = sub.add_parser("matching", help="maximal matching")
    _add_graph_arguments(matching)
    matching.set_defaults(func=_cmd_matching)

    trace = sub.add_parser("trace", help="round-by-round trace of the AG stage")
    _add_graph_arguments(trace)
    trace.add_argument(
        "--stage",
        choices=["ag", "3ag", "hybrid"],
        default="ag",
        help="which AG-family stage to trace",
    )
    trace.add_argument(
        "--backend",
        choices=backend_names("engine"),
        default="auto",
        help="engine backend used to record the trace (histories are "
        "bit-for-bit identical across backends)",
    )
    trace.set_defaults(func=_cmd_trace)

    selfstab = sub.add_parser("selfstab", help="self-stabilizing coloring demo")
    selfstab.add_argument("--n", type=int, default=40)
    selfstab.add_argument("--delta", type=int, default=6)
    selfstab.add_argument("--prob", type=float, default=0.15)
    selfstab.add_argument("--seed", type=int, default=1)
    selfstab.add_argument("--bursts", type=int, default=3)
    selfstab.add_argument("--corruptions", type=int, default=10)
    selfstab.add_argument("--churn", type=int, default=0)
    selfstab.add_argument(
        "--backend",
        choices=backend_names("selfstab"),
        default="auto",
        help="self-stabilization engine backend: auto picks the vectorized "
        "NumPy engine when available",
    )
    selfstab.add_argument(
        "--telemetry",
        metavar="PATH",
        help="collect structured telemetry for the demo and write it as "
        "JSONL to PATH",
    )
    selfstab.set_defaults(func=_cmd_selfstab)

    serve = sub.add_parser(
        "serve", help="run the experiment daemon over a durable run registry"
    )
    serve.add_argument(
        "--db", default="registry.sqlite", metavar="PATH",
        help="SQLite run-registry file (created, with migrations, on first use)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix domain socket instead of TCP",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=8357, help="TCP bind port")
    serve.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="per-run telemetry JSONL directory (default: telemetry/ beside --db)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the daemon's job runner",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (process mode only)",
    )
    serve.add_argument(
        "--retries", type=int, default=1,
        help="re-dispatches of a timed-out job (a failed job runs once)",
    )
    serve.add_argument(
        "--mode", choices=["auto", "process", "inline"], default="auto",
        help="job-runner execution mode",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.set_defaults(func=_cmd_serve)

    def _add_client_arguments(client_parser):
        client_parser.add_argument(
            "--address", default="127.0.0.1:8357", metavar="ADDR",
            help="daemon address: host:port or unix:PATH",
        )

    submit = sub.add_parser("submit", help="queue one job on a running daemon")
    _add_client_arguments(submit)
    _add_graph_arguments(submit)
    submit.add_argument(
        "--algorithm", default="cor36",
        help="job algorithm name (see repro.api.algorithm_names)",
    )
    submit.add_argument(
        "--backend", default="auto", help="engine backend for the job"
    )
    submit.add_argument("--label", default=None, help="explicit job id")
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the run is terminal and print the finished record",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (the run itself keeps going)",
    )
    submit.add_argument("--json", action="store_true", help="print the record as JSON")
    submit.set_defaults(func=_cmd_submit)

    runs = sub.add_parser("runs", help="list/filter the daemon's run registry")
    _add_client_arguments(runs)
    runs.add_argument("--algorithm", default=None, help="filter: algorithm name")
    runs.add_argument("--n", type=int, default=None, help="filter: vertex count")
    runs.add_argument(
        "--delta", type=int, default=None,
        help="filter: graph degree bound (the spec's degree parameter)",
    )
    runs.add_argument(
        "--status", default=None,
        choices=["queued", "running", "done", "failed", "timeout"],
        help="filter: run status",
    )
    runs.add_argument(
        "--since", type=float, default=None, metavar="EPOCH",
        help="filter: runs created at or after this unix timestamp",
    )
    runs.add_argument("--job-id", default=None, help="filter: exact job id")
    runs.add_argument("--limit", type=int, default=None, help="newest K runs only")
    runs.add_argument("--json", action="store_true", help="print records as JSON")
    runs.set_defaults(func=_cmd_runs)

    rerun = sub.add_parser(
        "rerun", help="re-execute a stored run from its registry spec"
    )
    _add_client_arguments(rerun)
    rerun.add_argument("ref", help="run id, or job-id string (latest matching run)")
    rerun.add_argument(
        "--wait", action="store_true",
        help="poll until the new run is terminal and print the finished record",
    )
    rerun.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SECONDS",
        help="give up waiting after this long (the run itself keeps going)",
    )
    rerun.add_argument("--json", action="store_true", help="print the record as JSON")
    rerun.set_defaults(func=_cmd_rerun)

    tail = sub.add_parser("tail", help="stream a run's telemetry JSONL records")
    _add_client_arguments(tail)
    tail.add_argument("ref", help="run id, or job-id string (latest matching run)")
    tail.add_argument(
        "-f", "--follow", action="store_true",
        help="keep the stream open while the run is in flight (live tail)",
    )
    tail.set_defaults(func=_cmd_tail)

    obs_parser = sub.add_parser(
        "obs", help="inspect telemetry JSONL files written by --telemetry"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="human-readable summary of a telemetry stream"
    )
    obs_summary.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL file(s); '-' reads stdin, several files are "
        "merged into one stream",
    )
    obs_summary.set_defaults(func=_cmd_obs_summary)
    obs_timeline = obs_sub.add_parser(
        "timeline",
        help="export a Chrome-trace / Perfetto timeline (open in ui.perfetto.dev)",
    )
    obs_timeline.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="telemetry JSONL file(s); '-' reads stdin, several files are "
        "merged into one stream",
    )
    obs_timeline.add_argument(
        "-o",
        "--output",
        metavar="TRACE",
        help="write the trace JSON here instead of stdout",
    )
    obs_timeline.set_defaults(func=_cmd_obs_timeline)
    obs_prom = obs_sub.add_parser(
        "prom", help="Prometheus text exposition of the aggregate snapshot"
    )
    obs_prom.add_argument("path", help="telemetry JSONL file")
    obs_prom.set_defaults(func=_cmd_obs_prom)

    return parser


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "set_local", False) and args.algorithm == "sublinear":
        parser.error(
            "--set-local is not supported with --algorithm sublinear: "
            "the Theorem 6.4 route runs in LOCAL only"
        )
    with _oocore_env(args):
        return args.func(args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
