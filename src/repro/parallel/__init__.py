"""Multi-process sharded job execution.

The experiment layer of the reproduction: describe runs as picklable
:class:`JobSpec` values (graph family, algorithm, backend, seed), then
execute them — one at a time through :func:`run`, or sharded across a
process pool through :func:`run_many` / :func:`run_sweep` — with chunked
dispatch, per-job timeouts, bounded retry, and worker telemetry stitched
back into the parent :mod:`repro.obs` stream.  The facade is re-exported at
the package root::

    import repro

    outcome = repro.run({"algorithm": "cor36", "graph": {"family": "regular", "n": 500, "degree": 8}})
    outcomes = repro.run_many([...], workers=4)

Execution is deterministic in the spec: sequential and parallel runs of the
same specs produce bit-identical outcomes, so sharding is purely a
wall-clock decision.
"""

from repro.parallel.jobs import (
    JobOutcome,
    JobSpec,
    SelfStabReport,
    algorithm_names,
    build_graph,
    clear_graph_cache,
    execute_job,
    graph_cache_stats,
    register_algorithm,
    resolve_algorithm,
)
from repro.parallel.runner import JobRunner, run, run_many, run_sweep, sweep_specs

__all__ = [
    "JobOutcome",
    "JobSpec",
    "JobRunner",
    "SelfStabReport",
    "algorithm_names",
    "build_graph",
    "clear_graph_cache",
    "execute_job",
    "graph_cache_stats",
    "register_algorithm",
    "resolve_algorithm",
    "run",
    "run_many",
    "run_sweep",
    "sweep_specs",
]
