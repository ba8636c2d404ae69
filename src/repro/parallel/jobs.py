"""Job descriptions and the worker-side executor.

The multi-process runner never pickles graphs, engines, or result objects —
everything that crosses a process boundary is a plain dict:

* a :class:`JobSpec` describes one run *by value*: a graph family + its
  generator parameters, an algorithm name from the :func:`register_algorithm`
  registry, a backend name (:mod:`repro.runtime.backends` maps it and the
  graph to a tier), and a seed.  ``to_dict`` / ``from_dict`` round-trip it
  losslessly.
* :func:`execute_job` runs one spec in the current process and returns an
  *envelope* dict: the spec, ``ok``, a :func:`repro.runtime.results.summarize`
  summary of the result (every algorithm returns an object satisfying the
  shared result protocol), the wall time, an error record on failure, and —
  when requested — the run's telemetry records in the JSONL export format,
  ready for :meth:`repro.obs.core.Telemetry.absorb` in the parent.

Because a spec is pure data and every builtin algorithm is deterministic in
``(graph spec, algorithm, backend, seed)``, executing the same spec inline,
in one worker, or across eight workers yields bit-identical envelopes — the
property the parity tests in ``tests/test_parallel.py`` pin down.
"""

import os
import time
import traceback
from collections import OrderedDict

from repro.obs import core as obs
from repro.runtime.results import (
    SCHEMA_VERSION,
    Result,
    check_schema_version,
    summarize,
)

__all__ = [
    "JobSpec",
    "JobOutcome",
    "SelfStabReport",
    "algorithm_names",
    "build_graph",
    "clear_graph_cache",
    "execute_job",
    "execute_payload",
    "execute_chunk",
    "graph_cache_stats",
    "graph_key",
    "job_graph",
    "peek_graph",
    "register_algorithm",
    "resolve_algorithm",
]


# -- graph materialization -----------------------------------------------------------


def _materialize_graph(spec):
    from repro import graphgen
    from repro.runtime.graph import StaticGraph

    family = spec.get("family", "regular")
    n = spec.get("n", 64)
    seed = spec.get("seed", 1)
    if family == "regular":
        return graphgen.random_regular(n, spec.get("degree", 6), seed=seed)
    if family == "gnp":
        return graphgen.gnp_graph(n, spec.get("prob", 0.1), seed=seed)
    if family == "gnp-capped":
        return graphgen.gnp_graph(
            n, spec.get("prob", 0.1), seed=seed, degree_cap=spec.get("degree", 6)
        )
    if family == "cycle":
        return graphgen.cycle_graph(n)
    if family == "path":
        return graphgen.path_graph(n)
    if family == "grid":
        return graphgen.grid_graph(spec.get("rows", 8), spec.get("cols", 8))
    if family == "tree":
        return graphgen.random_tree(n, seed=seed)
    if family == "unit-disk":
        return graphgen.unit_disk_graph(n, spec.get("radius", 0.15), seed=seed)
    if family == "edges":
        return StaticGraph(n, [tuple(edge) for edge in spec.get("edges", [])])
    raise ValueError("unknown graph family %r" % family)


# Bounded LRU over materialized graphs.  Generation dominates per-job setup
# (about 1 s for a random 16-regular graph at n=10^5 on a 2-CPU x86 box),
# and sweeps over seeds or backends keep asking for the same topology;
# caching the StaticGraph also caches its memoized ``csr()``.  Each process
# has its own cache; a forked pool worker starts with a copy of the
# parent's.  Keys are the *full* spec dict, so a differing seed, degree, or
# probability is a different entry by construction.
_GRAPH_CACHE = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}

_CACHE_SIZE_ENV = "REPRO_GRAPH_CACHE_SIZE"
_CACHE_BYTES_ENV = "REPRO_GRAPH_CACHE_BYTES"
_DEFAULT_CACHE_SIZE = 8
_DEFAULT_CACHE_BYTES = 512 << 20


def _cache_limits():
    try:
        entries = int(os.environ.get(_CACHE_SIZE_ENV, _DEFAULT_CACHE_SIZE))
    except ValueError:
        entries = _DEFAULT_CACHE_SIZE
    try:
        max_bytes = int(os.environ.get(_CACHE_BYTES_ENV, _DEFAULT_CACHE_BYTES))
    except ValueError:
        max_bytes = _DEFAULT_CACHE_BYTES
    return entries, max_bytes


def graph_key(spec):
    """Hashable cache identity of a graph spec dict.

    Conservative on purpose: two spec dicts that differ only in a key being
    *absent* versus *present at its default* get distinct keys (at worst a
    duplicate entry, never a wrong graph).  Raises :class:`TypeError` for
    unhashable parameter values; callers then bypass the cache.
    """
    items = []
    for key in sorted(spec):
        value = spec[key]
        if key == "edges":
            value = tuple(tuple(edge) for edge in value)
        items.append((key, value))
    key = tuple(items)
    hash(key)  # surface unhashable parameter values here, not at cache lookup
    return key


def _graph_nbytes(graph):
    """Rough resident size of a cached graph (python adjacency + CSR view).

    Measured at ~80 bytes per adjacency slot for the tuple-of-tuples
    representation; padded to cover the edge tuple and the CSR arrays.
    """
    return 112 * (graph.n + 2 * graph.m)


def _cache_bytes():
    return sum(_graph_nbytes(graph) for graph in _GRAPH_CACHE.values())


def graph_cache_stats():
    """Hit/miss/eviction counts and current occupancy of the graph cache."""
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "evictions": _CACHE_STATS["evictions"],
        "entries": len(_GRAPH_CACHE),
        "bytes": _cache_bytes(),
    }


def clear_graph_cache():
    """Empty the graph cache and reset its statistics."""
    _GRAPH_CACHE.clear()
    _CACHE_STATS.update(hits=0, misses=0, evictions=0)


def peek_graph(spec):
    """The cached graph for ``spec``, or None — no build, no stats, no LRU touch."""
    try:
        return _GRAPH_CACHE.get(graph_key(spec))
    except TypeError:
        return None


def build_graph(spec, cache=True):
    """Materialize a :class:`~repro.runtime.graph.StaticGraph` from a dict.

    ``spec`` names a :mod:`repro.graphgen` family plus its parameters, e.g.
    ``{"family": "regular", "n": 1000, "degree": 8, "seed": 3}``.
    ``gnp-capped`` is G(n, ``prob``) with each edge, in row-major order,
    dropped when it would lift an end past ``degree``.  The ``edges`` family
    carries an explicit edge list instead of a generator:
    ``{"family": "edges", "n": 4, "edges": [(0, 1), (2, 3)]}``.

    Results come from a bounded LRU keyed by the full spec (safe: generation
    is deterministic in the spec, and graphs are immutable).  Bounds:
    ``REPRO_GRAPH_CACHE_SIZE`` entries (default 8, 0 disables) and
    ``REPRO_GRAPH_CACHE_BYTES`` estimated bytes (default 512 MiB).  Pass
    ``cache=False`` to force a fresh build.
    """
    max_entries, max_bytes = _cache_limits()
    if not cache or max_entries <= 0:
        return _materialize_graph(spec)
    try:
        key = graph_key(spec)
    except TypeError:
        return _materialize_graph(spec)
    tel = obs.active()
    graph = _GRAPH_CACHE.get(key)
    if graph is not None:
        _GRAPH_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        if tel.enabled:
            tel.counter("parallel.graph_cache.hits")
        return graph
    graph = _materialize_graph(spec)
    _CACHE_STATS["misses"] += 1
    if tel.enabled:
        tel.counter("parallel.graph_cache.misses")
    if _graph_nbytes(graph) <= max_bytes:
        _GRAPH_CACHE[key] = graph
        while len(_GRAPH_CACHE) > max_entries or _cache_bytes() > max_bytes:
            _GRAPH_CACHE.popitem(last=False)
            _CACHE_STATS["evictions"] += 1
            if tel.enabled:
                tel.counter("parallel.graph_cache.evictions")
    if tel.enabled:
        tel.gauge("parallel.graph_cache.entries", len(_GRAPH_CACHE))
        tel.gauge("parallel.graph_cache.bytes", _cache_bytes())
    return graph


def job_graph(spec):
    """The graph a :class:`JobSpec` runs on: for ``backend="oocore"`` the
    disk-cached memmap shards of :func:`~repro.oocore.writers.ensure_sharded`,
    else :func:`build_graph` (this process's cache).

    An oocore job of a builtin without that tier fails here, with the
    routine's own TypeError, before any shard is written.
    """
    if spec.backend == "oocore":
        if _ALGORITHMS.get(spec.algorithm) in _NO_OOCORE_TIER:
            from repro.runtime.backends import choose_tier

            choose_tier(spec.backend, None)
        from repro.oocore.writers import ensure_sharded

        return ensure_sharded(spec.graph)
    return build_graph(spec.graph)


# -- the algorithm registry ----------------------------------------------------------

_ALGORITHMS = {}


def register_algorithm(name, fn):
    """Register ``fn(graph, backend=..., seed=..., **params)`` under ``name``.

    The callable must return an object satisfying the shared result protocol
    (``colors``, ``rounds``, ``to_dict()``) — the runner serializes it with
    :func:`repro.runtime.results.summarize`.  Registration is per-process:
    workers started with the ``fork`` method inherit the parent's registry;
    under ``spawn`` only the builtins are visible.
    """
    _ALGORITHMS[name] = fn
    return fn


def algorithm_names():
    """Sorted names of every registered job algorithm."""
    return sorted(_ALGORITHMS)


def resolve_algorithm(name):
    """The registered callable for ``name`` (ValueError if unknown)."""
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            "unknown algorithm %r (registered: %s)"
            % (name, ", ".join(algorithm_names()))
        )


def _alg_cor36(graph, backend="auto", seed=1, **params):
    """Corollary 3.6: Linial -> AG -> standard reduction."""
    from repro.recipes import delta_plus_one_coloring

    return delta_plus_one_coloring(graph, backend=backend, **params)


def _alg_exact(graph, backend="auto", seed=1, **params):
    """Section 7: exact (Delta+1) via the AG(p)/AG(N) hybrid."""
    from repro.recipes import delta_plus_one_exact_no_reduction

    return delta_plus_one_exact_no_reduction(graph, backend=backend, **params)


def _alg_one_plus_eps(graph, backend="auto", seed=1, **params):
    """Theorem 6.4 shape: the arbdefective O(Delta)-coloring route."""
    from repro.recipes import one_plus_eps_delta_coloring

    return one_plus_eps_delta_coloring(graph, backend=backend, **params)


def _alg_sublinear(graph, backend="auto", seed=1, **params):
    """Theorem 6.4 shape, exact variant (standard reduction tail)."""
    from repro.recipes import sublinear_delta_plus_one_coloring

    return sublinear_delta_plus_one_coloring(graph, backend=backend, **params)


def _alg_bek(graph, backend="auto", seed=1, **params):
    """Barenboim–Elkin–Kuhn recursive (Delta+1)-coloring."""
    from repro.baselines.bek import bek_delta_plus_one

    return bek_delta_plus_one(graph, backend=backend, **params)


def _alg_kuhn_wattenhofer(graph, backend="auto", seed=1):
    """Kuhn–Wattenhofer halving reduction from the trivial ID coloring."""
    from repro.baselines.kuhn_wattenhofer import KuhnWattenhoferReduction
    from repro.runtime.backends import resolve_backend

    engine = resolve_backend("engine", backend)(graph)
    return engine.run(
        KuhnWattenhoferReduction(),
        list(range(graph.n)),
        in_palette_size=max(2, graph.n),
    )


def _alg_defective(graph, backend="auto", seed=1, tolerance=None, k=None):
    """Lemma 3.4's tolerant Linial stage alone: an m-defective coloring.

    ``k`` (alias ``tolerance``) is the defect budget — the same Maus-style
    dial the sublinear recipes expose.
    """
    from repro.defective.vertex import DefectiveLinialColoring
    from repro.recipes import _resolve_k_knob
    from repro.runtime.backends import resolve_backend

    tolerance = _resolve_k_knob(tolerance, k, graph.max_degree)
    if tolerance is None:
        tolerance = max(1, int(round(graph.max_degree ** 0.5)))
    engine = resolve_backend("engine", backend)(graph)
    return engine.run(
        DefectiveLinialColoring(tolerance),
        list(range(graph.n)),
        in_palette_size=max(2, graph.n),
    )


def _alg_edge(graph, backend="auto", seed=1, **params):
    """Section 5's (2*Delta-1)-edge-coloring pipeline (CONGEST ledger)."""
    from repro.edge.congest import edge_coloring_congest

    return edge_coloring_congest(graph, backend=backend, **params)


def _alg_bitround(graph, backend="auto", seed=1, **params):
    """Corollary 3.6 over bit channels (vertex coloring, bit-round ledger)."""
    from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol

    return run_vertex_coloring_bit_protocol(graph, backend=backend, **params)


def _alg_bitround_edge(graph, backend="auto", seed=1, **params):
    """Theorem 5.3 over bit channels (edge coloring, bit-round ledger)."""
    from repro.bitround.edge_coloring import run_edge_coloring_bit_protocol

    return run_edge_coloring_bit_protocol(graph, backend=backend, **params)


class BaselineReport:
    """Result-protocol wrapper for baselines that return bare colors.

    ``rounds`` carries whatever step notion the baseline has — sequential
    vertex visits for the greedy oracle, communication rounds for the
    randomized trial coloring.
    """

    def __init__(self, colors, rounds):
        self.colors = list(colors)
        self.rounds = rounds

    @property
    def num_colors(self):
        """Distinct colors used."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "rounds": self.rounds,
        }

    def __repr__(self):
        return "BaselineReport(rounds=%d, colors=%d)" % (
            self.rounds,
            self.num_colors,
        )


Result.register(BaselineReport)


def _alg_greedy(graph, backend="auto", seed=1, order=None):
    """Sequential first-fit oracle (wave-parallel on the fast path).

    Not distributed: ``rounds`` is the number of sequential vertex visits.
    """
    from repro.baselines.greedy import greedy_coloring

    return BaselineReport(greedy_coloring(graph, order=order, backend=backend),
                          graph.n)


def _alg_random_trial(graph, backend="auto", seed=1, palette=None, **params):
    """Randomized trial (Delta+1)-coloring (seeded, backend-invariant)."""
    from repro.baselines.randomized import random_trial_coloring

    colors, rounds = random_trial_coloring(
        graph, seed, palette=palette, backend=backend, **params
    )
    return BaselineReport(colors, rounds)


def _alg_selfstab_rank(graph, **params):
    """Rank-greedy self-stabilizing (Delta+1)-coloring under faults."""
    from repro.baselines.selfstab_rank import RankGreedySelfStabColoring

    return _run_selfstab(RankGreedySelfStabColoring, graph, **params)


class SelfStabReport:
    """Result-protocol wrapper for a self-stabilization job.

    Cold-start stabilization plus ``bursts`` seeded corruption bursts; the
    final colors come from the algorithm's legal quiescent state.
    """

    def __init__(self, colors, cold_rounds, burst_rounds, legal):
        self.colors = colors
        self.cold_rounds = cold_rounds
        self.burst_rounds = list(burst_rounds)
        self.legal = legal

    @property
    def rounds(self):
        """Total rounds across cold start and every burst recovery."""
        return self.cold_rounds + sum(self.burst_rounds)

    @property
    def num_colors(self):
        """Distinct colors in the quiescent state."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "cold_rounds": self.cold_rounds,
            "burst_rounds": list(self.burst_rounds),
            "rounds": self.rounds,
            "legal": self.legal,
        }

    def __repr__(self):
        return "SelfStabReport(rounds=%d, colors=%d, legal=%s)" % (
            self.rounds,
            self.num_colors,
            self.legal,
        )


Result.register(SelfStabReport)


def _run_selfstab(
    algorithm_cls, graph, backend="auto", seed=1, bursts=2, corruptions=8,
    churn=0, delta=None
):
    """Cold start, then ``bursts`` seeded corruption (and churn) bursts.

    ``delta`` is the ROM-resident Delta bound of Section 4 (None: the
    graph's max degree); churn may add edges up to it.  There is no oocore
    tier.
    """
    from repro.runtime.backends import choose_tier, resolve_backend
    from repro.runtime.graph import DynamicGraph
    from repro.selfstab import FaultCampaign

    choose_tier(backend, graph)  # the errors only: a sharded graph fails here
    dynamic = DynamicGraph.from_static(graph, delta_bound=delta)
    algorithm = algorithm_cls(dynamic.n_bound, dynamic.delta_bound)
    engine = resolve_backend("selfstab", backend)(dynamic, algorithm)
    cold_rounds = engine.run_to_quiescence()
    burst_rounds = []
    campaign = FaultCampaign(seed)
    for _ in range(bursts):
        campaign.corrupt_random_rams(engine, corruptions)
        if churn:
            campaign.churn_edges(engine, removals=churn, additions=churn)
        burst_rounds.append(engine.run_to_quiescence())
    colors_by_vertex = algorithm.final_colors(engine.graph, engine.rams)
    colors = [colors_by_vertex[v] for v in sorted(colors_by_vertex)]
    return SelfStabReport(colors, cold_rounds, burst_rounds, engine.is_legal())


def _alg_selfstab_exact(graph, **params):
    """Theorem 7.5: self-stabilizing exact (Delta+1)-coloring under faults."""
    from repro.selfstab import SelfStabExactColoring

    return _run_selfstab(SelfStabExactColoring, graph, **params)


def _alg_selfstab_coloring(graph, **params):
    """Lemma 4.2: self-stabilizing O(Delta)-coloring under faults."""
    from repro.selfstab import SelfStabColoring

    return _run_selfstab(SelfStabColoring, graph, **params)


# The builtins whose routines have no out-of-core tier (keyed by function,
# so a custom algorithm registered under one of their names is not).
_NO_OOCORE_TIER = frozenset({
    _alg_bek, _alg_edge, _alg_bitround_edge, _alg_random_trial,
    _alg_selfstab_exact, _alg_selfstab_coloring, _alg_selfstab_rank,
})

register_algorithm("cor36", _alg_cor36)
register_algorithm("exact", _alg_exact)
register_algorithm("one-plus-eps", _alg_one_plus_eps)
register_algorithm("sublinear", _alg_sublinear)
register_algorithm("selfstab", _alg_selfstab_exact)
register_algorithm("selfstab-coloring", _alg_selfstab_coloring)
register_algorithm("bek", _alg_bek)
register_algorithm("kuhn-wattenhofer", _alg_kuhn_wattenhofer)
register_algorithm("defective", _alg_defective)
register_algorithm("edge", _alg_edge)
register_algorithm("bitround", _alg_bitround)
register_algorithm("bitround-edge", _alg_bitround_edge)
register_algorithm("greedy", _alg_greedy)
register_algorithm("random-trial", _alg_random_trial)
register_algorithm("selfstab-rank", _alg_selfstab_rank)


# -- specs and outcomes --------------------------------------------------------------


class JobSpec:
    """One unit of work, described entirely by value (hence picklable).

    ``graph`` is a :func:`build_graph` dict; ``algorithm`` a registry name;
    ``backend`` a :mod:`repro.runtime.backends` name; ``params`` extra
    keyword arguments for the algorithm; ``label`` an optional display name.
    """

    __slots__ = ("algorithm", "graph", "backend", "seed", "params", "label")

    def __init__(
        self,
        algorithm="cor36",
        graph=None,
        backend="auto",
        seed=1,
        params=None,
        label=None,
    ):
        self.algorithm = algorithm
        self.graph = dict(graph) if graph else {"family": "regular", "n": 64, "degree": 6}
        self.backend = backend
        self.seed = seed
        self.params = dict(params) if params else {}
        self.label = label

    @property
    def job_id(self):
        """Stable human-readable identity (used to tag stitched telemetry).

        Params follow the seed as sorted ``key=value`` parts.
        """
        if self.label:
            return self.label
        graph = self.graph
        parts = [self.algorithm, graph.get("family", "regular")]
        for key in ("n", "degree", "prob", "rows", "cols", "radius"):
            if key in graph:
                parts.append("%s%s" % (key, graph[key]))
        parts.append("s%d" % self.seed)
        parts.extend("%s=%s" % item for item in sorted(self.params.items()))
        return "-".join(str(part) for part in parts)

    def to_dict(self):
        """The spec as a plain dict (the wire format, ``schema_version``-stamped)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "graph": dict(self.graph),
            "backend": self.backend,
            "seed": self.seed,
            "params": dict(self.params),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from :meth:`to_dict` output.

        Tolerant reader: a dict stamped with a *newer* ``schema_version``
        (from a registry or wire peer running a later release) parses on the
        fields this release knows, after a
        :class:`~repro.runtime.results.SchemaVersionWarning`.
        """
        check_schema_version(data, kind="JobSpec")
        return cls(
            algorithm=data.get("algorithm", "cor36"),
            graph=data.get("graph"),
            backend=data.get("backend", "auto"),
            seed=data.get("seed", 1),
            params=data.get("params"),
            label=data.get("label"),
        )

    def __repr__(self):
        return "JobSpec(%s)" % self.job_id


class JobOutcome:
    """The parent-side view of one finished job (success, error, or timeout)."""

    __slots__ = ("spec", "ok", "summary", "error", "seconds", "attempts", "timed_out", "telemetry", "worker")

    def __init__(self, spec, envelope, attempts, timed_out=False):
        self.spec = spec
        self.ok = bool(envelope.get("ok"))
        self.summary = envelope.get("summary")
        self.error = envelope.get("error")
        self.seconds = envelope.get("seconds", 0.0)
        self.attempts = attempts
        self.timed_out = timed_out
        self.telemetry = envelope.get("telemetry") or []
        # Executing pid — kept off to_dict: which worker ran a job is
        # scheduling, not result, and inline-vs-pool outcome dicts must match.
        self.worker = envelope.get("worker")

    @property
    def colors(self):
        """The final coloring (None unless the job succeeded)."""
        if self.summary:
            return self.summary["payload"].get("colors")
        return None

    @property
    def rounds(self):
        """Round count of the run (None unless the job succeeded)."""
        return self.summary["rounds"] if self.summary else None

    @property
    def num_colors(self):
        """Distinct colors used (None unless the job succeeded)."""
        return self.summary["num_colors"] if self.summary else None

    def to_dict(self):
        """JSON-serializable record (telemetry omitted; it is stitched)."""
        return {
            "job": self.spec.to_dict(),
            "job_id": self.spec.job_id,
            "ok": self.ok,
            "summary": self.summary,
            "error": self.error,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    def __repr__(self):
        state = "ok" if self.ok else ("timeout" if self.timed_out else "error")
        return "JobOutcome(%s, %s, attempts=%d)" % (self.spec.job_id, state, self.attempts)


# -- worker-side execution -----------------------------------------------------------


def execute_job(spec, collect_telemetry=False, trace=None):
    """Run one spec in this process; return the envelope dict.

    Never raises: algorithm failures come back as ``ok=False`` with the
    exception type, message, and traceback, so a crashing job cannot take a
    worker (or the pool protocol) down with it.

    The graph comes from :func:`job_graph`.

    ``trace`` is the parent collector's
    :meth:`~repro.obs.core.Telemetry.trace_context`: when telemetry is
    collected, the worker-side capture joins that trace and labels its lane
    with the job id, so the exported records land on a distinct
    ``(pid, source)`` timeline lane after stitching.  The envelope carries
    the executing ``worker`` pid for the parent's ``parallel.job`` event.
    """
    start = time.perf_counter()
    records = []
    try:
        fn = resolve_algorithm(spec.algorithm)
        graph = job_graph(spec)
        if collect_telemetry:
            trace = trace or {}
            with obs.capture(
                source=spec.job_id, trace_id=trace.get("trace_id")
            ) as tel:
                result = fn(graph, backend=spec.backend, seed=spec.seed, **spec.params)
            records = list(tel.events) + [tel.snapshot()]
        else:
            result = fn(graph, backend=spec.backend, seed=spec.seed, **spec.params)
        return {
            "ok": True,
            "summary": summarize(result),
            "error": None,
            "seconds": time.perf_counter() - start,
            "telemetry": records,
            "worker": os.getpid(),
        }
    except Exception as exc:
        return {
            "ok": False,
            "summary": None,
            "error": {
                "kind": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            "seconds": time.perf_counter() - start,
            "telemetry": records,
            "worker": os.getpid(),
        }


def execute_payload(payload):
    """Pool entry point for one job: rebuild the spec, execute, return dict."""
    return execute_job(
        JobSpec.from_dict(payload["spec"]),
        collect_telemetry=payload.get("telemetry", False),
        trace=payload.get("trace"),
    )


def execute_chunk(payloads):
    """Pool entry point for a chunk: one IPC round-trip, many jobs."""
    return [execute_payload(payload) for payload in payloads]
