"""The four workloads.  Each is a closed loop with one client.

A workload builds ``inputs`` inputs from the run's seed (each one timed as a
set-up), then the runner repeats ``prepare`` (untimed), ``op`` (timed) and
``check`` (untimed) over them.  The program sees only the generated inputs.
Sizes are constructor arguments so the self-test can shrink them; the
defaults are the benchmark's.

Layer calls go through module attributes (``graphgen.random_regular``,
``writers.ensure_sharded``) so the runner's counting and tracing wrappers
see them.
"""

import json
import os
import subprocess
import sys

from checks import CheckFailed, check_coloring, check_stages, digest, stage_bounds
from tracing import median

HERE = os.path.dirname(os.path.abspath(__file__))

__all__ = ["WORKLOADS", "Cor36Dense", "OocoreSparse", "SelfStabBurst", "SweepMixed"]


def _cor36_stages():
    from repro.core.ag import AdditiveGroupColoring
    from repro.core.reductions import StandardColorReduction
    from repro.linial.core import LinialColoring

    return [LinialColoring, AdditiveGroupColoring, StandardColorReduction]


def _exact_stages():
    from repro.core.ag import AdditiveGroupColoring
    from repro.core.hybrid import ExactDeltaPlusOneHybrid
    from repro.linial.core import LinialColoring

    return [LinialColoring, AdditiveGroupColoring, ExactDeltaPlusOneHybrid]


def _regular(n, degree, seed):
    return {"family": "regular", "n": n, "degree": degree, "seed": seed}


class Workload:
    """Hooks the runner calls; see the module docstring for the order."""

    name = None
    inputs = 1
    #: Whether every op on one input must give the same output.
    repeatable = True
    #: Whether an op builds its own inputs (else building one is a failure).
    cold_ops = False

    def setup_input(self, i):
        """Build input ``i`` (timed as one set-up)."""

    def prepare_checks(self):
        """Precompute what the checks need (untimed, after every set-up)."""

    def prepare(self, i):
        """Untimed step before each op on input ``i``."""

    def op(self, i):
        """One user-level call on input ``i``; returns its output."""
        raise NotImplementedError

    def check(self, i, output, variant, seconds):
        """Raise :class:`CheckFailed` on a bad output; return its digest."""
        raise NotImplementedError

    def finish(self, digests):
        """Deferred checks after the timed phase: ``{input: reason}``.

        ``digests`` maps each input to the digest its ops agreed on.
        """
        return {}

    def layer_counts(self, peak_rss_mb):
        """Per-layer metrics the workload measures itself."""
        return {}

    def close(self):
        """Release what set-up made."""


class Cor36Dense(Workload):
    """``repro.api.run`` of Corollary 3.6 on dense random regular graphs."""

    name = "cor36-dense"

    def __init__(self, seed, n=10000, degree=64, inputs=3):
        from repro.api import JobSpec

        self.inputs = inputs
        self.specs = [
            JobSpec("cor36", graph=_regular(n, degree, 100 * seed + i), backend="auto", seed=seed)
            for i in range(inputs)
        ]
        self.graphs = [None] * inputs
        self.bounds = [None] * inputs

    def setup_input(self, i):
        from repro.parallel.jobs import build_graph

        # Lands in the graph cache with its CSR, where the op will find it.
        graph = build_graph(self.specs[i].graph)
        graph.csr()
        self.graphs[i] = graph

    def prepare_checks(self):
        self.bounds = [stage_bounds(g.n, g.max_degree, _cor36_stages()) for g in self.graphs]

    def op(self, i):
        from repro.api import run

        return run(self.specs[i])

    def check(self, i, outcome, variant, seconds):
        if not outcome.ok:
            raise CheckFailed("job failed: %s" % (outcome.error or {}).get("message"))
        graph = self.graphs[i]
        rounds = check_stages(outcome.summary["payload"]["stages"], self.bounds[i])
        colors = check_coloring(outcome.colors, graph.max_degree + 1, graph.csr())
        return digest(colors, rounds)

    def close(self):
        from repro.parallel.jobs import clear_graph_cache

        clear_graph_cache()


class OocoreSparse(Workload):
    """The same JobSpec on the out-of-core tier, shards written in set-up."""

    name = "oocore-sparse"

    def __init__(self, seed, n=100000, degree=8, inputs=2, shards=4):
        from repro.api import JobSpec

        self.inputs = inputs
        self.specs = [
            JobSpec("cor36", graph=_regular(n, degree, 100 * seed + i), backend="oocore", seed=seed)
            for i in range(inputs)
        ]
        self.sharded = [None] * inputs
        self.bounds = [None] * inputs
        self.budget = None
        self._saved_env = {k: os.environ.get(k) for k in ("REPRO_OOCORE_SHARDS", "REPRO_OOCORE_BUDGET")}
        os.environ["REPRO_OOCORE_SHARDS"] = str(shards)

    def setup_input(self, i):
        from repro.oocore import writers

        sharded = writers.ensure_sharded(self.specs[i].graph)
        self.sharded[i] = sharded
        # A quarter of the in-memory footprint, floor 64 MiB.
        self.budget = max(sharded.in_memory_nbytes // 4, 64 << 20)
        os.environ["REPRO_OOCORE_BUDGET"] = str(self.budget)

    def prepare_checks(self):
        self.bounds = [stage_bounds(g.n, g.max_degree, _cor36_stages()) for g in self.sharded]

    def op(self, i):
        from repro.api import run

        return run(self.specs[i])

    def check(self, i, outcome, variant, seconds):
        if not outcome.ok:
            raise CheckFailed("job failed: %s" % (outcome.error or {}).get("message"))
        rounds = check_stages(outcome.summary["payload"]["stages"], self.bounds[i])
        # Properness is checked on the batch tier's colouring in finish():
        # every op must reproduce it bit for bit.
        colors = check_coloring(outcome.colors, self.sharded[i].max_degree + 1)
        return digest(colors, rounds)

    def finish(self, digests):
        """Compare each input's colouring with the batch tier's, computed in
        a separate process on an in-memory build of the same graph."""
        graphs = [spec.graph for spec in self.specs]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "batch_digest.py"), json.dumps(graphs)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            return {i: "batch tier process failed: %s" % proc.stderr.strip()[-300:] for i in range(self.inputs)}
        expected = json.loads(proc.stdout.strip().splitlines()[-1])
        return {
            i: "oocore digest %s != batch digest %s" % (digests.get(i), expected[i])
            for i in range(self.inputs)
            if digests.get(i) != expected[i]
        }

    def layer_counts(self, peak_rss_mb):
        budget_mb = self.budget / float(1 << 20)
        return {
            "oocore.disk_mb": median([g.on_disk_nbytes / float(1 << 20) for g in self.sharded]),
            "oocore.halo_slots": median([g.total_halo() for g in self.sharded]),
            "oocore.rss_over_budget": peak_rss_mb / budget_mb,
        }

    def close(self):
        for graph in self.sharded:
            if graph is not None:
                graph.close()
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class SelfStabBurst(Workload):
    """A seeded RAM-corruption burst and recovery on the selfstab engine."""

    name = "selfstab-burst"
    # Bursts accumulate on each engine, so each op has its own output; the
    # sequence of outputs per input is what repeats across runs of a seed.
    repeatable = False

    def __init__(self, seed, n=8000, degree=32, inputs=3):
        self.seed = seed
        self.n = n
        self.degree = degree
        self.inputs = inputs
        self.corruptions = n // 10
        self.graphs = [None] * inputs
        self.engines = [None] * inputs
        self.campaigns = [None] * inputs
        self.touched = []

    def setup_input(self, i):
        from repro import graphgen
        from repro.api import resolve_backend
        from repro.runtime.graph import DynamicGraph
        from repro.selfstab import FaultCampaign, SelfStabExactColoring

        graph = graphgen.random_regular(self.n, self.degree, seed=100 * self.seed + i)
        dynamic = DynamicGraph.from_static(graph)
        algorithm = SelfStabExactColoring(dynamic.n_bound, dynamic.delta_bound)
        engine = resolve_backend("selfstab", "auto")(dynamic, algorithm)
        engine.run_to_quiescence()
        self.graphs[i] = graph
        self.engines[i] = engine
        self.campaigns[i] = FaultCampaign(100 * self.seed + i)

    def prepare_checks(self):
        for graph in self.graphs:
            graph.csr()

    def prepare(self, i):
        self.engines[i].reset_touched()

    def op(self, i):
        engine = self.engines[i]
        self.campaigns[i].corrupt_random_rams(engine, self.corruptions)
        return engine.run_to_quiescence()

    def check(self, i, rounds, variant, seconds):
        engine = self.engines[i]
        if not engine.is_legal():
            raise CheckFailed("illegal state after recovery")
        if rounds > engine.algorithm.stabilization_bound() + 1:
            raise CheckFailed("recovery took %d rounds" % rounds)
        final = engine.algorithm.final_colors(engine.graph, engine.rams)
        graph = self.graphs[i]
        colors = check_coloring([final[v] for v in range(graph.n)], graph.max_degree + 1, graph.csr())
        self.touched.append(len(engine.touched) / float(graph.n))
        return digest(colors, rounds)

    def layer_counts(self, peak_rss_mb):
        return {"selfstab.touched_frac": median(self.touched)}


class SweepMixed(Workload):
    """``repro.api.run_many`` over a cold 2-worker pool."""

    name = "sweep-mixed"
    cold_ops = True
    ALGORITHMS = ("cor36", "exact", "one-plus-eps")

    def __init__(self, seed, n=4000, degree=32, topologies=3, workers=2):
        from repro.api import JobSpec

        self.workers = workers
        self.topologies = [_regular(n, degree, 100 * seed + t) for t in range(topologies)]
        self.specs = [JobSpec(alg, graph=g, seed=seed) for g in self.topologies for alg in self.ALGORITHMS]
        self.graphs = {}
        self.bounds = {}
        self.rows = []

    def prepare_checks(self):
        from repro import graphgen

        for spec in self.topologies:
            graph = graphgen.random_regular(spec["n"], spec["degree"], seed=spec["seed"])
            self.graphs[spec["seed"]] = graph
            self.bounds[spec["seed"]] = {
                "cor36": stage_bounds(graph.n, graph.max_degree, _cor36_stages()),
                "exact": stage_bounds(graph.n, graph.max_degree, _exact_stages()),
            }

    def prepare(self, i):
        from repro.parallel.jobs import clear_graph_cache

        # Each op starts cold, like a fresh `repro sweep`.
        clear_graph_cache()

    def op(self, i):
        from repro.api import run_many

        return run_many(self.specs, workers=self.workers)

    def check(self, i, outcomes, variant, seconds):
        from repro.parallel.jobs import graph_cache_stats

        parts = []
        for outcome in outcomes:
            spec = outcome.spec
            if not outcome.ok:
                raise CheckFailed("%s failed: %s" % (spec.job_id, (outcome.error or {}).get("message")))
            graph = self.graphs[spec.graph["seed"]]
            payload = outcome.summary["payload"]
            if spec.algorithm == "one-plus-eps":
                palette, rounds = payload["palette_size"], payload["stage_rounds"]
            else:
                palette = graph.max_degree + 1
                rounds = check_stages(payload["stages"], self.bounds[spec.graph["seed"]][spec.algorithm])
            colors = check_coloring(outcome.colors, palette, graph.csr())
            parts.append(digest(colors, rounds))
        busy = {}
        for outcome in outcomes:
            busy[outcome.worker] = busy.get(outcome.worker, 0.0) + outcome.seconds
        self.rows.append({
            "variant": variant,
            "busy": sum(busy.values()),
            "wall": seconds,
            "imbalance": max(busy.values()) / (sum(busy.values()) / len(busy)),
            "parent_builds": graph_cache_stats()["misses"],
            "retries": sum(outcome.attempts - 1 for outcome in outcomes),
        })
        return digest([], parts)

    def layer_counts(self, peak_rss_mb):
        rows = [row for row in self.rows if row["variant"] == "traced"]
        return {
            "parallel.busy_s": median([row["busy"] for row in rows]),
            "parallel.utilization": median([row["busy"] / (self.workers * row["wall"]) for row in rows]),
            "parallel.imbalance": median([row["imbalance"] for row in rows]),
            "parallel.parent_builds": median([row["parent_builds"] for row in rows]),
            "parallel.retries": sum(row["retries"] for row in rows),
        }


WORKLOADS = {cls.name: cls for cls in (Cor36Dense, OocoreSparse, SelfStabBurst, SweepMixed)}
