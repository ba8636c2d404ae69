"""Batch-tier reference colourings for the oocore-sparse workload.

    python3 perfbench/batch_digest.py '[{"family": "regular", "n": ..., ...}]'

Builds each graph spec in memory, runs Corollary 3.6 on the batch tier
through ``repro.api.run``, checks the colouring (proper, Delta + 1 colours,
every stage within its round bound) and prints a JSON list with one digest
per spec as its last line.  It runs in its own process so that the oocore
tier under test shares no state with its reference.
"""

import json
import sys

import run as runner


def main(argv):
    runner.bootstrap()
    from checks import check_coloring, check_stages, digest, stage_bounds
    from repro.api import JobSpec, run
    from repro.parallel.jobs import build_graph, clear_graph_cache
    from workloads import _cor36_stages

    digests = []
    for spec in json.loads(argv[1]):
        graph = build_graph(spec)
        outcome = run(JobSpec("cor36", graph=spec, backend="batch"))
        if not outcome.ok:
            raise SystemExit("batch tier failed on %s: %s" % (spec, outcome.error["message"]))
        bounds = stage_bounds(graph.n, graph.max_degree, _cor36_stages())
        rounds = check_stages(outcome.summary["payload"]["stages"], bounds)
        colors = check_coloring(outcome.colors, graph.max_degree + 1, graph.csr())
        digests.append(digest(colors, rounds))
        del graph, outcome
        clear_graph_cache()
    print(json.dumps(digests))


if __name__ == "__main__":
    main(sys.argv)
