"""The defective-coloring divide-and-conquer (Delta+1)-coloring of [5, 44, 9].

This is the *non-locally-iterative* ``O(Delta + log* n)`` state of the art
the paper's introduction contrasts itself with: Barenboim–Elkin (STOC'09)
and Kuhn (SPAA'09) reached linear-in-Delta time by decomposing the graph —
compute a ``p``-defective coloring with ``p = Delta/4``, recurse *in
parallel* on the color classes (each induces a subgraph of maximum degree
``<= defect``), and then merge the per-class colorings sequentially: class
by class, each class's color levels re-pick greedily from the final palette
``[0, Delta]`` avoiding already-committed neighbors.

The recursion makes it decidedly not locally-iterative — mid-run the global
"coloring" is a patchwork of per-subgraph states, nothing like a proper
coloring of ``G`` — which is exactly the structural price the paper's AG
algorithm avoids.  We implement it as the head-to-head baseline: same
asymptotics, different structure.

Round accounting: vertex-disjoint recursive calls run in parallel (their
round counts max, not add); the defective stages and the sequential merge
sweeps add up.  Compared with [9], constants are larger and the ``log*``
stage recurs per level (the original shares one Linial run across levels);
the shape — linear in Delta — is preserved and benchmarked.
"""

from repro.analysis.invariants import coloring_defect, is_proper_coloring
from repro.core.reductions import StandardColorReduction
from repro.defective.vertex import DefectiveLinialColoring
from repro.linial.core import LinialColoring
from repro.runtime.backends import choose_tier, resolve_backend
from repro.runtime.csr import numpy_or_none

__all__ = ["BEKResult", "bek_delta_plus_one"]

_BASE_DELTA = 4


class BEKResult:
    """Final coloring plus the parallel-round accounting of the recursion."""

    def __init__(self, colors, rounds, depth):
        self.colors = colors
        self.rounds = rounds
        self.depth = depth

    @property
    def num_colors(self):
        """Distinct colors used (at most Delta + 1)."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "rounds": self.rounds,
            "depth": self.depth,
        }

    def __repr__(self):
        return "BEKResult(colors=%d, rounds=%d, depth=%d)" % (
            self.num_colors,
            self.rounds,
            self.depth,
        )


def _make_engine(graph, tier):
    return resolve_backend("engine", tier)(graph)


def _base_case(graph, tier):
    """Small Delta: Linial + standard reduction (both O(Delta^2)-cheap here)."""
    if graph.n == 0:
        return [], 0
    engine = _make_engine(graph, tier)
    linial = LinialColoring()
    first = engine.run(linial, list(range(graph.n)))
    reduction = StandardColorReduction()
    second = engine.run(
        reduction, first.int_colors, in_palette_size=linial.out_palette_size
    )
    return second.int_colors, first.rounds_used + second.rounds_used


def _recursive_color(graph, depth, tier, parent_delta=None):
    """Proper (Delta_G + 1)-coloring of ``graph`` on ``tier`` (``"batch"`` or
    ``"reference"``); returns (colors, rounds, depth)."""
    delta = graph.max_degree
    stuck = parent_delta is not None and delta >= parent_delta
    if delta <= _BASE_DELTA or graph.n <= _BASE_DELTA + 2 or stuck:
        colors, rounds = _base_case(graph, tier)
        return colors, rounds, depth

    # Stage 1: p-defective coloring with p = Delta / 4.
    tolerance = max(1, delta // 4)
    engine = _make_engine(graph, tier)
    defective = DefectiveLinialColoring(tolerance)
    dres = engine.run(defective, list(range(graph.n)))
    class_of = dres.int_colors
    class_ids = sorted(set(class_of))
    rounds = dres.rounds_used

    # Stage 2: recurse on the classes in parallel.
    np = numpy_or_none() if tier == "batch" else None
    sub_results = {}
    deepest = depth
    max_sub_rounds = 0
    for cid in class_ids:
        members = [v for v in graph.vertices() if class_of[v] == cid]
        if np is not None:
            subgraph, index = _induced_subgraph(np, graph, members)
        else:
            subgraph, index = graph.subgraph(members)
        sub_colors, sub_rounds, sub_depth = _recursive_color(
            subgraph, depth + 1, tier, parent_delta=delta
        )
        sub_results[cid] = (members, index, sub_colors)
        max_sub_rounds = max(max_sub_rounds, sub_rounds)
        deepest = max(deepest, sub_depth)
    rounds += max_sub_rounds

    # Stage 3: sequential merge — class by class, level by level, greedy
    # picks from [0, Delta] avoiding committed neighbors.
    if np is not None:
        return _merge_batch(np, graph, class_ids, sub_results, rounds, deepest)
    final = [None] * graph.n
    for cid in class_ids:
        members, index, sub_colors = sub_results[cid]
        levels = (max(sub_colors) + 1) if sub_colors else 0
        for level in range(levels):
            # One synchronous round: this class's level-``level`` vertices act.
            for v in members:
                if sub_colors[index[v]] != level:
                    continue
                taken = {
                    final[u] for u in graph.neighbors(v) if final[u] is not None
                }
                color = 0
                while color in taken:
                    color += 1
                final[v] = color
            rounds += 1
    return final, rounds, deepest


def _induced_subgraph(np, graph, members):
    """``graph.subgraph(members)`` with the edge filter done on CSR arrays.

    Produces the identical :class:`StaticGraph` (the constructor sorts and
    dedups) and the identical index map; only the per-edge Python filter —
    the recursion's dominant cost on large graphs — is vectorized.
    """
    from repro.runtime.graph import StaticGraph

    ordered = sorted(set(members))
    index = {v: i for i, v in enumerate(ordered)}
    csr = graph.csr()
    mask = np.zeros(graph.n, dtype=bool)
    mask[np.asarray(ordered, dtype=np.int64)] = True
    compact = np.cumsum(mask) - 1
    keep = mask[csr.edge_u] & mask[csr.edge_v]
    sub_u = compact[csr.edge_u[keep]]
    sub_v = compact[csr.edge_v[keep]]
    edges = list(zip(sub_u.tolist(), sub_v.tolist()))
    ids = [graph.ids[v] for v in ordered]
    return StaticGraph(len(ordered), edges, ids=ids), index


def _merge_batch(np, graph, class_ids, sub_results, rounds, deepest):
    """Vectorized stage 3: identical sweeps, one occupancy matrix per round.

    Vertices acting in one (class, level) round are pairwise non-adjacent —
    the sub-coloring is proper on the induced class subgraph — so the
    sequential member loop and the parallel repick commit identical colors,
    and the round accounting (one round per class level) is unchanged.
    """
    csr = graph.csr()
    palette = graph.max_degree + 1
    final = np.full(graph.n, -1, dtype=np.int64)
    for cid in class_ids:
        members, index, sub_colors = sub_results[cid]
        members_arr = np.asarray(members, dtype=np.int64)
        level_of = np.asarray(
            [sub_colors[index[v]] for v in members], dtype=np.int64
        )
        levels = (max(sub_colors) + 1) if sub_colors else 0
        for level in range(levels):
            acting = members_arr[level_of == level]
            count = acting.size
            if count:
                mask = np.zeros(graph.n, dtype=bool)
                mask[acting] = True
                compact = np.cumsum(mask) - 1
                sel = mask[csr.rows]
                nbr_color = final[csr.indices[sel]]
                owner = compact[csr.rows[sel]]
                seen = nbr_color >= 0
                occupied = np.zeros((count, palette), dtype=bool)
                occupied[owner[seen], nbr_color[seen]] = True
                final[acting] = np.argmin(occupied, axis=1)
            rounds += 1
    return final.tolist(), rounds, deepest


def bek_delta_plus_one(graph, backend="auto"):
    """The [5, 44, 9]-style (Delta+1)-coloring; returns a :class:`BEKResult`.

    The output is verified proper and within ``[0, Delta]`` before returning.
    ``backend`` selects the execution tier for every internal engine run and
    the merge sweeps (``auto``/``batch``/``reference``; there is no oocore
    tier); results are bit-identical across backends.
    """
    tier = choose_tier(backend, graph)
    colors, rounds, depth = _recursive_color(graph, 0, tier)
    if graph.n:
        assert is_proper_coloring(graph, colors)
        assert max(colors) <= graph.max_degree
        assert coloring_defect(graph, colors) == 0
    return BEKResult(colors, rounds, depth)
