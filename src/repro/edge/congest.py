"""The Section 5 edge-coloring pipeline with CONGEST / Bit-Round accounting.

Stages (each a real distributed protocol; we simulate the color evolution and
account for the exact bits each endpoint sends per incident edge per round):

1. **ID exchange** — endpoints learn each other's IDs: ``ceil(log2 n)`` bits
   once (skippable if IDs are already known, Lemma 5.2's second case).
2. **Kuhn 2-defective coloring** — one round; each endpoint tells the other
   the local index it assigned the edge: ``ceil(log2 Delta)`` bits.
3. **Cole–Vishkin** — each 2-defective class is a union of paths/cycles of
   edges; CV 3-colors them in ``log* + O(1)`` rounds with geometrically
   shrinking labels (``log m``, then ``log log m``, ... bits).  Result: a
   proper ``3 * Delta^2``-edge-coloring.
4. **AG on the line graph** — ``O(Delta)`` rounds, *1 bit* per edge per round
   (the final/rotated flag), down to ``q = O(Delta)`` colors.
5. **Exact hybrid** (optional) — the AG(p)/AG(N) high/low hybrid on the line
   graph, ``O(Delta)`` rounds at *2 bits* per edge per round, down to exactly
   ``2 * Delta - 1`` colors.

Every intermediate coloring is proper on the line graph (checked on demand),
message payloads never exceed ``O(log n)`` bits (CONGEST), and the summed
bits per edge reproduce Lemma 5.2 / Theorem 5.3.
"""

import math
from collections import defaultdict

from repro.core.ag import AdditiveGroupColoring
from repro.core.hybrid import ExactDeltaPlusOneHybrid
from repro.defective.kuhn_edge import kuhn_defective_edge_coloring
from repro.edge.line_graph import build_line_graph
from repro.linial.cole_vishkin import cole_vishkin_three_coloring, label_spaces
from repro.runtime.backends import choose_tier, resolve_backend
from repro.runtime.results import Result

__all__ = [
    "EdgeColoringResult",
    "bit_round_ledger",
    "edge_coloring_congest",
    "edge_coloring_bit_round",
]


class EdgeColoringResult:
    """Outcome of the edge-coloring pipeline.

    Attributes
    ----------
    edge_colors:
        ``{(u, v): color}`` with ``u < v`` and colors in
        ``range(palette_size)``.
    palette_size:
        ``2 * Delta - 1`` for the exact variant, ``O(Delta)`` otherwise.
    rounds_by_stage / bits_per_edge_by_stage:
        Per-stage round counts and bits sent over each edge (both directions
        summed), reproducing Lemma 5.2's ledger.
    max_message_bits:
        The largest single-round payload — the CONGEST compliance witness.
    """

    def __init__(
        self,
        edge_colors,
        palette_size,
        rounds_by_stage,
        bits_per_edge_by_stage,
        max_message_bits,
    ):
        self.edge_colors = edge_colors
        self.palette_size = palette_size
        self.rounds_by_stage = dict(rounds_by_stage)
        self.bits_per_edge_by_stage = dict(bits_per_edge_by_stage)
        self.max_message_bits = max_message_bits

    @property
    def total_rounds(self):
        """CONGEST rounds summed over all stages: O(Delta + log* n)."""
        return sum(self.rounds_by_stage.values())

    @property
    def rounds(self):
        """Alias of :attr:`total_rounds` (the shared result protocol)."""
        return self.total_rounds

    @property
    def colors(self):
        """Alias of :attr:`edge_colors` (the shared result protocol; edge
        problems expose their ``{edge: color}`` mapping here)."""
        return self.edge_colors

    @property
    def total_bits_per_edge(self):
        """Bits exchanged per edge over the run: O(Delta + log n)."""
        return sum(self.bits_per_edge_by_stage.values())

    @property
    def num_colors(self):
        """Distinct edge colors used (at most 2 * Delta - 1)."""
        return len(set(self.edge_colors.values()))

    def to_dict(self):
        """JSON-serializable summary; edge keys become "u-v" strings."""
        return {
            "edge_colors": {
                "%d-%d" % edge: color for edge, color in self.edge_colors.items()
            },
            "palette_size": self.palette_size,
            "rounds_by_stage": dict(self.rounds_by_stage),
            "bits_per_edge_by_stage": dict(self.bits_per_edge_by_stage),
            "total_rounds": self.total_rounds,
            "total_bits_per_edge": self.total_bits_per_edge,
            "max_message_bits": self.max_message_bits,
        }

    def __repr__(self):
        return "EdgeColoringResult(colors=%d, palette=%d, rounds=%d, bits/edge=%d)" % (
            self.num_colors,
            self.palette_size,
            self.total_rounds,
            self.total_bits_per_edge,
        )


Result.register(EdgeColoringResult)


def _bits(x):
    return max(1, math.ceil(math.log2(max(2, x))))


def cole_vishkin_classes(graph, defective_colors, edge_index, history=False):
    """3-color every 2-defective class; return ``(k_of, rows)``.

    Each class induces paths/cycles of edges.  Every class edge points at the
    class neighbor at its *head* (the higher-ID endpoint it is oriented
    towards).  At any shared vertex, one class edge is incoming and the other
    outgoing (two incoming would share the in-index ``j``, two outgoing the
    out-index ``i``), so every class adjacency ``{e, f}`` is covered by
    exactly one pointer — a pseudoforest whose undirected edges are precisely
    the class adjacencies.  CV runs on all classes in parallel, every class
    on the label space ``max(2, m)``, so all of them share the rounds of
    :func:`~repro.linial.cole_vishkin.label_spaces`.

    ``k_of`` maps each edge to its CV color in ``{0, 1, 2}``.  With
    ``history``, ``rows[edge]`` lists the ``(label, space)`` the edge's head
    computed in each CV round (the Bit-Round reference tier ships them);
    otherwise ``rows`` is empty.
    """
    classes = defaultdict(list)
    # For each vertex and class, the class edges incident to it (<= 2).
    incident_by_class = defaultdict(lambda: defaultdict(list))
    for edge, pair in defective_colors.items():
        u, v = edge
        classes[pair].append(edge)
        incident_by_class[pair][u].append(edge)
        incident_by_class[pair][v].append(edge)

    k_of = {}
    rows = {}
    label_space = max(2, len(graph.edges))
    for pair, class_edges in classes.items():
        class_edges.sort()
        index = {edge: i for i, edge in enumerate(class_edges)}
        parents = [None] * len(class_edges)
        for edge, i in index.items():
            u, v = edge
            head = v if graph.ids[v] > graph.ids[u] else u
            others = [e for e in incident_by_class[pair][head] if e != edge]
            if others:
                parents[i] = index[others[0]]
        labels = [edge_index[edge] for edge in class_edges]
        colors, _, steps = cole_vishkin_three_coloring(
            parents, labels, label_space, return_history=True
        )
        for edge, i in index.items():
            k_of[edge] = colors[i]
            if history:
                rows[edge] = [(row[i], space) for row, space in steps]
    return k_of, rows


def _run_line_stage(line_graph, stage, initial, palette, tier):
    engine = resolve_backend("engine", tier)(
        line_graph, check_proper_each_round=True
    )
    return engine.run(stage, initial, in_palette_size=palette)


def edge_coloring_congest(graph, exact=True, neighbor_ids_known=False,
                          backend="auto"):
    """(2*Delta-1)- (or O(Delta)-) edge-coloring in O(Delta + log* n) rounds.

    Parameters
    ----------
    exact:
        If True (default) finish with the hybrid for exactly ``2*Delta - 1``
        colors (Theorem 5.3); otherwise stop after AG with ``O(Delta)``
        colors (Lemma 5.1).
    neighbor_ids_known:
        Skip the initial ID exchange (Lemma 5.2, second statement).
    backend:
        Execution tier for the Kuhn stage, the line-graph build, and the
        line-graph engine runs (``auto``/``batch``/``reference``; there is
        no oocore tier); every tier returns the identical result.

    Returns an :class:`EdgeColoringResult`.
    """
    tier = choose_tier(backend, graph)
    delta = graph.max_degree
    edges = graph.edges
    if not edges:
        return EdgeColoringResult({}, max(1, 2 * delta - 1), {}, {}, 0)

    rounds = {}
    bits = {}

    id_bits = _bits(graph.n)
    if not neighbor_ids_known:
        rounds["id-exchange"] = 1
        bits["id-exchange"] = 2 * id_bits

    defective = kuhn_defective_edge_coloring(graph, backend=tier)
    rounds["kuhn-2-defective"] = 1
    bits["kuhn-2-defective"] = 2 * _bits(max(1, delta))

    line_graph, edge_index = build_line_graph(graph, backend=tier)
    k_of, _ = cole_vishkin_classes(graph, defective, edge_index)
    # One label exchange per CV round, each label at the width of the space
    # it was drawn from.
    spaces = label_spaces(max(2, len(edges)))
    sent = ([max(2, len(edges))] + spaces)[:len(spaces) - 6]
    rounds["cole-vishkin"] = len(spaces)
    bits["cole-vishkin"] = sum(2 * _bits(s) for s in sent) + 6 * 2 * 2

    # Proper 3 * Delta^2 coloring of the line graph.
    base = max(1, delta)
    initial = [0] * line_graph.n
    for edge, (i, j) in defective.items():
        initial[edge_index[edge]] = (i * base + j) * 3 + k_of[edge]
    palette = 3 * base * base

    ag = AdditiveGroupColoring()
    ag_run = _run_line_stage(line_graph, ag, initial, palette, tier)
    rounds["ag"] = ag_run.rounds_used
    bits["ag"] = 2 * _bits(palette) + 2 * max(0, ag_run.rounds_used - 1)

    colors = ag_run.int_colors
    palette = ag.out_palette_size
    max_message = max(id_bits, _bits(3 * base * base))

    if exact:
        hybrid = ExactDeltaPlusOneHybrid()
        hybrid_run = _run_line_stage(line_graph, hybrid, colors, palette, tier)
        rounds["exact-hybrid"] = hybrid_run.rounds_used
        bits["exact-hybrid"] = 2 * 2 * hybrid_run.rounds_used
        colors = hybrid_run.int_colors
        palette = hybrid.out_palette_size  # Delta_L + 1 = 2 * Delta - 1

    edge_colors = {edge: colors[edge_index[edge]] for edge in edges}
    return EdgeColoringResult(edge_colors, palette, rounds, bits, max_message)


def bit_round_ledger(graph, result, exact, neighbor_ids_known):
    """Bit-rounds per phase of the Section 5 protocol run bit by bit.

    The closed form of what :mod:`repro.bitround.edge_coloring` drains from
    its channels, read off a finished :func:`edge_coloring_congest` result:
    the ID and Kuhn phases are one message each at the ID and index widths;
    a Cole–Vishkin round carries a label at the width of its label space,
    which every class shares; AG costs one bit per round and the hybrid two.
    """
    if not result.edge_colors:
        return {}
    rounds = {}
    if not neighbor_ids_known:
        rounds["id-exchange"] = _bits(graph.n)
    rounds["kuhn-2-defective"] = _bits(max(1, graph.max_degree))
    rounds["cole-vishkin"] = sum(
        _bits(space) for space in label_spaces(max(2, len(graph.edges)))
    )
    rounds["ag"] = result.rounds_by_stage["ag"]
    if exact:
        rounds["exact-hybrid"] = 2 * result.rounds_by_stage["exact-hybrid"]
    return rounds


def edge_coloring_bit_round(graph, exact=True, neighbor_ids_known=False,
                            backend="auto"):
    """The same protocol, costed for the Bit-Round model.

    In the Bit-Round model a vertex sends *one bit* per edge per round.
    Total: ``O(Delta + log n)`` rounds (``O(Delta + log log n)`` with known
    IDs), Theorem 5.3.

    Returns ``(result, bit_rounds)``: the coloring plus the bit-rounds the
    executed protocol takes (:func:`bit_round_ledger`).
    """
    result = edge_coloring_congest(
        graph, exact=exact, neighbor_ids_known=neighbor_ids_known,
        backend=backend,
    )
    ledger = bit_round_ledger(graph, result, exact, neighbor_ids_known)
    return result, sum(ledger.values())
