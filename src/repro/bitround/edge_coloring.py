"""The Section 5 edge-coloring protocol executed bit-by-bit.

Every piece of information an endpoint uses about the other side arrives
through the :class:`~repro.bitround.channel.BitChannelNetwork` as actual
bits; both endpoints of an edge maintain replicas of the edge color that
stay synchronized *only* through those bits:

1. **ID exchange** — every vertex streams its ``ceil(log2 n)``-bit ID over
   every incident edge (skippable when IDs are pre-shared).
2. **Kuhn 2-defective coloring** — the tail streams its out-index, the head
   its in-index (``ceil(log2 Delta)`` bits each way).
3. **Cole–Vishkin** — per CV iteration, the head endpoint recomputes the
   edge's label (it is incident to the parent edge, so it holds both labels)
   and streams it to the tail; label widths shrink geometrically.
4. **AG phase** — per round each endpoint sends **one bit** ("some edge at
   my side shares our second coordinate"); the OR of the two bits drives the
   identical rotate/finalize update on both replicas.
5. **Exact hybrid phase** — per round each endpoint sends **two bits**
   (conflict-at-my-side, low-working-at-my-side) and both replicas apply the
   high/low hybrid rule.

The run records per-phase bit-round counts and asserts replica consistency;
its output is bit-identical to :func:`repro.edge.congest.
edge_coloring_congest` (tested), realizing Theorem 5.3's ``O(Delta + log n)``
Bit-Round bound as an execution.
"""

import math

from repro.bitround.channel import BitChannelNetwork, decode_int, encode_int
from repro.core.hybrid import ExactDeltaPlusOneHybrid
from repro.core.ag import ag_prime_for
from repro.defective.kuhn_edge import kuhn_defective_edge_coloring
from repro.edge.congest import (
    bit_round_ledger,
    cole_vishkin_classes,
    edge_coloring_congest,
)
from repro.edge.line_graph import build_line_graph
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.backends import choose_tier
from repro.runtime.results import Result

__all__ = ["BitRoundEdgeColoringRun", "run_edge_coloring_bit_protocol"]


def _bits(x):
    return max(1, math.ceil(math.log2(max(2, x))))


class BitRoundEdgeColoringRun:
    """Outcome of the bit-level execution."""

    def __init__(self, edge_colors, palette_size, rounds_by_phase):
        self.edge_colors = edge_colors
        self.palette_size = palette_size
        self.rounds_by_phase = dict(rounds_by_phase)

    @property
    def total_bit_rounds(self):
        """Bit-rounds summed over all phases: O(Delta + log n)."""
        return sum(self.rounds_by_phase.values())

    @property
    def rounds(self):
        """Alias of :attr:`total_bit_rounds` (the shared result protocol)."""
        return self.total_bit_rounds

    @property
    def colors(self):
        """Alias of :attr:`edge_colors` (the shared result protocol)."""
        return self.edge_colors

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
            "rounds_by_phase": dict(self.rounds_by_phase),
            "total_bit_rounds": self.total_bit_rounds,
        }

    def __repr__(self):
        return "BitRoundEdgeColoringRun(colors=%d, bit_rounds=%d)" % (
            len(set(self.edge_colors.values())),
            self.total_bit_rounds,
        )


Result.register(BitRoundEdgeColoringRun)


class _EndpointViews:
    """The two per-endpoint replicas of every edge's state."""

    def __init__(self, graph):
        self.graph = graph
        self.state = {}  # (endpoint, edge) -> value

    def set_both(self, edge, value):
        u, v = edge
        self.state[(u, edge)] = value
        self.state[(v, edge)] = value

    def set_one(self, endpoint, edge, value):
        self.state[(endpoint, edge)] = value

    def get(self, endpoint, edge):
        return self.state[(endpoint, edge)]

    def incident_values(self, endpoint, excluding):
        for w in self.graph.neighbors(endpoint):
            edge = (endpoint, w) if endpoint < w else (w, endpoint)
            if edge != excluding:
                yield self.state[(endpoint, edge)]

    def assert_consistent(self):
        for u, v in self.graph.edges:
            edge = (u, v)
            assert self.state[(u, edge)] == self.state[(v, edge)], (
                "replica divergence on %r" % (edge,)
            )


def run_edge_coloring_bit_protocol(graph, exact=True, neighbor_ids_known=False,
                                   backend="auto"):
    """Execute the whole pipeline through bit channels.

    ``backend`` picks the execution tier (``auto``/``batch``/``reference``;
    there is no oocore tier): the reference tier streams every
    bit through a :class:`~repro.bitround.channel.BitChannelNetwork` and
    checks both endpoints' replicas after every round, while the batch tier
    runs :func:`~repro.edge.congest.edge_coloring_congest` on the batch
    engine and computes the ledger from the channel's closed form
    (``drain()`` returns the widest message any direction carries).  Both
    tiers return bit-identical colors, palettes, and per-phase bit-round
    counts.

    Returns a :class:`BitRoundEdgeColoringRun`.
    """
    if choose_tier(backend, graph) == "reference":
        return _reference(graph, exact, neighbor_ids_known)
    return _batch(graph, exact, neighbor_ids_known)


def _batch(graph, exact, neighbor_ids_known):
    """Batch tier: the CONGEST pipeline on the batch engine, the ledger in
    closed form (:func:`~repro.edge.congest.bit_round_ledger`)."""
    result = edge_coloring_congest(
        graph, exact=exact, neighbor_ids_known=neighbor_ids_known,
        backend="batch",
    )
    return BitRoundEdgeColoringRun(
        result.edge_colors,
        result.palette_size,
        bit_round_ledger(graph, result, exact, neighbor_ids_known),
    )


def _reference(graph, exact, neighbor_ids_known):
    """Channel-level tier: every bit really crosses a FIFO edge channel."""
    edges = graph.edges
    delta = graph.max_degree
    if not edges:
        return BitRoundEdgeColoringRun({}, max(1, 2 * delta - 1), {})

    network = BitChannelNetwork(graph)
    rounds = {}

    # -- Phase 0: IDs ----------------------------------------------------------
    id_width = _bits(graph.n)
    known_ids = {}
    if neighbor_ids_known:
        for v in graph.vertices():
            for u in graph.neighbors(v):
                known_ids[(v, u)] = graph.ids[u]
    else:
        for v in graph.vertices():
            network.broadcast(v, encode_int(graph.ids[v], id_width))
        rounds["id-exchange"] = network.drain()
        for v in graph.vertices():
            for u in graph.neighbors(v):
                known_ids[(v, u)] = decode_int(network.receive(v, u, id_width))
                assert known_ids[(v, u)] == graph.ids[u]

    # -- Phase 1: Kuhn 2-defective pairs ----------------------------------------
    index_width = _bits(max(1, delta))
    views = _EndpointViews(graph)
    # Local, deterministic index assignment (rank of the other endpoint's ID).
    for v in graph.vertices():
        out_neighbors = sorted(
            (u for u in graph.neighbors(v) if known_ids[(v, u)] > graph.ids[v]),
            key=lambda u: known_ids[(v, u)],
        )
        in_neighbors = sorted(
            (u for u in graph.neighbors(v) if known_ids[(v, u)] < graph.ids[v]),
            key=lambda u: known_ids[(v, u)],
        )
        for rank, u in enumerate(out_neighbors):
            network.send(v, u, encode_int(rank, index_width))
            edge = (v, u) if v < u else (u, v)
            views.set_one(v, edge, ("i", rank))
        for rank, u in enumerate(in_neighbors):
            network.send(v, u, encode_int(rank, index_width))
            edge = (v, u) if v < u else (u, v)
            views.set_one(v, edge, ("j", rank))
    rounds["kuhn-2-defective"] = network.drain()
    pair_of = {}
    for u, v in edges:
        edge = (u, v)
        tail, head = (u, v) if graph.ids[u] < graph.ids[v] else (v, u)
        i_rank = views.get(tail, edge)[1]
        j_rank_received = decode_int(network.receive(tail, head, index_width))
        # The head's view: receives the tail's i.
        i_rank_received = decode_int(network.receive(head, tail, index_width))
        assert i_rank_received == i_rank
        pair_of[edge] = (i_rank, j_rank_received)
        views.set_both(edge, pair_of[edge])
    reference = kuhn_defective_edge_coloring(graph)
    assert pair_of == reference  # the local rule equals the global one

    # -- Phase 2: Cole–Vishkin over the channels ---------------------------------
    line_graph, edge_index = build_line_graph(graph)
    k_of, cv_bit_rounds = _cole_vishkin_over_channels(
        graph, network, pair_of, edge_index, views
    )
    rounds["cole-vishkin"] = cv_bit_rounds

    base = max(1, delta)
    palette = 3 * base * base
    for edge in edges:
        i, j = pair_of[edge]
        views.set_both(edge, (i * base + j) * 3 + k_of[edge])
    views.assert_consistent()

    # -- Phase 3: AG, one bit per round -------------------------------------------
    q = ag_prime_for(palette, line_graph.max_degree)
    for edge in edges:
        c = views.get(edge[0], edge)
        views.set_both(edge, (c // q, c % q))
    ag_rounds = 0
    while any(views.get(u, (u, v))[0] != 0 for u, v in edges):
        own_test = {}
        for u, v in edges:
            edge = (u, v)
            _, b = views.get(u, edge)
            for endpoint, other in ((u, v), (v, u)):
                conflict_here = any(
                    nb == b for _, nb in views.incident_values(endpoint, edge)
                )
                own_test[(endpoint, edge)] = conflict_here
                network.send(endpoint, other, "1" if conflict_here else "0")
        ag_rounds += network.drain()
        pending = {}
        for u, v in edges:
            edge = (u, v)
            a, b = views.get(u, edge)
            bit_from_v = network.receive(u, v, 1)
            bit_from_u = network.receive(v, u, 1)
            conflict = (
                bit_from_v == "1"
                or bit_from_u == "1"
                or own_test[(u, edge)]
                or own_test[(v, edge)]
            )
            pending[edge] = (a, (b + a) % q) if conflict else (0, b)
        for edge, state in pending.items():
            views.set_both(edge, state)
        views.assert_consistent()
    rounds["ag"] = ag_rounds
    for edge in edges:
        views.set_both(edge, views.get(edge[0], edge)[1])
    palette = q

    # -- Phase 4: exact hybrid, two bits per round ---------------------------------
    if exact:
        hybrid = ExactDeltaPlusOneHybrid()
        hybrid.configure(NetworkInfo(line_graph.n, line_graph.max_degree, palette))
        for edge in edges:
            views.set_both(edge, hybrid.encode_initial(views.get(edge[0], edge)))
        hybrid_rounds = 0
        while any(not hybrid.is_final(views.get(u, (u, v))) for u, v in edges):
            own_test = {}
            for u, v in edges:
                edge = (u, v)
                state = views.get(u, edge)
                for endpoint, other in ((u, v), (v, u)):
                    conflict_here, low_here = _hybrid_local_tests(
                        hybrid, state, views.incident_values(endpoint, edge)
                    )
                    own_test[(endpoint, edge)] = (conflict_here, low_here)
                    network.send(
                        endpoint,
                        other,
                        ("1" if conflict_here else "0")
                        + ("1" if low_here else "0"),
                    )
            hybrid_rounds += network.drain()
            pending = {}
            for u, v in edges:
                edge = (u, v)
                state = views.get(u, edge)
                from_v = network.receive(u, v, 2)
                from_u = network.receive(v, u, 2)
                local_u = own_test[(u, edge)]
                local_v = own_test[(v, edge)]
                conflict = (
                    from_v[0] == "1"
                    or from_u[0] == "1"
                    or local_u[0]
                    or local_v[0]
                )
                low_working = (
                    from_v[1] == "1"
                    or from_u[1] == "1"
                    or local_u[1]
                    or local_v[1]
                )
                pending[edge] = _hybrid_apply(hybrid, state, conflict, low_working)
            for edge, state in pending.items():
                views.set_both(edge, state)
            views.assert_consistent()
        rounds["exact-hybrid"] = hybrid_rounds
        palette = hybrid.out_palette_size
        for edge in edges:
            views.set_both(edge, hybrid.decode_final(views.get(edge[0], edge)))

    edge_colors = {edge: views.get(edge[0], edge) for edge in edges}
    return BitRoundEdgeColoringRun(edge_colors, palette, rounds)


def _cole_vishkin_over_channels(graph, network, pair_of, edge_index, views):
    """CV labels computed per class; every label update crosses the channel.

    The head endpoint of each edge (incident to the parent edge, so it holds
    both labels) owns the label computation; per CV round it streams the
    *actual updated label* to the tail, whose replica must match — asserted
    after every round.  Label widths follow the shrinking space schedule.
    """
    k_of, per_edge_history = cole_vishkin_classes(
        graph, pair_of, edge_index, history=True
    )
    max_rounds = max(len(history) for history in per_edge_history.values())

    # Ship every round's label from head to tail; the tail replica decodes
    # and must agree with the computed history.
    total = 0
    for r in range(max_rounds):
        widths = {}
        for edge in graph.edges:
            history = per_edge_history[edge]
            label, space = history[min(r, len(history) - 1)]
            width = _bits(space)
            u, v = edge
            head = v if graph.ids[v] > graph.ids[u] else u
            tail = u if head == v else v
            network.send(head, tail, encode_int(label, width))
            widths[edge] = (tail, head, width, label)
        total += network.drain()
        for edge, (tail, head, width, label) in widths.items():
            received = decode_int(network.receive(tail, head, width))
            assert received == label
    return k_of, total


def _hybrid_local_tests(hybrid, state, incident_states):
    """(conflict-at-this-endpoint, low-working-at-this-endpoint)."""
    incident_states = tuple(incident_states)  # consumed twice below
    tag, b, a = state
    low_here = any(nt == hybrid.LOW and nb == 1 for nt, nb, _ in incident_states)
    if tag == hybrid.LOW:
        conflict_here = any(
            nt == hybrid.LOW and na == a for nt, _, na in incident_states
        )
    else:
        conflict_here = any(
            (nt == hybrid.HIGH and na == a)
            or (nt == hybrid.LOW and nb == 0 and na == a)
            for nt, nb, na in incident_states
        )
    return conflict_here, low_here


def _hybrid_apply(hybrid, state, conflict, low_working):
    """The hybrid update from the OR-combined endpoint tests."""
    tag, b, a = state
    n, p = hybrid.n_colors, hybrid.p
    if tag == hybrid.LOW:
        if b == 0:
            return state
        if conflict:
            return (hybrid.LOW, 1, (a + 1) % n)
        return (hybrid.LOW, 0, a)
    if conflict or low_working:
        return (hybrid.HIGH, b, (a + b) % p)
    if a < n:
        return (hybrid.LOW, 0, a)
    return (hybrid.LOW, 1, a - n)
