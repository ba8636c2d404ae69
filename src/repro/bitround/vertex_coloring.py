"""Corollary 3.6 executed through bit channels.

The communication-efficiency claim of Section 3 ("it is enough to send only
one bit indicating whether its color became final or that it changed
according to the rule") made executable for *vertex* coloring:

1. **Linial rounds** — each vertex broadcasts its current color, serialized
   at the round's palette width; receivers deserialize into per-neighbor
   replicas.
2. **AG pair exchange** — one broadcast of the initial pair, then
3. **AG rounds** — exactly **one bit** per neighbor per round
   (``1`` = rotated, ``0`` = finalized): a receiver holding the neighbor's
   replica ``(a, b)`` applies ``(a, b + a)`` or ``(0, b)`` itself.
4. **Standard reduction rounds** — a vertex of the acting class broadcasts
   its freshly picked color (palette-width bits); everyone else broadcasts a
   single ``0`` "no change" bit, so receivers know whether to read a value.

Per-neighbor replicas are asserted equal to the true colors after every
round; the final coloring is bit-identical to
:func:`repro.recipes.delta_plus_one_coloring` on the same graph.
"""

import math

from repro.bitround.channel import BitChannelNetwork, decode_int, encode_int
from repro.core.ag import AdditiveGroupColoring
from repro.core.reductions import StandardColorReduction
from repro.linial.core import LinialColoring, linial_next_color
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.backends import choose_tier
from repro.runtime.csr import numpy_or_none
from repro.runtime.pipeline import ColoringPipeline
from repro.runtime.results import Result

__all__ = ["VertexBitProtocolRun", "run_vertex_coloring_bit_protocol"]


def _bits(x):
    return max(1, math.ceil(math.log2(max(2, x))))


class VertexBitProtocolRun:
    """Outcome of the bit-level vertex-coloring execution."""

    def __init__(self, colors, rounds_by_phase, bit_rounds_by_phase):
        self.colors = colors
        self.rounds_by_phase = dict(rounds_by_phase)
        self.bit_rounds_by_phase = dict(bit_rounds_by_phase)

    @property
    def total_bit_rounds(self):
        """Bit-rounds summed over all phases."""
        return sum(self.bit_rounds_by_phase.values())

    @property
    def rounds(self):
        """Communication rounds summed over phases (the result protocol)."""
        return sum(self.rounds_by_phase.values())

    @property
    def num_colors(self):
        """Distinct colors used (at most Delta + 1)."""
        return len(set(self.colors))

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "colors": list(self.colors),
            "num_colors": self.num_colors,
            "rounds_by_phase": dict(self.rounds_by_phase),
            "bit_rounds_by_phase": dict(self.bit_rounds_by_phase),
            "rounds": self.rounds,
            "total_bit_rounds": self.total_bit_rounds,
        }

    def __repr__(self):
        return "VertexBitProtocolRun(colors=%d, bit_rounds=%d)" % (
            self.num_colors,
            self.total_bit_rounds,
        )


Result.register(VertexBitProtocolRun)


def run_vertex_coloring_bit_protocol(graph, backend="auto"):
    """Execute Linial -> AG -> standard reduction over bit channels.

    ``backend`` picks the execution tier.  The reference tier pushes every
    bit through a real :class:`BitChannelNetwork` and asserts per-neighbor
    replica consistency after every round; the batch and oocore tiers run
    the same stages on their engine and compute each phase's bit-round
    count from the channel's closed form (``drain()`` returns the longest
    pending queue, i.e. the widest message any direction carries that
    round).  Every tier returns bit-identical colors, round counts, and
    ledgers.
    """
    tier = choose_tier(backend, graph, oocore=True)
    if tier == "reference":
        return _reference(graph)
    return _on_engine(graph, tier)


def _on_engine(graph, tier):
    """Batch and oocore tiers: the cor36 stages on the tier's engine, the
    ledger in closed form.

    Linial sends one palette-width message per planned iteration; AG sends
    the pair once, then one bit per executed round.  The reduction protocol
    runs the full ``q - (Delta + 1)`` schedule, where the engine stops once
    every color is below the target.  Picks land below the target, so the
    acting class of each round is fixed by the AG output: a round costs
    ``1 + width`` bits when its class holds a vertex with neighbors, else the
    1-bit flag.  An edgeless graph sends nothing.
    """
    np = numpy_or_none()
    n = graph.n
    if n == 0:
        return VertexBitProtocolRun([], {}, {})
    pipeline = ColoringPipeline(
        [LinialColoring(), AdditiveGroupColoring(), StandardColorReduction()]
    )
    run = pipeline.run(
        graph, np.arange(n, dtype=np.int64), in_palette_size=max(2, n),
        backend=tier,
    )
    (linial, _), (ag, ag_run), (reduction, _) = run.stage_results
    rounds = {
        "linial": len(linial.plan),
        "additive-group": ag_run.rounds_used,
        "standard-reduction": reduction.rounds_bound,
    }
    if graph.m == 0:
        return VertexBitProtocolRun(run.colors, rounds, dict.fromkeys(rounds, 0))
    palettes = [max(2, n)] + [iteration.out_palette for iteration in linial.plan]
    colors = ag_run.int_colors_array
    acting = np.unique(colors[(_degrees(graph) > 0) & (colors >= reduction.target)])
    bit_rounds = {
        "linial": sum(_bits(palette) for palette in palettes[:-1]),
        "additive-group": _bits(palettes[-1]) + ag_run.rounds_used,
        "standard-reduction": reduction.rounds_bound
        + acting.shape[0] * _bits(ag.q),
    }
    return VertexBitProtocolRun(run.colors, rounds, bit_rounds)


def _degrees(graph):
    """Every vertex's degree: the shard ``indptr``'s steps, or the CSR's."""
    from repro.oocore.store import ShardedCSRGraph

    if isinstance(graph, ShardedCSRGraph):
        return graph.degrees()
    return graph.csr().degrees


def _reference(graph):
    """Channel-level tier: every bit really crosses a FIFO edge channel."""
    n = graph.n
    if n == 0:
        return VertexBitProtocolRun([], {}, {})
    delta = graph.max_degree
    network = BitChannelNetwork(graph)
    colors = list(range(n))
    palette = max(2, n)
    # replicas[(v, u)] = v's belief about u's current color.
    replicas = {}
    rounds = {}
    bit_rounds = {}

    def broadcast_colors(width):
        for v in graph.vertices():
            network.broadcast(v, encode_int(colors[v], width))
        used = network.drain()
        for v in graph.vertices():
            for u in graph.neighbors(v):
                replicas[(v, u)] = decode_int(network.receive(v, u, width))
        return used

    def assert_replicas():
        for v in graph.vertices():
            for u in graph.neighbors(v):
                assert replicas[(v, u)] == colors[u], (v, u)

    # -- Phase 1: Linial -----------------------------------------------------------
    linial = LinialColoring()
    linial.configure(NetworkInfo(n, delta, palette))
    linial_bits = 0
    for iteration in linial.plan:
        linial_bits += broadcast_colors(_bits(palette))
        assert_replicas()
        colors = [
            linial_next_color(
                colors[v],
                [replicas[(v, u)] for u in graph.neighbors(v)],
                iteration.q,
                iteration.degree,
            )
            for v in graph.vertices()
        ]
        palette = iteration.out_palette
    rounds["linial"] = len(linial.plan)
    bit_rounds["linial"] = linial_bits

    # -- Phase 2: AG with 1-bit rounds -----------------------------------------------
    ag = AdditiveGroupColoring()
    ag.configure(NetworkInfo(n, delta, palette))
    q = ag.q
    pair_bits = broadcast_colors(_bits(palette))
    assert_replicas()
    pairs = [(c // q, c % q) for c in colors]
    pair_replicas = {
        key: (c // q, c % q) for key, c in replicas.items()
    }
    ag_rounds = 0
    ag_bits = pair_bits
    while any(a != 0 for a, _ in pairs):
        decisions = []
        for v in graph.vertices():
            a, b = pairs[v]
            conflict = any(
                pair_replicas[(v, u)][1] == b for u in graph.neighbors(v)
            )
            rotated = conflict and a != 0
            decisions.append(rotated)
            network.broadcast(v, "1" if rotated else "0")
        ag_bits += network.drain()
        ag_rounds += 1
        for v in graph.vertices():
            a, b = pairs[v]
            pairs[v] = (a, (b + a) % q) if decisions[v] else (0, b)
        for v in graph.vertices():
            for u in graph.neighbors(v):
                bit = network.receive(v, u, 1)
                ra, rb = pair_replicas[(v, u)]
                pair_replicas[(v, u)] = (
                    (ra, (rb + ra) % q) if bit == "1" else (0, rb)
                )
        for v in graph.vertices():
            for u in graph.neighbors(v):
                assert pair_replicas[(v, u)] == pairs[u], (v, u)
    colors = [b for _, b in pairs]
    replicas = {key: rb for key, (_, rb) in pair_replicas.items()}
    palette = q
    rounds["additive-group"] = ag_rounds
    bit_rounds["additive-group"] = ag_bits

    # -- Phase 3: standard reduction --------------------------------------------------
    reduction = StandardColorReduction()
    reduction.configure(NetworkInfo(n, delta, palette))
    target = reduction.target
    width = _bits(palette)
    red_rounds = 0
    red_bits = 0
    for t in range(max(0, palette - target)):
        acting = palette - 1 - t
        new_colors = list(colors)
        for v in graph.vertices():
            if colors[v] == acting and colors[v] >= target:
                taken = {replicas[(v, u)] for u in graph.neighbors(v)}
                pick = 0
                while pick in taken:
                    pick += 1
                new_colors[v] = pick
                network.broadcast(v, "1" + encode_int(pick, width))
            else:
                network.broadcast(v, "0")
        red_bits += network.drain()
        red_rounds += 1
        colors = new_colors
        for v in graph.vertices():
            for u in graph.neighbors(v):
                flag = network.receive(v, u, 1)
                if flag == "1":
                    replicas[(v, u)] = decode_int(network.receive(v, u, width))
        assert_replicas()
    rounds["standard-reduction"] = red_rounds
    bit_rounds["standard-reduction"] = red_bits

    return VertexBitProtocolRun(colors, rounds, bit_rounds)
