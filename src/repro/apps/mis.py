"""Maximal independent set from a proper coloring.

The classical color-class sweep: in round ``i`` every vertex of color ``i``
with no MIS neighbor joins the MIS.  Distinct colors make simultaneous joins
of neighbors impossible, and after ``C`` rounds every vertex either joined
or has a joined neighbor.  Combined with Corollary 3.6's coloring this gives
a locally-iterative MIS in ``O(Delta + log* n)`` rounds — the static
counterpart of the self-stabilizing Theorem 4.5.
"""

from repro.analysis.invariants import is_maximal_independent_set
from repro.recipes import delta_plus_one_coloring
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = [
    "MISResult",
    "ClassSweepMIS",
    "mis_from_coloring",
    "locally_iterative_mis",
]


class ClassSweepMIS(LocallyIterativeColoring):
    """The color-class sweep as an engine stage.

    Internal colors are ``(color, status)`` with status in
    ``{None, "MIS", "NOTMIS"}``; in round ``r`` the vertices of color ``r``
    decide.  Runs on the ordinary engine (and therefore in SET-LOCAL — the
    rule only inspects the set of neighbor states).  ``decode_final`` maps
    members to 1 and non-members to 0.
    """

    name = "class-sweep-mis"
    maintains_proper = False  # the "colors" carry statuses, not a coloring

    @property
    def out_palette_size(self):
        return 2

    @property
    def rounds_bound(self):
        return self.info.in_palette_size

    def encode_initial(self, color):
        return (color, None)

    def step(self, round_index, color, neighbor_colors):
        own, status = color
        if status is not None or own != round_index:
            return color
        has_mis_neighbor = any(s == "MIS" for _, s in neighbor_colors)
        return (own, "NOTMIS" if has_mis_neighbor else "MIS")

    def is_final(self, color):
        return color[1] is not None

    def decode_final(self, color):
        if color[1] is None:
            raise ValueError("vertex never decided: %r" % (color,))
        return 1 if color[1] == "MIS" else 0


class MISResult:
    """An MIS plus its round accounting."""

    def __init__(self, members, coloring_rounds, sweep_rounds):
        self.members = frozenset(members)
        self.coloring_rounds = coloring_rounds
        self.sweep_rounds = sweep_rounds

    @property
    def total_rounds(self):
        """Coloring rounds plus sweep rounds."""
        return self.coloring_rounds + self.sweep_rounds

    def to_dict(self):
        """JSON-serializable summary."""
        return {
            "members": sorted(self.members),
            "coloring_rounds": self.coloring_rounds,
            "sweep_rounds": self.sweep_rounds,
            "total_rounds": self.total_rounds,
        }

    def __repr__(self):
        return "MISResult(size=%d, rounds=%d)" % (len(self.members), self.total_rounds)


def mis_from_coloring(graph, colors, num_colors=None):
    """Sweep the color classes; return ``(members, rounds)``.

    ``colors`` must be a proper coloring.  The sweep is executed through the
    ordinary synchronous engine as a :class:`ClassSweepMIS` stage — one round
    per color class (empty classes cost a round too, matching what a vertex
    with only local knowledge runs).
    """
    from repro.runtime.engine import ColoringEngine

    if num_colors is None:
        num_colors = (max(colors) + 1) if len(colors) else 0
    if graph.n == 0:
        return set(), num_colors
    engine = ColoringEngine(graph)
    run = engine.run(
        ClassSweepMIS(), list(colors), in_palette_size=max(1, num_colors)
    )
    members = {v for v in graph.vertices() if run.int_colors[v] == 1}
    return members, num_colors


def locally_iterative_mis(graph, coloring_result=None):
    """MIS in ``O(Delta + log* n)`` rounds via Corollary 3.6 + class sweep."""
    if coloring_result is None:
        coloring_result = delta_plus_one_coloring(graph)
    members, sweep_rounds = mis_from_coloring(
        graph, coloring_result.colors, graph.max_degree + 1
    )
    result = MISResult(members, coloring_result.total_rounds, sweep_rounds)
    assert is_maximal_independent_set(graph, result.members)
    return result
