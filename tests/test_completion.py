"""Unit tests for the arbdefective-class completion and its result objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbdefective import (
    ArbAGColoring,
    finalization_arcs,
    finalization_orientation,
)
from repro.defective.vertex import DefectiveLinialColoring
from repro.recipes import (
    SublinearColoringResult,
    complete_along_arcs,
    complete_arbdefective_to_proper,
)
from repro.graphgen import cycle_graph, gnp_graph, path_graph, random_regular
from repro.runtime.backends import resolve_backend
from repro.runtime.graph import StaticGraph

requires_numpy = pytest.mark.requires_numpy


class TestCompleteArbdefective:
    def test_single_class_chain(self):
        graph = path_graph(4)
        orientation = [[], [0], [1], [2]]  # a chain: acts take 4 rounds
        colors, rounds = complete_arbdefective_to_proper(
            graph, orientation, class_of=[0, 0, 0, 0], class_palette=2
        )
        assert rounds == 4
        for u, v in graph.edges:
            assert colors[u] != colors[v]

    def test_parallel_classes_share_rounds(self):
        graph = StaticGraph(4, [(0, 1), (2, 3)])
        orientation = [[], [0], [], [2]]
        colors, rounds = complete_arbdefective_to_proper(
            graph, orientation, class_of=[0, 0, 1, 1], class_palette=2
        )
        assert rounds == 2  # both components progress simultaneously
        assert colors[0] != colors[1] and colors[2] != colors[3]

    def test_disjoint_palettes_per_class(self):
        graph = StaticGraph(2, [(0, 1)])
        orientation = [[], []]
        colors, _ = complete_arbdefective_to_proper(
            graph, orientation, class_of=[0, 1], class_palette=3
        )
        assert colors[0] // 3 == 0 and colors[1] // 3 == 1

    def test_palette_overflow_detected(self):
        graph = StaticGraph(3, [(0, 1), (0, 2), (1, 2)])
        orientation = [[], [0], [0, 1]]  # vertex 2 has 2 out-neighbors
        with pytest.raises(AssertionError):
            complete_arbdefective_to_proper(
                graph, orientation, class_of=[0, 0, 0], class_palette=2
            )

    def test_cyclic_orientation_detected(self):
        graph = cycle_graph(3)
        orientation = [[1], [2], [0]]
        with pytest.raises(AssertionError):
            complete_arbdefective_to_proper(
                graph, orientation, class_of=[0, 0, 0], class_palette=4
            )

    def test_no_vertices(self):
        graph = StaticGraph(0, [])
        colors, rounds = complete_arbdefective_to_proper(graph, [], [], 1)
        assert colors == [] and rounds == 0


class TestSublinearResult:
    def test_accounting(self):
        result = SublinearColoringResult(
            colors=[0, 1, 2],
            palette_size=9,
            stage_rounds={"defective-linial": 2, "arb-ag": 3, "class-completion": 4},
            out_degree_bound=2,
        )
        assert result.total_rounds == 9
        assert result.ag_side_rounds == 7  # everything but the log* stage
        assert result.num_colors == 3
        assert "palette=9" in repr(result)


# -- the column completion against the scalar oracle ---------------------------


@st.composite
def _graphs(draw):
    """Random regular graphs, G(n,p) with isolated vertices appended, and
    the graphs on 0, 1 and 2 vertices."""
    kind = draw(st.sampled_from(["regular", "gnp", "tiny"]))
    # Seeds below 300 with n >= 10 and degree <= 6 all repair their stub
    # matching (random_regular raises on a tiny graph it cannot repair).
    seed = draw(st.integers(0, 299))
    if kind == "regular":
        n = draw(st.integers(10, 40))
        degree = draw(st.integers(1, 6))
        return random_regular(n, degree - (n * degree) % 2, seed=seed)
    if kind == "gnp":
        base = gnp_graph(draw(st.integers(2, 40)), draw(st.floats(0.0, 0.4)), seed=seed)
        return StaticGraph(base.n + draw(st.integers(1, 4)), base.edges)
    n = draw(st.sampled_from([0, 1, 2]))
    return StaticGraph(n, [(0, 1)] if n == 2 and draw(st.booleans()) else [])


def _arbag_state(graph, tolerance):
    """A finished batch ArbAG run after the defective stage, as one-plus-eps
    runs it."""
    engine = resolve_backend("engine", "batch")(graph)
    defective = DefectiveLinialColoring(tolerance)
    first = engine.run(defective, list(range(graph.n)), in_palette_size=max(2, graph.n))
    run = engine.run(
        ArbAGColoring(tolerance), first.int_colors_array,
        in_palette_size=defective.out_palette_size,
    )
    return run.final_state, run.colors


def _tied_state(draw, graph):
    """Final ArbAG-shaped columns with few classes and few rounds, so that
    many intra-class edges join vertices that finalized in the same round."""
    import numpy as np

    values = st.lists(st.integers(0, 2), min_size=graph.n, max_size=graph.n)
    b = np.array(draw(values), dtype=np.int64)
    fr = np.array(draw(values), dtype=np.int64)
    zeros = np.zeros(graph.n, dtype=np.int64)
    state = (zeros, b, zeros, fr)
    return state, [(0, int(bv), 0, int(fv)) for bv, fv in zip(b, fr)]


class TestColumnCompletion:
    """``finalization_arcs`` + ``complete_along_arcs`` (the batch and oocore
    tiers) equal ``finalization_orientation`` +
    ``complete_arbdefective_to_proper`` (the reference tier)."""

    @staticmethod
    def _assert_forms_agree(graph, state, internal_colors):
        import numpy as np

        orientation = finalization_orientation(graph, internal_colors)
        tails, heads = finalization_arcs(graph, state)
        arcs = [set() for _ in range(graph.n)]
        for tail, head in zip(tails.tolist(), heads.tolist()):
            arcs[tail].add(head)
        assert arcs == [set(outs) for outs in orientation]
        assert len(tails) == sum(map(len, orientation))  # no repeated arc

        bound = max((len(outs) for outs in orientation), default=0)
        assert int(np.bincount(tails, minlength=1).max()) == bound
        class_of = [color[1] for color in internal_colors]
        assert complete_along_arcs(
            tails, heads, state[1], bound + 1
        ) == complete_arbdefective_to_proper(graph, orientation, class_of, bound + 1)

    @requires_numpy
    @settings(max_examples=60, deadline=None)
    @given(graph=_graphs(), tolerance=st.integers(1, 4))
    def test_arbag_runs(self, graph, tolerance):
        state, internal_colors = _arbag_state(graph, tolerance)
        self._assert_forms_agree(graph, state, internal_colors)

    @requires_numpy
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=_graphs())
    def test_equal_round_ties_go_to_the_smaller_vertex(self, data, graph):
        state, internal_colors = _tied_state(data.draw, graph)
        self._assert_forms_agree(graph, state, internal_colors)

    @requires_numpy
    def test_tie_example(self):
        import numpy as np

        graph = path_graph(3)
        zeros = np.zeros(3, dtype=np.int64)
        tails, heads = finalization_arcs(graph, (zeros, zeros, zeros, zeros))
        # Every endpoint finalized in round 0: each edge points at its
        # smaller endpoint.
        assert sorted(zip(tails.tolist(), heads.tolist())) == [(1, 0), (2, 1)]

    @requires_numpy
    def test_sharded_graph_reads_its_edges_by_shard(self, tmp_path):
        from repro.oocore.writers import shard_static_graph

        graph = random_regular(60, 6, seed=3)
        state, _ = _arbag_state(graph, 2)
        sharded = shard_static_graph(graph, str(tmp_path), shards=3)
        for mine, theirs in zip(
            finalization_arcs(graph, state), finalization_arcs(sharded, state)
        ):
            assert mine.tolist() == theirs.tolist()

    @requires_numpy
    def test_errors_match_the_scalar_form(self):
        import numpy as np

        # The scalar form's two failures, on the same inputs as
        # TestCompleteArbdefective: a palette below the out-degree and a
        # cycle.
        three = np.zeros(3, dtype=np.int64)
        with pytest.raises(AssertionError, match="out-degree 2 exceeds class palette 2"):
            complete_along_arcs(np.array([1, 2, 2]), np.array([0, 0, 1]), three, 2)
        with pytest.raises(AssertionError, match="cyclic"):
            complete_along_arcs(np.array([0, 1, 2]), np.array([1, 2, 0]), three, 4)
        empty = np.zeros(0, dtype=np.int64)
        assert complete_along_arcs(empty, empty, empty, 1) == ([], 0)
