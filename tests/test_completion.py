"""Unit tests for the arbdefective-class completion and its result objects."""

import pytest

from repro.recipes import (
    SublinearColoringResult,
    complete_arbdefective_to_proper,
)
from repro.graphgen import cycle_graph, path_graph
from repro.runtime.graph import StaticGraph


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
