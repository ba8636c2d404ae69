"""Integration tests for the end-to-end pipelines (Corollaries 3.6, Thm 6.4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    delta_plus_one_coloring,
    delta_plus_one_exact_no_reduction,
    one_plus_eps_delta_coloring,
    sublinear_delta_plus_one_coloring,
)
from repro.analysis import is_proper_coloring
from repro.graphgen import (
    barbell_of_cliques,
    complete_graph,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular,
    random_tree,
    star_graph,
)
from repro.mathutil import log_star
from repro.runtime import Visibility
from tests.conftest import assert_proper


class TestCorollary36:
    def test_headline_guarantee(self, any_graph):
        result = delta_plus_one_coloring(any_graph, check_proper_each_round=True)
        assert_proper(any_graph, result.colors, "Corollary 3.6")
        assert max(result.colors, default=0) <= any_graph.max_degree

    def test_round_bound_o_delta_plus_log_star(self):
        for delta, n, seed in [(4, 128, 1), (8, 96, 2), (12, 78, 3)]:
            graph = random_regular(n, delta, seed=seed)
            result = delta_plus_one_coloring(graph)
            budget = 8 * delta + log_star(n) + 12
            assert result.total_rounds <= budget, (delta, result.rounds_by_stage())

    def test_respects_supplied_initial_coloring(self):
        graph = cycle_graph(20)
        sparse_ids = [3 * v + 1 for v in range(graph.n)]
        result = delta_plus_one_coloring(graph, initial_coloring=sparse_ids)
        assert is_proper_coloring(graph, result.colors)
        assert max(result.colors) <= graph.max_degree

    def test_runs_in_set_local(self):
        graph = random_regular(40, 6, seed=4)
        result = delta_plus_one_coloring(graph, visibility=Visibility.SET_LOCAL)
        assert is_proper_coloring(graph, result.colors)
        assert max(result.colors) <= graph.max_degree

    def test_stage_order(self):
        graph = gnp_graph(40, 0.15, seed=5)
        result = delta_plus_one_coloring(graph)
        names = [stage.name for stage, _ in result.stage_results]
        assert names == ["linial", "additive-group", "standard-reduction"]


class TestSection7Exact:
    def test_exact_palette(self, any_graph):
        result = delta_plus_one_exact_no_reduction(
            any_graph, check_proper_each_round=True
        )
        assert_proper(any_graph, result.colors, "Section 7 exact")
        assert max(result.colors, default=0) <= any_graph.max_degree

    def test_stage_order(self):
        graph = gnp_graph(40, 0.15, seed=6)
        result = delta_plus_one_exact_no_reduction(graph)
        names = [stage.name for stage, _ in result.stage_results]
        assert names == ["linial", "additive-group", "exact-hybrid"]

    def test_round_bound(self):
        for delta, n, seed in [(4, 120, 7), (10, 88, 8)]:
            graph = random_regular(n, delta, seed=seed)
            result = delta_plus_one_exact_no_reduction(graph)
            assert result.total_rounds <= 12 * delta + log_star(n) + 16


class TestTheorem64Shape:
    @pytest.mark.parametrize(
        "graph",
        [
            random_regular(72, 12, seed=1),
            gnp_graph(60, 0.2, seed=2),
            grid_graph(7, 8),
            random_tree(50, seed=3),
        ],
        ids=["regular", "gnp", "grid", "tree"],
    )
    def test_proper_o_delta_palette(self, graph):
        result = one_plus_eps_delta_coloring(graph)
        assert is_proper_coloring(graph, result.colors)
        delta = graph.max_degree
        # O(Delta) palette with a moderate construction constant.
        assert result.palette_size <= max(40, 16 * (delta + 1))

    def test_ag_side_rounds_scale_sublinearly(self):
        """The Delta-dependent work is O(sqrt(Delta))-shaped, not O(Delta)."""
        small = random_regular(80, 4, seed=4)
        large = random_regular(80, 36, seed=5)
        rs = one_plus_eps_delta_coloring(small)
        rl = one_plus_eps_delta_coloring(large)
        ratio = rl.ag_side_rounds / max(1, rs.ag_side_rounds)
        delta_ratio = large.max_degree / small.max_degree  # 9x
        assert ratio < delta_ratio, (rs.stage_rounds, rl.stage_rounds)

    def test_exact_variant_reaches_delta_plus_one(self):
        graph = random_regular(48, 8, seed=6)
        result = sublinear_delta_plus_one_coloring(graph)
        assert is_proper_coloring(graph, result.colors)
        assert max(result.colors) <= graph.max_degree
        assert result.palette_size == graph.max_degree + 1

    def test_explicit_tolerance(self):
        graph = random_regular(48, 12, seed=7)
        result = one_plus_eps_delta_coloring(graph, tolerance=2)
        assert is_proper_coloring(graph, result.colors)

    def test_stage_breakdown_present(self):
        graph = gnp_graph(40, 0.2, seed=8)
        result = sublinear_delta_plus_one_coloring(graph)
        assert set(result.stage_rounds) == {
            "defective-linial",
            "arb-ag",
            "class-completion",
            "standard-reduction",
        }


class TestDegenerateGraphs:
    def test_single_vertex(self):
        graph = path_graph(1)
        result = delta_plus_one_coloring(graph)
        assert result.colors == [0]

    def test_single_edge(self):
        graph = path_graph(2)
        result = delta_plus_one_coloring(graph)
        assert sorted(result.colors) == [0, 1]

    def test_no_edges(self):
        from repro.runtime.graph import StaticGraph

        graph = StaticGraph(5, [])
        result = delta_plus_one_coloring(graph)
        assert result.colors == [0, 0, 0, 0, 0]

    def test_star_and_clique_extremes(self):
        for graph in (star_graph(25), complete_graph(10), barbell_of_cliques(5, 4)):
            result = delta_plus_one_exact_no_reduction(graph)
            assert is_proper_coloring(graph, result.colors)
            assert max(result.colors) <= graph.max_degree


class TestInitialIdColoring:
    """The trivial n-coloring the recipes start from when given none."""

    def test_identity_ids_skip_the_sort(self, monkeypatch):
        import types

        import repro.recipes as recipes

        def no_sort(*args, **kwargs):
            raise AssertionError("identity ids must not be sorted")

        monkeypatch.setattr(recipes, "sorted", no_sort, raising=False)
        generated = random_regular(40, 4, seed=3)  # ids: a tuple
        sharded = types.SimpleNamespace(n=7, ids=range(7))  # as ShardedCSRGraph
        for graph in (generated, sharded):
            assert recipes._initial_id_coloring(graph) == list(range(graph.n))
        result = delta_plus_one_coloring(generated)
        assert is_proper_coloring(generated, result.colors)

    def test_other_ids_are_ranked(self):
        from repro.recipes import _initial_id_coloring
        from repro.runtime.graph import StaticGraph

        graph = StaticGraph(4, [(0, 1), (1, 2), (2, 3)], ids=[30, 10, 40, 20])
        assert _initial_id_coloring(graph) == [2, 0, 3, 1]
        shifted = StaticGraph(3, [(0, 1)], ids=[1, 2, 3])
        assert _initial_id_coloring(shifted) == [0, 1, 2]


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_both_exact_pipelines_agree_on_guarantees(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        graph = gnp_graph(n, rng.uniform(0, 0.3), seed=seed)
        for runner in (delta_plus_one_coloring, delta_plus_one_exact_no_reduction):
            result = runner(graph)
            assert is_proper_coloring(graph, result.colors)
            assert max(result.colors, default=0) <= graph.max_degree

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_sublinear_pipeline_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 36)
        graph = gnp_graph(n, rng.uniform(0.05, 0.35), seed=seed)
        result = sublinear_delta_plus_one_coloring(graph)
        assert is_proper_coloring(graph, result.colors)
        assert max(result.colors, default=0) <= graph.max_degree
