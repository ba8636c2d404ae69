"""Tests for the Linial family: the plan, the step, the stage, the point
scan, Cole–Vishkin."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import is_proper_coloring
from repro.defective.vertex import defective_linial_next_color
from repro.graphgen import cycle_graph, gnp_graph, path_graph, random_regular
from repro.linial import (
    LinialColoring,
    cole_vishkin_three_coloring,
    linial_next_color,
    linial_plan,
)
from repro.linial.core import linial_round_batch, point_scan
from repro.linial.plan import integer_root_ceiling
from repro.mathutil import is_prime, log_star
from repro.mathutil.gf import batch_eval_point, eval_poly_mod, int_to_poly_coeffs
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


def reference_point_scan(coeffs, q, points, pending, rows, nbrs, forbidden=()):
    """A plain-Python loop over points, one pending row at a time.

    ``forbidden[r]`` is the set of candidates ``x * q + value`` ruled out for
    row ``r``; each forbidden point counts one collision.
    """
    neighbors = {}
    for r, u in zip(rows, nbrs):
        neighbors.setdefault(r, []).append(u)
    out = []
    for r, mine in enumerate(coeffs):
        if not pending[r]:
            out.append((0, 0, 0))
            continue
        best = None
        for x in range(points):
            value = eval_poly_mod(mine, x, q)
            count = sum(
                1 for u in neighbors.get(r, ()) if eval_poly_mod(coeffs[u], x, q) == value
            )
            if forbidden and x * q + value in forbidden[r]:
                count += 1
            if best is None or count < best[2]:
                best = (x, value, count)
                if count == 0:
                    break
        out.append(best)
    return out


def replay_rows_read(result, points, pending, rows, nbrs):
    """The row count the point scan evaluates at each point after the first.

    ``result`` is the scan's ``(x, value, count)`` per row: a row is still
    pending after point ``x`` unless it found a collision-free point at or
    before ``x``.  The matrix keeps its rows while the pending rows' slots
    are at least as many; otherwise it shrinks to the pending rows and the
    rows their slots name.
    """
    matrix = len(pending)
    slots = list(zip(rows, nbrs))
    out = []
    for x in range(points - 1):
        still = {
            r for r, (at, _, count) in enumerate(result)
            if pending[r] and not (count == 0 and at <= x)
        }
        if not still:
            break
        slots = [(r, u) for r, u in slots if r in still]
        if len(slots) < matrix:
            matrix = len(still | {u for _, u in slots})
        out.append(matrix)
    return out


@pytest.mark.requires_numpy
class TestPointScan:
    """The one batch point scan against a plain loop over points."""

    @staticmethod
    def _case(seed, size, q, degree, slots, pending_frac=1.0):
        import numpy as np

        rng = random.Random(seed)
        colors = [rng.randrange(q ** (degree + 1)) for _ in range(size)]
        coeffs = [int_to_poly_coeffs(c, degree, q) for c in colors]
        pending = [rng.random() < pending_frac for _ in range(size)]
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(slots)]
        pairs = [(r, u) for r, u in pairs if colors[r] != colors[u]]
        rows = [r for r, _ in pairs]
        nbrs = [u for _, u in pairs]
        arrays = (
            np.asarray(coeffs, dtype=np.int64).reshape(size, degree + 1),
            np.asarray(pending, dtype=bool),
            np.asarray(rows, dtype=np.int64),
            np.asarray(nbrs, dtype=np.int64),
        )
        return coeffs, pending, rows, nbrs, arrays

    @staticmethod
    def _scan(q, points, arrays, forbidden=None):
        coeffs, pending, rows, nbrs = arrays
        x, value, count = point_scan(coeffs, q, points, pending, rows, nbrs, forbidden)
        return list(zip(x.tolist(), value.tolist(), count.tolist()))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_first_free_point(self, seed):
        # q > degree * (most slots per row): every row finds a free point.
        q, degree, size = 31, 2, 40
        coeffs, pending, rows, nbrs, arrays = self._case(seed, size, q, degree, 200)
        got = self._scan(q, q, arrays)
        assert got == reference_point_scan(coeffs, q, q, pending, rows, nbrs)
        if max(map(rows.count, set(rows)), default=0) * degree < q:
            assert all(count == 0 for _, _, count in got)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_fewest_count_ties_to_the_first_point(self, seed):
        # A tiny field under many slots: some rows collide at every point,
        # and their fewest count is often tied between points.
        q, degree, size = 5, 2, 12
        coeffs, pending, rows, nbrs, arrays = self._case(seed, size, q, degree, 150)
        got = self._scan(q, q, arrays)
        assert got == reference_point_scan(coeffs, q, q, pending, rows, nbrs)

    def test_fewest_count_cases_occur(self):
        """The seeds above do reach rows with a nonzero fewest count."""
        counts = []
        for seed in range(10):
            _, _, _, _, arrays = self._case(seed, 12, 5, 2, 150)
            counts.extend(count for _, _, count in self._scan(5, 5, arrays))
        assert any(counts)

    @given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_fewer_points_than_the_field(self, seed, points):
        # The landing scans only the first landing_points points of GF(q).
        q, degree, size = 13, 2, 20
        coeffs, pending, rows, nbrs, arrays = self._case(seed, size, q, degree, 60)
        got = self._scan(q, points, arrays)
        assert got == reference_point_scan(coeffs, q, points, pending, rows, nbrs)
        assert all(x < points for x, _, _ in got)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_forbidden_hook(self, seed):
        import numpy as np

        q, degree, size = 17, 2, 30
        coeffs, pending, rows, nbrs, arrays = self._case(seed, size, q, degree, 80)
        # Forbid each row's unrestricted pick and one more candidate, as
        # the landing forbids the two next states of a core neighbor.
        rng = random.Random(seed)
        free = reference_point_scan(coeffs, q, q, pending, rows, nbrs)
        first = [x * q + value for x, value, _ in free]
        second = [rng.randrange(q * q) for _ in range(size)]
        opt1 = np.asarray(first, dtype=np.int64)
        opt2 = np.asarray(second, dtype=np.int64)

        def forbidden(x, column, pending_rows):
            cand = x * q + column
            return (cand == opt1) | (cand == opt2)

        got = self._scan(q, q, arrays, forbidden)
        sets = [{a, b} for a, b in zip(first, second)]
        assert got == reference_point_scan(coeffs, q, q, pending, rows, nbrs, sets)
        # A forbidden free pick always moves.
        assert all(
            got[r] != free[r] for r in range(size) if pending[r] and not free[r][2]
        )

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_neighbor_rows_that_are_not_pending(self, seed):
        # The descent scans every row of a level and only the active ones
        # are pending; the others are read as neighbors, and their own
        # slots change nothing.
        q, degree, size = 11, 2, 30
        coeffs, pending, rows, nbrs, arrays = self._case(
            seed, size, q, degree, 120, pending_frac=0.4
        )
        got = self._scan(q, q, arrays)
        assert got == reference_point_scan(coeffs, q, q, pending, rows, nbrs)
        assert all(got[r] == (0, 0, 0) for r in range(size) if not pending[r])

    def test_empty_slot_list(self):
        import numpy as np

        q, degree = 7, 2
        coeffs, pending, _, _, arrays = self._case(3, 10, q, degree, 0, 0.7)
        assert arrays[2].size == 0
        got = self._scan(q, q, arrays)
        assert got == reference_point_scan(coeffs, q, q, pending, [], [])
        assert got == [
            (0, c[0], 0) if p else (0, 0, 0) for c, p in zip(coeffs, pending)
        ]
        empty = np.zeros((0, degree + 1), dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        assert self._scan(q, q, (empty, np.zeros(0, dtype=bool), none, none)) == []

    def test_later_points_evaluate_only_the_rows_they_read(self, monkeypatch):
        """The first point evaluates every row; each later point only the
        rows it reads once the pending rows' slots are fewer than them."""
        import numpy as np

        import repro.linial.core as core

        evaluated = []

        def counted_eval_point(coeffs, x, q):
            evaluated.append(coeffs.shape[0])
            return batch_eval_point(coeffs, x, q)

        monkeypatch.setattr(core, "batch_eval_point", counted_eval_point)
        compacted = []

        @given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
        @settings(max_examples=40, deadline=None)
        def check(seed, hooked):
            # Few slots per row under a field with several points to scan.
            q, degree, size = 11, 2, 60
            coeffs, pending, rows, nbrs, arrays = self._case(
                seed, size, q, degree, 90, pending_frac=0.8
            )
            sets, forbidden = (), None
            if hooked:
                # Forbid each row's free pick and one more candidate, so
                # pending rows without slots stay in the scan.
                rng = random.Random(seed)
                free = reference_point_scan(coeffs, q, q, pending, rows, nbrs)
                first = [x * q + value for x, value, _ in free]
                second = [rng.randrange(q * q) for _ in range(size)]
                sets = [{a, b} for a, b in zip(first, second)]
                opt1 = np.asarray(first, dtype=np.int64)
                opt2 = np.asarray(second, dtype=np.int64)

                def forbidden(x, column, pending_rows):
                    cand = x * q + column
                    return (cand == opt1) | (cand == opt2)

            # The scan only reads its inputs: a proper round hands it the
            # CSR view's own rows and indices.
            for array in arrays:
                array.setflags(write=False)
            evaluated.clear()
            got = self._scan(q, q, arrays, forbidden)
            want = reference_point_scan(coeffs, q, q, pending, rows, nbrs, sets)
            assert got == want
            assert evaluated[0] == size
            assert evaluated[1:] == replay_rows_read(want, q, pending, rows, nbrs)
            compacted.append(min(evaluated) < size)

        check()
        assert any(compacted)

    @pytest.mark.parametrize("tolerant", [False, True], ids=["proper", "tolerant"])
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_round_equals_the_scalar_steps(self, tolerant, seed):
        """``linial_round_batch`` is the scalar step at every vertex, with
        repeated neighbor colors and neighbors sharing the own color."""
        import numpy as np

        rng = random.Random(seed)
        graph = gnp_graph(40, 0.25, seed=seed)
        degree = 2
        # Proper: a field large enough for a free point; tolerant: a small
        # field, so fewest counts are nonzero and often tied.
        q = 2 * graph.max_degree + 1 if not tolerant else 7
        while not is_prime(q):
            q += 1
        palette = [rng.randrange(q ** (degree + 1)) for _ in range(12)]
        colors = [rng.choice(palette) for _ in range(graph.n)]
        got = linial_round_batch(
            None, 0, np.asarray(colors, dtype=np.int64), graph.csr(),
            Visibility.LOCAL, q, degree, tolerant=tolerant,
        ).tolist()
        step = defective_linial_next_color if tolerant else linial_next_color
        want = [
            step(colors[v], [colors[u] for u in graph.neighbors(v)], q, degree)
            for v in range(graph.n)
        ]
        assert got == want


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
