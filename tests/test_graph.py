"""Tests for the graph substrate (StaticGraph / DynamicGraph)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.graph import DynamicGraph, StaticGraph


@pytest.fixture
def np():
    """NumPy, for the array path and the CSR view; skips without it."""
    from repro.runtime.csr import numpy_or_none

    np = numpy_or_none()
    if np is None:
        pytest.skip("the array path and the CSR view need NumPy")
    return np


class TestStaticGraph:
    def test_basic_construction(self):
        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
        assert g.n == 4
        assert g.m == 3  # duplicate collapsed
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2
        assert g.max_degree == 2
        assert g.has_edge(2, 1)
        assert not g.has_edge(0, 3)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            StaticGraph(3, [(1, 1)])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            StaticGraph(3, [(0, 3)])

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            StaticGraph(-1, [])

    def test_empty_graph(self):
        g = StaticGraph(0, [])
        assert g.n == 0
        assert g.max_degree == 0
        assert list(g.vertices()) == []

    def test_default_ids_are_indices(self):
        g = StaticGraph(3, [(0, 1)])
        assert g.ids == (0, 1, 2)

    def test_custom_ids_must_be_unique(self):
        with pytest.raises(ValueError):
            StaticGraph(3, [], ids=[5, 5, 6])
        with pytest.raises(ValueError):
            StaticGraph(3, [], ids=[1, 2])

    def test_from_networkx_relabels(self):
        nx_graph = nx.Graph()
        nx_graph.add_edges_from([(10, 20), (20, 30)])
        g = StaticGraph.from_networkx(nx_graph)
        assert g.n == 3
        assert g.m == 2
        assert g.ids == (10, 20, 30)

    def test_from_networkx_nonint_labels(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge("a", "b")
        g = StaticGraph.from_networkx(nx_graph)
        assert g.n == 2
        assert g.ids == (0, 1)

    def test_bfs_distances_single_source(self):
        g = StaticGraph(5, [(0, 1), (1, 2), (2, 3)])  # vertex 4 isolated
        d = g.bfs_distances([0])
        assert d == {0: 0, 1: 1, 2: 2, 3: 3}
        assert 4 not in d

    def test_bfs_distances_multi_source(self):
        g = StaticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        d = g.bfs_distances([0, 4])
        assert d[2] == 2
        assert d[1] == 1 and d[3] == 1

    def test_subgraph_induced(self):
        g = StaticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub, index = g.subgraph([0, 1, 4])
        assert sub.n == 3
        assert sub.m == 2  # (0,1) and (0,4)
        assert index == {0: 0, 1: 1, 4: 2}
        assert sub.ids == (0, 1, 4)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30)
    def test_degree_sum_is_twice_edges(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 30)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.2
        ]
        g = StaticGraph(n, edges)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m


class TestStaticGraphArrayPath:
    """The array constructor (ndarray input, or at least ``_BULK_EDGES``
    pairs), which every generated graph goes through, against the per-edge
    loop on the same input."""

    N = 400

    @classmethod
    def sorted_edges(cls):
        import random

        rng = random.Random(5)
        edges = set()
        while len(edges) < 3000:
            u, v = rng.randrange(cls.N), rng.randrange(cls.N)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    @staticmethod
    def per_edge(n, edges, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(StaticGraph, "_BULK_EDGES", float("inf"))
            graph = StaticGraph(n, [tuple(edge) for edge in edges])
        assert graph._csr is None  # the per-edge loop builds no CSR
        return graph

    @staticmethod
    def python_csr(graph):
        """The six CSR columns of ``graph``, built from its neighbor tuples
        and edge tuple in plain Python."""
        indptr, indices, rows, degrees = [0], [], [], []
        for v in graph.vertices():
            neighbors = graph.neighbors(v)
            indices.extend(neighbors)
            rows.extend([v] * len(neighbors))
            degrees.append(len(neighbors))
            indptr.append(len(indices))
        return {
            "indptr": indptr, "indices": indices, "rows": rows, "degrees": degrees,
            "edge_u": [u for u, _ in graph.edges], "edge_v": [v for _, v in graph.edges],
        }

    def assert_same(self, edges, monkeypatch):
        graph = StaticGraph(self.N, edges)
        assert graph._csr is not None  # the array path pre-builds the CSR
        reference = self.per_edge(self.N, edges, monkeypatch)
        csr, expected = graph.csr(), self.python_csr(reference)
        for field in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v"):
            assert getattr(csr, field).tolist() == expected[field]
        assert (graph.m, graph.max_degree) == (reference.m, reference.max_degree)
        assert graph.edges == reference.edges
        assert [graph.neighbors(v) for v in graph.vertices()] == [
            reference.neighbors(v) for v in reference.vertices()
        ]
        return graph

    def test_sorted_unique_list_and_array(self, np, monkeypatch):
        edges = self.sorted_edges()
        for given in (edges, np.array(edges, dtype=np.int64)):
            assert self.assert_same(given, monkeypatch).m == len(edges)

    def test_shuffled_repeats_and_reversed_pairs_are_deduped(self, np, monkeypatch):
        import random

        edges = self.sorted_edges()
        rng = random.Random(9)
        messy = edges + rng.sample(edges, 500)
        messy = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in messy]
        rng.shuffle(messy)
        for given in (messy, np.array(messy, dtype=np.int64)):
            assert self.assert_same(given, monkeypatch).m == len(edges)

    def test_sorted_with_adjacent_repeat_is_deduplicated(self, np, monkeypatch):
        edges = self.sorted_edges()
        repeated = edges[:100] + [edges[99]] + edges[100:]
        assert self.assert_same(repeated, monkeypatch).m == len(edges)
        flipped = [(v, u) for u, v in edges]  # strictly increasing keys
        assert self.assert_same(flipped, monkeypatch).m == len(edges)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([(7, 7), (3, 400)], "self-loop (7, 7) not allowed"),
            ([(3, 400), (7, 7)], "edge (3, 400) out of range for n=400"),
            ([(-1, 2), (7, 7)], "edge (-1, 2) out of range for n=400"),
        ],
    )
    def test_first_bad_edge_is_named(self, np, monkeypatch, bad, message):
        edges = self.sorted_edges()
        edges = edges[:2500] + bad[:1] + edges[2500:2700] + bad[1:] + edges[2700:]
        for given in (edges, np.array(edges, dtype=np.int64)):
            with pytest.raises(ValueError) as error:
                StaticGraph(self.N, given)
            assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            self.per_edge(self.N, edges, monkeypatch)
        assert str(error.value) == message


class TestCSRAdjacency:
    def test_csr_from_arrays_matches_fresh_csr(self):
        from repro.graphgen import random_regular
        from repro.runtime.csr import CSRAdjacency, numpy_available

        if not numpy_available():
            pytest.skip("the CSR view needs NumPy")
        fresh = random_regular(60, 4, seed=7).csr()
        rebuilt = CSRAdjacency(fresh.n, fresh.indptr.copy(), fresh.indices.copy())
        for field in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v"):
            assert getattr(rebuilt, field).tolist() == getattr(fresh, field).tolist()
        assert rebuilt.n == fresh.n and rebuilt.m == fresh.m


    def test_subset_slots_concatenates_the_rows(self):
        from repro.graphgen import gnp_graph
        from repro.runtime.csr import numpy_or_none

        np = numpy_or_none()
        if np is None:
            pytest.skip("the CSR view needs NumPy")
        csr = gnp_graph(40, 0.05, seed=5).csr()
        assert csr.degrees[[3, 19]].tolist() == [0, 0]  # degree-0 rows
        for vertices in ([], [3], [0, 3, 8, 19, 39], list(range(40)), [12, 2, 12]):
            subset = np.asarray(vertices, dtype=np.int64)
            slots, owner = csr.subset_slots(subset)
            expected = [
                u for v in vertices
                for u in csr.indices[csr.indptr[v]:csr.indptr[v + 1]].tolist()
            ]
            assert csr.indices[slots].tolist() == expected
            assert owner.tolist() == [
                i for i, v in enumerate(vertices) for _ in range(csr.degrees[v])
            ]

    def test_subset_slots_of_halo_rows_are_empty(self):
        from repro.runtime.csr import CSRAdjacency, numpy_or_none

        np = numpy_or_none()
        if np is None:
            pytest.skip("the CSR view needs NumPy")
        # A shard-local CSR: owned rows 0..2 (a path), halo rows 3..4 with
        # degree 0.
        indptr = np.array([0, 2, 4, 5, 5, 5], dtype=np.int64)
        indices = np.array([1, 3, 0, 2, 1], dtype=np.int64)
        csr = CSRAdjacency(5, indptr, indices)
        slots, owner = csr.subset_slots(np.array([3, 4], dtype=np.int64))
        assert slots.size == 0 and owner.size == 0
        slots, owner = csr.subset_slots(np.array([4, 1, 3], dtype=np.int64))
        assert slots.tolist() == [2, 3] and owner.tolist() == [1, 1]
        empty = csr.subset_slots(np.zeros(0, dtype=np.int64))
        assert [part.tolist() for part in empty] == [[], []]


def _csr_digest(csr):
    """First 16 hex digits of the sha256 over the int64 bytes of the six CSR
    columns, in order, followed by ``str((n, m))``."""
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for name in ("indptr", "indices", "rows", "degrees", "edge_u", "edge_v"):
        digest.update(np.ascontiguousarray(getattr(csr, name), dtype=np.int64).tobytes())
    digest.update(str((csr.n, csr.m)).encode())
    return digest.hexdigest()[:16]


class TestCSRDerivedColumns:
    """``CSRAdjacency(n, indptr, indices)`` is the only constructor; the
    other columns are derived on first read and cached on the view."""

    DERIVED = ("degrees", "rows", "edge_u", "edge_v")

    @staticmethod
    def python_columns(n, indptr, indices):
        """The derived columns of a view, in plain Python from its arrays."""
        degrees = [indptr[v + 1] - indptr[v] for v in range(n)]
        rows = [v for v in range(n) for _ in range(degrees[v])]
        forward = [(row, u) for row, u in zip(rows, indices) if row < u]
        return {
            "degrees": degrees, "rows": rows, "m": len(forward),
            "edge_u": [row for row, _ in forward], "edge_v": [u for _, u in forward],
        }

    @staticmethod
    def view(kind, tmp_path):
        """One view of each builder, and the edges it must enumerate."""
        from repro.graphgen import random_regular
        from repro.oocore.writers import shard_static_graph
        from repro.runtime.csr import CSRAdjacency

        if kind == "per-edge":
            graph = StaticGraph(40, list(random_regular(40, 5, seed=3).edges))
            assert graph._csr is None
            return graph.csr(), list(graph.edges)
        if kind == "array path":
            graph = random_regular(120, 6, seed=4)
            assert graph._csr is not None and graph._adjacency is None
            return graph.csr(), list(graph.edges)
        if kind == "dynamic":
            dynamic = DynamicGraph.from_static(random_regular(60, 4, seed=5))
            for v in (0, 17, 59):
                dynamic.remove_vertex(v)
            csr, vertices = CSRAdjacency.from_dynamic(dynamic)
            ids = vertices.tolist()
            assert ids == dynamic.vertices()
            compact = {v: i for i, v in enumerate(ids)}
            return csr, [(compact[u], compact[v]) for u, v in dynamic.edges()]
        sharded = shard_static_graph(random_regular(60, 4, seed=6), str(tmp_path), shards=3)
        local = sharded.local(1)
        csr = local.csr()
        assert csr.n > local.k  # halo rows, all of them of degree 0
        assert csr.degrees[local.k:].tolist() == [0] * (csr.n - local.k)
        # Every halo slot is a forward slot, whatever the global order says.
        halo_slots = int((local.lindices >= local.k).sum())
        owned_forward = [
            (row, int(u)) for row in range(local.k)
            for u in local.lindices[local.indptr_local[row]:local.indptr_local[row + 1]]
            if row < u < local.k
        ]
        assert csr.m == halo_slots + len(owned_forward)
        return csr, None

    @pytest.mark.parametrize("kind", ["per-edge", "array path", "dynamic", "shard-local"])
    def test_derived_columns_match_python(self, np, tmp_path, kind):
        csr, edges = self.view(kind, tmp_path)
        expected = self.python_columns(csr.n, csr.indptr.tolist(), csr.indices.tolist())
        for name in self.DERIVED:
            column = getattr(csr, name)
            assert column.dtype == np.int64
            assert column.tolist() == expected[name]
            assert getattr(csr, name) is column  # cached on the view
        assert csr.m == expected["m"]
        if edges is not None:
            assert list(zip(csr.edge_u.tolist(), csr.edge_v.tolist())) == edges
            assert csr.m == len(edges)

    def test_pinned_views(self, np):
        import hashlib

        from repro.graphgen import random_regular
        from repro.runtime.csr import CSRAdjacency

        graph = StaticGraph(40, list(random_regular(40, 5, seed=3).edges))
        assert graph._csr is None
        assert _csr_digest(graph.csr()) == "0969ec7c10dd5fe0"
        dynamic = DynamicGraph.from_static(random_regular(8000, 32, seed=100))
        for v in (0, 17, 4000, 7999):
            dynamic.remove_vertex(v)
        csr, vertices = CSRAdjacency.from_dynamic(dynamic)
        assert _csr_digest(csr) == "44496f15a4ce861e"
        vertex_digest = hashlib.sha256(vertices.astype(np.int64).tobytes()).hexdigest()
        assert vertex_digest[:16] == "5f46d8306b160a66"

    def test_subset_slot_rounds_derive_no_columns(self, np, monkeypatch, tmp_path):
        # AG steps through subset_slots alone, so an out-of-core run with
        # telemetry off and no properness check reads only indptr/indices
        # of every shard-local view.
        from repro.core.ag import AdditiveGroupColoring
        from repro.graphgen import random_regular
        from repro.obs import core as obs
        from repro.oocore.engine import OocoreColoringEngine
        from repro.oocore.store import ShardLocal
        from repro.oocore.writers import shard_static_graph

        views = []
        build = ShardLocal.csr

        def recorded(local):
            views.append(build(local))
            return views[-1]

        monkeypatch.setattr(ShardLocal, "csr", recorded)
        graph = random_regular(60, 4, seed=5)
        sharded = shard_static_graph(graph, str(tmp_path), shards=3)
        previous = obs.disable()
        try:
            result = OocoreColoringEngine(sharded).run(
                AdditiveGroupColoring(), list(range(graph.n))
            )
        finally:
            obs.configure(previous)
        assert result.rounds_used > 0 and views
        for view in views:
            assert view._rows is None
            assert view._edge_u is None and view._edge_v is None


class TestDynamicGraph:
    def test_vertices_lifecycle(self):
        g = DynamicGraph(5, 3)
        g.add_vertex(0)
        g.add_vertex(1)
        assert g.vertices() == [0, 1]
        g.remove_vertex(0)
        assert g.vertices() == [1]
        g.remove_vertex(0)  # idempotent
        assert g.n == 1

    def test_edges_require_present_endpoints(self):
        g = DynamicGraph(4, 2)
        g.add_vertex(0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1)

    def test_degree_bound_enforced(self):
        g = DynamicGraph(5, 2)
        for v in range(4):
            g.add_vertex(v)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_remove_vertex_cleans_edges(self):
        g = DynamicGraph(4, 3)
        for v in range(3):
            g.add_vertex(v)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_vertex(1)
        assert g.edges() == []
        assert g.neighbors(0) == ()

    def test_self_loop_rejected(self):
        g = DynamicGraph(3, 2)
        g.add_vertex(1)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_snapshot_round_trip(self):
        g = DynamicGraph(10, 4)
        for v in (2, 5, 7):
            g.add_vertex(v)
        g.add_edge(2, 5)
        g.add_edge(5, 7)
        static, index = g.snapshot()
        assert static.n == 3
        assert static.ids == (2, 5, 7)
        assert static.has_edge(index[2], index[5])
        assert static.has_edge(index[5], index[7])
        assert not static.has_edge(index[2], index[7])

    def test_bfs_over_present_subgraph(self):
        g = DynamicGraph(6, 4)
        for v in range(5):
            g.add_vertex(v)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            g.add_edge(a, b)
        g.remove_vertex(2)
        d = g.bfs_distances([0])
        assert d == {0: 0, 1: 1}

    def test_out_of_range_vertex(self):
        g = DynamicGraph(3, 2)
        with pytest.raises(ValueError):
            g.add_vertex(3)

    def test_edge_add_idempotent(self):
        g = DynamicGraph(3, 2)
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.edges() == [(0, 1)]


class TestInterop:
    def test_to_networkx_round_trip(self):
        g = StaticGraph(5, [(0, 1), (1, 2), (3, 4)], ids=[10, 11, 12, 13, 14])
        nx_graph = g.to_networkx()
        assert set(nx_graph.nodes()) == set(range(5))
        assert set(map(tuple, map(sorted, nx_graph.edges()))) == set(g.edges)
        assert nx_graph.nodes[2]["id"] == 12
        back = StaticGraph.from_networkx(nx_graph)
        assert back.edges == g.edges

    def test_dynamic_from_static(self):
        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        dynamic = DynamicGraph.from_static(g)
        assert dynamic.n == 4
        assert dynamic.edges() == list(g.edges)
        assert dynamic.delta_bound == g.max_degree

    def test_dynamic_from_static_with_slack(self):
        g = StaticGraph(3, [(0, 1)])
        dynamic = DynamicGraph.from_static(g, n_bound=10, delta_bound=5)
        assert dynamic.n_bound == 10
        dynamic.add_vertex(7)
        dynamic.add_edge(0, 7)
        assert dynamic.has_edge(0, 7)

    def test_dynamic_from_static_selfstab_ready(self):
        from repro.selfstab import SelfStabColoring, SelfStabEngine
        from repro.graphgen import random_regular

        g = random_regular(20, 4, seed=91)
        dynamic = DynamicGraph.from_static(g)
        engine = SelfStabEngine(dynamic, SelfStabColoring(20, 4))
        engine.run_to_quiescence()
        assert engine.is_legal()
