"""Tests for the seeded graph generators."""

import hashlib

import pytest

from repro import graphgen
from repro.graphgen import generators
from repro.runtime.csr import numpy_available


def _digest(graph):
    return hashlib.sha256(repr(graph.edges).encode()).hexdigest()[:16]


class TestDeterministicFamilies:
    def test_path(self):
        g = graphgen.path_graph(5)
        assert (g.n, g.m, g.max_degree) == (5, 4, 2)

    def test_cycle(self):
        g = graphgen.cycle_graph(7)
        assert (g.n, g.m, g.max_degree) == (7, 7, 2)
        with pytest.raises(ValueError):
            graphgen.cycle_graph(2)

    def test_complete(self):
        g = graphgen.complete_graph(6)
        assert (g.n, g.m, g.max_degree) == (6, 15, 5)

    def test_star(self):
        g = graphgen.star_graph(8)
        assert (g.n, g.m, g.max_degree) == (8, 7, 7)

    def test_grid(self):
        g = graphgen.grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical
        assert g.max_degree <= 4

    def test_hypercube(self):
        g = graphgen.hypercube_graph(4)
        assert g.n == 16
        assert g.m == 32
        assert g.max_degree == 4

    def test_barbell(self):
        g = graphgen.barbell_of_cliques(5, 6)
        assert g.n == 16
        assert g.max_degree == 5  # clique degree 4 + 1 chain link


class TestRandomFamilies:
    def test_random_tree_is_tree(self):
        g = graphgen.random_tree(30, seed=11)
        assert g.m == g.n - 1
        # connected: BFS reaches everything
        assert len(g.bfs_distances([0])) == g.n

    def test_random_tree_seed_determinism(self):
        a = graphgen.random_tree(25, seed=3)
        b = graphgen.random_tree(25, seed=3)
        c = graphgen.random_tree(25, seed=4)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_random_tree_tiny(self):
        assert graphgen.random_tree(1, seed=0).m == 0
        assert graphgen.random_tree(2, seed=0).edges == ((0, 1),)

    def test_gnp_determinism(self):
        a = graphgen.gnp_graph(40, 0.1, seed=9)
        b = graphgen.gnp_graph(40, 0.1, seed=9)
        assert a.edges == b.edges

    def test_gnp_density_extremes(self):
        assert graphgen.gnp_graph(10, 0.0, seed=1).m == 0
        assert graphgen.gnp_graph(10, 1.0, seed=1).m == 45

    def test_random_regular_degrees(self):
        g = graphgen.random_regular(24, 5, seed=2)
        assert all(g.degree(v) == 5 for v in g.vertices())

    def test_bounded_degree_respects_cap(self):
        g = graphgen.bounded_degree_random(50, delta=4, target_edges=90, seed=5)
        assert g.max_degree <= 4

    def test_bipartite_structure(self):
        g = graphgen.random_bipartite(10, 12, 0.3, seed=7)
        for u, v in g.edges:
            assert (u < 10) != (v < 10)

    def test_unit_disk_radius_zero(self):
        g = graphgen.unit_disk_graph(20, 0.0, seed=1)
        assert g.m == 0

    def test_unit_disk_degree_cap(self):
        g = graphgen.unit_disk_graph(60, 0.4, seed=1, degree_cap=5)
        assert g.max_degree <= 5

    def test_unit_disk_determinism(self):
        a = graphgen.unit_disk_graph(30, 0.3, seed=8)
        b = graphgen.unit_disk_graph(30, 0.3, seed=8)
        assert a.edges == b.edges


class TestExtendedFamilies:
    def test_caterpillar(self):
        g = graphgen.caterpillar_graph(spine=5, legs_per_vertex=3)
        assert g.n == 20
        assert g.m == g.n - 1  # a tree
        assert g.max_degree == 5  # interior spine: 2 spine + 3 legs

    def test_complete_bipartite(self):
        g = graphgen.complete_bipartite_graph(3, 5)
        assert (g.n, g.m, g.max_degree) == (8, 15, 5)
        for u, v in g.edges:
            assert (u < 3) != (v < 3)

    def test_circulant(self):
        g = graphgen.circulant_graph(12, (1, 3))
        assert g.n == 12
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_circulant_large_offset_collapses(self):
        g = graphgen.circulant_graph(6, (3,))  # i and i+3 pair up once
        assert g.m == 3

    def test_disjoint_union(self):
        a = graphgen.cycle_graph(4)
        b = graphgen.path_graph(3)
        g = graphgen.disjoint_union([a, b])
        assert g.n == 7
        assert g.m == a.m + b.m
        assert not g.has_edge(3, 4)

    def test_disjoint_union_empty(self):
        g = graphgen.disjoint_union([])
        assert g.n == 0


class TestPinnedGraphs:
    """Edge-list digests recorded before the in-memory generators and the
    shard writers shared one core; they must read the same with and
    without NumPy."""

    @pytest.mark.parametrize(
        "n,d,seed,digest",
        [
            (12, 6, 7, "239e318eb255b5be"),
            (50, 7, 5, "de6527a03f804672"),
            (40, 3, 1, "3fd004a39f98dfd0"),
            (600, 16, 1, "d7c727107e75eb3a"),
            (4000, 32, 501, "aa0ebebf0273cca3"),
        ],
    )
    def test_random_regular(self, n, d, seed, digest):
        assert _digest(graphgen.random_regular(n, d, seed)) == digest

    @pytest.mark.parametrize(
        "n,p,seed,digest",
        [
            (50, 0.1, 1, "c93590d7a4916377"),
            (12, 1.0, 3, "f214c4e45994d7af"),
            (10, 1.5, 1, "1fa5d606ea08d21e"),
            (2000, 0.01, 3, "1b9dc1c6957c3b60"),
        ],
    )
    def test_gnp(self, n, p, seed, digest):
        assert _digest(graphgen.gnp_graph(n, p, seed)) == digest

    @pytest.mark.parametrize(
        "n,p,cap,seed,digest",
        [
            (60, 0.2, 5, 7, "c0f983afff5eef9f"),
            (40, 0.15, 6, 1, "23b7302d58e41610"),
            (40, 0.05, 20, 1, "4b392185c1b7d00a"),
            (300, 0.05, 8, 2, "575b3c5143e8b626"),
        ],
    )
    def test_gnp_capped(self, n, p, cap, seed, digest):
        # Recorded from the self-stabilization demo's own filter before it
        # became the gnp-capped family: G(n, p)'s edges in row-major order,
        # each kept while both ends are under the cap.
        from repro.parallel import build_graph

        spec = {"family": "gnp-capped", "n": n, "prob": p, "degree": cap, "seed": seed}
        graph = build_graph(spec, cache=False)
        assert _digest(graph) == digest
        assert graph.max_degree <= cap

    @pytest.mark.parametrize(
        "n,radius,cap,seed,digest",
        [(60, 0.4, 5, 1, "87b5f84b5c8f11a8"), (80, 0.3, 4, 2, "7f7c2c23d9210f6c")],
    )
    def test_unit_disk_capped(self, n, radius, cap, seed, digest):
        graph = graphgen.unit_disk_graph(n, radius, seed, degree_cap=cap)
        assert _digest(graph) == digest

    def test_gnp_across_blocks(self, monkeypatch, tmp_path):
        # Seven draws per block split every row of G(30, p) across blocks;
        # the writer walks the same block loop, so it sees the patch too.
        monkeypatch.setattr(generators, "_GNP_BLOCK", 7)
        graph = graphgen.gnp_graph(30, 0.3, 4)
        assert _digest(graph) == "8a0ca35692126a3c"
        if not numpy_available():
            return
        import numpy as np

        from repro.oocore.writers import write_gnp

        sharded = write_gnp(str(tmp_path), 30, 0.3, 4, shards=3)
        csr = graph.csr()
        assert np.array_equal(np.asarray(sharded._indptr_memmap()), csr.indptr)
        assert np.array_equal(np.asarray(sharded._indices_memmap()), csr.indices)
