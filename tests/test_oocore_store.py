"""The out-of-core shard store and streaming writers.

The two load-bearing properties: **bit-identity** — each streaming writer
is a second sink for its in-memory generator's core, and its shards hold
exactly the CSR ``StaticGraph`` builds from the same edges (the digests in
``test_graphgen.py`` pin the core itself) — and **self-containment** — each
shard's localized CSR plus its halo table reconstructs the global adjacency
exactly.
"""

import json
import os
import tempfile

import pytest

from repro.graphgen import gnp_graph, random_regular
from repro.oocore.store import (
    MemoryBudgetError,
    PlaneStore,
    ShardedCSRGraph,
    default_shards,
    parse_bytes,
    partition_ranges,
)
from repro.oocore.writers import (
    ensure_sharded,
    shard_static_graph,
    write_gnp,
    write_random_regular,
)
from repro.runtime.csr import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the out-of-core tier needs NumPy"
)


def _tmp():
    return tempfile.mkdtemp(prefix="oocore-test-")


def _assert_same_csr(graph, sharded):
    import numpy as np

    csr = graph.csr()
    assert sharded.n == graph.n
    assert sharded.m == graph.m
    assert sharded.max_degree == graph.max_degree
    assert np.array_equal(np.array(sharded._indptr_memmap()), csr.indptr)
    assert np.array_equal(np.array(sharded._indices_memmap()), csr.indices)


class TestParseBytes:
    def test_suffixes(self):
        assert parse_bytes("512") == 512
        assert parse_bytes("2K") == 2048
        assert parse_bytes("3M") == 3 << 20
        assert parse_bytes("1.5G") == int(1.5 * (1 << 30))
        assert parse_bytes(42) == 42

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_bytes("lots")


class TestPartitionRanges:
    def test_covers_and_partitions(self):
        import numpy as np

        degrees = [0, 5, 1, 9, 2, 2, 7, 0, 3, 1]
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        for shards in (1, 2, 3, 4, 10, 99):
            ranges = partition_ranges(np, indptr, 10, shards)
            # Contiguous, disjoint, covering [0, n).
            assert ranges[0][0] == 0
            assert ranges[-1][1] == 10
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c
                assert a < b and c < d

    def test_empty_graph(self):
        import numpy as np

        assert partition_ranges(np, np.zeros(1, dtype=np.int64), 0, 4) == [(0, 0)]


class TestStreamingWriters:
    @pytest.mark.parametrize(
        "n,d,seed",
        [(40, 3, 1), (12, 6, 7), (30, 4, 42), (10, 9, 0), (8, 0, 3),
         (25, 2, 11), (50, 7, 5)],
    )
    def test_random_regular_bit_identical(self, n, d, seed):
        # n=12, d=6 and friends exercise the defect-repair loop heavily; the
        # writer replays the generator's RNG consumption exactly.
        graph = random_regular(n, d, seed=seed)
        sharded = write_random_regular(_tmp(), n, d, seed, shards=4)
        _assert_same_csr(graph, sharded)

    def test_random_regular_complete_case(self):
        graph = random_regular(6, 5, seed=2)
        sharded = write_random_regular(_tmp(), 6, 5, 2, shards=3)
        _assert_same_csr(graph, sharded)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(50, 0.1, 1), (20, 0.0, 2), (12, 1.0, 3), (64, 0.35, 9), (33, 0.5, 4)],
    )
    def test_gnp_bit_identical(self, n, p, seed):
        graph = gnp_graph(n, p, seed=seed)
        sharded = write_gnp(_tmp(), n, p, seed, shards=4)
        _assert_same_csr(graph, sharded)

    def test_invalid_parameters_match_generator_errors(self):
        with pytest.raises(ValueError):
            write_random_regular(_tmp(), 5, 3, 1)  # n * d odd
        with pytest.raises(ValueError):
            write_random_regular(_tmp(), 4, 4, 1)  # d >= n
        # gnp_graph accepts any p (clamped by the comparison); the writer
        # must mirror that, not add validation of its own.
        _assert_same_csr(gnp_graph(10, 1.5, seed=1), write_gnp(_tmp(), 10, 1.5, 1))

    def test_shard_static_graph(self):
        graph = random_regular(30, 4, seed=8)
        sharded = shard_static_graph(graph, _tmp(), shards=3)
        _assert_same_csr(graph, sharded)


class TestShardLocalization:
    def test_local_csr_reconstructs_global_adjacency(self):
        import numpy as np

        graph = random_regular(48, 5, seed=6)
        sharded = shard_static_graph(graph, _tmp(), shards=5)
        seen = {}
        for shard_id in range(sharded.shards):
            local = sharded.local(shard_id)
            k, h = local.k, local.halo.shape[0]
            csr = local.csr()
            assert csr.n == k + h
            # Halo rows have no slots of their own.
            assert int(local.indptr_local[-1]) == int(local.indptr_local[k])
            # De-localizing every slot must give back the global neighbor.
            table = np.concatenate([
                np.arange(local.lo, local.hi, dtype=np.int64), local.halo
            ])
            globals_back = table[local.lindices]
            assert np.array_equal(globals_back, local.global_indices())
            for row in range(k):
                v = local.lo + row
                a, b = int(local.indptr_local[row]), int(local.indptr_local[row + 1])
                seen[v] = tuple(int(x) for x in globals_back[a:b])
        for v in range(graph.n):
            assert seen[v] == tuple(graph.neighbors(v))

    def test_halo_is_sorted_unique_out_of_range(self):
        import numpy as np

        sharded = shard_static_graph(random_regular(40, 6, seed=3), _tmp(), shards=4)
        for shard_id in range(sharded.shards):
            local = sharded.local(shard_id)
            halo = local.halo
            assert np.array_equal(halo, np.unique(halo))
            assert not ((halo >= local.lo) & (halo < local.hi)).any()

    def test_forward_mask_uses_global_order(self):
        # The local CSR's own forward mask is wrong for global semantics
        # (halo local ids always exceed owned ids); every consumer must go
        # through global_indices()/owner_globals().  Each global forward
        # edge appears exactly once across all shards.
        sharded = shard_static_graph(random_regular(36, 5, seed=9), _tmp(), shards=4)
        forward = set()
        for shard_id in range(sharded.shards):
            local = sharded.local(shard_id)
            fwd = local.global_indices() > local.owner_globals()
            rows = local.owner_globals()[fwd]
            nbrs = local.global_indices()[fwd]
            for u, v in zip(rows.tolist(), nbrs.tolist()):
                assert u < v
                assert (u, v) not in forward
                forward.add((u, v))
        assert len(forward) == sharded.m

    def test_edges_property_matches_static_graph(self):
        graph = random_regular(30, 4, seed=12)
        sharded = shard_static_graph(graph, _tmp(), shards=3)
        assert sorted(sharded.edges) == sorted(
            (min(u, v), max(u, v)) for u, v in graph.edges
        )


class TestShardedGraphFormat:
    def test_open_round_trip(self):
        path = _tmp()
        write_random_regular(path, 24, 3, seed=4, shards=3)
        reopened = ShardedCSRGraph.open(path)
        graph = random_regular(24, 3, seed=4)
        _assert_same_csr(graph, reopened)
        assert reopened.shards >= 1
        assert reopened.total_halo() == reopened.halo_offsets[-1]

    def test_open_rejects_format_mismatch(self):
        path = _tmp()
        write_random_regular(path, 10, 3, seed=1, shards=2)
        meta = json.load(open(os.path.join(path, "meta.json")))
        meta["format"] = 999
        with open(os.path.join(path, "meta.json"), "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ValueError):
            ShardedCSRGraph.open(path)

    def test_static_graph_queries(self):
        graph = random_regular(20, 4, seed=2)
        sharded = shard_static_graph(graph, _tmp(), shards=2)
        assert list(sharded.vertices()) == list(range(20))
        for v in (0, 7, 19):
            assert sharded.degree(v) == graph.degree(v)
            assert sharded.neighbors(v) == tuple(graph.neighbors(v))

    def test_default_shards_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_SHARDS", "7")
        assert default_shards(1000, 5000) == 7
        monkeypatch.delenv("REPRO_OOCORE_SHARDS")
        assert default_shards(100, 200) == 1


class TestEnsureSharded:
    def test_disk_cache_hits(self, monkeypatch):
        root = _tmp()
        monkeypatch.setenv("REPRO_OOCORE_DIR", root)
        spec = {"family": "regular", "n": 30, "degree": 4, "seed": 5}
        first = ensure_sharded(spec, shards=3)
        second = ensure_sharded(spec, shards=3)
        assert first.path == second.path
        _assert_same_csr(random_regular(30, 4, seed=5), second)

    def test_env_shard_count_is_part_of_the_key(self, monkeypatch):
        # A cached entry of another shard count must not answer the request.
        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        spec = {"family": "regular", "n": 30, "degree": 4, "seed": 5}
        monkeypatch.setenv("REPRO_OOCORE_SHARDS", "4")
        four = ensure_sharded(spec)
        monkeypatch.setenv("REPRO_OOCORE_SHARDS", "2")
        two = ensure_sharded(spec)
        assert (len(four.ranges), len(two.ranges)) == (4, 2)
        assert ensure_sharded(spec, shards=2).path == two.path

    def test_distinct_specs_distinct_dirs(self, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        a = ensure_sharded({"family": "regular", "n": 30, "degree": 4, "seed": 5})
        b = ensure_sharded({"family": "regular", "n": 30, "degree": 4, "seed": 6})
        assert a.path != b.path

    def test_non_streaming_family_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        from repro.graphgen import cycle_graph

        sharded = ensure_sharded({"family": "cycle", "n": 12}, shards=2)
        _assert_same_csr(cycle_graph(12), sharded)

    def test_entry_is_written_privately_then_published(self, monkeypatch):
        from repro.oocore import writers

        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        written = []
        finalize = writers.finalize_shards

        def recording(path, *args, **kwargs):
            written.append(os.path.abspath(path))
            return finalize(path, *args, **kwargs)

        monkeypatch.setattr(writers, "finalize_shards", recording)
        spec = {"family": "regular", "n": 40, "degree": 4, "seed": 2}
        sharded = ensure_sharded(spec, shards=2)
        assert len(written) == 1 and written[0] != sharded.path
        assert not os.path.exists(written[0])
        assert os.listdir(os.path.dirname(sharded.path)) == [
            os.path.basename(sharded.path)
        ]
        _assert_same_csr(random_regular(40, 4, seed=2), sharded)

    def test_concurrent_cold_callers_share_one_entry(self, monkeypatch):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method required")
        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        spec = {"family": "regular", "n": 3000, "degree": 6, "seed": 8}
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        results = context.Queue()

        def build():
            try:
                barrier.wait(timeout=30)
                sharded = ensure_sharded(spec, shards=4)
                results.put((
                    sharded.path,
                    sharded._indptr_memmap().tolist(),
                    sharded._indices_memmap().tolist(),
                ))
            except Exception as exc:
                results.put(repr(exc))

        workers = [context.Process(target=build) for _ in range(2)]
        for worker in workers:
            worker.start()
        got = [results.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
        csr = random_regular(3000, 6, seed=8).csr()
        for result in got:
            assert not isinstance(result, str), result
            path, indptr, indices = result
            assert indptr == csr.indptr.tolist()
            assert indices == csr.indices.tolist()
        assert got[0][0] == got[1][0]
        assert os.listdir(os.path.dirname(got[0][0])) == [
            os.path.basename(got[0][0])
        ]

    def test_corrupt_entry_is_replaced(self, monkeypatch):
        monkeypatch.setenv("REPRO_OOCORE_DIR", _tmp())
        spec = {"family": "regular", "n": 30, "degree": 4, "seed": 5}
        path = ensure_sharded(spec, shards=3).path
        with open(os.path.join(path, "meta.json"), "w") as handle:
            handle.write("{torn")
        sharded = ensure_sharded(spec, shards=3)
        assert sharded.path == path
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        _assert_same_csr(random_regular(30, 4, seed=5), sharded)


class TestPlaneStore:
    def test_double_buffer_round_trip(self):
        import numpy as np

        store = PlaneStore(_tmp(), 10, 2)
        store.view(0, 0)[:] = np.arange(10)
        store.view(1, 1)[:] = np.arange(10) * 2
        assert np.array_equal(store.view(0, 0), np.arange(10))
        assert len(store.buffer(0)) == 2
        store.release_resident()  # must not lose data
        assert np.array_equal(store.view(1, 1), np.arange(10) * 2)
        paths = [p for row in store.paths for p in row]
        assert all(os.path.exists(p) for p in paths)
        store.close()
        assert not any(os.path.exists(p) for p in paths)

    def test_empty_plane(self):
        store = PlaneStore(_tmp(), 0, 3)
        assert store.view(0, 2).shape == (0,)
        store.close()


class TestMemoryBudget:
    def test_budget_error_type(self):
        assert issubclass(MemoryBudgetError, RuntimeError)
