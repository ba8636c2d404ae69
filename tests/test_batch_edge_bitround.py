"""Differential tests: edge-coloring and bit-round modules, batch vs scalar.

The Section 5 edge-coloring pipeline (line graph + CONGEST ledger) and the
Section 3 bit-channel executions (vertex and edge) now run as CSR batch
kernels.  The contract is bit-for-bit equivalence with the channel-level
references: identical edge colors, identical per-stage round counts, and
identical bit ledgers (``bits_per_edge_by_stage`` / ``bit_rounds_by_phase``
— the batch tier computes them from the channel drain's closed form, the
reference by actually shipping every bit).  The suite covers every protocol
variant, degenerate topologies, and the no-NumPy dispatch behavior.
"""

import hashlib
import json

import pytest

from repro import obs
from repro.bitround.edge_coloring import run_edge_coloring_bit_protocol
from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol
from repro.edge.congest import edge_coloring_congest
from repro.edge.line_graph import build_line_graph
from repro.graphgen import (
    complete_graph,
    gnp_graph,
    path_graph,
    random_regular,
    star_graph,
)
from repro.parallel.jobs import resolve_algorithm
from repro.runtime.csr import numpy_available
from repro.runtime.graph import StaticGraph

requires_numpy = pytest.mark.requires_numpy
without_numpy = pytest.mark.skipif(
    numpy_available(), reason="covers the no-NumPy environment only"
)


def _skip_without_numpy():
    if not numpy_available():
        pytest.skip("NumPy unavailable (or disabled via REPRO_DISABLE_NUMPY)")


def graphs():
    yield StaticGraph(0, [])
    yield StaticGraph(3, [])  # edgeless
    yield StaticGraph(2, [(0, 1)])  # single edge
    yield path_graph(8)
    yield star_graph(6)
    yield complete_graph(5)
    yield gnp_graph(30, 0.15, seed=21)
    yield random_regular(48, 6, seed=22)


def _assert_proper_edge_coloring(graph, edge_colors):
    for v in graph.vertices():
        incident = [
            edge_colors[(min(v, u), max(v, u))] for u in graph.neighbors(v)
        ]
        assert len(incident) == len(set(incident)), v


class TestLineGraphParity:
    @requires_numpy
    def test_batch_line_graph_matches_reference(self):
        _skip_without_numpy()
        for graph in graphs():
            ref_line, ref_index = build_line_graph(graph, backend="reference")
            bat_line, bat_index = build_line_graph(graph, backend="batch")
            assert ref_index == bat_index
            assert ref_line.n == bat_line.n
            assert sorted(ref_line.edges) == sorted(bat_line.edges)


class TestCongestEdgeParity:
    @requires_numpy
    def test_cross_tier_summaries(self):
        _skip_without_numpy()
        for graph in graphs():
            for exact in (False, True):
                ref = edge_coloring_congest(
                    graph, exact=exact, backend="reference"
                )
                bat = edge_coloring_congest(graph, exact=exact, backend="batch")
                assert ref.to_dict() == bat.to_dict(), (graph.n, exact)

    @requires_numpy
    def test_coloring_is_proper_within_palette(self):
        _skip_without_numpy()
        graph = random_regular(48, 6, seed=23)
        result = edge_coloring_congest(graph, exact=True, backend="batch")
        _assert_proper_edge_coloring(graph, result.edge_colors)
        delta = graph.max_degree
        assert result.num_colors <= 2 * delta - 1


class TestBitroundVertexParity:
    @requires_numpy
    def test_cross_tier_summaries(self):
        _skip_without_numpy()
        for graph in graphs():
            ref = run_vertex_coloring_bit_protocol(graph, backend="reference")
            bat = run_vertex_coloring_bit_protocol(graph, backend="batch")
            assert ref.to_dict() == bat.to_dict(), graph.n

    @requires_numpy
    def test_ledger_phases_present(self):
        _skip_without_numpy()
        graph = random_regular(40, 4, seed=24)
        run = run_vertex_coloring_bit_protocol(graph, backend="batch")
        assert set(run.rounds_by_phase) == {
            "linial",
            "additive-group",
            "standard-reduction",
        }
        assert run.total_bit_rounds == sum(run.bit_rounds_by_phase.values())
        assert run.num_colors <= graph.max_degree + 1


class TestBitroundEdgeParity:
    @requires_numpy
    def test_cross_tier_summaries_all_variants(self):
        _skip_without_numpy()
        for graph in graphs():
            for exact in (False, True):
                for known in (False, True):
                    ref = run_edge_coloring_bit_protocol(
                        graph,
                        exact=exact,
                        neighbor_ids_known=known,
                        backend="reference",
                    )
                    bat = run_edge_coloring_bit_protocol(
                        graph,
                        exact=exact,
                        neighbor_ids_known=known,
                        backend="batch",
                    )
                    assert ref.to_dict() == bat.to_dict(), (
                        graph.n,
                        exact,
                        known,
                    )

    @requires_numpy
    def test_exact_variant_hits_2delta_minus_1(self):
        _skip_without_numpy()
        graph = random_regular(32, 4, seed=25)
        run = run_edge_coloring_bit_protocol(graph, exact=True, backend="batch")
        _assert_proper_edge_coloring(graph, run.edge_colors)
        assert run.num_colors <= 2 * graph.max_degree - 1
        # the id-exchange phase is only charged when IDs are unknown
        known = run_edge_coloring_bit_protocol(
            graph, exact=True, neighbor_ids_known=True, backend="batch"
        )
        assert "id-exchange" in run.rounds_by_phase
        assert "id-exchange" not in known.rounds_by_phase


class TestRegistryParity:
    @requires_numpy
    def test_cross_tier_summaries(self):
        _skip_without_numpy()
        graph = random_regular(40, 6, seed=26)
        graph.csr()
        for name in ("edge", "bitround", "bitround-edge"):
            fn = resolve_algorithm(name)
            ref = fn(graph, backend="reference", seed=2)
            bat = fn(graph, backend="batch", seed=2)
            assert ref.to_dict() == bat.to_dict(), name

    def test_reference_tier_runs_everywhere(self):
        graph = path_graph(10)
        for name in ("edge", "bitround", "bitround-edge"):
            result = resolve_algorithm(name)(graph, backend="reference", seed=2)
            assert result.rounds > 0
            assert result.num_colors >= 1


def _digest(result):
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class TestBatchLedgerPins:
    """The batch ledgers beyond the parity graphs, pinned by digest.

    The reference tier is too slow to cross-check at these sizes, so each
    ``to_dict()`` digest was recorded from the batch tier before it ran its
    stages on the engine: colors, round counts and every ledger entry are
    the ones the private round loops produced.
    """

    @requires_numpy
    @pytest.mark.parametrize(
        "graph, digest",
        [
            (lambda: random_regular(2000, 16, seed=3), "5184ffc72e374220"),
            (lambda: gnp_graph(1500, 0.01, seed=4), "ef49a63c81f924fd"),
        ],
        ids=["regular-2000-16", "gnp-1500"],
    )
    def test_vertex_digest(self, graph, digest):
        _skip_without_numpy()
        run = run_vertex_coloring_bit_protocol(graph(), backend="batch")
        assert _digest(run) == digest

    @requires_numpy
    @pytest.mark.parametrize(
        "graph, digests",
        [
            (
                lambda: random_regular(600, 8, seed=5),
                ["c281be4d95536834", "3a33d4711d76a2eb",
                 "d9c171d7cdc6fdb4", "8f821d5dc39a6548"],
            ),
            (
                lambda: gnp_graph(300, 0.03, seed=6),
                ["0a4470c1ea2d4385", "9da5bfc1377dc073",
                 "1a82f56b91bc1b6d", "5e1a47fd57228778"],
            ),
        ],
        ids=["regular-600-8", "gnp-300"],
    )
    def test_edge_digests_all_variants(self, graph, digests):
        _skip_without_numpy()
        graph = graph()
        got = [
            _digest(
                run_edge_coloring_bit_protocol(
                    graph, exact=exact, neighbor_ids_known=known, backend="batch"
                )
            )
            for exact in (False, True)
            for known in (False, True)
        ]
        assert got == digests

    @requires_numpy
    def test_batch_jobs_run_on_the_engine(self):
        _skip_without_numpy()
        graph = random_regular(600, 8, seed=5)
        expected = {
            "bitround": ["linial", "additive-group", "standard-reduction"],
            "bitround-edge": ["additive-group", "exact-hybrid"],
        }
        for name, stages in expected.items():
            with obs.capture() as tel:
                resolve_algorithm(name)(graph, backend="batch", seed=1)
            runs = tel.events_of("engine.run")
            assert [run["stage"] for run in runs] == stages, name
            assert {run["backend"] for run in runs} == {"batch"}, name


class TestNoNumpyDispatch:
    @without_numpy
    def test_batch_backend_raises_without_numpy(self):
        graph = path_graph(6)
        with pytest.raises(RuntimeError, match="needs NumPy"):
            edge_coloring_congest(graph, backend="batch")
        with pytest.raises(RuntimeError, match="needs NumPy"):
            run_vertex_coloring_bit_protocol(graph, backend="batch")
        with pytest.raises(RuntimeError, match="needs NumPy"):
            run_edge_coloring_bit_protocol(graph, backend="batch")

    @without_numpy
    def test_auto_backend_falls_back_to_reference(self):
        graph = path_graph(6)
        auto = run_vertex_coloring_bit_protocol(graph, backend="auto")
        ref = run_vertex_coloring_bit_protocol(graph, backend="reference")
        assert auto.to_dict() == ref.to_dict()
