"""Tests for the bit-level execution of the Section 5 protocol."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import is_proper_edge_coloring
from repro.bitround import (
    BitChannelNetwork,
    ChannelViolationError,
    run_edge_coloring_bit_protocol,
)
from repro.bitround.channel import decode_int, encode_int
from repro.edge import edge_coloring_bit_round, edge_coloring_congest
from repro.graphgen import (
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular,
    star_graph,
)


class TestBitChannel:
    def test_one_bit_per_round(self):
        g = path_graph(2)
        net = BitChannelNetwork(g)
        net.send(0, 1, "101")
        assert net.drain() == 3
        assert net.receive(1, 0, 3) == "101"

    def test_duplex_channels_independent(self):
        g = path_graph(2)
        net = BitChannelNetwork(g)
        net.send(0, 1, "11")
        net.send(1, 0, "0")
        rounds = net.drain()
        assert rounds == 2  # both directions flow in parallel
        assert net.receive(1, 0, 2) == "11"
        assert net.receive(0, 1, 1) == "0"

    def test_non_bit_rejected(self):
        net = BitChannelNetwork(path_graph(2))
        with pytest.raises(ChannelViolationError):
            net.send(0, 1, "2")

    def test_missing_channel_rejected(self):
        net = BitChannelNetwork(path_graph(3))
        with pytest.raises(ChannelViolationError):
            net.send(0, 2, "1")

    def test_reading_ahead_rejected(self):
        net = BitChannelNetwork(path_graph(2))
        net.send(0, 1, "1")
        with pytest.raises(ChannelViolationError):
            net.receive(1, 0, 1)  # nothing delivered yet (no tick)

    def test_broadcast(self):
        g = star_graph(4)
        net = BitChannelNetwork(g)
        net.broadcast(0, "10")
        net.drain()
        for leaf in (1, 2, 3):
            assert net.receive(leaf, 0, 2) == "10"

    def test_int_codec_roundtrip(self):
        for value in (0, 1, 5, 255):
            assert decode_int(encode_int(value, 9)) == value
        with pytest.raises(ValueError):
            encode_int(8, 3)


class TestBitProtocolMatchesCongest:
    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(10),
            cycle_graph(11),
            star_graph(7),
            grid_graph(3, 5),
            gnp_graph(20, 0.2, seed=1),
            random_regular(16, 4, seed=2),
        ],
        ids=["path", "cycle", "star", "grid", "gnp", "regular"],
    )
    def test_identical_output(self, graph):
        bit_run = run_edge_coloring_bit_protocol(graph, exact=True)
        congest = edge_coloring_congest(graph, exact=True)
        assert bit_run.edge_colors == congest.edge_colors
        assert bit_run.palette_size == congest.palette_size
        assert is_proper_edge_coloring(graph, bit_run.edge_colors)

    def test_inexact_variant(self):
        graph = gnp_graph(18, 0.25, seed=3)
        bit_run = run_edge_coloring_bit_protocol(graph, exact=False)
        congest = edge_coloring_congest(graph, exact=False)
        assert bit_run.edge_colors == congest.edge_colors

    def test_empty_graph(self):
        from repro.runtime.graph import StaticGraph

        run = run_edge_coloring_bit_protocol(StaticGraph(3, []))
        assert run.edge_colors == {}


class TestBitRoundCounts:
    def test_id_phase_costs_log_n(self):
        graph = random_regular(32, 4, seed=4)
        run = run_edge_coloring_bit_protocol(graph)
        assert run.rounds_by_phase["id-exchange"] == math.ceil(math.log2(32))

    def test_known_ids_skip_phase(self):
        graph = random_regular(32, 4, seed=5)
        run = run_edge_coloring_bit_protocol(graph, neighbor_ids_known=True)
        assert "id-exchange" not in run.rounds_by_phase

    def test_ag_phase_one_bit_per_round(self):
        """AG bit-rounds equal the CONGEST AG rounds (1 bit each)."""
        graph = random_regular(24, 4, seed=6)
        bit_run = run_edge_coloring_bit_protocol(graph)
        congest = edge_coloring_congest(graph)
        assert bit_run.rounds_by_phase["ag"] == congest.rounds_by_stage["ag"]

    def test_hybrid_phase_two_bits_per_round(self):
        graph = random_regular(24, 4, seed=7)
        bit_run = run_edge_coloring_bit_protocol(graph)
        congest = edge_coloring_congest(graph)
        assert (
            bit_run.rounds_by_phase["exact-hybrid"]
            == 2 * congest.rounds_by_stage["exact-hybrid"]
        )

    def test_total_is_delta_plus_log_n_shaped(self):
        totals = {}
        for n in (32, 128):
            graph = random_regular(n, 4, seed=n)
            run = run_edge_coloring_bit_protocol(graph)
            totals[n] = run.total_bit_rounds
        # Growing n 4x adds ~the extra ID/CV bits, not a multiplicative blowup.
        assert totals[128] <= totals[32] + 40


    @pytest.mark.parametrize(
        "graph",
        [
            random_regular(200, 6, seed=1),
            gnp_graph(30, 0.2, seed=4),
            grid_graph(4, 5),
            star_graph(9),
            cycle_graph(9),
            path_graph(2),
            path_graph(1),
        ],
        ids=["regular-200-6", "gnp", "grid", "star", "cycle", "edge", "empty"],
    )
    def test_ledger_equals_the_executed_count(self, graph):
        for exact in (False, True):
            for known in (False, True):
                _, bit_rounds = edge_coloring_bit_round(
                    graph, exact=exact, neighbor_ids_known=known
                )
                run = run_edge_coloring_bit_protocol(
                    graph, exact=exact, neighbor_ids_known=known,
                    backend="reference",
                )
                assert bit_rounds == run.total_bit_rounds, (exact, known)


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_match(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 18)
        graph = gnp_graph(n, rng.uniform(0.1, 0.4), seed=seed)
        if graph.m == 0:
            return
        bit_run = run_edge_coloring_bit_protocol(graph, exact=True)
        congest = edge_coloring_congest(graph, exact=True)
        assert bit_run.edge_colors == congest.edge_colors
        assert is_proper_edge_coloring(graph, bit_run.edge_colors)


class TestVertexBitProtocol:
    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(10),
            cycle_graph(12),
            star_graph(8),
            gnp_graph(20, 0.2, seed=11),
            random_regular(16, 4, seed=12),
        ],
        ids=["path", "cycle", "star", "gnp", "regular"],
    )
    def test_identical_to_pipeline(self, graph):
        from repro import delta_plus_one_coloring
        from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol

        run = run_vertex_coloring_bit_protocol(graph)
        reference = delta_plus_one_coloring(graph)
        assert run.colors == reference.colors
        assert max(run.colors, default=0) <= graph.max_degree

    def test_ag_phase_is_one_bit_per_round(self):
        from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol

        graph = random_regular(24, 4, seed=13)
        run = run_vertex_coloring_bit_protocol(graph)
        # AG bit-rounds = (one pair exchange) + (one bit per AG round).
        ag_rounds = run.rounds_by_phase["additive-group"]
        ag_bits = run.bit_rounds_by_phase["additive-group"]
        pair_width = ag_bits - ag_rounds
        assert pair_width >= 1  # the single pair broadcast
        assert ag_bits <= pair_width + ag_rounds

    def test_empty_graph(self):
        from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol
        from repro.runtime.graph import StaticGraph

        run = run_vertex_coloring_bit_protocol(StaticGraph(0, []))
        assert run.colors == []

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=12, deadline=None)
    def test_random_graphs_match_pipeline(self, seed):
        from repro import delta_plus_one_coloring
        from repro.bitround.vertex_coloring import run_vertex_coloring_bit_protocol

        rng = random.Random(seed)
        n = rng.randint(2, 20)
        graph = gnp_graph(n, rng.uniform(0.1, 0.4), seed=seed)
        run = run_vertex_coloring_bit_protocol(graph)
        reference = delta_plus_one_coloring(graph)
        assert run.colors == reference.colors
