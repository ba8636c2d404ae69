"""Tests for the self-stabilizing engine and the fault adversary."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotStabilizedError
from repro.runtime.graph import DynamicGraph
from repro.selfstab import FaultCampaign, SelfStabAlgorithm, SelfStabEngine


class ToyConsensusZero(SelfStabAlgorithm):
    """Every vertex drives its value to 0; legal = all zero."""

    name = "toy-zero"

    def fresh_ram(self, vertex):
        return 3

    def visible(self, vertex, ram):
        return ram

    def transition(self, vertex, ram, neighbor_visibles):
        if not isinstance(ram, int) or not (0 <= ram <= 3):
            return 3
        return max(0, ram - 1)

    def is_legal(self, graph, rams):
        return all(rams[v] == 0 for v in graph.vertices())


class NeverLegal(ToyConsensusZero):
    name = "toy-never"

    def is_legal(self, graph, rams):
        return False

    def stabilization_bound(self):
        return 5


def line_of(n, delta_bound=3):
    g = DynamicGraph(n, delta_bound)
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


class TestEngineBasics:
    def test_quiescence_counts_rounds(self):
        engine = SelfStabEngine(line_of(5), ToyConsensusZero(5, 3))
        rounds = engine.run_to_quiescence()
        assert rounds == 4  # 3 decrements + 1 confirming round
        assert engine.is_legal()

    def test_not_stabilized_raises(self):
        engine = SelfStabEngine(line_of(4), NeverLegal(4, 3))
        with pytest.raises(NotStabilizedError):
            engine.run_to_quiescence()

    def test_corrupt_requires_present_vertex(self):
        g = line_of(3)
        engine = SelfStabEngine(g, ToyConsensusZero(3, 3))
        g.remove_vertex(2)
        with pytest.raises(ValueError):
            engine.corrupt(2, 99)

    def test_corruption_recovery(self):
        engine = SelfStabEngine(line_of(4), ToyConsensusZero(4, 3))
        engine.run_to_quiescence()
        engine.corrupt(1, ("junk",))
        assert not engine.is_legal()
        engine.run_to_quiescence()
        assert engine.is_legal()

    def test_spawn_and_crash_manage_rams(self):
        g = DynamicGraph(6, 3)
        for v in range(4):
            g.add_vertex(v)
        for v in range(3):
            g.add_edge(v, v + 1)
        engine = SelfStabEngine(g, ToyConsensusZero(6, 3))
        engine.crash_vertex(1)
        assert 1 not in engine.rams
        engine.spawn_vertex(5)
        assert engine.rams[5] == 3
        engine.run_to_quiescence()
        assert engine.is_legal()

    def test_touched_tracking_and_radius(self):
        engine = SelfStabEngine(line_of(7), ToyConsensusZero(7, 3))
        engine.run_to_quiescence()
        engine.corrupt(3, 1)
        engine.reset_touched()
        engine.corrupt(3, 1)  # re-mark the fault source after reset
        engine.run_to_quiescence()
        assert engine.touched == {3}
        assert engine.adjustment_radius([3]) == 0

    def test_step_returns_changed_set(self):
        engine = SelfStabEngine(line_of(3), ToyConsensusZero(3, 3))
        changed = engine.step()
        assert changed == {0, 1, 2}
        engine.run_to_quiescence()
        assert engine.step() == set()


class TestFaultCampaign:
    def test_corruptions_are_applied(self):
        engine = SelfStabEngine(line_of(6), ToyConsensusZero(6, 3))
        engine.run_to_quiescence()
        campaign = FaultCampaign(seed=1)
        hit = campaign.corrupt_random_rams(engine, 4)
        assert len(hit) == 4
        engine.run_to_quiescence()
        assert engine.is_legal()

    def test_churn_respects_bounds(self):
        g = line_of(6, delta_bound=2)
        engine = SelfStabEngine(g, ToyConsensusZero(6, 2))
        campaign = FaultCampaign(seed=2)
        campaign.churn_vertices(engine, crashes=2, spawns=2)
        campaign.churn_edges(engine, removals=2, additions=2)
        assert all(g.degree(v) <= 2 for v in g.vertices())
        engine.run_to_quiescence()
        assert engine.is_legal()

    @given(
        n=st.integers(0, 9),
        delta=st.integers(0, 4),
        absent=st.sets(st.integers(0, 8), max_size=3),
        pairs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=24),
        removals=st.integers(0, 3),
        additions=st.integers(0, 3),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_churn_edges_draws_like_the_enumeration(
        self, n, delta, absent, pairs, removals, additions, seed
    ):
        # The oracle lists every present edge and every eligible pair and
        # calls rng.choice on the list; the campaign must pick the same
        # edges and leave the generator in the same state.
        worlds = []
        for _ in range(2):
            graph = DynamicGraph(n, delta)
            for v in range(n):
                if v not in absent:
                    graph.add_vertex(v)
            for u, v in pairs:
                if u != v and graph.is_present(u) and graph.is_present(v):
                    if not graph.has_edge(u, v) and max(
                        graph.degree(u), graph.degree(v)
                    ) < delta:
                        graph.add_edge(u, v)
            worlds.append(_EdgeEditor(graph))
        campaign = FaultCampaign(seed)
        oracle_rng = random.Random(seed)
        got = campaign.churn_edges(worlds[0], removals, additions)
        want = _enumerated_churn(oracle_rng, worlds[1], removals, additions)
        assert got == want
        assert worlds[0].graph.edges() == worlds[1].graph.edges()
        assert campaign.rng.getstate() == oracle_rng.getstate()

    def test_churn_edges_without_candidates_draws_nothing(self):
        campaign = FaultCampaign(seed=4)
        before = campaign.rng.getstate()
        # One vertex: no edge to remove, no pair to join.
        assert campaign.churn_edges(_EdgeEditor(line_of(1)), 2, 2) == []
        # Two vertices with room but already joined; a triangle at its bound.
        triangle = line_of(3, delta_bound=2)
        triangle.add_edge(0, 2)
        for graph in (line_of(2), triangle):
            assert campaign.churn_edges(_EdgeEditor(graph), 0, 2) == []
        assert campaign.rng.getstate() == before

    def test_campaign_deterministic(self):
        results = []
        for _ in range(2):
            engine = SelfStabEngine(line_of(6), ToyConsensusZero(6, 3))
            campaign = FaultCampaign(seed=3)
            results.append(
                (campaign.corrupt_random_rams(engine, 3), dict(engine.rams))
            )
        assert results[0] == results[1]


class _EdgeEditor:
    """The edge half of the engine's fault API, straight onto a graph."""

    def __init__(self, graph):
        self.graph = graph

    def add_edge(self, u, v):
        self.graph.add_edge(u, v)

    def remove_edge(self, u, v):
        self.graph.remove_edge(u, v)


def _enumerated_churn(rng, engine, removals, additions):
    """``FaultCampaign.churn_edges`` as it was written first: every present
    edge and every eligible pair listed, then ``rng.choice``."""
    affected = []
    for _ in range(removals):
        edges = engine.graph.edges()
        if not edges:
            break
        u, v = rng.choice(edges)
        engine.remove_edge(u, v)
        affected.extend((u, v))
    for _ in range(additions):
        present = engine.graph.vertices()
        if len(present) < 2:
            break
        candidates = [
            (u, v)
            for u in present
            for v in present
            if u < v
            and not engine.graph.has_edge(u, v)
            and engine.graph.degree(u) < engine.graph.delta_bound
            and engine.graph.degree(v) < engine.graph.delta_bound
        ]
        if not candidates:
            break
        u, v = rng.choice(candidates)
        engine.add_edge(u, v)
        affected.extend((u, v))
    return affected
