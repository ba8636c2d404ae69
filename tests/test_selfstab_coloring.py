"""Tests for self-stabilizing O(Delta)- and exact (Delta+1)-coloring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphgen
from repro.baselines import RankGreedySelfStabColoring
from repro.runtime.graph import DynamicGraph
from repro.selfstab import (
    FaultCampaign,
    SelfStabColoring,
    SelfStabEngine,
    SelfStabExactColoring,
    SelfStabMIS,
)
from repro.selfstab.adversary import TargetedAttacks


def build_dynamic(n, delta_bound, p_edge, seed):
    g = DynamicGraph(n, delta_bound)
    rng = random.Random(seed)
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(u + 1, n):
            if (
                rng.random() < p_edge
                and g.degree(u) < delta_bound
                and g.degree(v) < delta_bound
            ):
                g.add_edge(u, v)
    return g


def dynamic_path(n):
    g = DynamicGraph(n, 2)
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def assert_legal_coloring(algorithm, graph, rams, palette_cap):
    colors = algorithm.final_colors(graph, rams)
    for v in graph.vertices():
        assert 0 <= colors[v] < palette_cap
        for u in graph.neighbors(v):
            assert colors[u] != colors[v]


@pytest.mark.parametrize("factory", [SelfStabColoring, SelfStabExactColoring])
class TestBothVariants:
    def test_stabilizes_from_fresh_state(self, factory):
        g = build_dynamic(40, 6, 0.15, seed=1)
        algorithm = factory(40, 6)
        engine = SelfStabEngine(g, algorithm)
        rounds = engine.run_to_quiescence()
        assert engine.is_legal()
        assert rounds <= algorithm.stabilization_bound()

    def test_recovers_from_heavy_corruption(self, factory):
        g = build_dynamic(36, 6, 0.18, seed=2)
        algorithm = factory(36, 6)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        campaign = FaultCampaign(seed=3)
        for _ in range(3):
            campaign.corrupt_random_rams(engine, 12)
            rounds = engine.run_to_quiescence()
            assert engine.is_legal()
            assert rounds <= algorithm.stabilization_bound()

    def test_recovers_from_topology_churn(self, factory):
        g = build_dynamic(30, 5, 0.18, seed=4)
        algorithm = factory(30, 5)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        campaign = FaultCampaign(seed=5)
        for _ in range(3):
            campaign.churn_edges(engine, removals=2, additions=2)
            campaign.churn_vertices(engine, crashes=1, spawns=1)
            engine.run_to_quiescence()
            assert engine.is_legal()

    def test_all_equal_colors_worst_case(self, factory):
        """Every vertex holds the same color — maximal conflict burst."""
        g = build_dynamic(30, 5, 0.2, seed=6)
        algorithm = factory(30, 5)
        engine = SelfStabEngine(g, algorithm)
        for v in g.vertices():
            engine.corrupt(v, 0)
        rounds = engine.run_to_quiescence()
        assert engine.is_legal()
        assert rounds <= algorithm.stabilization_bound()

    def test_garbage_rams(self, factory):
        g = build_dynamic(24, 5, 0.2, seed=7)
        algorithm = factory(24, 5)
        engine = SelfStabEngine(g, algorithm)
        garbage = [None, -7, ("x",), 10 ** 12, 3.5]
        for i, v in enumerate(g.vertices()):
            engine.corrupt(v, garbage[i % len(garbage)])
        engine.run_to_quiescence()
        assert engine.is_legal()


class TestPalettes:
    def test_o_delta_palette(self):
        g = build_dynamic(40, 6, 0.15, seed=8)
        algorithm = SelfStabColoring(40, 6)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        assert_legal_coloring(algorithm, g, engine.rams, algorithm.q)
        assert algorithm.q <= 8 * 6 + 12  # O(Delta) with small constant

    def test_exact_delta_plus_one_palette(self):
        g = build_dynamic(40, 6, 0.15, seed=9)
        algorithm = SelfStabExactColoring(40, 6)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        assert_legal_coloring(algorithm, g, engine.rams, 6 + 1)


class TestAdjustmentRadius:
    def test_radius_one_for_coloring(self):
        """Theorem 4.3: only the fault's neighborhood may recompute."""
        g = dynamic_path(30)
        algorithm = SelfStabColoring(30, 2)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        # Steal a neighbor's color in the middle of the path.
        victim = 15
        engine.corrupt(victim, engine.rams[16])
        engine.reset_touched()
        engine.corrupt(victim, engine.rams[16])
        engine.run_to_quiescence()
        assert engine.adjustment_radius([victim]) <= 1

    def test_radius_one_exact_variant(self):
        g = dynamic_path(24)
        algorithm = SelfStabExactColoring(24, 2)
        engine = SelfStabEngine(g, algorithm)
        engine.run_to_quiescence()
        victim = 11
        engine.corrupt(victim, engine.rams[12])
        engine.reset_touched()
        engine.corrupt(victim, engine.rams[12])
        engine.run_to_quiescence()
        assert engine.adjustment_radius([victim]) <= 1


class TestStabilizationScaling:
    def test_paper_beats_rank_baseline_on_all_equal_path(self):
        """The O(n) baseline cascades linearly; the paper's resets don't."""
        n = 120
        g1, g2 = dynamic_path(n), dynamic_path(n)
        paper = SelfStabColoring(n, 2)
        baseline = RankGreedySelfStabColoring(n, 2)
        e1, e2 = SelfStabEngine(g1, paper), SelfStabEngine(g2, baseline)
        for v in range(n):
            e1.corrupt(v, e1.algorithm.plan.offsets[0])  # same core color
            e2.corrupt(v, 0)
        r_paper = e1.run_to_quiescence()
        r_base = e2.run_to_quiescence(max_rounds=10 * n)
        assert e1.is_legal() and e2.is_legal()
        assert r_base > n / 4  # linear cascade
        assert r_paper < r_base / 2

    def test_stabilization_independent_of_diameter(self):
        rounds = []
        for n in (40, 80):
            g = dynamic_path(n)
            algorithm = SelfStabColoring(n, 2)
            engine = SelfStabEngine(g, algorithm)
            engine.run_to_quiescence()
            campaign = FaultCampaign(seed=10)
            campaign.corrupt_random_rams(engine, 5)
            rounds.append(engine.run_to_quiescence())
        assert abs(rounds[0] - rounds[1]) <= 12  # no linear growth in n


class TestRankBaseline:
    def test_baseline_is_correct_eventually(self):
        g = build_dynamic(30, 5, 0.2, seed=11)
        algorithm = RankGreedySelfStabColoring(30, 5)
        engine = SelfStabEngine(g, algorithm)
        rounds = engine.run_to_quiescence(max_rounds=10 * 30)
        assert engine.is_legal()
        colors = algorithm.final_colors(g, engine.rams)
        assert all(0 <= c <= 5 for c in colors.values())


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_random_fault_storms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 26)
        delta = rng.randint(2, 5)
        g = build_dynamic(n, delta, rng.uniform(0.1, 0.3), seed=seed)
        algorithm = SelfStabExactColoring(n, delta)
        engine = SelfStabEngine(g, algorithm)
        campaign = FaultCampaign(seed=seed)
        for _ in range(3):
            campaign.corrupt_random_rams(engine, rng.randint(1, n))
            if rng.random() < 0.5:
                campaign.churn_edges(engine, removals=1, additions=1)
            engine.run_to_quiescence()
            assert engine.is_legal()
            assert_legal_coloring(algorithm, g, engine.rams, delta + 1)


class TestSetVisibilitySelfStab:
    """Section 1.2.3: the self-stabilizing algorithms also run under set
    visibility — they only ever test membership of neighbor messages."""

    @pytest.mark.parametrize("factory", [SelfStabColoring, SelfStabExactColoring])
    def test_runs_agree_under_set_visibility(self, factory):
        g1 = build_dynamic(30, 5, 0.2, seed=95)
        g2 = build_dynamic(30, 5, 0.2, seed=95)
        e1 = SelfStabEngine(g1, factory(30, 5))
        e2 = SelfStabEngine(g2, factory(30, 5), set_visibility=True)
        assert e1.run_to_quiescence() == e2.run_to_quiescence()
        assert e1.rams == e2.rams

    def test_recovery_under_set_visibility(self):
        g = build_dynamic(24, 4, 0.2, seed=96)
        algorithm = SelfStabExactColoring(24, 4)
        engine = SelfStabEngine(g, algorithm, set_visibility=True)
        engine.run_to_quiescence()
        campaign = FaultCampaign(seed=97)
        campaign.corrupt_random_rams(engine, 10)
        rounds = engine.run_to_quiescence()
        assert engine.is_legal()
        assert rounds <= algorithm.stabilization_bound()


class TestLemma41ProperEveryRound:
    """Lemma 4.1: once faults stop, the algorithm produces a proper coloring
    in *each* round — conflicting or invalid vertices reset to their unique
    ID slots within one transition, and every later state is proper."""

    @pytest.mark.parametrize("factory", [SelfStabColoring, SelfStabExactColoring])
    def test_every_post_fault_round_is_proper(self, factory):
        g = build_dynamic(28, 5, 0.2, seed=101)
        algorithm = factory(28, 5)
        engine = SelfStabEngine(g, algorithm)
        # A nasty burst: duplicate colors everywhere + garbage.
        vertices = g.vertices()
        for i, v in enumerate(vertices):
            if i % 3 == 0:
                engine.corrupt(v, 0)
            elif i % 3 == 1:
                neighbors = g.neighbors(v)
                if neighbors:
                    engine.corrupt(v, engine.rams[neighbors[0]])
            else:
                engine.corrupt(v, ("junk", i))
        # Faults stop now.  After ONE transition, and in every round after,
        # all adjacent RAM values must be pairwise distinct.
        engine.step()
        for round_index in range(algorithm.stabilization_bound()):
            for v in g.vertices():
                for u in g.neighbors(v):
                    assert engine.rams[u] != engine.rams[v], (
                        round_index,
                        u,
                        v,
                    )
            if not engine.step() and engine.is_legal():
                break
        assert engine.is_legal()

    def test_proper_every_round_under_set_visibility(self):
        g = build_dynamic(20, 4, 0.25, seed=102)
        algorithm = SelfStabColoring(20, 4)
        engine = SelfStabEngine(g, algorithm, set_visibility=True)
        for v in g.vertices():
            engine.corrupt(v, 7)
        engine.step()
        for _ in range(algorithm.stabilization_bound()):
            for v in g.vertices():
                for u in g.neighbors(v):
                    assert engine.rams[u] != engine.rams[v]
            if not engine.step() and engine.is_legal():
                break
        assert engine.is_legal()


@pytest.mark.parametrize(
    "factory", [SelfStabColoring, SelfStabExactColoring, SelfStabMIS]
)
@pytest.mark.parametrize("seed", [1, 2])
def test_no_conflict_between_unchanged_vertices(factory, seed):
    """Right after any round, no edge joins two vertices the round left
    unchanged that hold equal colors: both would have reset to their own,
    distinct ID slots.  The batch Check-Error rests on this — it reads only
    the slots of the rows the last round changed or a fault wrote since.
    Checked here on the scalar specification, through random bursts,
    full clones and garbage, right after each burst included."""
    graph = DynamicGraph.from_static(graphgen.random_regular(120, 6, seed=seed))
    algorithm = factory(graph.n_bound, graph.delta_bound)
    engine = SelfStabEngine(graph, algorithm)
    mis = factory is SelfStabMIS
    edges = graph.edges()
    campaign = FaultCampaign(seed)
    rng = random.Random(seed)
    garbage = (0, 1, True, -7, None, ("junk", 1), 10 ** 9)
    checks = 0

    def color(v):
        ram = engine.rams[v]
        return ram[0] if mis else ram  # after a step every MIS RAM is a pair

    def recover():
        nonlocal checks
        for _ in range(algorithm.stabilization_bound() + 1):
            changed = engine.step()
            for u, v in edges:
                if u not in changed and v not in changed:
                    assert color(u) != color(v), (u, v)
                    checks += 1
            if not changed and engine.is_legal():
                return
        raise AssertionError("not stabilized within the bound")

    bursts = (
        lambda: campaign.corrupt_random_rams(engine, 30),
        lambda: campaign.corrupt_random_rams(engine, 30),
        lambda: TargetedAttacks.clone_everything(engine, source=rng.randrange(120)),
        lambda: campaign.corrupt_many(
            engine, {rng.randrange(120): rng.choice(garbage) for _ in range(30)}
        ),
    )
    recover()
    for burst in bursts:
        burst()
        recover()
    assert checks > 10 * len(edges)
