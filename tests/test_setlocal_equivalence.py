"""SET-LOCAL equivalence for the remaining AG-family stages.

AG and 3AG are covered in their own test modules; here AG(N), the exact
hybrid, and both color reductions are shown to produce bit-identical output
under set visibility — completing the Section 1.2.3 claim for every stage
the paper's pipelines use.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import KuhnWattenhoferReduction
from repro.core import (
    AdditiveGroupColoring,
    AdditiveGroupZN,
    ExactDeltaPlusOneHybrid,
    StandardColorReduction,
)
from repro.graphgen import gnp_graph
from repro.linial import LinialColoring
from repro.recipes import delta_plus_one_coloring
from repro.runtime import ColoringEngine, Visibility
from repro.runtime.backends import resolve_backend
from tests.test_agn import two_n_coloring


def run_both_modes(graph, stage_factory, initial, palette):
    outputs = []
    for visibility in (Visibility.LOCAL, Visibility.SET_LOCAL):
        engine = ColoringEngine(graph, visibility=visibility)
        run = engine.run(stage_factory(), initial, in_palette_size=palette)
        outputs.append((run.int_colors, run.rounds_used))
    return outputs


class TestSetLocalEquivalence:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_agn(self, seed):
        rng = random.Random(seed)
        graph = gnp_graph(rng.randint(2, 30), rng.uniform(0.1, 0.3), seed=seed)
        initial = two_n_coloring(graph, seed)
        local, setlocal = run_both_modes(
            graph, AdditiveGroupZN, initial, 2 * (graph.max_degree + 1)
        )
        assert local == setlocal

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_exact_hybrid(self, seed):
        rng = random.Random(seed)
        graph = gnp_graph(rng.randint(2, 30), rng.uniform(0.1, 0.3), seed=seed)
        ag_engine = ColoringEngine(graph)
        ag = AdditiveGroupColoring()
        pre = ag_engine.run(ag, list(range(graph.n)))
        local, setlocal = run_both_modes(
            graph, ExactDeltaPlusOneHybrid, pre.int_colors, ag.out_palette_size
        )
        assert local == setlocal

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_linial_and_reductions(self, seed):
        rng = random.Random(seed)
        graph = gnp_graph(rng.randint(2, 30), rng.uniform(0.1, 0.3), seed=seed)
        initial = list(range(graph.n))
        for factory in (LinialColoring, StandardColorReduction, KuhnWattenhoferReduction):
            local, setlocal = run_both_modes(graph, factory, initial, graph.n)
            assert local == setlocal, factory.__name__


@pytest.mark.parametrize(
    "backend",
    [
        "reference",
        pytest.param("batch", marks=pytest.mark.requires_numpy),
        pytest.param("oocore", marks=pytest.mark.requires_numpy),
    ],
)
class TestVisibilityArgument:
    """Engines take the Visibility member or its string value, nothing else."""

    def test_value_selects_the_member(self, backend):
        graph = gnp_graph(20, 0.2, seed=3)
        factory = resolve_backend("engine", backend)
        for value, member in (("set-local", Visibility.SET_LOCAL),
                              ("local", Visibility.LOCAL),
                              (Visibility.SET_LOCAL, Visibility.SET_LOCAL)):
            assert factory(graph, visibility=value).visibility is member

    def test_unknown_value_raises(self, backend):
        graph = gnp_graph(20, 0.2, seed=3)
        with pytest.raises(ValueError):
            resolve_backend("engine", backend)(graph, visibility="no-such-model")
        with pytest.raises(ValueError):
            delta_plus_one_coloring(graph, visibility="no-such-model", backend=backend)
