"""Tests for the O(1)-words-per-vertex execution (end of Section 3)."""

import random

import pytest

from repro import obs
from repro.analysis import is_proper_coloring
from repro.core.ag import AdditiveGroupColoring
from repro.core.reductions import StandardColorReduction
from repro.graphgen import (
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_regular,
)
from repro.linial.core import LinialColoring, linial_next_color
from repro.lowmem import (
    MeteredAdditiveGroupColoring,
    MeteredLinialColoring,
    MeteredStandardColorReduction,
    Workspace,
    WorkspaceOverflowError,
    delta_plus_one_coloring_low_memory,
)
from repro.lowmem.workspace import bits_for_range
from repro.recipes import delta_plus_one_coloring
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.graph import StaticGraph


class TestWorkspace:
    def test_peak_tracking(self):
        ws = Workspace()
        ws.put("a", 1, 8)
        ws.put("b", 2, 8)
        assert ws.live_bits == 16
        ws.free("a")
        ws.put("c", 3, 4)
        assert ws.live_bits == 12
        assert ws.peak_bits == 16

    def test_overwrite_replaces_accounting(self):
        ws = Workspace()
        ws.put("a", 1, 8)
        ws.put("a", 2, 16)
        assert ws.live_bits == 16

    def test_budget_enforced(self):
        ws = Workspace(bit_limit=10)
        ws.put("a", 1, 8)
        with pytest.raises(WorkspaceOverflowError):
            ws.put("b", 2, 8)

    def test_budget_boundary_exactly_at_limit_passes(self):
        ws = Workspace(bit_limit=16)
        ws.put("a", 1, 8)
        ws.put("b", 2, 8)  # live == limit: inside the budget
        assert ws.live_bits == 16
        with pytest.raises(WorkspaceOverflowError):
            ws.put("c", 3, 1)  # one bit over

    def test_budget_overflow_still_stores_the_value(self):
        # The register is written before the limit check: the error message
        # names the offending register set, and a test harness can inspect
        # the state that blew the budget.
        ws = Workspace(bit_limit=10)
        ws.put("a", 1, 8)
        with pytest.raises(WorkspaceOverflowError):
            ws.put("b", 2, 8)
        assert ws.get("b") == 2
        assert ws.live_bits == 16

    def test_free_missing_register_is_a_noop(self):
        ws = Workspace()
        ws.put("a", 1, 8)
        ws.free("never-stored")
        assert ws.live_bits == 8
        ws.free("a")
        ws.free("a")  # double-free: also a no-op
        assert ws.live_bits == 0

    def test_overwrite_grow_has_no_transient_peak(self):
        # 8 -> 16 must account as a replacement (peak 16), not as a
        # transient 24-bit spike of both generations live at once.
        ws = Workspace()
        ws.put("a", 1, 8)
        ws.put("a", 2, 16)
        assert ws.live_bits == 16
        assert ws.peak_bits == 16

    def test_overwrite_shrink_keeps_old_peak(self):
        ws = Workspace()
        ws.put("a", 1, 20)
        ws.put("a", 2, 5)
        assert ws.live_bits == 5
        assert ws.peak_bits == 20

    def test_overwrite_within_budget_never_raises(self):
        # Replacing a register with a same-width value stays at the limit;
        # the subtraction must happen before the limit check.
        ws = Workspace(bit_limit=8)
        ws.put("a", 1, 8)
        ws.put("a", 2, 8)
        assert ws.live_bits == 8

    def test_negative_bits_rejected(self):
        ws = Workspace()
        with pytest.raises(ValueError):
            ws.put("a", 1, -1)

    def test_free_all(self):
        ws = Workspace()
        ws.put("a", 1, 8)
        ws.free_all()
        assert ws.live_bits == 0
        assert "a" not in ws

    def test_peak_words(self):
        ws = Workspace()
        ws.put("a", 1, 33)
        assert ws.peak_words(16) == 3

    def test_bits_for_range(self):
        assert bits_for_range(2) == 1
        assert bits_for_range(256) == 8
        assert bits_for_range(257) == 9


def _configured(make, n, delta, palette, workspace=None):
    """A metered stage (or, without ``workspace``, its reference stage)
    configured for ``(n, Delta, input palette)``."""
    stage = make() if workspace is None else make(workspace)
    stage.configure(NetworkInfo(n, delta, palette))
    return stage


class TestStreamingSteps:
    def test_ag_step_matches_engine_semantics(self):
        stage = _configured(MeteredAdditiveGroupColoring, 20, 5, 100, Workspace())
        reference = _configured(AdditiveGroupColoring, 20, 5, 100)
        assert stage.q == 11
        conflict = stage.step(0, (2, 3), ((5, 3),))
        assert conflict == (2, 5) == reference.step(0, (2, 3), ((5, 3),))
        final = stage.step(0, (2, 3), ((5, 4),))
        assert final == (0, 3) == reference.step(0, (2, 3), ((5, 4),))

    def test_ag_step_memory_independent_of_degree(self):
        peaks = []
        for degree in (2, 50, 100):
            ws = Workspace()
            stage = _configured(MeteredAdditiveGroupColoring, 400, 100, 400, ws)
            q = stage.q
            neighbors = tuple((i % q, (7 * i) % q) for i in range(1, degree + 1))
            stage.step(0, (3, 5), neighbors)
            peaks.append(ws.peak_bits)
        assert peaks[0] == peaks[1] == peaks[2]

    def test_linial_step_matches_reference(self):
        # random_regular(200, 6)'s plan: one iteration, q = 13, degree 2.
        stage = _configured(MeteredLinialColoring, 200, 6, 200, Workspace())
        reference = _configured(LinialColoring, 200, 6, 200)
        [iteration] = stage.plan
        assert (iteration.q, iteration.degree) == (13, 2)
        neighbors = (7, 9, 3)
        streamed = stage.step(0, 5, neighbors)
        assert streamed == reference.step(0, 5, neighbors)
        assert streamed == linial_next_color(5, neighbors, 13, 2)
        rng = random.Random(3)
        for _ in range(200):
            color = rng.randrange(200)
            neighbors = tuple(rng.randrange(200) for _ in range(rng.randint(0, 6)))
            assert stage.step(0, color, neighbors) == reference.step(
                0, color, neighbors
            )
        # Past the plan the step is the identity, as the reference's.
        assert stage.step(1, 5, (7, 9, 3)) == 5

    def test_linial_step_memory_independent_of_degree(self):
        peaks = []
        for degree in (3, 60, 150):
            ws = Workspace()
            stage = _configured(MeteredLinialColoring, 10 ** 6, 150, 10 ** 6, ws)
            assert stage.plan
            stage.step(0, 0, tuple(range(1, degree + 1)))
            peaks.append(ws.peak_bits)
        assert peaks[0] == peaks[1] == peaks[2]

    def test_standard_reduction_step(self):
        stage = _configured(MeteredStandardColorReduction, 20, 3, 10, Workspace())
        reference = _configured(StandardColorReduction, 20, 3, 10)
        # Round 0: color class 9 acts; with colors 0 and 1 taken it picks 2.
        assert stage.step(0, 9, (0, 1, 5)) == 2 == reference.step(0, 9, (0, 1, 5))

    def test_standard_reduction_non_acting_keeps_color(self):
        stage = _configured(MeteredStandardColorReduction, 20, 3, 10, Workspace())
        assert stage.step(0, 3, (0,)) == 3
        assert stage.step(1, 9, (0,)) == 9  # class 8 acts in round 1


class TestFullPipeline:
    @pytest.mark.parametrize(
        "graph",
        [
            cycle_graph(40),
            complete_graph(8),
            gnp_graph(48, 0.12, seed=1),
            random_regular(40, 6, seed=2),
        ],
        ids=["cycle", "clique", "gnp", "regular"],
    )
    def test_correct_coloring(self, graph):
        report = delta_plus_one_coloring_low_memory(graph)
        assert is_proper_coloring(graph, report.colors)
        assert max(report.colors) <= graph.max_degree

    def test_peak_words_constant_across_sizes(self):
        """The paper's claim: O(1) words of Theta(log n) bits each."""
        words = []
        # (200, 6, 0) is the one config whose Linial plan is not empty.
        for n, d, seed in [(24, 4, 1), (96, 8, 2), (192, 12, 3), (200, 6, 0)]:
            graph = random_regular(n, d, seed=seed)
            report = delta_plus_one_coloring_low_memory(graph)
            words.append(report.peak_words)
        assert max(words) <= 12  # a fixed handful of registers
        assert max(words) - min(words) <= 4

    def test_budget_enforcement_is_live(self):
        graph = random_regular(40, 6, seed=4)
        with pytest.raises(WorkspaceOverflowError):
            delta_plus_one_coloring_low_memory(graph, bit_limit=3)

    def test_generous_budget_passes(self):
        graph = random_regular(40, 6, seed=5)
        report = delta_plus_one_coloring_low_memory(
            graph, bit_limit=20 * report_word_bits(graph)
        )
        assert is_proper_coloring(graph, report.colors)


def _shuffled_ids(graph, seed):
    """``graph`` rebuilt with the ids ``1000..1000+n-1`` in shuffled order."""
    ids = list(range(1000, 1000 + graph.n))
    random.Random(seed).shuffle(ids)
    return StaticGraph(graph.n, graph.edges, ids=ids)


PIN_GRAPHS = {
    "cycle": lambda: cycle_graph(40),
    "clique": lambda: complete_graph(8),
    "path1": lambda: path_graph(1),
    "path2": lambda: path_graph(2),
    "gnp48": lambda: gnp_graph(48, 0.12, seed=1),
    "gnp300": lambda: gnp_graph(300, 0.03, seed=0),
    "regular40": lambda: random_regular(40, 6, seed=2),
    "regular200": lambda: random_regular(200, 6, seed=0),
    "regular200-shuffled-ids": lambda: _shuffled_ids(random_regular(200, 6, seed=0), 1),
}


class TestRecipePin:
    """The metered run is the headline recipe, color for color and round
    for round: same initial id coloring, schedule and round loop."""

    @pytest.mark.parametrize("name", sorted(PIN_GRAPHS))
    def test_equals_the_reference_recipe(self, name):
        graph = PIN_GRAPHS[name]()
        report = delta_plus_one_coloring_low_memory(graph)
        reference = delta_plus_one_coloring(graph, backend="reference")
        assert list(report.colors) == list(reference.colors)
        assert report.rounds_by_stage() == reference.rounds_by_stage()
        assert report.rounds == reference.total_rounds

    def test_run_records_equal_the_reference_recipe(self):
        graph = random_regular(200, 6, seed=0)
        records = []
        for run in (
            lambda: delta_plus_one_coloring_low_memory(graph),
            lambda: delta_plus_one_coloring(graph, backend="reference"),
        ):
            with obs.capture() as tel:
                run()
            records.append(
                obs.comparable_view(
                    tel.events_of("engine.run") + tel.events_of("pipeline.run")
                )
            )
        assert len(records[0]) == 4
        assert records[0] == records[1]


def report_word_bits(graph):
    return bits_for_range(max(2, graph.n))
