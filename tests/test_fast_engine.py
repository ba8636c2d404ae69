"""Differential tests: the vectorized batch engine vs the reference engine.

The acceleration layer's contract is *bit-for-bit equivalence*: for every
covered stage, graph, and visibility mode, the batch engine must produce the
same per-round colorings (history), the same final colors, the same
``rounds_used``, and the same metrics as the scalar reference engine.  These
tests enforce that on random graphs, adversarial worst cases, and every
small graph exhaustively; plus backend-selection and fallback behavior.
"""

import itertools
import os

import pytest

from repro import graphgen, obs
from repro.core import (
    AdditiveGroupColoring,
    AdditiveGroupZN,
    ArbAGColoring,
    ThreeDimensionalAG,
)
from repro.recipes import delta_plus_one_coloring
from repro.core.reductions import StandardColorReduction
from repro.errors import ImproperColoringError, PaletteOverflowError
from repro.linial.core import LinialColoring
from repro.runtime import (
    BatchColoringEngine,
    ColoringEngine,
    StaticGraph,
    Visibility,
    batch_supported,
)
from repro.runtime.algorithm import LocallyIterativeColoring
from repro.runtime.backends import resolve_backend
from repro.runtime.csr import numpy_available


def make_engine(graph, backend="auto", **kwargs):
    """Registry-constructed coloring engine (successor of the removed shim)."""
    return resolve_backend("engine", backend)(graph, **kwargs)


requires_numpy = pytest.mark.requires_numpy

BOTH_VISIBILITIES = (Visibility.LOCAL, Visibility.SET_LOCAL)


def _skip_without_numpy():
    if not numpy_available():
        pytest.skip("NumPy unavailable (or disabled via REPRO_DISABLE_NUMPY)")


def assert_equivalent_runs(graph, make_stage, initial, palette, visibility):
    """Run both engines and compare every observable output, the per-round
    ``engine.run`` telemetry rows included."""
    reference = ColoringEngine(
        graph,
        visibility=visibility,
        check_proper_each_round=make_stage().maintains_proper,
        record_history=True,
    )
    batch = BatchColoringEngine(
        graph,
        visibility=visibility,
        check_proper_each_round=make_stage().maintains_proper,
        record_history=True,
    )
    with obs.capture() as ref_tel:
        ref_result = reference.run(make_stage(), initial, in_palette_size=palette)
    with obs.capture() as bat_tel:
        bat_result = batch.run(make_stage(), initial, in_palette_size=palette)
    assert obs.comparable_view(
        bat_tel.events_of("engine.run")
    ) == obs.comparable_view(ref_tel.events_of("engine.run"))
    assert bat_result.history == ref_result.history
    assert bat_result.colors == ref_result.colors
    assert bat_result.int_colors == ref_result.int_colors
    assert bat_result.rounds_used == ref_result.rounds_used
    assert bat_result.num_colors == ref_result.num_colors
    assert bat_result.metrics.to_dict() == ref_result.metrics.to_dict()
    return ref_result


def proper_identity_coloring(graph):
    """The trivial proper n-coloring (vertex index)."""
    return list(range(graph.n)), max(1, graph.n)


def spread_small_coloring(graph):
    """A proper <= 2(Delta+1)-coloring exercising AG(N)'s high range.

    Greedy-color into Delta+1 classes, then shift every odd class up by
    N = Delta + 1 so roughly half the vertices start in the working band
    (b = 1); shifted classes stay disjoint from unshifted ones.
    """
    modulus = graph.max_degree + 1
    colors = [None] * graph.n
    for v in range(graph.n):
        used = {colors[u] for u in graph.neighbors(v) if colors[u] is not None}
        colors[v] = min(c for c in range(modulus) if c not in used)
    colors = [c + modulus if c % 2 == 1 else c for c in colors]
    return colors, 2 * modulus


DIFFERENTIAL_STAGES = [
    ("ag", AdditiveGroupColoring, proper_identity_coloring),
    ("3ag", ThreeDimensionalAG, proper_identity_coloring),
    ("agn", AdditiveGroupZN, spread_small_coloring),
    ("arb-ag-p1", lambda: ArbAGColoring(1), proper_identity_coloring),
    ("arb-ag-p3", lambda: ArbAGColoring(3), proper_identity_coloring),
    ("linial", LinialColoring, proper_identity_coloring),
    ("standard-reduction", StandardColorReduction, spread_small_coloring),
]


def random_graphs():
    return [
        ("gnp-sparse", graphgen.gnp_graph(70, 0.05, seed=11)),
        ("gnp-dense", graphgen.gnp_graph(48, 0.3, seed=12)),
        ("regular", graphgen.random_regular(60, 6, seed=13)),
        ("tree", graphgen.random_tree(50, seed=14)),
    ]


def worst_case_graphs():
    return [
        ("clique", graphgen.complete_graph(10)),
        ("star", graphgen.star_graph(24)),
        ("cycle-odd", graphgen.cycle_graph(19)),
        ("empty", graphgen.path_graph(1)),
        ("barbell", graphgen.barbell_of_cliques(5, 3)),
        ("bipartite", graphgen.complete_bipartite_graph(6, 9)),
    ]


@requires_numpy
@pytest.mark.parametrize("visibility", BOTH_VISIBILITIES, ids=lambda v: v.value)
@pytest.mark.parametrize("stage_id,make_stage,make_initial", DIFFERENTIAL_STAGES,
                         ids=[s[0] for s in DIFFERENTIAL_STAGES])
@pytest.mark.parametrize("graph_id,graph", random_graphs() + worst_case_graphs(),
                         ids=[g[0] for g in random_graphs() + worst_case_graphs()])
def test_batch_matches_reference(graph_id, graph, stage_id, make_stage,
                                 make_initial, visibility):
    _skip_without_numpy()
    initial, palette = make_initial(graph)
    assert_equivalent_runs(graph, make_stage, initial, palette, visibility)


@requires_numpy
@pytest.mark.parametrize("visibility", BOTH_VISIBILITIES, ids=lambda v: v.value)
def test_batch_matches_reference_exhaustive_small(visibility):
    """Every graph on up to 4 vertices, every AG-family stage."""
    _skip_without_numpy()
    n = 4
    all_edges = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        graph = StaticGraph(n, edges)
        for stage_id, make_stage, make_initial in DIFFERENTIAL_STAGES:
            initial, palette = make_initial(graph)
            assert_equivalent_runs(graph, make_stage, initial, palette, visibility)


@requires_numpy
def test_batch_engine_max_rounds_and_unfinished_decode():
    """max_rounds truncation raises the same decode error on both sides."""
    _skip_without_numpy()
    graph = graphgen.complete_graph(8)
    # Probe the modulus, then start every vertex in the working band (a != 0).
    probe = AdditiveGroupColoring()
    ColoringEngine(graph).run(probe, list(range(graph.n)), max_rounds=0)
    q = probe.q
    initial = [q * (v + 1) for v in range(graph.n)]
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        engine = engine_cls(graph)
        with pytest.raises(ValueError) as excinfo:
            engine.run(AdditiveGroupColoring(), initial, max_rounds=0)
        assert "working stage" in str(excinfo.value)


@requires_numpy
def test_batch_engine_encode_validation_matches():
    _skip_without_numpy()
    graph = graphgen.path_graph(3)
    stage = AdditiveGroupColoring()
    bad = [0, 1, 10 ** 9]
    ref_msg = bat_msg = None
    try:
        ColoringEngine(graph).run(AdditiveGroupColoring(), bad, in_palette_size=4)
    except ValueError as exc:
        ref_msg = str(exc)
    try:
        BatchColoringEngine(graph).run(stage, bad, in_palette_size=4)
    except ValueError as exc:
        bat_msg = str(exc)
    assert ref_msg is not None and ref_msg == bat_msg


@requires_numpy
def test_batch_engine_palette_overflow_matches():
    """A lying stage overflows the palette identically on every engine."""
    _skip_without_numpy()
    from repro.oocore.engine import OocoreColoringEngine

    class OverflowAG(AdditiveGroupColoring):
        @property
        def out_palette_size(self):
            return 1

    graph = graphgen.cycle_graph(6)
    initial = list(range(graph.n))
    messages = []
    for engine_cls in (ColoringEngine, BatchColoringEngine, OocoreColoringEngine):
        with pytest.raises(PaletteOverflowError) as excinfo:
            engine_cls(graph).run(OverflowAG(), initial)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == messages[2]


class ScriptedStage(LocallyIterativeColoring):
    """Recolors by a fixed script: in round ``r`` every vertex of color
    ``c`` takes color ``script[r][c]``; every other vertex keeps its own."""

    name = "scripted"

    def __init__(self, script, maintains_proper):
        super().__init__()
        self.script = script
        self.maintains_proper = maintains_proper

    @property
    def out_palette_size(self):
        return self.info.in_palette_size

    @property
    def rounds_bound(self):
        return 3

    def step(self, round_index, color, neighbor_colors):
        return self.script.get(round_index, {}).get(color, color)

    def batch_encode_initial(self, initial):
        """Identity, like the scalar path."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``."""
        (colors,) = state
        new_colors = colors.copy()
        for color, recolor in self.script.get(round_index, {}).items():
            new_colors[colors == color] = recolor
        return (new_colors,)

    def batch_is_final(self, state):
        """Never final, like the scalar path."""
        return state[0] < 0

    def batch_decode_final(self, state):
        """Identity, like the scalar path."""
        return state[0]

    def batch_to_scalar(self, state):
        """Plain ints, like the scalar path."""
        return state[0].tolist()


@requires_numpy
def test_conflict_created_mid_run_raises_identically():
    """A proper run that turns improper in round 1 fails the same way on
    both tiers; on the batch tier, only the changed rows are looked at."""
    _skip_without_numpy()
    graph = graphgen.cycle_graph(9)
    # Round 0 keeps the identity coloring; round 1 makes the edges (0, 1),
    # (2, 3), (4, 5) and (6, 7) monochromatic.
    script = {1: {1: 0, 3: 2, 5: 4, 7: 6}}
    errors = []
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        engine = engine_cls(graph, check_proper_each_round=True)
        stage = ScriptedStage(script, maintains_proper=True)
        with pytest.raises(ImproperColoringError) as excinfo:
            engine.run(stage, list(range(graph.n)))
        error = excinfo.value
        errors.append((error.round_index, error.edge, error.color, str(error)))
    assert errors[0] == errors[1]
    assert errors[0][:3] == (1, (0, 1), 0)


@requires_numpy
def test_conflict_at_unchanged_rows_is_still_counted():
    """A monochromatic edge whose ends stop changing stays in the count,
    though later rounds change only rows away from it."""
    _skip_without_numpy()
    graph = graphgen.cycle_graph(9)
    # Round 0 makes the edge (0, 1) monochromatic; round 1 recolors vertex
    # 4 only, which makes no new conflict.
    script = {0: {1: 0}, 1: {4: 8}}
    records = []
    for engine_cls in (ColoringEngine, BatchColoringEngine):
        stage = ScriptedStage(script, maintains_proper=False)
        with obs.capture() as tel:
            engine_cls(graph).run(stage, list(range(graph.n)))
        records.append(obs.comparable_view(tel.events_of("engine.run")))
    assert records[0] == records[1]
    assert [row["conflicts"] for row in records[0][0]["rounds"]] == [1, 1, 1]


@requires_numpy
def test_full_pipeline_identical_across_backends():
    """The end-to-end Corollary 3.6 pipeline is backend-invariant."""
    _skip_without_numpy()
    graph = graphgen.gnp_graph(60, 0.12, seed=21)
    ref = delta_plus_one_coloring(graph, backend="reference")
    bat = delta_plus_one_coloring(graph, backend="batch")
    auto = delta_plus_one_coloring(graph, backend="auto")
    assert bat.colors == ref.colors == auto.colors
    assert bat.total_rounds == ref.total_rounds == auto.total_rounds
    assert bat.to_dict() == ref.to_dict() == auto.to_dict()


# -- backend selection and fallback ---------------------------------------------


def test_batch_supported_detection():
    assert batch_supported(AdditiveGroupColoring())
    assert batch_supported(ThreeDimensionalAG())
    assert batch_supported(AdditiveGroupZN())
    assert batch_supported(ArbAGColoring(1))
    assert batch_supported(LinialColoring())
    assert batch_supported(StandardColorReduction())
    from repro.defective.vertex import DefectiveLinialColoring

    assert batch_supported(DefectiveLinialColoring(1))

    from repro.runtime.algorithm import LocallyIterativeColoring

    class _ScalarOnly(LocallyIterativeColoring):
        name = "scalar-only"
        out_palette_size = 1
        rounds_bound = 0

        def step(self, round_index, color, neighbor_colors):
            return color

    assert not batch_supported(_ScalarOnly())


def test_make_engine_reference_backend():
    graph = graphgen.path_graph(4)
    engine = make_engine(graph, backend="reference")
    assert type(engine) is ColoringEngine


def test_make_engine_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_engine(graphgen.path_graph(2), backend="warp-drive")


@requires_numpy
def test_make_engine_auto_prefers_batch():
    _skip_without_numpy()
    graph = graphgen.path_graph(4)
    assert type(make_engine(graph)) is BatchColoringEngine


def test_forced_numpy_disable_falls_back(monkeypatch):
    """REPRO_DISABLE_NUMPY=1 turns the whole layer off, results unchanged."""
    monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
    assert not numpy_available()
    graph = graphgen.gnp_graph(40, 0.1, seed=5)
    engine = make_engine(graph)
    assert type(engine) is ColoringEngine
    with pytest.raises(RuntimeError):
        make_engine(graph, backend="batch")
    # An explicitly constructed batch engine degrades to the scalar path.
    result = BatchColoringEngine(graph).run(
        AdditiveGroupColoring(), list(range(graph.n))
    )
    monkeypatch.delenv("REPRO_DISABLE_NUMPY")
    reference = ColoringEngine(graph).run(
        AdditiveGroupColoring(), list(range(graph.n))
    )
    assert result.colors == reference.colors
    assert result.rounds_used == reference.rounds_used


@requires_numpy
def test_csr_cache_is_reused():
    _skip_without_numpy()
    graph = graphgen.cycle_graph(8)
    assert graph.csr() is graph.csr()
    csr = graph.csr()
    assert csr.n == graph.n and csr.m == graph.m
    assert csr.indices.shape[0] == 2 * graph.m
    for v in range(graph.n):
        lo, hi = int(csr.indptr[v]), int(csr.indptr[v + 1])
        assert tuple(csr.indices[lo:hi].tolist()) == graph.neighbors(v)
        assert all(int(r) == v for r in csr.rows[lo:hi])


def test_max_degree_cached_and_correct():
    graph = graphgen.gnp_graph(30, 0.2, seed=9)
    expected = max((graph.degree(v) for v in range(graph.n)), default=0)
    assert graph.max_degree == expected
    assert StaticGraph(0, []).max_degree == 0


def test_num_colors_memoized():
    graph = graphgen.cycle_graph(6)
    result = ColoringEngine(graph).run(
        AdditiveGroupColoring(), list(range(graph.n))
    )
    first = result.num_colors
    assert result.num_colors == first == len(set(result.int_colors))
    assert result._num_colors == first
