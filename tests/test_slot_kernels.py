"""The CSR slot kernels: the SET-LOCAL dedup and the hybrid's slot budget.

``CSRAdjacency.distinct_slot_mask`` ranks the per-vertex color tuples once
and keeps the first slot of each row per distinct rank; it must equal a
plain per-row set dedup, and both of its callers (ArbAG under SET-LOCAL and
the tolerant Linial round) must keep the batch engine equal to the
reference engine.  ``ExactDeltaPlusOneHybrid.step_batch`` reads only the
slots of its non-final rows, since a final low vertex is a fixed point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ag import AdditiveGroupColoring
from repro.core.arbdefective import ArbAGColoring
from repro.core.hybrid import ExactDeltaPlusOneHybrid
from repro.defective.vertex import DefectiveLinialColoring
from repro.graphgen import gnp_graph, random_regular
from repro.linial.core import LinialColoring
from repro.runtime.algorithm import NetworkInfo
from repro.runtime.engine import ColoringEngine, Visibility
from repro.runtime.graph import StaticGraph

requires_numpy = pytest.mark.requires_numpy


def _python_dedup(csr, columns):
    """Per row, True for each slot whose neighbor color the row has not
    seen at an earlier slot."""
    indptr, indices = csr.indptr.tolist(), csr.indices.tolist()
    values = [column.tolist() for column in columns]
    keep = []
    for v in range(csr.n):
        seen = set()
        for u in indices[indptr[v]:indptr[v + 1]]:
            color = tuple(value[u] for value in values)
            keep.append(color not in seen)
            seen.add(color)
    return keep


class TestDistinctSlotMask:
    @requires_numpy
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 40),
        p=st.floats(0.0, 0.5),
        extra=st.integers(0, 3),
        width=st.sampled_from([1, 4]),
        low=st.integers(-3, 0),
        spread=st.integers(1, 5),
        data=st.data(),
    )
    def test_equals_a_per_row_set_dedup(self, n, p, extra, width, low, spread, data):
        import numpy as np

        # ``extra`` isolated vertices add degree-0 rows; n = 0 with no extra
        # is the empty view.
        base = gnp_graph(n, p, seed=data.draw(st.integers(0, 10 ** 6))) if n else None
        graph = StaticGraph(n + extra, base.edges if base else [])
        values = st.lists(
            st.integers(low, low + spread), min_size=graph.n, max_size=graph.n
        )
        columns = [np.array(data.draw(values), dtype=np.int64) for _ in range(width)]
        csr = graph.csr()
        mask = csr.distinct_slot_mask(*columns)
        assert mask.dtype == bool and mask.shape == csr.indices.shape
        assert mask.tolist() == _python_dedup(csr, columns)

    @requires_numpy
    def test_shard_local_view_with_halo_rows(self, tmp_path):
        import numpy as np

        from repro.oocore.writers import shard_static_graph

        graph = random_regular(90, 6, seed=4)
        sharded = shard_static_graph(graph, str(tmp_path), shards=3)
        rng = np.random.default_rng(2)
        for shard_id in range(sharded.shards):
            csr = sharded.local(shard_id).csr()  # halo rows have degree 0
            columns = [rng.integers(-1, 3, csr.n) for _ in range(4)]
            assert csr.distinct_slot_mask(*columns).tolist() == _python_dedup(
                csr, columns
            )


def _equal_runs(graph, make_stage, initial, palette, visibility):
    from repro.runtime.fast_engine import BatchColoringEngine

    runs = [
        engine(graph, visibility=visibility, record_history=True).run(
            make_stage(), initial, in_palette_size=palette
        )
        for engine in (ColoringEngine, BatchColoringEngine)
    ]
    reference, batch = runs
    assert batch.history == reference.history
    assert batch.int_colors == reference.int_colors
    assert batch.rounds_used == reference.rounds_used
    assert batch.metrics.to_dict() == reference.metrics.to_dict()
    return reference


def _repeats_in_a_neighborhood(graph, colors):
    return any(
        len({colors[u] for u in graph.neighbors(v)}) < graph.degree(v)
        for v in graph.vertices()
    )


class TestDedupCallers:
    """Both callers, on inputs where some vertex sees one color twice."""

    GRAPHS = [
        ("regular", lambda: random_regular(300, 12, seed=9)),
        ("gnp", lambda: gnp_graph(300, 0.04, seed=10)),
    ]

    @requires_numpy
    @pytest.mark.parametrize("name, build", GRAPHS)
    @pytest.mark.parametrize("tolerance", [1, 2, 4])
    def test_set_local_arbag_equals_reference(self, name, build, tolerance):
        graph = build()
        defective = DefectiveLinialColoring(tolerance)
        first = ColoringEngine(graph).run(
            defective, list(range(graph.n)), in_palette_size=5000
        )
        # Neighbors of one class share ``orig``: identical 4-tuples collapse.
        assert _repeats_in_a_neighborhood(graph, first.int_colors)
        _equal_runs(
            graph, lambda: ArbAGColoring(tolerance), first.int_colors,
            defective.out_palette_size, Visibility.SET_LOCAL,
        )

    @requires_numpy
    @pytest.mark.parametrize("name, build", GRAPHS)
    @pytest.mark.parametrize("visibility", [Visibility.LOCAL, Visibility.SET_LOCAL])
    @pytest.mark.parametrize("tolerance", [2, 3])
    @pytest.mark.parametrize("spread", [None, 37])
    def test_tolerant_defective_linial_equals_reference(
        self, name, build, visibility, tolerance, spread
    ):
        graph = build()
        # A 5000-color palette plans one proper round before the tolerant
        # one; ``v * 7 % spread`` starts from an improper coloring.
        if spread is None:
            initial = list(range(graph.n))
        else:
            initial = [v * 7 % spread for v in range(graph.n)]
            assert _repeats_in_a_neighborhood(graph, initial)
        stage = DefectiveLinialColoring(tolerance)
        stage.configure(NetworkInfo(graph.n, graph.max_degree, 5000))
        assert stage.tolerant_qs
        reference = _equal_runs(
            graph, lambda: DefectiveLinialColoring(tolerance), initial, 5000,
            visibility,
        )
        assert reference.rounds_used > len(stage.proper_plan)


class _SlotCounter:
    """A CSR view that counts the slots a kernel reads.

    A whole-view read (``gather``, ``owner_values``, ``rows``, the per-vertex
    reductions, the dedup) counts every slot; ``subset_slots`` counts the
    slots it hands out, which the kernel then reads through ``indices``.
    """

    def __init__(self, csr):
        self._csr = csr
        self.read = 0

    def __getattr__(self, name):
        return getattr(self._csr, name)

    def _all(self, result):
        self.read += self._csr.indices.shape[0]
        return result

    @property
    def rows(self):
        return self._all(self._csr.rows)

    def gather(self, values):
        return self._all(self._csr.gather(values))

    def owner_values(self, values):
        return self._all(self._csr.owner_values(values))

    def count_per_vertex(self, slot_mask):
        return self._all(self._csr.count_per_vertex(slot_mask))

    def any_per_vertex(self, slot_mask):
        return self._all(self._csr.any_per_vertex(slot_mask))

    def distinct_slot_mask(self, *columns):
        return self._all(self._csr.distinct_slot_mask(*columns))

    def subset_slots(self, vertices):
        slots, owner = self._csr.subset_slots(vertices)
        self.read += slots.shape[0]
        return slots, owner


def _exact_hybrid_input(graph):
    """The coloring the exact pipeline hands its hybrid stage."""
    engine = ColoringEngine(graph)
    linial = LinialColoring()
    first = engine.run(linial, list(range(graph.n)))
    ag = AdditiveGroupColoring()
    second = engine.run(ag, first.int_colors, in_palette_size=linial.out_palette_size)
    return second.int_colors, ag.out_palette_size


class TestHybridSlotBudget:
    @requires_numpy
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("source", ["pipeline", "random"])
    def test_each_round_reads_the_non_final_rows_slots(self, seed, source):
        import random

        import numpy as np

        graph = random_regular(300, 12, seed=seed)
        stage = ExactDeltaPlusOneHybrid()
        if source == "pipeline":
            initial, palette = _exact_hybrid_input(graph)
        else:
            # A proper coloring spread over the stage's whole capacity:
            # mostly high vertices.
            from repro.baselines.greedy import greedy_coloring

            stage.configure(NetworkInfo(graph.n, graph.max_degree, 1))
            palette = 2 * stage.n_colors + stage.p * (stage.p - 1)
            spread = random.Random(seed).sample(range(palette), stage.n_colors)
            initial = [spread[c] for c in greedy_coloring(graph)]
        stage.configure(NetworkInfo(graph.n, graph.max_degree, palette))
        csr = graph.csr()
        counter = _SlotCounter(csr)
        state = stage.batch_encode_initial(np.array(initial, dtype=np.int64))
        rounds = 0
        while not stage.batch_is_final(state).all():
            non_final = ~stage.batch_is_final(state)
            counter.read = 0
            colors = stage.batch_to_scalar(state)
            state = stage.step_batch(rounds, state, counter, Visibility.LOCAL)
            assert counter.read == int(csr.degrees[non_final].sum()), rounds
            # ... and the round is still the scalar rule's round.
            assert stage.batch_to_scalar(state) == [
                stage.step(rounds, colors[v], tuple(colors[u] for u in graph.neighbors(v)))
                for v in graph.vertices()
            ]
            rounds += 1
            assert rounds <= stage.rounds_bound
        assert rounds > 2
