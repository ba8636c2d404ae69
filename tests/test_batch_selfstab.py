"""Differential tests: the batch self-stab engine vs the reference engine.

The vectorized :class:`BatchSelfStabEngine` promises *bit-for-bit*
equivalence with the scalar :class:`SelfStabEngine`: identical stabilization
round counts, identical RAM dicts after every burst, identical touched sets
and adjustment radii, identical CONGEST payload meters, and identical
``NotStabilizedError`` messages.  These tests enforce that under random
corruption storms, hand-crafted catastrophes, topology churn, garbage and
exotic RAM values, both visibility disciplines, and exhaustively on small
graphs; plus the backend dispatcher's selection and fallback behavior.
"""

import random

import pytest

from repro import graphgen
from repro.errors import NotStabilizedError
from repro.runtime.csr import numpy_available
from repro.runtime.graph import DynamicGraph
from repro.selfstab import (
    BatchSelfStabEngine,
    FaultCampaign,
    SelfStabColoring,
    SelfStabEdgeColoring,
    SelfStabEngine,
    SelfStabExactColoring,
    SelfStabMaximalMatching,
    SelfStabMIS,
    batch_supported,
)
from repro.runtime.backends import resolve_backend
from repro.selfstab.adversary import TargetedAttacks
from repro.selfstab.lowmem import SelfStabColoringConstantMemory


def make_selfstab_engine(graph, algorithm, set_visibility=False, backend="auto"):
    """Registry-constructed selfstab engine (successor of the removed shim)."""
    return resolve_backend("selfstab", backend)(
        graph, algorithm, set_visibility=set_visibility
    )

requires_numpy = pytest.mark.requires_numpy


def _skip_without_numpy():
    if not numpy_available():
        pytest.skip("NumPy unavailable (or disabled via REPRO_DISABLE_NUMPY)")


ALGORITHMS = (
    ("coloring", SelfStabColoring),
    ("exact", SelfStabExactColoring),
    ("mis", SelfStabMIS),
    ("mis-exact", lambda n, d: SelfStabMIS(n, d, coloring_factory=SelfStabExactColoring)),
)


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


GARBAGE = [
    True,
    False,
    ("junk", 3),
    None,
    "xx",
    10 ** 9,
    -7,
    2 ** 70,  # exotic: does not fit the int64 columns -> scalar round
    (5, "bogus"),
    (True, "MIS"),
    ((1, 2), "UND"),
    (3, "MIS"),
    (10 ** 9, "UND"),
    (-4, "NOTMIS"),
    (2 ** 70, "MIS"),
]


def _pair(factory, n, delta, graph_builder, set_visibility=False):
    """Two identical worlds: one reference engine, one batch engine."""
    engines = []
    for backend in ("reference", "batch"):
        graph = graph_builder()
        algorithm = factory(n, delta)
        engines.append(
            make_selfstab_engine(
                graph, algorithm, set_visibility=set_visibility, backend=backend
            )
        )
    return engines


def _assert_in_lockstep(ref, bat):
    assert bat.round_count == ref.round_count
    assert bat.max_message_bits == ref.max_message_bits
    assert bat.touched == ref.touched
    assert dict(bat.rams) == dict(ref.rams)
    assert bat.is_legal() == ref.is_legal()


@pytest.mark.parametrize("set_visibility", (False, True), ids=("local", "set-local"))
@pytest.mark.parametrize("label,factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@requires_numpy
def test_parity_random_storms(label, factory, set_visibility):
    """Cold start + random corruption bursts: every observable identical."""
    n, delta = 40, 5
    ref, bat = _pair(
        factory, n, delta,
        lambda: build_dynamic(n, delta, 0.2, seed=11),
        set_visibility=set_visibility,
    )
    assert isinstance(bat, BatchSelfStabEngine)
    assert ref.run_to_quiescence() == bat.run_to_quiescence()
    _assert_in_lockstep(ref, bat)
    for seed in (1, 2):
        for engine in (ref, bat):
            FaultCampaign(seed).corrupt_random_rams(engine, n // 2)
        assert ref.run_to_quiescence() == bat.run_to_quiescence()
        _assert_in_lockstep(ref, bat)


def _step_in_lockstep(ref, bat):
    """Step both engines to quiescence, comparing every round's observables."""
    for _ in range(ref.algorithm.stabilization_bound() + 1):
        changed = ref.step()
        assert bat.step() == changed, ref.round_count
        assert dict(bat.rams) == dict(ref.rams), ref.round_count
        assert bat.max_message_bits == ref.max_message_bits, ref.round_count
        assert bat.touched == ref.touched, ref.round_count
        if not changed and ref.is_legal():
            assert bat.is_legal()
            return
    raise AssertionError("no quiescence within the stabilization bound")


def _reset_case(engine, label):
    """A vertex holds its own reset color; two neighbors are corrupted to it.

    All three reset, and the vertex resets to the value it already holds:
    the round leaves it unchanged, yet it sits in the top interval and must
    descend in the next one.  MIS setups keep every victim's status, and
    pick an MIS member so that status stays put too.
    """
    algorithm, graph = engine.algorithm, engine.graph
    mis = label.startswith("mis")
    candidates = (
        sorted(algorithm.mis_members(graph, engine.rams)) if mis else graph.vertices()
    )
    v = next(u for u in candidates if graph.degree(u) >= 2)
    value = (algorithm.coloring if mis else algorithm).plan.reset_color(v)
    for u in (v,) + tuple(graph.neighbors(v)[:2]):
        engine.corrupt(u, (value, engine.rams[u][1]) if mis else value)


@pytest.mark.parametrize("set_visibility", (False, True), ids=("local", "set-local"))
@pytest.mark.parametrize("label,factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@requires_numpy
def test_parity_round_by_round(label, factory, set_visibility):
    """Every round, not just quiescence: changed set, RAMs, meters, touched.

    The batch kernels read only the slots of dirty and non-final rows, so on
    a graph where those are a small share a wrongly skipped row shows up in
    the round it is skipped.
    """
    n, degree = 300, 8
    ref, bat = _pair(
        factory, n, degree,
        lambda: DynamicGraph.from_static(graphgen.random_regular(n, degree, seed=4)),
        set_visibility=set_visibility,
    )
    _step_in_lockstep(ref, bat)
    rng = random.Random(6)
    garbage = {rng.randrange(n): GARBAGE[rng.randrange(len(GARBAGE))] for _ in range(8)}
    victims = ref.graph.vertices()[::25]
    bursts = (
        lambda engine: FaultCampaign(5).corrupt_random_rams(engine, n // 10),
        lambda engine: _reset_case(engine, label),
        lambda engine: FaultCampaign(0).corrupt_many(engine, garbage),
        lambda engine: TargetedAttacks.descent_interruption(engine, victims),
    )
    for burst in bursts:
        for engine in (ref, bat):
            burst(engine)
        _assert_in_lockstep(ref, bat)
        _step_in_lockstep(ref, bat)


@pytest.mark.parametrize("label,factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@requires_numpy
def test_parity_garbage_and_exotic_rams(label, factory):
    """Adversarial RAM values: bools, tuples, strings, huge ints.

    Exotic ints (>= 2^61) cannot live in the int64 columns; the batch
    engine must route those rounds through the scalar step and still agree
    on everything, including the payload-bit meter for each garbage shape.
    """
    n, delta = 24, 4
    ref, bat = _pair(factory, n, delta, lambda: build_dynamic(n, delta, 0.25, seed=5))
    ref.run_to_quiescence()
    bat.run_to_quiescence()
    rng = random.Random(99)
    for burst in range(4):
        assignments = {
            rng.randrange(n): GARBAGE[rng.randrange(len(GARBAGE))]
            for _ in range(6)
        }
        for engine in (ref, bat):
            FaultCampaign(0).corrupt_many(engine, assignments)
        assert ref.run_to_quiescence() == bat.run_to_quiescence()
        _assert_in_lockstep(ref, bat)


@pytest.mark.parametrize("label,factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@requires_numpy
def test_parity_catastrophe_and_error_message(label, factory):
    """All-RAM-equal symmetry bomb, and NotStabilizedError parity."""
    n, delta = 30, 4
    ref, bat = _pair(factory, n, delta, lambda: build_dynamic(n, delta, 0.25, seed=3))
    ref.run_to_quiescence()
    bat.run_to_quiescence()
    for engine in (ref, bat):
        TargetedAttacks.clone_everything(engine)
    # A 1-round budget cannot stabilize a full clone: both engines must
    # raise the *same* NotStabilizedError text (the batch engine replays
    # the failure through the scalar transition).
    errors = []
    for engine in (ref, bat):
        with pytest.raises(NotStabilizedError) as info:
            engine.run_to_quiescence(max_rounds=1)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    _assert_in_lockstep(ref, bat)
    assert ref.run_to_quiescence() == bat.run_to_quiescence()
    _assert_in_lockstep(ref, bat)


@pytest.mark.parametrize("label,factory", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
@requires_numpy
def test_parity_churn_and_rewiring(label, factory):
    """Crashes, spawns and rewiring: CSR epochs rebuild correctly."""
    n, delta = 30, 5
    ref, bat = _pair(factory, n, delta, lambda: build_dynamic(n, delta, 0.2, seed=7))
    ref.run_to_quiescence()
    bat.run_to_quiescence()
    for seed in range(3):
        for engine in (ref, bat):
            campaign = FaultCampaign(seed)
            campaign.churn_vertices(engine, crashes=2, spawns=2)
            campaign.churn_edges(engine, removals=2, additions=2)
            campaign.corrupt_random_rams(engine, 5)
        assert ref.run_to_quiescence() == bat.run_to_quiescence()
        _assert_in_lockstep(ref, bat)


@requires_numpy
def test_edge_edit_keeps_the_columns():
    """An edge edit keeps the columns and dirties exactly its two endpoints.

    The added edge joins two clean vertices of equal color, the one
    monochromatic edge Check-Error can only find through those endpoints;
    every round after each edit must match the reference engine.
    """
    import numpy as np

    n, delta = 300, 8
    ref, bat = _pair(
        SelfStabExactColoring, n, delta,
        lambda: DynamicGraph.from_static(
            graphgen.random_regular(n, 6, seed=4), delta_bound=delta
        ),
    )
    _step_in_lockstep(ref, bat)
    rams, graph = bat.rams, bat.graph
    added = next(
        (u, v) for u in graph.vertices() for v in graph.vertices()
        if u < v and rams[u] == rams[v] and not graph.has_edge(u, v)
    )
    removed = graph.edges()[17]
    for edit, edge in (("add_edge", added), ("remove_edge", removed)):
        columns = bat._state
        for engine in (ref, bat):
            engine.reset_touched()
            getattr(engine, edit)(*edge)
        assert bat._state is columns
        index = bat._epoch[3]
        assert np.flatnonzero(bat._dirty).tolist() == sorted(index[w] for w in edge)
        _step_in_lockstep(ref, bat)
        assert ref.adjustment_radius(edge) == bat.adjustment_radius(edge)


@requires_numpy
def test_parity_exhaustive_tiny_graphs():
    """Every graph on <= 4 vertices, every algorithm: cold-start parity."""
    import itertools

    for n in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            delta = max(1, n - 1)
            for label, factory in ALGORITHMS[:3]:
                def builder():
                    g = DynamicGraph(n, delta)
                    for v in range(n):
                        g.add_vertex(v)
                    for u, v in edges:
                        g.add_edge(u, v)
                    return g

                ref, bat = _pair(factory, n, delta, builder)
                assert ref.run_to_quiescence() == bat.run_to_quiescence(), (
                    n, bits, label
                )
                assert dict(ref.rams) == dict(bat.rams), (n, bits, label)


@requires_numpy
def test_parity_adjustment_radius():
    """Localized faults: identical touched sets -> identical radii."""
    n = 40
    ref, bat = _pair(SelfStabColoring, n, 2, lambda: dynamic_path(n))
    ref.run_to_quiescence()
    bat.run_to_quiescence()
    for victim in (5, 20, 33):
        radii = []
        for engine in (ref, bat):
            value = engine.rams[victim + 1]
            engine.corrupt(victim, value)
            engine.reset_touched()
            engine.corrupt(victim, value)
            engine.run_to_quiescence()
            radii.append(engine.adjustment_radius([victim]))
        assert radii[0] == radii[1]
        assert radii[0] <= 1


@requires_numpy
def test_parity_line_protocols():
    """Matching and edge coloring on the line-graph mirror, per backend."""
    for wrapper_factory in (
        SelfStabMaximalMatching,
        lambda base, backend: SelfStabEdgeColoring(base, backend=backend),
    ):
        results = {}
        for backend in ("reference", "batch"):
            base = build_dynamic(14, 3, 0.3, seed=21)
            wrapper = wrapper_factory(base, backend=backend)
            rounds = [wrapper.run_to_quiescence()]
            campaign = FaultCampaign(seed=2)
            campaign.corrupt_random_rams(wrapper.engine, 8)
            rounds.append(wrapper.run_to_quiescence())
            results[backend] = (rounds, dict(wrapper.engine.rams))
        assert results["reference"] == results["batch"]


@requires_numpy
def test_batch_engine_scalar_fallback_for_lowmem():
    """Unsupported algorithms run scalar rounds inside the batch engine."""
    n, delta = 20, 4
    algorithm = SelfStabColoringConstantMemory(n, delta)
    assert not batch_supported(algorithm)
    auto = make_selfstab_engine(build_dynamic(n, delta, 0.25, seed=9), algorithm)
    assert isinstance(auto, SelfStabEngine)
    assert not isinstance(auto, BatchSelfStabEngine)
    # Forcing backend="batch" still works — every round falls back.
    ref = SelfStabEngine(
        build_dynamic(n, delta, 0.25, seed=9), SelfStabColoringConstantMemory(n, delta)
    )
    bat = make_selfstab_engine(
        build_dynamic(n, delta, 0.25, seed=9),
        SelfStabColoringConstantMemory(n, delta),
        backend="batch",
    )
    assert isinstance(bat, BatchSelfStabEngine)
    assert ref.run_to_quiescence() == bat.run_to_quiescence()
    assert dict(ref.rams) == dict(bat.rams)


def test_dispatcher_backend_selection():
    graph = build_dynamic(8, 3, 0.3, seed=1)
    algorithm = SelfStabColoring(8, 3)
    assert batch_supported(algorithm)
    ref = make_selfstab_engine(graph, algorithm, backend="reference")
    assert type(ref) is SelfStabEngine
    auto = make_selfstab_engine(graph, algorithm, backend="auto")
    if numpy_available():
        assert isinstance(auto, BatchSelfStabEngine)
    else:
        assert type(auto) is SelfStabEngine
    with pytest.raises(ValueError, match="unknown backend"):
        make_selfstab_engine(graph, algorithm, backend="turbo")


def test_dispatcher_batch_requires_numpy(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
    graph = build_dynamic(6, 2, 0.3, seed=1)
    algorithm = SelfStabColoring(6, 2)
    with pytest.raises(RuntimeError, match="needs NumPy"):
        make_selfstab_engine(graph, algorithm, backend="batch")
    # auto degrades gracefully to the reference engine.
    auto = make_selfstab_engine(graph, algorithm, backend="auto")
    assert type(auto) is SelfStabEngine
    assert auto.run_to_quiescence() >= 1
