"""The vectorized batch-step engine.

:class:`BatchColoringEngine` executes the same synchronous rounds as
:class:`~repro.runtime.engine.ColoringEngine`, but holds the whole coloring
as NumPy arrays and advances every vertex with a handful of array kernels
per round instead of ``n`` Python calls.  Output is bit-for-bit identical to
the reference engine: same per-round colorings, same ``rounds_used``, same
metrics, same exceptions — the differential suite in
``tests/test_fast_engine.py`` enforces this on every covered stage.

Batch protocol
--------------
A stage opts in by implementing ``step_batch``; the engine then also expects
the companion methods (all operate on a *state*: a tuple of parallel
``int64`` arrays, one per internal color coordinate, each of length ``n``):

``batch_encode_initial(initial)``
    Map an ``int64`` array of input colors to the initial state, with the
    same validation (and error messages) as scalar ``encode_initial``.
``step_batch(round_index, state, csr, visibility)``
    One synchronous round for all vertices; ``csr`` is the graph's
    :class:`~repro.runtime.csr.CSRAdjacency`.  Must replicate the scalar
    ``step`` exactly — including SET-LOCAL multiset collapse if the rule is
    multiplicity-sensitive (see ArbAG).
``batch_is_final(state)``
    Boolean array mirroring ``is_final``.
``batch_decode_final(state)``
    ``int64`` array of decoded colors, raising the scalar ``decode_final``
    error for the first non-final vertex.
``batch_to_scalar(state)`` (optional)
    The state as a list of the stage's scalar internal colors.  The default
    zips the coordinate arrays into tuples of Python ints, which is correct
    for every stage whose colors are plain int tuples; stages with richer
    colors (ArbAG's ``None`` finalization round) override it.

Stages without ``step_batch`` simply fall back to the scalar path — a
:class:`BatchColoringEngine` is always safe to use, and
:func:`repro.runtime.backends.resolve_backend` is the front door that picks
the tier (``resolve_backend("engine", "auto")``).
"""

from repro.obs import core as obs
from repro.runtime.csr import numpy_available, numpy_or_none
from repro.runtime.engine import (
    ColoringEngine,
    RoundState,
    RunResult,
    ScalarState,
    Visibility,
    drive,
)

__all__ = [
    "BatchColoringEngine",
    "ColumnState",
    "batch_supported",
    "changed_rows",
    "equal_pairs",
    "scalar_colors",
    "scalar_replay_round",
]


def batch_supported(stage):
    """True iff ``stage`` implements the batch protocol.

    A subclass can opt back out of an inherited kernel by setting
    ``step_batch = None``.
    """
    return getattr(stage, "step_batch", None) is not None


def scalar_replay_round(stage, round_index, colors, csr, visibility):
    """Re-run one round through the scalar ``step`` to surface its exact error.

    Batch kernels call this when they detect a state the scalar path would
    reject (an input color outside the field, no conflict-free point, ...):
    replaying the vertices in vertex order raises the same exception, from
    the same vertex, with the same message as the reference engine.  Returns
    silently if no scalar call raises — the caller then reports the
    batch/scalar inconsistency itself.

    ``colors`` is the round-start coloring as a plain list of scalar internal
    colors; adjacency comes from the ``csr`` view.
    """
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    for v in range(csr.n):
        view = tuple(colors[u] for u in indices[indptr[v]:indptr[v + 1]])
        if visibility is Visibility.SET_LOCAL:
            view = frozenset(view)
        stage.step(round_index, colors[v], view)


def scalar_colors(stage, state):
    """The batch ``state`` as the scalar engine's internal color list."""
    if hasattr(stage, "batch_to_scalar"):
        return stage.batch_to_scalar(state)
    return list(zip(*(component.tolist() for component in state)))


def changed_rows(np, old_state, new_state, k):
    """Boolean mask of the first ``k`` rows that differ between two batch
    states; its sum is a round's ``changed`` count."""
    changed = np.zeros(k, dtype=bool)
    for old, new in zip(old_state, new_state):
        changed |= old[:k] != new[:k]
    return changed


def equal_pairs(np, state, a, b):
    """``(count, first)``: pairs ``(a[j], b[j])`` whose rows hold equal colors
    in ``state`` — component-wise, which for int-tuple colors is the reference
    engine's comparison — and the first such ``j`` (None if there is none)."""
    equal = np.ones(a.shape[0], dtype=bool)
    for column in state:
        equal &= column[a] == column[b]
    count = int(equal.sum())
    return count, (int(np.argmax(equal)) if count else None)


class ColumnState(RoundState):
    """The batch tier: the coloring as parallel int64 columns of length ``n``.

    The conflict count follows the changed rows: after a round that starts
    from a state with no monochromatic edge, :meth:`conflicts` looks only at
    the edges of the rows that round changed.
    """

    backend = "batch"

    def __init__(self, engine):
        super().__init__(engine)
        self.np = numpy_or_none()

    def encode(self, stage, initial):
        # No list round-trip: an ndarray from an upstream batch stage is used
        # as-is, a plain sequence is converted once.
        initial = self.np.asarray(initial, dtype=self.np.int64)
        self.stage = stage
        self.csr = self.graph.csr()
        self.state = stage.batch_encode_initial(initial)
        # The conflict count of ``state`` (None: not counted), and the rows
        # the last round changed, kept only when the state before that round
        # had a count of 0.
        self.count = self.changed = None
        return self._finalized()

    def advance(self, round_index):
        new_state = self.stage.step_batch(
            round_index, self.state, self.csr, self.visibility
        )
        changed = changed_rows(self.np, self.state, new_state, self.graph.n)
        self.state = new_state
        self.changed = changed if self.count == 0 else None
        self.count = None
        return int(changed.sum()), self._finalized()

    def _finalized(self):
        return int(self.stage.batch_is_final(self.state).sum())

    def conflicts(self):
        np, csr = self.np, self.csr
        if self.count is None and self.changed is not None:
            # No edge was monochromatic before this round, so only an edge
            # at a changed row can be one now.
            rows = np.flatnonzero(self.changed)
            slots, owner = csr.subset_slots(rows)
            if not equal_pairs(np, self.state, rows[owner], csr.indices[slots])[0]:
                self.count = 0
        if self.count == 0:
            return 0, None
        # Not counted, or not 0: all m edges, which also names the first
        # monochromatic one.
        self.count, i = equal_pairs(np, self.state, csr.edge_u, csr.edge_v)
        if i is None:
            return 0, None
        u, v = int(csr.edge_u[i]), int(csr.edge_v[i])
        columns = tuple(c[u:u + 1] for c in self.state)
        return self.count, (u, v, scalar_colors(self.stage, columns)[0])

    def snapshot(self):
        return scalar_colors(self.stage, self.state)

    def finish(self, palette_size, rounds_used, metrics, history):
        decoded = self.stage.batch_decode_final(self.state)
        result = RunResult.from_columns(
            self.stage, self.state, decoded, rounds_used, metrics, history
        )
        return result, self.overflow(decoded, palette_size)

    def overflow(self, decoded, palette_size):
        """The first ``(vertex, color)`` of ``decoded`` outside the palette."""
        bad = (decoded < 0) | (decoded >= palette_size)
        if not bool(bad.any()):
            return None
        v = int(self.np.argmax(bad))
        return v, int(decoded[v])


class BatchColoringEngine(ColoringEngine):
    """Drop-in :class:`ColoringEngine` that vectorizes supporting stages.

    Construction, parameters, and results match the reference engine; only
    the round state differs.  A stage without ``step_batch`` (or a run with
    NumPy disabled) transparently uses the inherited scalar path.
    """

    def run(
        self,
        stage,
        initial_coloring,
        in_palette_size=None,
        max_rounds=None,
        configure=True,
    ):
        """Execute ``stage``; see :meth:`ColoringEngine.run` for the contract."""
        if batch_supported(stage) and numpy_available():
            state = ColumnState(self)
        else:
            tel = obs.active()
            if tel.enabled:
                # Fallback-to-scalar is a first-class observability signal: a
                # batch engine quietly running scalar rounds is the #1 way to
                # lose an order of magnitude of throughput.
                reason = (
                    "no-step-batch" if not batch_supported(stage) else "no-numpy"
                )
                tel.counter("engine.fallback_scalar", stage=stage.name)
                tel.event("engine.fallback", stage=stage.name, reason=reason)
            state = ScalarState(self)
        return drive(
            self, state, stage, initial_coloring, in_palette_size, max_rounds,
            configure,
        )
