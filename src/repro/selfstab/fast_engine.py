"""Batch self-stabilization engine: whole rounds as NumPy array ops.

:class:`BatchSelfStabEngine` is a drop-in :class:`~repro.selfstab.engine.
SelfStabEngine` that keeps the RAM of every present vertex in parallel
``int64`` columns and runs each synchronous round through the algorithm's
``transition_batch`` kernel over a compact CSR view of the dynamic graph.
Parity with the scalar engine is bit-for-bit: identical stabilization round
counts, changed/touched sets, adjustment radii, CONGEST payload meters and
``NotStabilizedError`` messages (kernels replay failing rounds through the
scalar ``transition`` to surface its exact exception — the
``scalar_replay_round`` pattern of the one-shot pipeline).

State lives on two clocks:

* the **epoch** — the CSR snapshot plus the present-vertex index map —
  survives until a crash or spawn changes the present vertices; an edge
  edit keeps the index and only marks the CSR for a rebuild from the
  graph's rows at the next round;
* the **columns** — the encoded RAM state — survive across rounds, edge
  edits and adversary corruptions (``corrupt`` writes the encoded value
  into the columns in place; see ``FaultCampaign``), and are re-encoded
  from the dict only when the epoch changes or a scalar-fallback round ran.

Beside the columns the engine keeps the **dirty** rows: those the last
batch round changed, those ``corrupt`` wrote since, and both endpoints of
every edge edited since; every row after a re-encode (a new epoch, a scalar
round).  Check-Error reads only their CSR slots (see
``kernels.check_error_and_frontier``), so a recovery round costs the slots
of the rows that can move, not all 2m.

The ``rams`` dict stays the source of truth for every scalar consumer
(``is_legal``, ``final_colors``, direct inspection): it is lazily re-synced
from the columns on first access after a batch round.

Algorithms opt in via ``batch_transitions``; for anything else (e.g. the
constant-memory variants) every round transparently falls back to the
inherited scalar ``step`` — as it does when NumPy is unavailable or the
adversary planted an int too large for the columns.
"""

from repro.obs import core as obs
from repro.runtime.csr import CSRAdjacency, numpy_available, numpy_or_none
from repro.selfstab.engine import SelfStabEngine
from repro.selfstab.kernels import BatchContext

__all__ = [
    "BatchSelfStabEngine",
    "batch_supported",
]


def batch_supported(algorithm):
    """True iff ``algorithm`` implements the batch transition protocol."""
    return bool(getattr(algorithm, "batch_transitions", False))


class BatchSelfStabEngine(SelfStabEngine):
    """Drop-in :class:`SelfStabEngine` that vectorizes supporting algorithms."""

    # Class-level defaults so the base __init__ (which assigns the `rams`
    # property) runs before instance state exists.
    _dict_stale = False
    _state = None
    _noncanon = None
    _epoch = None
    _dirty = None
    _pending_touched = None
    _csr_stale = False

    def __init__(self, graph, algorithm, set_visibility=False):
        super().__init__(graph, algorithm, set_visibility=set_visibility)
        self._noncanon = {}

    # -- dict <-> column synchronization ----------------------------------------

    @property
    def rams(self):
        """The scalar RAM dict, re-synced from the columns on demand."""
        if self._dict_stale:
            self._sync_dict()
        return self._rams

    @rams.setter
    def rams(self, mapping):
        self._rams = mapping
        self._dict_stale = False

    def _sync_dict(self):
        self._dict_stale = False
        raws = self.algorithm.batch_decode(self._state)
        rams = self._rams
        for vertex, raw in zip(self._epoch[2], raws):
            rams[vertex] = raw

    def _drop_epoch(self):
        self._merge_touched()
        self._epoch = None
        self._state = None
        self._noncanon = {}
        self._pending_touched = None

    # -- adversary API: array-backed corruption, epoch invalidation --------------

    def corrupt(self, vertex, ram):
        """Overwrite a vertex's RAM — in the dict and, in place, the columns."""
        if self._dict_stale:
            self._sync_dict()
        super().corrupt(vertex, ram)
        if self._state is None:
            return
        encoded = self.algorithm.batch_encode_one(ram)
        if encoded is None:
            # Exotic value (int too large for the columns): re-encode at the
            # next step, which will route the round through the scalar path.
            self._state = None
            self._noncanon = {}
            return
        columns, canonical = encoded
        index = self._epoch[3][vertex]
        for array, value in zip(self._state, columns):
            array[index] = value
        self._dirty[index] = True
        if canonical:
            self._noncanon.pop(index, None)
        else:
            self._noncanon[index] = ram

    def spawn_vertex(self, vertex):
        if self._dict_stale:
            self._sync_dict()
        self._drop_epoch()
        super().spawn_vertex(vertex)

    def crash_vertex(self, vertex):
        if self._dict_stale:
            self._sync_dict()
        self._drop_epoch()
        super().crash_vertex(vertex)

    def add_edge(self, u, v):
        super().add_edge(u, v)
        self._rewired(u, v)

    def remove_edge(self, u, v):
        rewired = self.graph.has_edge(u, v)
        super().remove_edge(u, v)
        if rewired:
            self._rewired(u, v)

    def _rewired(self, u, v):
        """An edge edit keeps the vertex index and the columns: the next
        round rebuilds only the CSR, and both endpoints turn dirty (an added
        edge may join two clean vertices of equal color)."""
        if self._epoch is None:
            return
        self._csr_stale = True
        if self._state is not None:
            index = self._epoch[3]
            self._dirty[index[u]] = True
            self._dirty[index[v]] = True

    # -- execution ----------------------------------------------------------------

    def _prepare_batch(self):
        """Build/refresh the epoch + columns; returns numpy or None (scalar)."""
        if not batch_supported(self.algorithm):
            return None
        np = numpy_or_none()
        if np is None:
            return None
        if self._epoch is None:
            csr, verts_arr = CSRAdjacency.from_dynamic(self.graph)
            verts_list = verts_arr.tolist()
            index = {v: i for i, v in enumerate(verts_list)}
            self._epoch = (csr, verts_arr, verts_list, index)
            self._pending_touched = np.zeros(csr.n, dtype=bool)
            self._state = None
        elif self._csr_stale:
            # The stale view goes only once its successor exists: dropping
            # it at the edit lets the allocator hand its pages back, and the
            # rebuild faults them in again (about half the cost of a change).
            csr = CSRAdjacency.from_dynamic(self.graph)[0]
            self._epoch = (csr,) + self._epoch[1:]
        self._csr_stale = False
        if self._state is None:
            raws = [self._rams[v] for v in self._epoch[2]]
            encoded = self.algorithm.batch_encode(raws, np)
            if encoded is None:
                return None  # exotic RAM: scalar round, exact parity for free
            self._state, self._noncanon = encoded
            self._dirty = np.ones(len(raws), dtype=bool)
        return np

    def step(self):
        """One fault-free synchronous round; returns the set of changed vertices."""
        np = self._prepare_batch()
        if np is None:
            return self._scalar_step()
        changed = self._batch_round(np)
        if not bool(changed.any()):
            return set()
        return set(self._epoch[1][changed].tolist())

    def is_legal(self):
        """Legality check, vectorized when the columns are live and canonical."""
        if self._state is not None and not self._noncanon and not self._csr_stale:
            fn = getattr(self.algorithm, "batch_is_legal", None)
            if fn is not None:
                np = numpy_or_none()
                if np is not None:
                    return bool(fn(self._state, self._epoch[0], np))
        return super().is_legal()

    def _scalar_step(self):
        tel = obs.active()
        if tel.enabled:
            # Same signal as the one-shot engine's fallback event: a batch
            # self-stab engine silently doing scalar rounds is a perf bug.
            tel.counter(
                "selfstab.fallback_scalar", algorithm=self.algorithm.name
            )
        if self._dict_stale:
            self._sync_dict()
        changed = SelfStabEngine.step(self)
        self._state = None
        self._noncanon = {}
        return changed

    def _batch_round(self, np):
        csr, verts_arr, verts_list, _ = self._epoch
        state = self._state
        noncanon = self._noncanon
        algorithm = self.algorithm
        # CONGEST meter, mirroring the scalar pre-transition payload scan.
        # Algorithms whose visible() is not the identity (rank-greedy
        # broadcasts an (id, color) pair) opt into receiving the original
        # vertex ids via ``batch_payload_wants_ids``.
        if csr.indices.size:
            include = csr.degrees > 0
            if noncanon:
                mask = np.zeros(csr.n, dtype=bool)
                mask[list(noncanon)] = True
                include = include & ~mask
                bits = self.max_message_bits
                for i, raw in noncanon.items():
                    if csr.degrees[i]:
                        bits = max(
                            bits,
                            self._payload_bits(algorithm.visible(verts_list[i], raw)),
                        )
                self.max_message_bits = bits
            if getattr(algorithm, "batch_payload_wants_ids", False):
                column_bits = algorithm.batch_payload_max(
                    state, include, np, ids=verts_arr
                )
            else:
                column_bits = algorithm.batch_payload_max(state, include, np)
            if column_bits > self.max_message_bits:
                self.max_message_bits = column_bits

        def raw_values():
            raws = algorithm.batch_decode(state)
            for i, raw in noncanon.items():
                raws[i] = raw
            return raws

        ctx = BatchContext(
            np, csr, verts_arr, self._dirty, self.set_visibility, algorithm, raw_values
        )
        new_state, changed = algorithm.transition_batch(state, ctx)
        self._state = new_state
        self._dirty = changed
        self._noncanon = {}
        self.round_count += 1
        self._dict_stale = True
        self._pending_touched |= changed
        return changed

    # -- measurement ---------------------------------------------------------------

    def _merge_touched(self):
        pending = self._pending_touched
        if pending is not None and bool(pending.any()):
            self._touched.update(self._epoch[1][pending].tolist())
            pending[:] = False

    def reset_touched(self):
        super().reset_touched()
        if self._pending_touched is not None:
            self._pending_touched[:] = False

    @property
    def touched(self):
        self._merge_touched()
        return set(self._touched)

    def adjustment_radius(self, fault_sources):
        self._merge_touched()
        return super().adjustment_radius(fault_sources)
