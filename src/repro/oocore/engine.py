"""The out-of-core coloring engine: batch rounds over memory-mapped shards.

:class:`OocoreColoringEngine` executes the same synchronous rounds as
:class:`~repro.runtime.fast_engine.BatchColoringEngine` — same early exits,
same metrics rows, same exceptions — but never holds more than one shard's
working set plus the O(n) color planes resident.  Differential parity
(colors, rounds, per-round metrics) against the in-memory batch engine is
enforced by ``tests/test_oocore_engine.py`` at sizes where both fit.

Round structure per stage run:

1. encode: ``batch_encode_initial`` shard by shard into the double-buffered
   state planes (:class:`~repro.oocore.store.PlaneStore` memmap files);
2. rounds: a :class:`ShardState` steps the shards one at a time on their
   local CSRs, exchanging only boundary (halo) colors between rounds;
   per-round ``changed``/``finalized``/``conflicts`` aggregate to exactly
   the batch engine's numbers because vertex ownership is a partition and
   forward edges are counted at their smaller endpoint (conflicts after
   the round barrier, from the plane just written);
3. decode: ``batch_decode_final`` shard by shard into both the persistent
   ``colors.i64`` plane and the result array.

The engine refuses stages without the batch protocol (there is no scalar
fallback out of core) and ``record_history`` (O(rounds * n) by definition).

Also here: :func:`oocore_greedy`, sequential first-fit executed shard by
shard with the wave-parallel kernel — bit-identical to
:func:`repro.baselines.greedy.greedy_coloring` in the default order.
"""

import shutil
import tempfile

from repro.obs import core as obs
from repro.oocore.store import (
    MemoryBudgetError,
    PlaneStore,
    ShardedCSRGraph,
    memory_budget,
    peak_rss_bytes,
    release_pages,
    scratch_root,
)
from repro.runtime.csr import numpy_or_none
from repro.runtime.engine import RunResult, Visibility, drive
from repro.runtime.fast_engine import (
    ColumnState,
    batch_supported,
    changed_rows,
    equal_pairs,
    scalar_colors,
)

__all__ = ["OocoreColoringEngine", "ShardState", "oocore_greedy"]

#: Above this many vertices the engine stops pinning the full final state in
#: RAM, and ``result.colors`` (scalar tuples) becomes unavailable — the
#: decoded int64 array is the product at scale.
_SCALAR_STATE_LIMIT = 1 << 22


class OocoreColoringEngine:
    """Drop-in engine (``backend=\"oocore\"``) over a sharded graph.

    Accepts a :class:`~repro.oocore.store.ShardedCSRGraph` directly, or any
    CSR-bearing graph — which is converted into a scratch shard directory
    owned (and deleted) by the engine.

    Parameters mirror the other engines where they make sense;
    ``record_history`` is rejected, scalar-only stages raise.  ``shards``
    only applies when the engine has to convert an in-memory graph.
    """

    def __init__(
        self,
        graph,
        visibility=Visibility.LOCAL,
        check_proper_each_round=False,
        record_history=False,
        shards=None,
        scratch=None,
    ):
        if record_history:
            raise ValueError(
                "record_history is not supported by the oocore engine "
                "(it is O(rounds * n) resident by definition)"
            )
        self.visibility = Visibility(visibility)
        self._owned_dir = None
        if not isinstance(graph, ShardedCSRGraph):
            from repro.oocore.writers import shard_static_graph

            base = scratch or scratch_root()
            self._owned_dir = tempfile.mkdtemp(prefix="repro-oocore-", dir=base)
            graph = shard_static_graph(graph, self._owned_dir, shards=shards)
        self.graph = graph
        self.check_proper_each_round = check_proper_each_round
        self.record_history = False
        self._scratch_base = scratch or scratch_root()

    def __del__(self):
        # getattr: __init__ may have raised before _owned_dir existed.
        owned = getattr(self, "_owned_dir", None)
        if owned is not None:
            shutil.rmtree(owned, ignore_errors=True)

    # -- budget accounting ------------------------------------------------------

    def _max_shard_extents(self):
        graph = self.graph
        indptr = graph._indptr_memmap()
        max_k = max_slots = 0
        for lo, hi in graph.ranges:
            max_k = max(max_k, hi - lo)
            max_slots = max(max_slots, int(indptr[hi]) - int(indptr[lo]))
        return max_k, max_slots

    def _enforce_budget(self, ncomp, budget):
        """Planned resident bytes vs the configured budget (raise early).

        Counted: the initial/decoded O(n) arrays, one shard's local CSR and
        double state (old + new, owned + halo), and the halo planes.  The
        state planes themselves are memmaps whose pages are dropped after
        every shard step, so only one shard's window is charged.
        """
        graph = self.graph
        max_k, max_slots = self._max_shard_extents()
        max_h = 0
        for i in range(graph.shards):
            max_h = max(
                max_h, graph.halo_offsets[i + 1] - graph.halo_offsets[i]
            )
        planned = 8 * (
            2 * graph.n
            + 6 * max_slots
            + 2 * ncomp * (max_k + max_h)
            + 2 * ncomp * max_k
            + ncomp * graph.total_halo()
        )
        if planned > budget:
            raise MemoryBudgetError(
                "planned resident footprint %d bytes exceeds "
                "REPRO_OOCORE_BUDGET=%d (n=%d, shards=%d, ncomp=%d); "
                "raise the budget or the shard count"
                % (planned, budget, graph.n, graph.shards, ncomp)
            )
        return planned

    # -- the run ---------------------------------------------------------------

    def run(self, stage, initial_coloring, in_palette_size=None,
            max_rounds=None, configure=True):
        """Execute ``stage``; contract and outputs as the batch engine."""
        if not batch_supported(stage):
            raise RuntimeError(
                "stage %s has no batch kernel; the oocore engine requires "
                "the batch protocol" % getattr(stage, "name", stage)
            )
        state = ShardState(self)
        try:
            return drive(
                self, state, stage, initial_coloring, in_palette_size,
                max_rounds, configure,
            )
        finally:
            state.close()


class ShardState(ColumnState):
    """The out-of-core tier: one stage's rounds over the shards of a sharded
    graph, a shard at a time, with the coloring in memory-mapped planes.

    Every shard runs the stage's existing ``step_batch`` kernel on its local
    CSR slice.  The only cross-shard data a round reads is each shard's
    **halo**, the colors of its boundary neighbors, gathered from the source
    plane into a per-shard ``(ncomp, h)`` array; those gathered bytes are the
    metered boundary exchange.

    :meth:`advance` is the synchronous-round barrier: it returns once every
    shard has written its owned range of the other plane.  :meth:`conflicts`
    runs after that barrier over the plane just written, with every halo
    refilled from it.  ``src`` is the plane holding the current coloring (0
    before the first round); ``io_read``, ``io_written`` and ``halo_bytes``
    total the metered bytes.  ``cache_bytes`` bounds a cache of local CSRs
    and their forward slots, reused across rounds when the budget allows and
    rebuilt from disk when it does not.  The state owns, for one run, the
    double-buffered state planes and a scratch directory; :meth:`close`
    releases both.
    """

    backend = "oocore"

    def __init__(self, engine):
        super().__init__(engine)
        self.engine = engine
        self.scratch = tempfile.mkdtemp(
            prefix="repro-oocore-planes-", dir=engine._scratch_base
        )
        self.planes = self._halo_plane = None
        self.src = self.io_read = self.io_written = self.halo_bytes = 0
        # shard id -> (halo ids, (ncomp, h) halo colors), for nonempty halos.
        self._halos = {}
        self._locals = {}
        self._forward = {}
        self._cached_bytes = 0

    def encode(self, stage, initial):
        np = self.np
        initial = np.asarray(initial, dtype=np.int64)
        self.stage = stage
        graph = self.graph
        budget = memory_budget()
        # Encode shard by shard; the first shard reveals the component count
        # so the planes can be sized.
        finalized = 0
        for lo, hi in graph.ranges:
            if hi == lo:
                continue
            state = stage.batch_encode_initial(initial[lo:hi])
            if self.planes is None:
                self.planes = PlaneStore(self.scratch, graph.n, len(state))
                if budget is not None:
                    self.engine._enforce_budget(len(state), budget)
            for comp, column in enumerate(state):
                self.planes.view(0, comp)[lo:hi] = column
                self.io_written += column.nbytes
            finalized += int(stage.batch_is_final(state).sum())
        if self.planes is None:  # empty graph
            state = stage.batch_encode_initial(initial)
            self.planes = PlaneStore(self.scratch, graph.n, len(state))
        self.planes.release_resident()

        self.ncomp = self.planes.ncomp
        self.cache_bytes = (budget // 4) if budget is not None else (256 << 20)
        self.release_planes = budget is not None
        for shard_id in range(graph.shards):
            ids = graph.halo_ids(shard_id)
            if ids.shape[0]:
                colors = np.zeros((self.ncomp, ids.shape[0]), dtype=np.int64)
                self._halos[shard_id] = (ids, colors)
        return finalized

    def _admit(self, cache, shard_id, value, cost):
        """Keep ``value`` in ``cache`` if ``cost`` fits the cache budget."""
        if cost <= self.cache_bytes - self._cached_bytes:
            cache[shard_id] = value
            self._cached_bytes += cost

    def local(self, shard_id):
        """``(local, io_read)``: one shard's local CSR, cached or from disk."""
        cached = self._locals.get(shard_id)
        if cached is not None:
            return cached, 0
        local = self.graph.local(shard_id)
        self._admit(
            self._locals, shard_id, local, 6 * local.lindices.nbytes + local.halo.nbytes
        )
        return local, local.bytes_read

    def forward(self, shard_id):
        """``(rows, nbrs, io_read)``: the shard's slots that point to a larger id.

        Every edge is counted once, at its smaller endpoint, in the order of
        the batch engine's edge arrays.  These are the local CSR's forward
        slots less those into the halo below ``lo``: local ids keep the
        global order inside the shard, and the sorted halo splits into ids
        below ``lo`` and ids from ``hi`` up, so no global ids are read.
        Cached next to the local CSRs, under the same byte budget, so a
        conflict count rebuilds no CSR.
        """
        slots = self._forward.get(shard_id)
        if slots is not None:
            return slots + (0,)
        local, io_read = self.local(shard_id)
        csr = local.csr()
        split = local.k + int(self.np.searchsorted(local.halo, local.hi))
        keep = (csr.edge_v < local.k) | (csr.edge_v >= split)
        slots = (csr.edge_u[keep], csr.edge_v[keep])
        self._admit(self._forward, shard_id, slots, slots[0].nbytes + slots[1].nbytes)
        return slots + (io_read,)

    def shard_state(self, shard_id):
        """One shard's columns in plane ``src``: owned rows, then its halo."""
        np = self.np
        lo, hi = self.graph.ranges[shard_id]
        owned = [np.array(column[lo:hi]) for column in self.planes.buffer(self.src)]
        if shard_id not in self._halos:
            return tuple(owned)
        halo = self._halos[shard_id][1]
        return tuple(np.concatenate([column, row]) for column, row in zip(owned, halo))

    def release(self, *bufs):
        """Drop the resident pages of the given planes (budget discipline)."""
        if self.release_planes:
            for buf in bufs:
                for column in self.planes.buffer(buf):
                    release_pages(column)
            self.graph.release_resident()

    def fill_halos(self):
        """Gather every shard's boundary colors from the ``src`` plane.

        This *is* the halo exchange: the only cross-shard bytes of a round,
        metered in ``halo_bytes``.  Skipped when the halos already hold that
        plane: a round writes only the other plane, so the fill of a
        conflict count serves the next round as well.
        """
        if self._halo_plane == self.src:
            return
        self._halo_plane = self.src
        columns = self.planes.buffer(self.src)
        for ids, halo in self._halos.values():
            for comp in range(self.ncomp):
                halo[comp] = columns[comp][ids]
            self.halo_bytes += 8 * self.ncomp * int(ids.shape[0])

    def _step_shard(self, shard_id, round_index):
        """One shard, one synchronous round: ``(changed, finalized)``."""
        src = self.src
        local, io_read = self.local(shard_id)
        k = local.k
        state = self.shard_state(shard_id)
        new_state = self.stage.step_batch(
            round_index, state, local.csr(), self.visibility
        )
        changed = int(changed_rows(self.np, state, new_state, k).sum())
        owned_new = tuple(comp[:k] for comp in new_state)
        for column, owned in zip(self.planes.buffer(1 - src), owned_new):
            column[local.lo:local.hi] = owned
        self.io_read += io_read + 8 * k * self.ncomp
        self.io_written += 8 * k * self.ncomp
        finalized = int(self.stage.batch_is_final(owned_new).sum())
        self.release(src, 1 - src)
        return changed, finalized

    def _count_shard(self, shard_id):
        """Edges at one shard's forward slots with equal colors in plane ``src``.

        Returns the count and the first such edge as ``(u, v, color of u)``
        in global ids, or None.
        """
        rows, nbrs, io_read = self.forward(shard_id)
        lo, hi = self.graph.ranges[shard_id]
        state = self.shard_state(shard_id)
        self.release(self.src)
        self.io_read += io_read + 8 * (hi - lo) * self.ncomp
        count, i = equal_pairs(self.np, state, rows, nbrs)
        if i is None:
            return count, None
        row, nbr, k = int(rows[i]), int(nbrs[i]), hi - lo
        v = lo + nbr if nbr < k else int(self._halos[shard_id][0][nbr - k])
        columns = tuple(c[row:row + 1] for c in state)
        return count, (lo + row, v, scalar_colors(self.stage, columns)[0])

    def advance(self, round_index):
        """One synchronous round over every shard: ``(changed, finalized)``.

        Reads plane ``src``, writes the other one, and makes it ``src``.
        """
        self.fill_halos()
        changed = finalized = 0
        for shard_id in range(self.graph.shards):
            shard_changed, shard_finalized = self._step_shard(shard_id, round_index)
            changed += shard_changed
            finalized += shard_finalized
        self.src = 1 - self.src
        return changed, finalized

    def conflicts(self):
        """Conflicting edges of plane ``src``, counted after a round barrier.

        Every halo is refilled from that plane first.  Returns ``(count,
        first)``: ``first`` is the first such edge in sorted order as ``(u,
        v, color of u)``, or None — the contract of
        :meth:`repro.runtime.engine.RoundState.conflicts`.
        """
        self.fill_halos()
        count, first = 0, None
        for shard_id in range(self.graph.shards):
            shard_count, edge = self._count_shard(shard_id)
            count += shard_count
            if first is None:
                first = edge
        return count, first

    def finish(self, palette_size, rounds_used, metrics, history):
        """Decode shard by shard into the colors plane and the result array."""
        np, graph, planes = self.np, self.graph, self.planes
        decoded = np.empty(graph.n, dtype=np.int64)
        colors_plane = graph.colors_plane() if graph.n else None
        for lo, hi in graph.ranges:
            if hi == lo:
                continue
            state = tuple(
                np.array(planes.view(self.src, comp)[lo:hi])
                for comp in range(planes.ncomp)
            )
            part = self.stage.batch_decode_final(state)
            decoded[lo:hi] = part
            colors_plane[lo:hi] = part
        if colors_plane is not None:
            release_pages(colors_plane)
        graph.release_resident()
        # Lazy scalar views (``result.colors``) need the full final state;
        # pin it only while that is cheap.  At out-of-core sizes the decoded
        # array is the product and scalar tuples stay unavailable.
        final_state = None
        if graph.n <= _SCALAR_STATE_LIMIT:
            final_state = tuple(
                np.array(planes.view(self.src, comp)[: graph.n])
                for comp in range(planes.ncomp)
            )
        result = RunResult.from_columns(
            self.stage, final_state, decoded, rounds_used, metrics
        )
        return result, self.overflow(decoded, palette_size)

    def record(self, tel, stage):
        graph = self.graph
        tel.counter("oocore.shard_io.bytes_read", self.io_read, stage=stage.name)
        tel.counter("oocore.shard_io.bytes_written", self.io_written, stage=stage.name)
        tel.counter("oocore.halo.bytes", self.halo_bytes, stage=stage.name)
        # Shard residency: how much plane/halo state the round loop keeps hot.
        tel.gauge("oocore.shards", graph.shards, stage=stage.name)
        tel.gauge("oocore.plane_bytes", 16 * graph.n * self.ncomp, stage=stage.name)
        tel.gauge("oocore.halo_slots", graph.total_halo(), stage=stage.name)
        tel.gauge("oocore.cache_bytes", self.cache_bytes, stage=stage.name)
        rss = peak_rss_bytes()
        if rss is not None:
            tel.gauge("oocore.peak_rss_bytes", rss)

    def close(self):
        """Close the planes; delete the scratch."""
        if self.planes is not None:
            self.planes.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


def oocore_greedy(graph, order=None):
    """Sequential first-fit greedy over shards, bit-identical to the oracle.

    Shards are processed in ascending vertex order, so every cross-shard
    *earlier* neighbor is already final when a shard starts; its color is
    read from the persistent color plane and seeds the occupancy exactly as
    an in-shard earlier neighbor would.  Within a shard the standard
    wave-parallel argument applies.  Only the natural order (``order=None``)
    is supported out of core.  An in-memory graph is sharded into scratch
    first, as the engine does.
    """
    from repro.baselines.greedy import first_fit_waves

    if order is not None:
        raise ValueError(
            "custom orders are not supported by the out-of-core greedy; "
            "use the in-memory backend"
        )
    if not isinstance(graph, ShardedCSRGraph):
        from repro.oocore.writers import shard_static_graph

        scratch = tempfile.mkdtemp(prefix="repro-oocore-", dir=scratch_root())
        try:
            return oocore_greedy(shard_static_graph(graph, scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    np = numpy_or_none()
    io_read = io_written = halo_bytes = 0
    palette = graph.max_degree + 1
    plane = graph.colors_plane() if graph.n else None
    for shard_id in range(graph.shards):
        local = graph.local(shard_id)
        k = local.k
        if k == 0:
            continue
        io_read += local.bytes_read
        h = local.halo.shape[0]
        sl_global = local.global_indices()
        io_read += sl_global.nbytes
        owner_global = local.owner_globals()
        earlier = sl_global < owner_global
        rows = local.csr().rows
        colors_local = np.full(k + h, -1, dtype=np.int64)
        if h:
            colors_local[k:] = plane[local.halo]
            halo_bytes += 8 * h
        # Occupancy half: every earlier neighbor (owned or halo).  Countdown
        # half: later in-shard neighbors only — later out-of-shard vertices
        # belong to later shards and are not gated here.
        later_in = (~earlier) & (sl_global < local.hi)
        # In-shard earlier neighbors gate readiness (halo ones are colored).
        indeg = np.bincount(
            rows[earlier & (sl_global >= local.lo)], minlength=k
        )
        first_fit_waves(
            np, _row_half(np, rows, local.lindices, earlier, k),
            _row_half(np, rows, local.lindices, later_in, k),
            indeg, colors_local, palette,
        )
        plane[local.lo:local.hi] = colors_local[:k]
        io_written += 8 * k
        release_pages(plane)
        graph.release_resident()
    tel = obs.active()
    if tel.enabled:
        tel.counter("oocore.shard_io.bytes_read", io_read, stage="greedy")
        tel.counter("oocore.shard_io.bytes_written", io_written, stage="greedy")
        tel.counter("oocore.halo.bytes", halo_bytes, stage="greedy")
        rss = peak_rss_bytes()
        if rss is not None:
            tel.gauge("oocore.peak_rss_bytes", rss)
    if graph.n == 0:
        return []
    return np.array(plane).tolist()


def _row_half(np, rows, nbrs, mask, k):
    """The masked slots as an ``(indptr, indices)`` CSR over ``k`` rows
    (``rows`` is non-decreasing, so the slots stay grouped by row)."""
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[mask], minlength=k), out=indptr[1:])
    return indptr, nbrs[mask]
