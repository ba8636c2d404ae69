"""Partition-aware round execution over memory-mapped CSR shards.

One :class:`PartitionRunner` serves one stage run of the out-of-core engine
(:mod:`repro.oocore.engine`): every worker owns one shard of a
:class:`~repro.oocore.store.ShardedCSRGraph`, runs the stage's existing
``step_batch`` kernel on its local CSR slice, and the only cross-shard data
that moves between rounds is each shard's **halo** — the colors of its
boundary neighbors.

Data planes
-----------
* **state planes** — double-buffered per-component int64 memmap files
  (:class:`~repro.oocore.store.PlaneStore`).  Workers are forked and inherit
  the MAP_SHARED mappings, so shard-disjoint writes are coherent through the
  page cache without any result pickling.
* **halo planes** — per-shard ``(ncomp, h)`` buffers the parent fills from
  the source plane before dispatching a round.  In pool mode they live in
  ``multiprocessing.shared_memory`` segments owned by the PR-6
  :class:`~repro.parallel.shm.SegmentManager` (same prefix, same atexit
  backstop, workers attach and never unlink — a killed worker cannot leak
  ``/dev/shm`` entries); inline they are plain arrays.  Either way the
  gathered bytes are the metered boundary exchange.

The parent's ``run_round`` is the synchronous-round barrier: it returns
only when every shard finished, with the round's ``changed`` and
``finalized`` counts.  ``count_conflicts`` runs after that barrier over the
plane just written, shard by shard, with every halo refilled from that
plane.
"""

import time

from repro.obs import core as obs
from repro.obs import flight
from repro.parallel.shm import SegmentManager, shared_memory_or_none
from repro.runtime.csr import numpy_or_none
from repro.runtime.fast_engine import count_changed, equal_pairs, scalar_colors

__all__ = ["PartitionRunner"]

#: Per-round barrier timeout (seconds) in pool mode; a worker stuck past it
#: gets the pool terminated and a RuntimeError raised (segments released by
#: ``close``).
_DEFAULT_TIMEOUT = 600.0

_WORKER_CTX = {}


class _ShardContext:
    """Everything one process needs to step shards: graph, planes, halo views.

    Lives in the parent for inline execution and (re-created by
    ``_init_worker``) in every pool worker.  ``cache_bytes`` bounds a tiny
    cache of built local CSRs and their forward slots — reused across rounds
    when the budget allows, rebuilt from disk when it does not.
    """

    def __init__(self, graph, planes, stage, visibility, halo_views,
                 cache_bytes, release_planes):
        self.np = numpy_or_none()
        self.graph = graph
        self.ncomp = planes.ncomp
        self.stage = stage
        self.visibility = visibility
        self.halo_views = halo_views  # shard_id -> (ncomp, h) array
        self.cache_bytes = cache_bytes
        self.release_planes = release_planes
        self.planes = [planes.buffer(0), planes.buffer(1)]
        self._locals = {}
        self._forward = {}
        self._locals_bytes = 0

    def local(self, shard_id):
        cached = self._locals.get(shard_id)
        if cached is not None:
            return cached, 0
        local = self.graph.local(shard_id)
        cost = 6 * local.lindices.nbytes + local.halo.nbytes
        if cost <= self.cache_bytes - self._locals_bytes:
            self._locals[shard_id] = local
            self._locals_bytes += cost
        return local, local.bytes_read

    def forward(self, shard_id):
        """``(rows, nbrs, io_read)``: the shard's slots that point to a larger id.

        Every edge is counted once, at its smaller endpoint, in the order of
        the batch engine's edge arrays.  Local ids keep the global order
        inside the shard, and the sorted halo splits into ids below ``lo``
        and ids from ``hi`` up, so no global ids are read.  Cached next to
        the local CSRs, under the same byte budget, so a conflict count
        rebuilds no CSR.
        """
        slots = self._forward.get(shard_id)
        if slots is not None:
            return slots + (0,)
        local, io_read = self.local(shard_id)
        nbrs = local.lindices
        rows = local.csr().rows[: nbrs.shape[0]]
        split = local.k + int(self.np.searchsorted(local.halo, local.hi))
        fwd = (nbrs >= split) | ((nbrs > rows) & (nbrs < local.k))
        slots = (rows[fwd], nbrs[fwd])
        cost = slots[0].nbytes + slots[1].nbytes
        if cost <= self.cache_bytes - self._locals_bytes:
            self._forward[shard_id] = slots
            self._locals_bytes += cost
        return slots + (io_read,)

    def shard_state(self, shard_id, src):
        """One shard's columns in plane ``src``: owned rows, then its halo."""
        np = self.np
        lo, hi = self.graph.ranges[shard_id]
        halo = self.halo_views.get(shard_id)
        state = []
        for comp in range(self.ncomp):
            owned = np.array(self.planes[src][comp][lo:hi])
            if halo is not None and halo.shape[1]:
                state.append(np.concatenate([owned, halo[comp]]))
            else:
                state.append(owned)
        return tuple(state)

    def release(self, *bufs):
        """Drop the resident pages of the given planes (budget discipline)."""
        if self.release_planes:
            from repro.oocore.store import release_pages

            for buf in bufs:
                for comp in range(self.ncomp):
                    release_pages(self.planes[buf][comp])
            self.graph.release_resident()


def _step_shard(ctx, shard_id, round_index, src):
    """One shard, one synchronous round.  Returns the per-shard counters."""
    local, io_read = ctx.local(shard_id)
    lo, hi, k = local.lo, local.hi, local.k
    dst_planes = ctx.planes[1 - src]
    state = ctx.shard_state(shard_id, src)
    io_read += 8 * k * ctx.ncomp
    new_state = ctx.stage.step_batch(round_index, state, local.csr(), ctx.visibility)
    changed = count_changed(ctx.np, state, new_state, k)
    owned_new = tuple(comp[:k] for comp in new_state)
    for comp in range(ctx.ncomp):
        dst_planes[comp][lo:hi] = owned_new[comp]
    io_written = 8 * k * ctx.ncomp
    finalized = int(ctx.stage.batch_is_final(owned_new).sum())
    ctx.release(src, 1 - src)
    return {
        "changed": changed,
        "finalized": finalized,
        "io_read": io_read + local.bytes_read,
        "io_written": io_written,
    }


def _count_shard(ctx, shard_id, src):
    """Edges at one shard's forward slots with equal colors in plane ``src``.

    Returns the count, the I/O, and the first such edge as ``(row, nbr,
    columns)``: local ids and the owner's length-1 color columns, or None.
    """
    rows, nbrs, io_read = ctx.forward(shard_id)
    lo, hi = ctx.graph.ranges[shard_id]
    state = ctx.shard_state(shard_id, src)
    ctx.release(src)
    count, i = equal_pairs(ctx.np, state, rows, nbrs)
    first = None
    if i is not None:
        row = int(rows[i])
        first = (row, int(nbrs[i]), tuple(c[row:row + 1] for c in state))
    return {
        "conflicts": count,
        "first": first,
        "io_read": io_read + 8 * (hi - lo) * ctx.ncomp,
    }


def _init_worker(graph_path, planes, stage, visibility, segment_names,
                 cache_bytes, release_planes, heartbeat=None):
    """Pool initializer: attach the shard files and the halo segments.

    ``planes`` is the parent's :class:`~repro.oocore.store.PlaneStore`,
    inherited through fork (initializer arguments are not pickled there).
    """
    from repro.oocore.store import ShardedCSRGraph

    np = numpy_or_none()
    shared_memory = shared_memory_or_none()
    graph = ShardedCSRGraph.open(graph_path)
    halo_views = {}
    segments = []
    for shard_id, (name, h) in segment_names.items():
        segment = shared_memory.SharedMemory(name=name)
        segments.append(segment)  # keep the mapping alive for the pool's life
        halo_views[shard_id] = np.ndarray(
            (planes.ncomp, h), dtype=np.int64, buffer=segment.buf
        )
    _WORKER_CTX["ctx"] = _ShardContext(
        graph, planes, stage, visibility, halo_views, cache_bytes,
        release_planes,
    )
    _WORKER_CTX["segments"] = segments
    _WORKER_CTX["heartbeat"] = heartbeat


def _shard_task(fn, *args):
    board = _WORKER_CTX.get("heartbeat")
    if board is not None:
        flight.beat(board)
    return fn(_WORKER_CTX["ctx"], *args)


class PartitionRunner:
    """Fan one stage's rounds out over the shards of a sharded graph.

    ``workers`` > 1 requests pool mode (fork + shared-memory halo planes);
    anything else — including platforms without fork or shm — runs the same
    shard loop inline in the parent with identical results.  The runner is
    per stage run: create, call :meth:`run_round` until done, :meth:`close`.
    ``src`` is the plane holding the current coloring (0 before the first
    round); ``io_read``, ``io_written`` and ``halo_bytes`` total the metered
    bytes.
    """

    def __init__(self, graph, planes, stage, visibility, workers=None,
                 cache_bytes=0, release_planes=False, timeout=_DEFAULT_TIMEOUT):
        np = numpy_or_none()
        self.graph = graph
        self.planes = planes
        self.ncomp = planes.ncomp
        self.stage = stage
        self.timeout = timeout
        self._pool = None
        self._manager = None
        self._halo_ids = {}
        self._halo_views = {}
        self._halo_slots = 0
        self._halo_plane = None
        self.src = 0
        self.io_read = self.io_written = self.halo_bytes = 0
        for shard_id in range(graph.shards):
            ids = graph.halo_ids(shard_id)
            if ids.shape[0]:
                self._halo_ids[shard_id] = ids
                self._halo_slots += int(ids.shape[0])
        workers = 1 if workers is None else int(workers)
        use_pool = (
            workers > 1
            and graph.shards > 1
            and shared_memory_or_none() is not None
            and self._fork_context() is not None
        )
        self._watchdog = None
        if use_pool:
            self._manager = SegmentManager()
            segment_names = {}
            for shard_id, ids in self._halo_ids.items():
                h = int(ids.shape[0])
                segment = self._manager.create(8 * self.ncomp * h)
                segment_names[shard_id] = (segment.name, h)
                self._halo_views[shard_id] = np.ndarray(
                    (self.ncomp, h), dtype=np.int64, buffer=segment.buf
                )
            heartbeat = None
            tel = obs.active()
            if tel.enabled and flight.watchdog_enabled():
                stall = min(
                    flight.stall_seconds(), max(float(self.timeout) * 0.5, 0.05)
                ) if self.timeout else flight.stall_seconds()
                self._watchdog = flight.WorkerWatchdog(
                    tel, flight.HeartbeatBoard(), stall_after=stall
                )
                heartbeat = self._watchdog.board.path
            context = self._fork_context()
            self._pool = context.Pool(
                processes=min(workers, graph.shards),
                initializer=_init_worker,
                initargs=(
                    graph.path, planes, stage, visibility, segment_names,
                    cache_bytes, release_planes, heartbeat,
                ),
            )
        else:
            for shard_id, ids in self._halo_ids.items():
                self._halo_views[shard_id] = np.zeros(
                    (self.ncomp, ids.shape[0]), dtype=np.int64
                )
            self._ctx = _ShardContext(
                graph, planes, stage, visibility, self._halo_views,
                cache_bytes, release_planes,
            )

    @staticmethod
    def _fork_context():
        from repro.parallel.runner import _multiprocessing_context

        context = _multiprocessing_context()
        if context is None:
            return None
        if getattr(context, "get_start_method", lambda: "")() != "fork":
            return None
        return context

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
        src_planes = self.planes.buffer(self.src)
        for shard_id, ids in self._halo_ids.items():
            view = self._halo_views[shard_id]
            for comp in range(self.ncomp):
                view[comp] = src_planes[comp][ids]
            self.halo_bytes += 8 * self.ncomp * int(ids.shape[0])

    def _wait_round(self, async_result):
        """Block for the round barrier, polling the watchdog while waiting.

        Same contract as ``async_result.get(self.timeout)`` — raises
        ``multiprocessing.TimeoutError`` when the round budget expires — but
        sliced into watchdog polls so a shard worker that stops heartbeating
        surfaces as ``worker.stalled`` well before the round timeout.
        """
        watchdog = self._watchdog
        if watchdog is None:
            return async_result.get(self.timeout)
        import multiprocessing

        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        while True:
            step = watchdog.poll_interval
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise multiprocessing.TimeoutError
                step = min(step, remaining)
            try:
                return async_result.get(step)
            except multiprocessing.TimeoutError:
                watchdog.poll()

    def _map(self, fn, args):
        """``fn(ctx, shard_id, *args)`` for every shard: a round barrier."""
        tasks = [(shard_id,) + args for shard_id in range(self.graph.shards)]
        if self._pool is None:
            return [fn(self._ctx, *task) for task in tasks]
        async_result = self._pool.starmap_async(
            _shard_task, [(fn,) + task for task in tasks]
        )
        try:
            return self._wait_round(async_result)
        except Exception:
            # A dead or wedged worker mid-round: terminate the pool now so
            # close() can release the halo segments deterministically.
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            if self._watchdog is not None:
                self._watchdog.notice_restart()
            raise

    def run_round(self, round_index):
        """One synchronous round over every shard: ``(changed, finalized)``.

        Reads plane ``src``, writes the other one, and makes it ``src``.
        """
        self.fill_halos()
        changed = finalized = 0
        for row in self._map(_step_shard, (round_index, self.src)):
            changed += row["changed"]
            finalized += row["finalized"]
            self.io_read += row["io_read"]
            self.io_written += row["io_written"]
        self.src = 1 - self.src
        return changed, finalized

    def count_conflicts(self):
        """Conflicting edges of plane ``src``, counted after a round barrier.

        Returns ``(count, first)``: ``first`` is the first such edge in
        sorted order as ``(u, v, color of u)``, or None — the contract of
        :meth:`repro.runtime.engine.RoundState.conflicts`.  In pool mode the
        shards count in the workers.
        """
        self.fill_halos()
        count, first = 0, None
        for shard_id, row in enumerate(self._map(_count_shard, (self.src,))):
            count += row["conflicts"]
            self.io_read += row["io_read"]
            if first is None and row["first"] is not None:
                lo, hi = self.graph.ranges[shard_id]
                owner, nbr, columns = row["first"]
                k = hi - lo
                v = lo + nbr if nbr < k else int(self._halo_ids[shard_id][nbr - k])
                first = (lo + owner, v, scalar_colors(self.stage, columns)[0])
        return count, first

    def close(self):
        """Tear down the pool and release every halo segment."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._manager is not None:
            self._manager.close()
            self._manager = None
        if self._watchdog is not None:
            self._watchdog.board.close()
            self._watchdog = None
        self._halo_views = {}
