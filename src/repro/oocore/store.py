"""Memory-mapped CSR shards: the on-disk graph format of the out-of-core tier.

A sharded graph is a directory::

    meta.json      n, m, max_degree, format version, shard table, provenance
    indptr.i64     int64[n + 1]   CSR row pointers (global)
    indices.i64    int64[2 m]     CSR neighbor ids (global vertex ids)
    lindices.i64   int64[2 m]     the same slots with *localized* ids
    halo.i64       int64[H]       per-shard halo vertex ids, concatenated
    colors.i64     int64[n]       the output color plane

Vertices are partitioned into contiguous ranges ``[lo, hi)`` balanced by
adjacency-slot count (:func:`partition_ranges`), so every shard owns about
the same number of CSR slots regardless of degree skew.  For shard ``i``
with ``k = hi - lo`` owned vertices and halo ``h`` (the sorted unique
out-of-range neighbors of its rows), slot ``s`` of ``lindices`` holds::

    g - lo                      when lo <= g < hi   (an owned neighbor)
    k + rank of g in the halo   otherwise           (a boundary neighbor)

which makes ``indices[indptr[lo]:indptr[hi]]`` relabeled ``lindices`` a
self-contained local CSR over ``k + h`` vertices (halo rows get degree 0):
the existing batch kernels run on it unchanged, and the *only* cross-shard
data a round needs is the ``h``-entry halo color vector — the boundary
exchange the partition-aware round loop meters.

Everything here is plain NumPy + ``numpy.memmap``; the module raises
:class:`RuntimeError` without NumPy (the out-of-core tier has no scalar
fallback — it exists purely to scale the batch kernels past RAM).
"""

import json
import mmap
import os
import tempfile

from repro.runtime.backends import require_numpy
from repro.runtime.csr import CSRAdjacency

__all__ = [
    "FORMAT_VERSION",
    "MemoryBudgetError",
    "PlaneStore",
    "ShardLocal",
    "ShardedCSRGraph",
    "default_shards",
    "memory_budget",
    "parse_bytes",
    "partition_ranges",
    "peak_rss_bytes",
    "release_pages",
    "requested_shards",
    "scratch_root",
]

FORMAT_VERSION = 1

META_FILE = "meta.json"
INDPTR_FILE = "indptr.i64"
INDICES_FILE = "indices.i64"
LINDICES_FILE = "lindices.i64"
HALO_FILE = "halo.i64"
COLORS_FILE = "colors.i64"

SHARDS_ENV = "REPRO_OOCORE_SHARDS"
BUDGET_ENV = "REPRO_OOCORE_BUDGET"
DIR_ENV = "REPRO_OOCORE_DIR"

#: Target adjacency bytes per shard when the caller does not pick a count.
_SHARD_TARGET_BYTES = 256 << 20
_MAX_DEFAULT_SHARDS = 64


class MemoryBudgetError(RuntimeError):
    """The planned resident footprint exceeds ``REPRO_OOCORE_BUDGET``."""


def parse_bytes(text):
    """Parse a byte count: plain int, or with a K/M/G/T suffix (``\"2G\"``)."""
    if isinstance(text, (int, float)):
        return int(text)
    text = str(text).strip()
    scale = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}
    if text and text[-1].upper() in suffixes:
        scale = suffixes[text[-1].upper()]
        text = text[:-1]
    try:
        return int(float(text) * scale)
    except ValueError:
        raise ValueError("unparseable byte count %r" % text)


def memory_budget():
    """The resident-byte budget from ``REPRO_OOCORE_BUDGET``, or None."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    return parse_bytes(raw)


def requested_shards():
    """The shard count ``REPRO_OOCORE_SHARDS`` asks for, or None."""
    try:
        return max(1, int(os.environ[SHARDS_ENV]))
    except (KeyError, ValueError):
        return None


def default_shards(n, m):
    """Shard count: ``REPRO_OOCORE_SHARDS`` or a slot-volume heuristic."""
    # indices + lindices are the per-shard streaming cost: 16 bytes a slot.
    by_volume = (16 * 2 * m + _SHARD_TARGET_BYTES - 1) // _SHARD_TARGET_BYTES
    return requested_shards() or int(max(1, min(_MAX_DEFAULT_SHARDS, by_volume)))


def scratch_root():
    """Directory for sharded graphs and state planes (``REPRO_OOCORE_DIR``)."""
    root = os.environ.get(DIR_ENV)
    if root:
        os.makedirs(root, exist_ok=True)
        return root
    return tempfile.gettempdir()


def peak_rss_bytes():
    """This process's peak resident set size in bytes (VmHWM), or None."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


def release_pages(array):
    """Flush a memmap's dirty pages and drop its resident pages.

    ``flush()`` (msync) must come first: MADV_DONTNEED on dirty MAP_SHARED
    pages would otherwise let the kernel discard unwritten data on some
    filesystems.  Silently a no-op for non-memmap arrays and platforms
    without madvise.
    """
    base = getattr(array, "_mmap", None)
    if base is None:
        return
    try:
        array.flush()
        base.madvise(mmap.MADV_DONTNEED)
    except (AttributeError, OSError, ValueError):
        pass


def partition_ranges(np, indptr, n, shards):
    """Contiguous vertex ranges balanced by adjacency-slot count.

    Cuts the slot axis into ``shards`` equal targets and maps each target
    back to a vertex boundary with ``searchsorted`` on ``indptr``; empty
    ranges are dropped, so the result may hold fewer than ``shards`` entries
    (tiny graphs, isolated-vertex runs).
    """
    if n <= 0:
        return [(0, 0)]
    shards = max(1, min(int(shards), n))
    if shards == 1:
        return [(0, n)]
    total = int(indptr[n])
    targets = np.array(
        [(total * i) // shards for i in range(1, shards)], dtype=np.int64
    )
    cuts = np.searchsorted(np.asarray(indptr), targets, side="left")
    bounds = [0] + sorted(int(c) for c in np.clip(cuts, 0, n)) + [n]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


class ShardLocal:
    """One shard's self-contained local CSR plus its halo table.

    ``csr()`` returns a :class:`~repro.runtime.csr.CSRAdjacency` over
    ``k + h`` local vertices: rows ``0..k-1`` are the owned range (global
    ``lo..hi-1``), rows ``k..k+h-1`` the halo with degree 0.  The batch
    kernels run on it unchanged; only ``bytes_read`` worth of shard files
    were streamed to build it.
    """

    __slots__ = (
        "shard_id", "lo", "hi", "k", "halo", "indptr_local", "lindices",
        "bytes_read", "_csr", "_graph", "_start", "_end", "_global_indices",
    )

    def __init__(self, graph, shard_id, lo, hi, halo, indptr_local, lindices,
                 start, end, bytes_read):
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.k = hi - lo
        self.halo = halo
        self.indptr_local = indptr_local
        self.lindices = lindices
        self.bytes_read = bytes_read
        self._csr = None
        self._graph = graph
        self._start = start
        self._end = end
        self._global_indices = None

    @property
    def n_local(self):
        """Rows of the local CSR: owned vertices plus halo slots."""
        return self.k + self.halo.shape[0]

    def csr(self):
        """The local CSR view (memoized; kernels never see global ids)."""
        if self._csr is None:
            self._csr = CSRAdjacency(self.n_local, self.indptr_local, self.lindices)
        return self._csr

    def global_indices(self):
        """The shard's slots with *global* neighbor ids (lazy extra read).

        Needed only for globally-ordered edge semantics — conflict counts,
        properness checks, the greedy orientation — never by the round
        kernels themselves.
        """
        if self._global_indices is None:
            np = require_numpy("oocore")
            mm = self._graph._indices_memmap()
            self._global_indices = np.array(mm[self._start:self._end])
            self.bytes_read += self._global_indices.nbytes
        return self._global_indices

    def owner_globals(self):
        """Per-slot owning vertex as a *global* id (owned rows only)."""
        return self.csr().rows + self.lo


class ShardedCSRGraph:
    """A directory of memory-mapped CSR shards, query-compatible enough to
    stand in for :class:`~repro.runtime.graph.StaticGraph` where the
    out-of-core engines need it (``n``, ``m``, ``max_degree``, ``ids``,
    ``degree``, ``neighbors``).

    Open an existing directory with :meth:`open`; build one with the
    streaming writers in :mod:`repro.oocore.writers`.
    """

    def __init__(self, path, meta):
        self.path = os.path.abspath(path)
        self.meta = meta
        self.n = int(meta["n"])
        self.m = int(meta["m"])
        self.max_degree = int(meta["max_degree"])
        self.ranges = [(int(a), int(b)) for a, b in meta["ranges"]]
        self.halo_offsets = [int(x) for x in meta["halo_offsets"]]
        self.ids = range(self.n)
        self._indptr = None
        self._indices = None
        self._lindices = None
        self._halo = None

    @classmethod
    def open(cls, path):
        """Open a shard directory written by :mod:`repro.oocore.writers`."""
        with open(os.path.join(path, META_FILE)) as handle:
            meta = json.load(handle)
        if meta.get("format") != FORMAT_VERSION:
            raise ValueError(
                "shard directory %s has format %r, expected %r"
                % (path, meta.get("format"), FORMAT_VERSION)
            )
        return cls(path, meta)

    # -- file handles -----------------------------------------------------------

    def _open(self, name, shape, mode="r"):
        np = require_numpy("oocore")
        if shape[0] == 0:
            return np.zeros(shape, dtype=np.int64)
        return np.memmap(
            os.path.join(self.path, name), dtype=np.int64, mode=mode, shape=shape
        )

    def _indptr_memmap(self):
        if self._indptr is None:
            self._indptr = self._open(INDPTR_FILE, (self.n + 1,))
        return self._indptr

    def _indices_memmap(self):
        if self._indices is None:
            self._indices = self._open(INDICES_FILE, (2 * self.m,))
        return self._indices

    def _lindices_memmap(self):
        if self._lindices is None:
            self._lindices = self._open(LINDICES_FILE, (2 * self.m,))
        return self._lindices

    def _halo_memmap(self):
        if self._halo is None:
            self._halo = self._open(HALO_FILE, (self.halo_offsets[-1],))
        return self._halo

    def colors_plane(self, mode="r+"):
        """The ``int64[n]`` output color plane as a writable memmap."""
        return self._open(COLORS_FILE, (self.n,), mode=mode)

    def release_resident(self):
        """Drop the graph memmaps' resident pages (budget discipline).

        A full round sweeps every shard, so by round's end the whole
        ``indices``/``lindices`` files are faulted in — ~``16 * 2m`` bytes
        of RSS that the kernels already copied out of.  Dropping them is
        always safe (``MAP_SHARED`` pages re-fault from the page cache or
        disk) and keeps the resident set at one shard's working set.
        """
        for array in (self._indptr, self._indices, self._lindices, self._halo):
            if array is not None and getattr(array, "_mmap", None) is not None:
                release_pages(array)

    # -- shard access -----------------------------------------------------------

    @property
    def shards(self):
        """The number of contiguous vertex-range shards on disk."""
        return len(self.ranges)

    def halo_ids(self, shard_id):
        """The sorted halo vertex ids of one shard (int64 array)."""
        np = require_numpy("oocore")
        a, b = self.halo_offsets[shard_id], self.halo_offsets[shard_id + 1]
        return np.array(self._halo_memmap()[a:b])

    def local(self, shard_id):
        """Stream one shard's local CSR off disk as a :class:`ShardLocal`."""
        np = require_numpy("oocore")
        lo, hi = self.ranges[shard_id]
        indptr = np.array(self._indptr_memmap()[lo:hi + 1])
        start, end = int(indptr[0]), int(indptr[-1])
        lindices = np.array(self._lindices_memmap()[start:end])
        halo = self.halo_ids(shard_id)
        k = hi - lo
        h = halo.shape[0]
        indptr_local = np.empty(k + h + 1, dtype=np.int64)
        indptr_local[: k + 1] = indptr - indptr[0]
        indptr_local[k + 1:] = indptr_local[k]
        bytes_read = indptr.nbytes + lindices.nbytes + halo.nbytes
        return ShardLocal(
            self, shard_id, lo, hi, halo, indptr_local, lindices,
            start, end, bytes_read,
        )

    # -- StaticGraph-ish queries ------------------------------------------------

    def vertices(self):
        """``range(n)`` — vertex ids are dense, mirroring ``StaticGraph``."""
        return range(self.n)

    def degree(self, v):
        """Degree of one vertex, read straight from the indptr memmap."""
        indptr = self._indptr_memmap()
        return int(indptr[v + 1] - indptr[v])

    def degrees(self):
        """Every vertex's degree as one int64 array (the ``indptr`` steps)."""
        return require_numpy("oocore").diff(self._indptr_memmap())

    def neighbors(self, v):
        """One vertex's sorted global neighbor tuple (a two-page read)."""
        indptr = self._indptr_memmap()
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        return tuple(int(x) for x in self._indices_memmap()[lo:hi])

    def edge_arrays(self):
        """Forward edges as int64 array pairs ``(us, vs)``, one per shard.

        Together they are ``StaticGraph.edges`` in order (``us < vs``);
        O(one shard) resident at a time.
        """
        np = require_numpy("oocore")
        indptr_mm = self._indptr_memmap()
        indices_mm = self._indices_memmap()
        for lo, hi in self.ranges:
            indptr = np.array(indptr_mm[lo:hi + 1])
            start, end = int(indptr[0]), int(indptr[-1])
            # The shard's rows over their neighbors' global ids less lo:
            # the view's forward slots are the global forward edges.
            shard = CSRAdjacency(
                hi - lo, indptr - start, np.array(indices_mm[start:end]) - lo
            )
            yield shard.edge_u + lo, shard.edge_v + lo

    @property
    def edges(self):
        """Forward edges ``(u, v)`` with ``u < v``, streamed shard by shard.

        Matches ``StaticGraph.edges`` order for invariant checks; O(one
        shard) resident at a time.  Meant for analysis at test sizes — at
        out-of-core sizes iterate :meth:`edge_arrays` instead.
        """
        for us, vs in self.edge_arrays():
            yield from zip(us.tolist(), vs.tolist())

    @property
    def in_memory_nbytes(self):
        """Estimated bytes of the equivalent in-memory ``StaticGraph``
        (mirrors the job runner's cache estimate: ~112 per vertex and slot)."""
        return 112 * (self.n + 2 * self.m)

    @property
    def on_disk_nbytes(self):
        """Bytes of the shard files (CSR twice, halo, colors, indptr)."""
        return 8 * ((self.n + 1) + 2 * (2 * self.m) + self.halo_offsets[-1] + self.n)

    def total_halo(self):
        """Halo entries summed over every shard (the per-round exchange size)."""
        return self.halo_offsets[-1]

    def close(self):
        """Drop the memmap handles (files stay on disk)."""
        self._indptr = None
        self._indices = None
        self._lindices = None
        self._halo = None

    def __repr__(self):
        return "ShardedCSRGraph(n=%d, m=%d, shards=%d, path=%r)" % (
            self.n, self.m, self.shards, self.path,
        )


class PlaneStore:
    """Double-buffered per-component int64 state planes as memmap files.

    The shard round loop reads the *source* buffer and writes the
    *target*; buffers swap between rounds.  Files live under the engine's
    scratch directory, so only the shard being stepped needs resident
    pages.
    """

    def __init__(self, directory, n, ncomp):
        np = require_numpy("oocore")
        self.directory = directory
        self.n = n
        self.ncomp = ncomp
        self.paths = [
            [os.path.join(directory, "state-%d-%d.i64" % (buf, comp))
             for comp in range(ncomp)]
            for buf in (0, 1)
        ]
        os.makedirs(directory, exist_ok=True)
        self._arrays = []
        for buf in (0, 1):
            row = []
            for comp in range(ncomp):
                if n == 0:
                    row.append(np.zeros(0, dtype=np.int64))
                    continue
                row.append(np.memmap(
                    self.paths[buf][comp], dtype=np.int64, mode="w+", shape=(n,)
                ))
            self._arrays.append(row)

    def view(self, buf, comp):
        """One component array of one buffer (memmap or empty placeholder)."""
        return self._arrays[buf][comp]

    def buffer(self, buf):
        """The ``ncomp`` component arrays of one buffer."""
        return self._arrays[buf]

    def release_resident(self):
        """Drop the planes' resident pages (budget discipline, not teardown)."""
        for row in self._arrays:
            for array in row:
                release_pages(array)

    def close(self, delete=True):
        """Drop the arrays and (by default) unlink the backing files."""
        self._arrays = []
        if delete:
            for row in self.paths:
                for path in row:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
