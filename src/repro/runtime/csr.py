"""Compressed-sparse-row adjacency for the vectorized batch engine.

The reference engine rebuilds a Python tuple of neighbor colors per vertex
per round — O(n * Delta) interpreter work.  :class:`CSRAdjacency` flattens
the adjacency lists into two NumPy arrays, so a whole round becomes a
handful of array operations: ``indices`` holds all neighbor lists
concatenated in vertex order, and ``indices[indptr[v]:indptr[v + 1]]`` are
the neighbors of ``v``.  A view is built from these two alone and derives
the rest here, on first read: ``degrees``, the slot owners ``rows``, and
the forward slots ``edge_u``/``edge_v`` (a graph's sorted edge list) with
their count ``m``.  :func:`fill_csr` writes the two arrays from a sorted
edge list, for ``StaticGraph`` and the out-of-core shard writers alike.

NumPy is an optional dependency (the ``repro[fast]`` extra); this module is
only imported once a caller actually asks for a CSR view, and everything
else in the package works without it.
"""

import os

from repro.runtime.backends import require_numpy

__all__ = ["CSRAdjacency", "fill_csr", "numpy_or_none", "numpy_available"]

_DISABLE_ENV = "REPRO_DISABLE_NUMPY"


def numpy_or_none():
    """Return the ``numpy`` module, or ``None`` if unavailable/disabled.

    Setting ``REPRO_DISABLE_NUMPY=1`` makes the whole acceleration layer
    behave as if NumPy were not installed — the CI knob that keeps the
    pure-Python fallback honest without a second virtualenv.
    """
    if os.environ.get(_DISABLE_ENV) == "1":
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_available():
    """True iff the batch backend can run (NumPy importable and not disabled)."""
    return numpy_or_none() is not None


def fill_csr(edge_u, edge_v, indptr, indices):
    """Write the CSR of sorted unique edges into ``indptr`` and ``indices``.

    ``edge_u``/``edge_v`` are int64 arrays with ``edge_u < edge_v``
    elementwise, sorted by ``(u, v)``, without repeats; ``indptr`` (length
    ``n + 1``) and ``indices`` (length ``2 * m``) may be memmaps.  Each
    row comes out sorted, as ``StaticGraph``'s neighbor tuples are: vertex
    ``x``'s backward neighbors (edges where ``x`` is the larger endpoint)
    are all ``< x`` and arrive in ascending order, then its forward ones,
    also ascending.  The one CSR fill behind ``StaticGraph`` and the
    out-of-core writers.
    """
    np = require_numpy()
    n = indptr.shape[0] - 1
    backward = np.bincount(edge_v, minlength=n)
    degrees = backward + np.bincount(edge_u, minlength=n)
    indptr[0] = 0
    np.cumsum(degrees, out=indptr[1:])
    starts = np.asarray(indptr)[:-1]
    arange = np.arange(edge_u.shape[0], dtype=np.int64)
    # Backward half: group by v (the stable sort keeps u ascending within a group).
    order = np.argsort(edge_v, kind="stable")
    vs = edge_v[order]
    indices[starts[vs] + (arange - np.searchsorted(vs, vs))] = edge_u[order]
    # Forward half: already grouped by u with v ascending.
    indices[
        starts[edge_u] + backward[edge_u] + (arange - np.searchsorted(edge_u, edge_u))
    ] = edge_v


class CSRAdjacency:
    """Immutable CSR view of an adjacency: ``n`` rows over ``indptr``/``indices``.

    ``CSRAdjacency(n, indptr, indices)`` is the only constructor; every
    builder (``StaticGraph.csr()``, :meth:`from_dynamic`, an out-of-core
    shard's ``ShardLocal.csr()``) hands over just those two arrays.  The
    other columns are derived from them on first read and cached on the
    view, so a kernel that reads only ``indptr``/``indices`` (through
    :meth:`subset_slots`) never pays for them.  All arrays are ``int64``.
    """

    __slots__ = ("n", "indptr", "indices", "_degrees", "_rows", "_edge_u", "_edge_v")

    def __init__(self, n, indptr, indices):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self._degrees = self._rows = self._edge_u = self._edge_v = None

    @property
    def degrees(self):
        """Per-row slot count, ``diff(indptr)``."""
        if self._degrees is None:
            self._degrees = require_numpy().diff(self.indptr)
        return self._degrees

    @property
    def rows(self):
        """``rows[i]`` is the row owning slot ``i``: ``repeat(arange(n), degrees)``."""
        if self._rows is None:
            np = require_numpy()
            self._rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return self._rows

    def _forward(self):
        if self._edge_u is None:
            rows, indices = self.rows, self.indices
            forward = rows < indices
            self._edge_u, self._edge_v = rows[forward], indices[forward]
        return self._edge_u, self._edge_v

    @property
    def edge_u(self):
        """Owner of each forward slot (neighbor id above its row), row-major.

        On a graph's view the forward slots are its edges, so ``edge_u`` /
        ``edge_v`` mirror ``StaticGraph.edges`` (sorted, ``u < v``).
        """
        return self._forward()[0]

    @property
    def edge_v(self):
        """Neighbor id of each forward slot, aligned with :attr:`edge_u`."""
        return self._forward()[1]

    @property
    def m(self):
        """Number of forward slots: a graph's edge count (a shard-local view
        counts its halo slots too, since halo ids exceed every owned row)."""
        return self.edge_u.shape[0]

    @classmethod
    def from_dynamic(cls, graph):
        """Compact CSR over a :class:`~repro.runtime.graph.DynamicGraph`.

        Dynamic graphs have an arbitrary present subset of ``range(n_bound)``,
        so the view is *compacted*: CSR vertex ``i`` is the ``i``-th smallest
        present vertex.  Returns ``(csr, vertices)`` where ``vertices`` is the
        ``int64`` array mapping compact index back to the original vertex id.
        The view is a snapshot of the graph's sorted neighbor rows, joined in
        one pass; the batch self-stabilization engine rebuilds it after a
        topology change, not per round.
        """
        np = require_numpy()
        verts = graph.vertices()
        n = len(verts)
        rows = [graph._rows[v] for v in verts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
        indices = np.frombuffer(bytearray().join(rows), dtype=np.int64)
        verts_arr = np.asarray(verts, dtype=np.int64)
        if n and verts[-1] != n - 1:
            # verts is sorted, so searchsorted *is* the original-id ->
            # compact-id map; it is monotone, so each row stays sorted.
            indices = np.searchsorted(verts_arr, indices)
        return cls(n, indptr, indices), verts_arr

    # -- kernel building blocks -------------------------------------------------

    def gather(self, values):
        """Per-slot neighbor view: ``gather(x)[i] == x[indices[i]]``."""
        return values[self.indices]

    def owner_values(self, values):
        """Per-slot owner view: ``owner_values(x)[i] == x[rows[i]]``."""
        return values[self.rows]

    def subset_slots(self, vertices):
        """``(slots, owner)``: the CSR slots of a vertex subset, in order.

        ``vertices`` is an int64 array of vertex ids.  ``slots`` concatenates
        ``range(indptr[v], indptr[v + 1])`` for each ``v`` in turn, so
        ``indices[slots]`` are those vertices' neighbors; ``owner[i]`` is the
        position in ``vertices`` of the vertex owning ``slots[i]``.  A kernel
        that only touches a few vertices pays for their slots, not all 2m.
        """
        np = require_numpy()
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        owner = np.repeat(np.arange(vertices.shape[0], dtype=np.int64), counts)
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return np.arange(owner.shape[0], dtype=np.int64) + shift, owner

    def count_per_vertex(self, slot_mask):
        """Count True slots per owning vertex (empty neighborhoods count 0)."""
        np = require_numpy()
        return np.bincount(self.rows[slot_mask], minlength=self.n)

    def any_per_vertex(self, slot_mask):
        """Per-vertex OR over the owning vertex's slots."""
        return self.count_per_vertex(slot_mask) > 0

    def distinct_slot_mask(self, *slot_columns):
        """Mask keeping one slot per distinct ``(owner, *columns)`` tuple.

        This is the SET-LOCAL collapse: within each vertex's neighborhood,
        neighbors broadcasting identical colors become indistinguishable, so
        multiplicity-sensitive rules (ArbAG's conflict count) must dedupe
        before counting.  Columns are the components of the neighbor color.
        """
        np = require_numpy()
        size = self.rows.size
        keep = np.ones(size, dtype=bool)
        if size == 0:
            return keep
        order = np.lexsort(tuple(reversed(slot_columns)) + (self.rows,))
        sorted_cols = [self.rows[order]] + [col[order] for col in slot_columns]
        differs = np.zeros(size - 1, dtype=bool)
        for col in sorted_cols:
            differs |= col[1:] != col[:-1]
        keep_sorted = np.ones(size, dtype=bool)
        keep_sorted[1:] = differs
        keep[order] = keep_sorted
        return keep

    def __repr__(self):
        return "CSRAdjacency(n=%d, m=%d)" % (self.n, self.m)
