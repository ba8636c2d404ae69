"""Graph topologies for the simulator.

:class:`StaticGraph` is the immutable adjacency view handed to algorithms in
the static setting; :class:`DynamicGraph` supports the topology churn of the
fully-dynamic self-stabilizing setting (vertices crash, appear, and links
change arbitrarily, as long as the published bounds on ``n`` and ``Delta``
hold — Section 1.2.1).

Vertices are integers.  A static graph's vertex set is ``range(n)``; a dynamic
graph's vertex set is an arbitrary subset of ``range(n_bound)`` so that crashes
and re-appearances keep stable identities.
"""

from array import array
from bisect import bisect_left
from collections import deque

__all__ = ["StaticGraph", "DynamicGraph"]


def _filled_csr(np, n, edge_u, edge_v):
    """The CSR view over ``n`` vertices of sorted unique edges ``u < v``."""
    from repro.runtime.csr import CSRAdjacency, fill_csr

    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(2 * edge_u.shape[0], dtype=np.int64)
    fill_csr(edge_u, edge_v, indptr, indices)
    return CSRAdjacency(n, indptr, indices)


class StaticGraph:
    """Immutable undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges are collapsed.
    ids:
        Optional sequence of unique vertex identifiers (the ``id(v)`` of the
        paper).  Defaults to the vertex index itself.
    """

    __slots__ = ("n", "_adjacency", "_edges", "ids", "_id_set", "_max_degree", "_csr")

    # Below this many input edges the plain-Python constructor wins; above
    # it the array path (same validation, dedup, and sorted structures)
    # avoids the per-edge set churn.
    _BULK_EDGES = 2048

    def __init__(self, n, edges, ids=None):
        if n < 0:
            raise ValueError("n must be non-negative")
        is_array = hasattr(edges, "ndim")  # ndarray input skips listification
        if not (is_array or isinstance(edges, (list, tuple))):
            edges = list(edges)
        if (is_array or len(edges) >= self._BULK_EDGES) and self._bulk_init(n, edges):
            pass
        else:
            adjacency = [set() for _ in range(n)]
            edge_set = set()
            for u, v in edges:
                if u == v:
                    raise ValueError("self-loop (%d, %d) not allowed" % (u, v))
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(
                        "edge (%d, %d) out of range for n=%d" % (u, v, n)
                    )
                key = (u, v) if u < v else (v, u)
                if key in edge_set:
                    continue
                edge_set.add(key)
                adjacency[u].add(v)
                adjacency[v].add(u)
            self.n = n
            self._adjacency = tuple(
                tuple(sorted(neighbors)) for neighbors in adjacency
            )
            self._edges = tuple(sorted(edge_set))
            self._max_degree = max(
                (len(neighbors) for neighbors in self._adjacency), default=0
            )
            self._csr = None
        if ids is None:
            self.ids = tuple(range(n))
        else:
            self.ids = tuple(ids)
            if len(self.ids) != n:
                raise ValueError("ids must have length n")
            if len(set(self.ids)) != n:
                raise ValueError("ids must be unique")
        self._id_set = frozenset(self.ids)

    def _bulk_init(self, n, edges):
        """Array-path constructor body; returns False when NumPy is off.

        Bit-identical to the per-edge loop: same first-error messages (the
        first offending edge in input order, self-loop checked before range),
        same dedup, the same sorted adjacency tuples and edge tuple.  Input
        whose normalized edges already strictly increase (every generator's
        output) needs no dedup sort.  Also fills the CSR view from the edge
        arrays already in hand, so the first ``csr()`` call is free.

        The Python-side structures (``_adjacency``/``_edges``) are built
        lazily from the CSR on first access — batch pipelines that only ever
        touch ``csr()`` (e.g. engine runs on a line graph) never pay for the
        per-vertex tuple materialization.
        """
        from repro.runtime.csr import numpy_or_none

        np = numpy_or_none()
        if np is None:
            return False
        try:
            arr = np.asarray(edges)
        except (ValueError, TypeError):
            return False
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            return False  # ragged / non-integer input: scalar path semantics
        arr = arr.astype(np.int64, copy=False)
        u, v = arr[:, 0], arr[:, 1]
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bool(bad.any()):
            k = int(np.argmax(bad))
            uk, vk = int(u[k]), int(v[k])
            if uk == vk:
                raise ValueError("self-loop (%d, %d) not allowed" % (uk, vk))
            raise ValueError("edge (%d, %d) out of range for n=%d" % (uk, vk, n))
        key = np.minimum(u, v) * n + np.maximum(u, v)  # sorted == lexicographic
        if not bool((key[1:] > key[:-1]).all()):
            key = np.unique(key)
        edge_u, edge_v = np.divmod(key, n)
        self.n = n
        self._adjacency = None
        self._edges = None
        self._csr = _filled_csr(np, n, edge_u, edge_v)
        self._max_degree = int(self._csr.degrees.max()) if n else 0
        return True

    def _materialize(self):
        """Build the Python adjacency/edge tuples from the CSR (lazy path)."""
        csr = self._csr
        bounds = csr.indptr.tolist()
        flat = csr.indices.tolist()
        self._adjacency = tuple(
            tuple(flat[bounds[i]:bounds[i + 1]]) for i in range(self.n)
        )
        self._edges = tuple(zip(csr.edge_u.tolist(), csr.edge_v.tolist()))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_networkx(cls, nx_graph, ids=None):
        """Build a :class:`StaticGraph` from a networkx graph.

        Nodes are relabeled to ``0..n-1`` in sorted order; the original labels
        become the vertex ids unless ``ids`` overrides them.
        """
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges()]
        if ids is None:
            try:
                ids = [int(node) for node in nodes]
                if len(set(ids)) != len(ids):
                    ids = list(range(len(nodes)))
            except (TypeError, ValueError):
                ids = list(range(len(nodes)))
        return cls(len(nodes), edges, ids=ids)

    def to_networkx(self):
        """Export to a networkx Graph (vertex ids become node attributes)."""
        import networkx as nx

        nx_graph = nx.Graph()
        for v in self.vertices():
            nx_graph.add_node(v, id=self.ids[v])
        nx_graph.add_edges_from(self.edges)
        return nx_graph

    # -- queries --------------------------------------------------------------

    def vertices(self):
        """Return the vertex range ``0..n-1``."""
        return range(self.n)

    def neighbors(self, v):
        """Return the sorted tuple of neighbors of ``v``."""
        if self._adjacency is None:
            self._materialize()
        return self._adjacency[v]

    def degree(self, v):
        """Return the degree of ``v``."""
        if self._adjacency is None:
            return int(self._csr.degrees[v])
        return len(self._adjacency[v])

    @property
    def edges(self):
        """Return the sorted tuple of edges as ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            self._materialize()
        return self._edges

    @property
    def m(self):
        """Return the number of edges."""
        if self._edges is None:
            return self._csr.indices.shape[0] // 2
        return len(self._edges)

    @property
    def max_degree(self):
        """Return the maximum degree ``Delta`` (0 for the empty graph).

        Cached at construction — the engine and every stage's ``configure``
        query it repeatedly, and the graph is immutable.
        """
        return self._max_degree

    def csr(self):
        """Return the cached :class:`~repro.runtime.csr.CSRAdjacency` view.

        Built lazily on first use and cached for the lifetime of the graph
        (the graph is immutable, so the arrays never go stale).  Requires
        NumPy (the ``repro[fast]`` extra); raises :class:`RuntimeError` with
        an install hint when it is missing.
        """
        if self._csr is None:
            from repro.runtime.backends import require_numpy

            np = require_numpy()
            edges = np.array(self._edges, dtype=np.int64).reshape(-1, 2)
            self._csr = _filled_csr(np, self.n, edges[:, 0], edges[:, 1])
        return self._csr

    def has_edge(self, u, v):
        """Return True iff ``(u, v)`` is an edge."""
        if self._adjacency is None:
            self._materialize()
        return v in self._adjacency[u]

    def bfs_distances(self, sources):
        """Return a dict of BFS distances from the closest vertex in ``sources``.

        Vertices unreachable from every source are absent from the result.
        Used to measure adjustment radii (distance from the closest fault).
        """
        if self._adjacency is None:
            self._materialize()
        distances = {}
        queue = deque()
        for source in sources:
            if source not in distances:
                distances[source] = 0
                queue.append(source)
        while queue:
            u = queue.popleft()
            for w in self._adjacency[u]:
                if w not in distances:
                    distances[w] = distances[u] + 1
                    queue.append(w)
        return distances

    def subgraph(self, vertex_subset):
        """Return the induced subgraph on ``vertex_subset``.

        The result is a new :class:`StaticGraph` whose vertex ``i`` corresponds
        to the ``i``-th smallest vertex of the subset; the mapping is returned
        alongside.

        Returns
        -------
        (StaticGraph, dict):
            The induced subgraph and the ``original -> new`` index map.
        """
        ordered = sorted(set(vertex_subset))
        index = {v: i for i, v in enumerate(ordered)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        ids = [self.ids[v] for v in ordered]
        return StaticGraph(len(ordered), edges, ids=ids), index

    def __repr__(self):
        return "StaticGraph(n=%d, m=%d, max_degree=%d)" % (
            self.n,
            self.m,
            self.max_degree,
        )


class DynamicGraph:
    """Mutable undirected graph for the fully-dynamic self-stabilizing setting.

    The graph lives inside hard bounds ``n_bound`` (vertex identities are
    ``0..n_bound-1``) and ``delta_bound`` (no vertex may exceed that degree).
    These bounds mirror the ROM-resident ``n`` and ``Delta`` of Section 4: the
    adversary may rewire anything, but never beyond them.

    Each present vertex owns one sorted ``array('q')`` of its neighbors; an
    absent id owns nothing, so the footprint follows the present graph, not
    ``n_bound``.  The rows are what
    :meth:`~repro.runtime.csr.CSRAdjacency.from_dynamic` concatenates.
    """

    def __init__(self, n_bound, delta_bound):
        if n_bound < 0:
            raise ValueError("n_bound must be non-negative")
        if delta_bound < 0:
            raise ValueError("delta_bound must be non-negative")
        self.n_bound = n_bound
        self.delta_bound = delta_bound
        self._rows = {}  # present vertex -> sorted array('q') of its neighbors

    @classmethod
    def from_static(cls, graph, n_bound=None, delta_bound=None):
        """Seed a dynamic graph with a static topology.

        Bounds default to the static graph's own ``n`` and ``max_degree``.
        The rows are cut from the static graph's CSR when it has one (its
        neighbor tuples are never built), else from ``neighbors(v)``.
        """
        dynamic = cls(
            n_bound if n_bound is not None else graph.n,
            delta_bound if delta_bound is not None else graph.max_degree,
        )
        if graph.n > dynamic.n_bound or graph.max_degree > dynamic.delta_bound:
            # Out of bounds: the vertex-by-vertex, edge-by-edge build raises
            # the error that names the first offender.
            for v in graph.vertices():
                dynamic.add_vertex(v)
            for u, v in graph.edges:
                dynamic.add_edge(u, v)
        csr = getattr(graph, "_csr", None)
        if csr is not None:
            bounds = csr.indptr.tolist()
            flat = array("q")
            flat.frombytes(memoryview(csr.indices).cast("B"))
            rows = [flat[bounds[v]:bounds[v + 1]] for v in range(graph.n)]
        else:
            rows = [array("q", graph.neighbors(v)) for v in graph.vertices()]
        dynamic._rows = dict(enumerate(rows))
        return dynamic

    # -- mutation -------------------------------------------------------------

    def add_vertex(self, v):
        """Make vertex ``v`` present (idempotent)."""
        self._check_vertex(v)
        if v not in self._rows:
            self._rows[v] = array("q")

    def remove_vertex(self, v):
        """Crash vertex ``v``, removing its incident edges (idempotent)."""
        self._check_vertex(v)
        for u in self._rows.pop(v, ()):
            other = self._rows[u]
            del other[bisect_left(other, v)]

    def add_edge(self, u, v):
        """Add the edge ``(u, v)``; both endpoints must be present.

        Raises :class:`ValueError` if the edge would violate ``delta_bound``.
        """
        if u == v:
            raise ValueError("self-loop not allowed")
        for w in (u, v):
            self._check_vertex(w)
            if w not in self._rows:
                raise ValueError("vertex %d is not present" % w)
        row_u, row_v = self._rows[u], self._rows[v]
        if v in row_u:
            return
        if len(row_u) >= self.delta_bound:
            raise ValueError("adding edge would exceed delta_bound at %d" % u)
        if len(row_v) >= self.delta_bound:
            raise ValueError("adding edge would exceed delta_bound at %d" % v)
        row_u.insert(bisect_left(row_u, v), v)
        row_v.insert(bisect_left(row_v, u), u)

    def remove_edge(self, u, v):
        """Remove the edge ``(u, v)`` (idempotent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if self.has_edge(u, v):
            for a, b in ((u, v), (v, u)):
                row = self._rows[a]
                del row[bisect_left(row, b)]

    # -- queries --------------------------------------------------------------

    def _check_vertex(self, v):
        if not (0 <= v < self.n_bound):
            raise ValueError("vertex %d out of range for n_bound=%d" % (v, self.n_bound))

    def _row(self, v):
        """The neighbor row of ``v``: empty for an absent id, KeyError past
        the bounds."""
        row = self._rows.get(v)
        if row is None:
            if not (0 <= v < self.n_bound):
                raise KeyError(v)
            return ()
        return row

    def vertices(self):
        """Return the sorted list of present vertices."""
        return sorted(self._rows)

    def is_present(self, v):
        """Return True iff vertex ``v`` is currently present."""
        return v in self._rows

    def neighbors(self, v):
        """Return the sorted tuple of present neighbors of ``v``."""
        return tuple(self._row(v))

    def degree(self, v):
        """Return the present degree of ``v``."""
        return len(self._row(v))

    @property
    def n(self):
        """Return the number of present vertices."""
        return len(self._rows)

    def edges(self):
        """Return the sorted list of present edges as ``(u, v)``, ``u < v``."""
        rows = self._rows
        return [(u, v) for u in sorted(rows) for v in rows[u] if u < v]

    def has_edge(self, u, v):
        """Return True iff ``(u, v)`` is a present edge."""
        return v in self._rows.get(u, ())

    def snapshot(self):
        """Return a :class:`StaticGraph` of the present subgraph.

        Vertex ``i`` of the snapshot is the ``i``-th smallest present vertex;
        its id is the original vertex number.  The mapping is returned too.
        """
        ordered = self.vertices()
        index = {v: i for i, v in enumerate(ordered)}
        edges = [(index[u], index[v]) for u, v in self.edges()]
        static = StaticGraph(len(ordered), edges, ids=ordered)
        return static, index

    def bfs_distances(self, sources):
        """BFS distances over the present subgraph from the closest source."""
        rows = self._rows
        distances = {}
        queue = deque()
        for source in sources:
            if source in rows and source not in distances:
                distances[source] = 0
                queue.append(source)
        while queue:
            u = queue.popleft()
            for w in rows[u]:
                if w not in distances:
                    distances[w] = distances[u] + 1
                    queue.append(w)
        return distances

    def __repr__(self):
        return "DynamicGraph(n=%d/%d, delta_bound=%d)" % (
            self.n,
            self.n_bound,
            self.delta_bound,
        )
