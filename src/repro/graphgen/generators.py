"""Seeded workload graphs.

Every generator takes an explicit ``seed`` where randomness is involved and
returns a :class:`~repro.runtime.graph.StaticGraph`, so benchmark tables are
reproducible bit-for-bit.  The families cover the paper's motivating
scenarios: bounded-degree ad-hoc / sensor networks (unit-disk,
bounded-degree random), classical worst cases (cliques, barbells), and the
structured graphs (paths, cycles, trees, grids, hypercubes) whose known
chromatic structure makes test assertions sharp.
"""

import math
import random

from repro.runtime.csr import numpy_or_none
from repro.runtime.graph import StaticGraph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "hypercube_graph",
    "random_tree",
    "gnp_graph",
    "random_regular",
    "bounded_degree_random",
    "random_bipartite",
    "unit_disk_graph",
    "barbell_of_cliques",
    "caterpillar_graph",
    "complete_bipartite_graph",
    "circulant_graph",
    "disjoint_union",
]


def path_graph(n):
    """Path on ``n`` vertices (Delta = 2 for n >= 3)."""
    return StaticGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    """Cycle on ``n`` vertices; the classical Cole–Vishkin workload."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return StaticGraph(n, edges)


def complete_graph(n):
    """Clique K_n: Delta = n - 1 and chromatic number n — the tightest palette."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return StaticGraph(n, edges)


def star_graph(n):
    """Star with one center and ``n - 1`` leaves (Delta = n - 1, 2-colorable)."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return StaticGraph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows, cols):
    """rows x cols grid (Delta <= 4); a plausible mesh-network topology."""
    n = rows * cols

    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return StaticGraph(n, edges)


def hypercube_graph(dim):
    """dim-dimensional hypercube (n = 2^dim, Delta = dim)."""
    n = 1 << dim
    edges = []
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return StaticGraph(n, edges)


def random_tree(n, seed):
    """Uniform random labeled tree via a Pruefer sequence."""
    if n <= 1:
        return StaticGraph(n, [])
    if n == 2:
        return StaticGraph(2, [(0, 1)])
    rng = random.Random(seed)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in pruefer:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in pruefer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return StaticGraph(n, edges)


# The NumPy fast paths below continue the seed's exact MT19937 stream:
# CPython's random.Random and numpy's RandomState share the generator and
# the 53-bit double recipe, so transplanting the 624-word state produces
# bit-identical draws — and therefore bit-identical graphs — with and
# without NumPy (REPRO_DISABLE_NUMPY flips between them in CI).


def _np_rng(rng, np):
    """A RandomState continuing ``rng``'s MT19937 stream exactly."""
    internal = rng.getstate()[1]
    state = np.random.RandomState()
    state.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return state


def _np_rng_sync_back(rng, np_state):
    """Hand the stream back so later scalar draws continue where NumPy left off."""
    _, key, pos = np_state.get_state()[:3]
    rng.setstate((3, tuple(int(word) for word in key) + (pos,), None))


# Per-block draw cap for the G(n, p) fast path (32 MB of doubles).
_GNP_BLOCK = 1 << 22


def _gnp_blocks(np, n, p, seed):
    """G(n, p)'s edges as ``(i, j)`` array blocks, in row-major order.

    One uniform draw per pair ``(i, j)``, ``j > i``, in the scalar loop's
    order, at most ``_GNP_BLOCK`` draws per block (or one whole row);
    blocks without an edge are skipped.  The single draw loop behind
    :func:`gnp_graph` and :func:`repro.oocore.writers.write_gnp`.
    """
    state = _np_rng(random.Random(seed), np)
    start_row = 0
    while start_row < n - 1:
        end_row = start_row
        count = 0
        while end_row < n - 1 and count + (n - 1 - end_row) <= _GNP_BLOCK:
            count += n - 1 - end_row
            end_row += 1
        if end_row == start_row:  # a single row exceeding the block cap
            end_row += 1
            count = n - 1 - start_row
        lengths = np.arange(n - 1 - start_row, n - 1 - end_row, -1, dtype=np.int64)
        starts = np.zeros(end_row - start_row, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        hits = np.nonzero(state.random_sample(count) < p)[0]
        if hits.size:
            row_idx = np.searchsorted(starts, hits, side="right") - 1
            i_arr = row_idx + start_row
            yield i_arr, i_arr + 1 + (hits - starts[row_idx])
        start_row = end_row


def _cap_degrees(n, edges, cap):
    """``edges`` in order, minus each whose end already has ``cap`` kept."""
    degree = [0] * n
    kept = []
    for i, j in edges:
        if degree[i] < cap and degree[j] < cap:
            kept.append((i, j))
            degree[i] += 1
            degree[j] += 1
    return kept


def gnp_graph(n, p, seed, degree_cap=None):
    """Erdos–Renyi G(n, p): one uniform draw per pair ``(i, j)``, ``i < j``.

    ``degree_cap`` optionally drops, in row-major order, each edge that
    would lift an end past the cap (a radio fan-out limit).
    """
    np = numpy_or_none()
    if np is None:
        rng = random.Random(seed)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
    else:
        blocks = [np.zeros((0, 2), dtype=np.int64)]
        blocks.extend(np.column_stack(block) for block in _gnp_blocks(np, n, p, seed))
        edges = np.concatenate(blocks)
        if degree_cap is not None:
            edges = edges.tolist()
    if degree_cap is not None:
        edges = _cap_degrees(n, edges, degree_cap)
    return StaticGraph(n, edges)


def _regular_edges(n, d, seed):
    """The sorted edges of :func:`random_regular`'s graph.

    An ``(m, 2)`` int64 array under NumPy, else a list of pairs.  The one
    core behind :func:`random_regular` and
    :func:`repro.oocore.writers.write_random_regular`: only the bookkeeping
    differs between the two modes, never a draw.  Under NumPy the stub
    keys are drawn and argsorted as arrays, and the multiplicities of the
    initial pairs live in a sorted base table; ``counts`` then holds only
    the repair's changes.  Without NumPy ``counts`` holds them all.
    """
    if n * d % 2:
        raise ValueError("n * d must be even for a d-regular graph")
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n (got d=%d, n=%d)" % (d, n))
    np = numpy_or_none()
    if d == n - 1:  # the complete graph, which no switch could repair
        if np is None:
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        return np.column_stack(np.triu_indices(n, 1))
    rng = random.Random(seed)
    npairs = n * d // 2
    counts = {}  # edge key u * n + v (u < v) -> multiplicity beyond the base

    def key(a, b):
        return a * n + b if a < b else b * n + a

    if np is None:
        draws = [rng.random() for _ in range(2 * npairs)]
        order = sorted(range(2 * npairs), key=draws.__getitem__)
        owners = [stub // d for stub in order]
        pu, pv = owners[0::2], owners[1::2]
        for u, v in zip(pu, pv):
            if u != v:
                counts[key(u, v)] = counts.get(key(u, v), 0) + 1
        stack = [
            t
            for t in range(npairs - 1, -1, -1)
            if pu[t] == pv[t] or counts[key(pu[t], pv[t])] > 1
        ]

        def base_count(k):
            return 0

    else:
        state = _np_rng(rng, np)
        owners = np.argsort(state.random_sample(2 * npairs), kind="stable")
        _np_rng_sync_back(rng, state)
        owners //= d
        pu, pv = owners[0::2], owners[1::2]
        simple = pu != pv
        pair_keys = (np.minimum(pu, pv) * n + np.maximum(pu, pv))[simple]
        uniq, base = np.unique(pair_keys, return_counts=True)
        defect = ~simple
        defect[simple] = base[np.searchsorted(uniq, pair_keys)] > 1
        stack = np.flatnonzero(defect)[::-1].tolist()
        del simple, pair_keys, defect

        def base_count(k):
            i = int(np.searchsorted(uniq, k))
            return int(base[i]) if i < uniq.shape[0] and uniq[i] == k else 0

    def count(a, b):
        k = key(a, b)
        return base_count(k) + counts.get(k, 0)

    def bump(a, b, by):
        k = key(a, b)
        counts[k] = counts.get(k, 0) + by

    # Repair the self-loops and repeated edges in ascending pair order, with
    # random degree-preserving switches; each commit strictly shrinks the
    # defect set.
    attempts = 0
    limit = 200 * npairs + 1000
    while stack:
        t = stack.pop()
        u, v = int(pu[t]), int(pv[t])
        if u != v and count(u, v) == 1:
            continue  # healed by an earlier switch
        while True:
            attempts += 1
            if attempts > limit:
                raise RuntimeError(
                    "random_regular(%d, %d, seed=%r) failed to repair the "
                    "stub matching" % (n, d, seed)
                )
            s = rng.randrange(npairs)
            if s == t:
                continue
            x, y = int(pu[s]), int(pv[s])
            # Switch (u, v), (x, y) -> (u, y), (x, v) when it stays simple.
            if u == y or x == v:
                continue
            if u != v:
                bump(u, v, -1)
            if x != y:
                bump(x, y, -1)
            if key(u, y) != key(x, v) and not count(u, y) and not count(x, v):
                bump(u, y, 1)
                bump(x, v, 1)
                pv[t], pv[s] = y, v
                break
            if u != v:
                bump(u, v, 1)
            if x != y:
                bump(x, y, 1)
    # Every multiplicity is 0 or 1 now; the surviving keys in numeric order
    # are the edges in lexicographic order.
    if np is None:
        return [divmod(k, n) for k in sorted(k for k, c in counts.items() if c)]
    added = []
    for k, change in counts.items():
        i = int(np.searchsorted(uniq, k))
        if i < uniq.shape[0] and uniq[i] == k:
            base[i] += change
        elif change:
            added.append(k)
    kept = uniq[base > 0]
    added = np.array(sorted(added), dtype=np.int64)
    keys = np.insert(kept, np.searchsorted(kept, added), added)
    return np.column_stack(np.divmod(keys, n))


def random_regular(n, d, seed):
    """Random d-regular graph: seeded stub matching plus switch repair.

    ``n * d`` must be even and ``0 <= d < n``.  Shuffles the ``n * d`` vertex
    stubs with one uniform key per stub, pairs them up, then repairs
    self-loops and duplicate edges with random degree-preserving switches
    (each commit strictly shrinks the defect set).  One core builds the
    edges with and without NumPy, and for the out-of-core writer, so the
    graph is identical in every mode.
    """
    return StaticGraph(n, _regular_edges(n, d, seed))


def bounded_degree_random(n, delta, target_edges, seed):
    """Random graph with a hard degree cap ``delta``.

    Repeatedly draws endpoint pairs and keeps those that respect the cap —
    the natural model of an ad-hoc network whose radios support at most
    ``delta`` links.  May return fewer than ``target_edges`` edges on dense
    requests.
    """
    rng = random.Random(seed)
    degree = [0] * n
    edge_set = set()
    attempts = 0
    max_attempts = 50 * max(1, target_edges)
    while len(edge_set) < target_edges and attempts < max_attempts:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in edge_set:
            continue
        if degree[u] >= delta or degree[v] >= delta:
            continue
        edge_set.add(key)
        degree[u] += 1
        degree[v] += 1
    return StaticGraph(n, sorted(edge_set))


def random_bipartite(n_left, n_right, p, seed):
    """Random bipartite graph; left vertices are ``0..n_left-1``."""
    rng = random.Random(seed)
    n = n_left + n_right
    edges = [
        (i, n_left + j)
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < p
    ]
    return StaticGraph(n, edges)


def unit_disk_graph(n, radius, seed, degree_cap=None):
    """Random points in the unit square; edges below ``radius``.

    The canonical wireless / sensor-network topology from the paper's
    motivation.  ``degree_cap`` optionally drops excess edges (farthest
    first) to enforce a radio fan-out limit.
    """
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n)]
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            dist = math.hypot(dx, dy)
            if dist <= radius:
                candidates.append((dist, i, j))
    candidates.sort()
    edges = [(i, j) for _, i, j in candidates]
    if degree_cap is not None:
        edges = _cap_degrees(n, edges, degree_cap)
    return StaticGraph(n, edges)


def barbell_of_cliques(clique_size, path_length):
    """Two cliques joined by a path: high Delta plus long diameter.

    Stresses the independence of the AG phase (driven by Delta) from the
    topology's diameter.
    """
    k = clique_size
    n = 2 * k + path_length
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + path_length + i, k + path_length + j))
    chain = [k - 1] + [k + i for i in range(path_length)] + [k + path_length]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    return StaticGraph(n, edges)


def caterpillar_graph(spine, legs_per_vertex):
    """A spine path with ``legs_per_vertex`` pendant leaves per spine vertex.

    Trees with high-degree internal vertices: Delta = legs + 2, arboricity 1.
    """
    n = spine * (1 + legs_per_vertex)
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_leaf = spine
    for s in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((s, next_leaf))
            next_leaf += 1
    return StaticGraph(n, edges)


def complete_bipartite_graph(a, b):
    """K_{a,b}: Delta = max(a, b), chromatic number 2 — palette-pressure test."""
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return StaticGraph(a + b, edges)


def circulant_graph(n, offsets):
    """Circulant C_n(offsets): vertex i adjacent to i +- d for d in offsets.

    Regular, vertex-transitive, adjustable degree: a cheap expander-like
    family for stress tests (Delta = 2 * len(offsets) when offsets < n/2).
    """
    edge_set = set()
    for i in range(n):
        for d in offsets:
            j = (i + d) % n
            if i != j:
                edge_set.add((i, j) if i < j else (j, i))
    return StaticGraph(n, sorted(edge_set))


def disjoint_union(graphs):
    """The disjoint union of several graphs (index-shifted)."""
    edges = []
    offset = 0
    total = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
        total += g.n
    return StaticGraph(total, edges)
