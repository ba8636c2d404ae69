"""Centralized sequential greedy coloring — the correctness oracle.

Not a distributed algorithm: it exists so tests can compare distributed
results against the classical guarantee that greedy in any order uses at
most Delta + 1 colors.

The oracle is itself on the fast path now: sequential first-fit in order
``pi`` equals *wave-parallel* first-fit over the acyclic orientation that
directs every edge from its earlier endpoint (in ``pi``) to its later one.
A vertex is *ready* once all its earlier neighbors are colored; ready
vertices of one wave are pairwise non-adjacent (an edge between them would
make one the earlier neighbor of the other), so a whole wave can pick its
smallest free color from one boolean occupancy matrix — bit-identical to
the sequential sweep, in ``depth(pi)`` array rounds instead of ``n`` Python
steps.
"""

from repro.runtime.backends import choose_tier
from repro.runtime.csr import numpy_or_none

__all__ = ["greedy_coloring"]


def greedy_coloring(graph, order=None, backend="auto"):
    """Greedy (Delta+1)-coloring in the given vertex order (default: 0..n-1).

    Returns a list of colors in ``range(Delta + 1)`` (entries stay ``None``
    for vertices a partial ``order`` never visits).  All backends produce
    bit-identical output: ``reference`` is the plain Python sweep, ``batch``
    the wave-parallel NumPy path, ``oocore`` the same waves shard by shard
    (natural order only), ``auto`` the best available for the graph.
    """
    tier = choose_tier(backend, graph, oocore=True)
    if tier == "oocore":
        from repro.oocore.engine import oocore_greedy

        return oocore_greedy(graph, order=order)
    if tier == "reference":
        return _greedy_reference(graph, order)
    n = graph.n
    order_list = list(range(n)) if order is None else list(order)
    if sorted(order_list) != list(range(n)):
        # Partial or repeating orders revisit vertices; the wave argument
        # needs a permutation.  These only appear in tiny oracle checks.
        return _greedy_reference(graph, order_list)
    return _greedy_waves(numpy_or_none(), graph.csr(), order_list, graph.max_degree + 1)


def _greedy_reference(graph, order):
    if order is None:
        order = range(graph.n)
    colors = [None] * graph.n
    for v in order:
        taken = {colors[u] for u in graph.neighbors(v) if colors[u] is not None}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def _greedy_waves(np, csr, order_list, palette):
    n = csr.n
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(order_list, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    earlier = pos[csr.indices] < pos[csr.rows]  # slot: neighbor precedes owner
    # Split the adjacency into earlier/later halves (slot order is
    # preserved).  A ready vertex's earlier neighbors are all colored and
    # its later ones never are, so each half serves exactly one purpose per
    # edge: occupancy (earlier half) and readiness countdown (later half).
    e_counts = csr.count_per_vertex(earlier)
    e_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(e_counts, out=e_indptr[1:])
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(csr.degrees - e_counts, out=l_indptr[1:])
    colors = np.full(n, -1, dtype=np.int32)
    first_fit_waves(
        np,
        (e_indptr, csr.indices[earlier].astype(np.int32)),
        (l_indptr, csr.indices[~earlier].astype(np.int32)),
        e_counts, colors, palette,
    )
    return colors.tolist()


def _gather(np, half, rows, repeats):
    """Concatenated rows of a CSR half, plus ``repeats`` spread per slot."""
    indptr, indices = half
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    shift = np.cumsum(lens) - lens
    slot = np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)
    spread = np.repeat(repeats, lens) if repeats is not None else None
    return indices[slot], spread


def first_fit_waves(np, earlier, later, indeg, colors, palette):
    """First-fit over an acyclic orientation, one wave of rows at a time.

    Colors rows ``0..k-1`` of ``colors`` in place, ``k = indeg.shape[0]``.
    ``earlier`` and ``later`` are ``(indptr, indices)`` CSR halves over
    those rows: a row's earlier neighbors name the colors it avoids (they
    index ``colors`` and may reach precolored rows past ``k``), its later
    ones (all below ``k``) the rows whose countdown its coloring advances.
    ``indeg[v]`` counts ``v``'s uncolored earlier neighbors and is consumed.
    A row enters the wave exactly when its last earlier neighbor gets
    colored (Kahn's sweep), so each wave touches only its own slots: total
    work O(m), not O(m * depth).
    """
    k = indeg.shape[0]
    wave = np.nonzero(indeg == 0)[0]
    indeg[wave] = -1  # colored rows never re-enter
    remaining = k
    while wave.size:
        width = wave.size
        taken, key_base = _gather(
            np, earlier, wave, np.arange(width, dtype=np.int64) * palette
        )
        occupancy = np.bincount(key_base + colors[taken], minlength=width * palette)
        colors[wave] = (occupancy.reshape(width, palette) == 0).argmax(axis=1)
        remaining -= width
        if remaining == 0:
            break
        after, _ = _gather(np, later, wave, None)
        if after.size:
            indeg -= np.bincount(after, minlength=k)
        wave = np.nonzero(indeg == 0)[0]
        indeg[wave] = -1
