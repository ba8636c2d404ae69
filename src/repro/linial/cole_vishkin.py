"""Cole–Vishkin 3-coloring of pseudoforests.

The edge-coloring pipeline of Section 5 first computes Kuhn's 2-defective
``Delta^2``-edge-coloring, whose color classes consist of paths and cycles of
edges.  Each class is turned into a *pseudoforest* (every node picks at most
one "parent" among its class neighbors) and 3-colored by the classical
deterministic coin-tossing technique of Cole and Vishkin [15]:

1. **Bit reduction.**  Starting from unique labels out of a space of size
   ``L``, each node compares its label with its parent's, finds the lowest
   differing bit position ``i``, and re-labels itself ``2 * i + bit_i``.
   One round shrinks the label space from ``L`` to ``2 * ceil(log2 L)``;
   ``log* L + O(1)`` rounds reach 6 labels.  Roots compare against their own
   label with the lowest bit flipped.
2. **Shift-down + eliminate.**  Three times (for colors 5, 4, 3): every node
   adopts its parent's color (roots rotate), making all children of a node
   monochromatic; then nodes of the eliminated color pick a free color in
   ``{0, 1, 2}`` — their neighborhood now shows at most 2 distinct colors.

The routine is written against an abstract pseudoforest (``parents[i]`` is
the parent index or ``None``), so it serves both edge classes (Section 5) and
any path/cycle workload directly.
"""

__all__ = ["cole_vishkin_three_coloring", "label_spaces"]


def _lowest_differing_bit(x, y):
    """Index of the lowest bit where x and y differ (x != y)."""
    diff = x ^ y
    return (diff & -diff).bit_length() - 1


def _bit_reduction_round(labels, parents):
    new_labels = []
    for v, label in enumerate(labels):
        parent = parents[v]
        other = labels[parent] if parent is not None else label ^ 1
        if other == label:
            # A parent pointer may be mutual (2-cycles); labels are unique so
            # this only happens for the synthetic root comparison, handled above.
            other = label ^ 1
        i = _lowest_differing_bit(label, other)
        bit = (label >> i) & 1
        new_labels.append(2 * i + bit)
    return new_labels


def _children_of(parents):
    children = [[] for _ in parents]
    for v, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(v)
    return children


def _neighbors_in_pseudoforest(parents):
    children = _children_of(parents)
    neighbors = []
    for v in range(len(parents)):
        around = set(children[v])
        if parents[v] is not None:
            around.add(parents[v])
        around.discard(v)
        neighbors.append(around)
    return neighbors


def label_spaces(label_space):
    """The label space after each round of :func:`cole_vishkin_three_coloring`.

    A pure function of ``label_space``, so every pseudoforest started from
    the same space runs the same rounds: the bit-reduction rounds down to at
    most 6 labels, then the six shift-down and eliminate rounds at 6.
    """
    spaces = []
    space = max(label_space, 2)
    while space > 6:
        space = 2 * max(1, (space - 1).bit_length())
        spaces.append(space)
    return spaces + [6] * 6


def cole_vishkin_three_coloring(parents, initial_labels, label_space, return_history=False):
    """3-color a pseudoforest of maximum (undirected) degree at most 2.

    Parameters
    ----------
    parents:
        ``parents[i]`` is node ``i``'s parent index, or ``None`` for a root.
        The *undirected* pseudoforest (parent edges viewed both ways) must
        have degree at most 2 — i.e. it is a disjoint union of paths and
        cycles, which is exactly what the 2-defective edge classes give.
    initial_labels:
        Unique starting labels (IDs) drawn from ``range(label_space)``.
    label_space:
        Upper bound on initial labels; drives the ``log*`` round count.

    Returns
    -------
    (colors, rounds) or (colors, rounds, history):
        ``colors[i] in {0, 1, 2}`` proper on the pseudoforest edges, and the
        number of synchronous rounds consumed.  With ``return_history`` the
        per-round ``(labels, label_space)`` snapshots are returned too (one
        entry per communication round, post-update) — used by the Bit-Round
        execution to ship the actual label bits.
    """
    n = len(parents)
    if n == 0:
        return ([], 0, []) if return_history else ([], 0)
    labels = list(initial_labels)
    if len(labels) != n:
        raise ValueError("one label per node required")
    rounds = 0
    history = []

    # Phase 1: iterated bit reduction down to at most 6 labels.
    for space in label_spaces(label_space)[:-6]:
        labels = _bit_reduction_round(labels, parents)
        rounds += 1
        history.append((list(labels), space))

    neighbors = _neighbors_in_pseudoforest(parents)
    colors = list(labels)

    # Phase 2: three shift-down + eliminate rounds remove colors 5, 4, 3.
    for eliminated in (5, 4, 3):
        shifted = []
        for v in range(n):
            parent = parents[v]
            if parent is not None and parent != v:
                shifted.append(colors[parent])
            else:
                shifted.append((colors[v] + 1) % 3)
        colors = shifted
        rounds += 1
        history.append((list(colors), 6))
        updated = list(colors)
        for v in range(n):
            if colors[v] == eliminated:
                taken = {colors[u] for u in neighbors[v]}
                updated[v] = min(c for c in (0, 1, 2) if c not in taken)
        colors = updated
        rounds += 1
        history.append((list(colors), 6))

    if return_history:
        return colors, rounds, history
    return colors, rounds
