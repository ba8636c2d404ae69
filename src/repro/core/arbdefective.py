"""ArbAG — the arbdefective Additive-Group algorithm (Section 6).

Identical in structure to AG, with one relaxation: a vertex finalizes as soon
as at most ``p`` *distinctly-originally-colored* neighbors share its second
coordinate (AG is the special case ``p = 0``... with threshold "none").
Starting from a ``O(p)``-defective ``O((Delta/p)^2)``-coloring, the modulus
shrinks to ``q = Theta(Delta / p)`` and the round count to
``2 * ceil(Delta / p) + 1``: if a vertex had more than ``p`` conflicts in
every one of those rounds it would own more than ``Delta`` neighbors, since
each distinctly-colored neighbor can conflict with it at most twice inside a
``q``-round window (Lemma 6.1).

The output is not proper — it is an ``O(p)``-arbdefective
``O(Delta/p)``-coloring (Lemma 6.2): orient every intra-class edge towards
the endpoint that finalized first (ties to the smaller vertex).  A vertex's
out-neighbors were already frozen when it froze, so they were counted inside
its ``<= p`` tolerated conflicts, plus at most the input defect of
same-original-color neighbors; bounded out-degree acyclic orientations mean
bounded arboricity.  :func:`finalization_orientation` extracts exactly this
orientation, which the sublinear pipelines of Theorem 6.4 consume, and
:func:`finalization_arcs` is its batch form over the final state columns.

Internal colors are 4-tuples ``(a, b, orig, fr)``: the AG pair, the original
color (the defective coloring's class, used for the different-original test —
an extra ``O(log Delta)`` bits per message, CONGEST-harmless), and the
finalization round (``None`` while working).
"""

from repro.linial.plan import integer_root_ceiling
from repro.mathutil.primes import next_prime_at_least
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["ArbAGColoring", "finalization_arcs", "finalization_orientation"]


class ArbAGColoring(LocallyIterativeColoring):
    """``O((Delta/p)^2)`` colors to an O(p)-arbdefective O(Delta/p)-coloring.

    Parameters
    ----------
    tolerance:
        The conflict budget ``p >= 1``.
    """

    name = "arb-ag"
    maintains_proper = False  # the whole point: the coloring is arbdefective
    uniform_step = False  # the finalization round is recorded in the color

    def __init__(self, tolerance):
        super().__init__()
        if tolerance < 1:
            raise ValueError("tolerance must be >= 1")
        self.tolerance = tolerance
        self.q = None

    def configure(self, info):
        super().configure(info)
        r = -(-info.max_degree // self.tolerance) if info.max_degree else 0
        self.q = next_prime_at_least(
            max(2 * r + 2, integer_root_ceiling(info.in_palette_size, 2), 2)
        )

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.q

    @property
    def rounds_bound(self):
        """Lemma 6.1: ``2 * ceil(Delta / p) + 1`` rounds."""
        self._require_configured()
        r = -(-self.info.max_degree // self.tolerance) if self.info.max_degree else 0
        return 2 * r + 1

    def encode_initial(self, color):
        self._require_configured()
        q = self.q
        if not (0 <= color < q * q):
            raise ValueError("input color %d does not fit in q^2 = %d" % (color, q * q))
        a, b = color // q, color % q
        # A vertex with a == 0 cannot rotate; it is committed to class b from
        # the start.  No distinctly-colored neighbor shares (0, b) initially,
        # so it contributes nothing to anyone's early out-degree.
        fr = 0 if a == 0 else None
        return (a, b, color, fr)

    def step(self, round_index, color, neighbor_colors):
        a, b, orig, fr = color
        if fr is not None:
            return color
        conflicts = sum(
            1 for _, nb, norig, _ in neighbor_colors if nb == b and norig != orig
        )
        if conflicts <= self.tolerance:
            return (0, b, orig, round_index + 1)
        return (a, (a + b) % self.q, orig, None)

    def is_final(self, color):
        return color[3] is not None

    def decode_final(self, color):
        a, b, orig, fr = color
        if fr is None:
            raise ValueError("vertex has not finalized: %r" % (color,))
        return b

    def message_bits(self, round_index):
        if round_index == 0:
            return super().message_bits(round_index)
        # 1 bit (final/rotated) + the original color tag piggybacked once is
        # enough in principle; we charge the conservative O(log Delta) for
        # carrying (b, orig) deltas.
        import math

        return max(1, math.ceil(math.log2(max(2, self.q))))

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: (a, b, orig, fr) as four int64 arrays, with ``fr = -1`` standing
    # in for the scalar ``None`` (any real finalization round is >= 0).
    # Unlike the rest of the AG family this rule *counts* conflicts, so in
    # SET-LOCAL the neighborhood must first collapse to distinct colors —
    # identical 4-tuples from different neighbors are one message.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial``: int64 input colors to the state arrays."""
        import numpy as np

        self._require_configured()
        q = self.q
        bad = (initial < 0) | (initial >= q * q)
        if bool(bad.any()):
            first = int(initial[int(bad.argmax())])
            raise ValueError(
                "input color %d does not fit in q^2 = %d" % (first, q * q)
            )
        a = initial // q
        b = initial % q
        # a == 0 cannot rotate: committed (fr = 0) from the start, exactly as
        # the scalar encode_initial.
        fr = np.where(a == 0, 0, -1)
        return (a, b, initial.copy(), fr)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: advance every vertex one round on the CSR view."""
        import numpy as np

        from repro.runtime.engine import Visibility

        a, b, orig, fr = state
        conflict_slots = (csr.gather(b) == csr.owner_values(b)) & (
            csr.gather(orig) != csr.owner_values(orig)
        )
        if visibility is Visibility.SET_LOCAL:
            conflict_slots &= csr.distinct_slot_mask(a, b, orig, fr)
        conflicts = csr.count_per_vertex(conflict_slots)
        working = fr < 0
        finalize = working & (conflicts <= self.tolerance)
        rotate = working & ~finalize
        new_a = np.where(finalize, 0, a)
        new_b = np.where(rotate, (a + b) % self.q, b)
        new_fr = np.where(finalize, round_index + 1, fr)
        return (new_a, new_b, orig, new_fr)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: boolean finality mask over the state."""
        return state[3] >= 0

    def batch_decode_final(self, state):
        """Vectorized ``decode_final``: decoded color array (scalar errors kept)."""
        a, b, orig, fr = state
        working = fr < 0
        if bool(working.any()):
            v = int(working.argmax())
            raise ValueError(
                "vertex has not finalized: %r"
                % ((int(a[v]), int(b[v]), int(orig[v]), None),)
            )
        return b

    def batch_to_scalar(self, state):
        """The state as the scalar engine's internal color list."""
        a, b, orig, fr = state
        return [
            (av, bv, ov, None if fv < 0 else fv)
            for av, bv, ov, fv in zip(
                a.tolist(), b.tolist(), orig.tolist(), fr.tolist()
            )
        ]


def finalization_orientation(graph, internal_colors):
    """Orient intra-class edges towards the earlier-finalizing endpoint.

    Parameters
    ----------
    graph:
        The :class:`~repro.runtime.graph.StaticGraph` ArbAG ran on.
    internal_colors:
        The final internal colors (``RunResult.colors``): 4-tuples
        ``(a, b, orig, fr)`` with ``fr`` set.

    Returns
    -------
    list[list[int]]:
        ``out[v]`` = the out-neighbors of ``v`` inside its color class.  The
        order ``(fr, vertex)`` is total, so the orientation is acyclic, and
        Lemma 6.2 bounds every out-degree by ``O(p)``.
    """
    out = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        au, bu, ou, fu = internal_colors[u]
        av, bv, ov, fv = internal_colors[v]
        if bu != bv:
            continue
        if fu is None or fv is None:
            raise ValueError("orientation requires a fully finalized run")
        if (fu, u) < (fv, v):
            out[v].append(u)
        else:
            out[u].append(v)
    return out


def finalization_arcs(graph, state):
    """Batch form of :func:`finalization_orientation`, over edge arrays.

    ``state`` is a finished ArbAG run's column state ``(a, b, orig, fr)``
    (``RunResult.final_state``); ``graph`` is the in-memory or sharded
    graph it ran on, whose forward edges are read as arrays, shard by
    shard (``graph.edge_arrays()``).  Returns int64 arrays ``(tails,
    heads)``, one arc per intra-class edge: ``heads[i]`` is an out-neighbor
    of ``tails[i]`` in :func:`finalization_orientation`'s lists.
    """
    from repro.runtime.backends import require_numpy

    np = require_numpy()
    _, b, _, fr = state
    tails, heads = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for us, vs in graph.edge_arrays():
        intra = b[us] == b[vs]
        us, vs = us[intra], vs[intra]
        # The head finalized first; us < vs, so the strict < hands an
        # equal-round tie to the smaller vertex, us.
        head_is_v = fr[vs] < fr[us]
        tails.append(np.where(head_is_v, us, vs))
        heads.append(np.where(head_is_v, vs, us))
    return np.concatenate(tails), np.concatenate(heads)
