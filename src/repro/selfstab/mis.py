"""Self-stabilizing maximal independent set (Section 4.2, Theorems 4.5/4.6).

Runs the self-stabilizing coloring in one RAM field and an MIS status
machine in another.  Statuses are ``MIS``, ``NOTMIS`` and ``UND``
(undecided); every round, alongside the coloring step:

* two adjacent ``MIS`` vertices both become ``UND`` (independence repair);
* a ``NOTMIS`` vertex with no ``MIS`` neighbor becomes ``UND`` (maximality
  repair);
* an ``UND`` vertex with an ``MIS`` neighbor becomes ``NOTMIS``;
* an ``UND`` vertex with no ``MIS`` neighbor whose color is smaller than all
  its undecided neighbors' colors joins the MIS.

Once the coloring stabilizes (proper, finalized), color classes are
processed implicitly in color order and the MIS stabilizes within
``O(Delta)`` further rounds (Theorem 4.5).  A vertex in the MIS whose
1-neighborhood is fault-free stays in the MIS, and a NOTMIS vertex with a
stable 2-neighborhood keeps its witness — adjustment radius 2
(Theorem 4.6).
"""

from repro.analysis.invariants import is_maximal_independent_set
from repro.selfstab.coloring import SelfStabColoring
from repro.selfstab.engine import SelfStabAlgorithm

__all__ = ["SelfStabMIS"]

MIS = "MIS"
NOTMIS = "NOTMIS"
UND = "UND"
_STATUSES = (MIS, NOTMIS, UND)


class SelfStabMIS(SelfStabAlgorithm):
    """Self-stabilizing MIS with O(Delta + log* n) stabilization time.

    RAM: ``(color, status)``.  The coloring sub-protocol may be swapped
    (e.g. for the exact variant) via ``coloring_factory``.
    """

    name = "selfstab-mis"

    def __init__(self, n_bound, delta_bound, coloring_factory=SelfStabColoring):
        super().__init__(n_bound, delta_bound)
        self.coloring = coloring_factory(n_bound, delta_bound)

    def fresh_ram(self, vertex):
        return (self.coloring.fresh_ram(vertex), UND)

    def visible(self, vertex, ram):
        return ram

    @staticmethod
    def _sanitize(ram):
        """Map corrupted RAM shapes to something the rules can process."""
        if (
            isinstance(ram, tuple)
            and len(ram) == 2
            and ram[1] in _STATUSES
        ):
            return ram
        if isinstance(ram, tuple) and len(ram) == 2:
            return (ram[0], UND)
        return (ram, UND)

    def transition(self, vertex, ram, neighbor_visibles):
        color, status = self._sanitize(ram)
        neighbor_states = [self._sanitize(nv) for nv in neighbor_visibles]
        neighbor_colors = tuple(c for c, _ in neighbor_states)

        new_color = self.coloring.transition(vertex, color, neighbor_colors)

        any_mis = any(s == MIS for _, s in neighbor_states)
        minimal = isinstance(color, int) and all(
            color < c for c, s in neighbor_states if s == UND and isinstance(c, int)
        )
        return (new_color, self._next_status(status, any_mis, minimal))

    @staticmethod
    def _next_status(status, any_mis, minimal):
        """The status rule, given whether some neighbor is in the MIS and
        whether the vertex's color is below every undecided neighbor's."""
        if status == MIS:
            return UND if any_mis else MIS
        if status == NOTMIS:
            return NOTMIS if any_mis else UND
        if any_mis:
            return NOTMIS
        return MIS if minimal else UND

    # -- batch protocol (see repro.selfstab.fast_engine) -------------------------
    #
    # Four columns: color value (the coloring's int64 encoding), color
    # is-int flag, sanitized status code (what the rules read) and raw
    # status code (3 = not a canonical (color, status) pair — never equal to
    # a produced status, so the changed mask matches the scalar tuple
    # comparison).  The color column steps through the sub-coloring's
    # kernel; the status machine is bincount/minimum-scatter arithmetic.

    _STATUS_CODES = {MIS: 0, NOTMIS: 1, UND: 2}

    @property
    def batch_transitions(self):
        """Batch-capable iff the injected coloring is (lowmem ones are not)."""
        return bool(getattr(self.coloring, "batch_transitions", False))

    def _encode_one(self, raw):
        """``(color, is_int, status_san, status_raw, canonical)`` or None."""
        canonical = True
        if isinstance(raw, tuple) and len(raw) == 2 and raw[1] in _STATUSES:
            color = raw[0]
            status_san = status_raw = self._STATUS_CODES[raw[1]]
        else:
            color = raw[0] if isinstance(raw, tuple) and len(raw) == 2 else raw
            status_san, status_raw = 2, 3
            canonical = False
        if isinstance(color, bool):
            return int(color), True, status_san, status_raw, False
        if isinstance(color, int):
            if not -(1 << 61) < color < (1 << 61):
                return None
            return color, True, status_san, status_raw, canonical
        from repro.selfstab.kernels import SENTINEL

        return SENTINEL, False, status_san, status_raw, False

    def batch_encode(self, raws, np):
        """Columns for a RAM list: ``(state, noncanon)`` or None (exotic)."""
        size = len(raws)
        color_vals = np.empty(size, dtype=np.int64)
        color_is_int = np.zeros(size, dtype=bool)
        status_san = np.empty(size, dtype=np.int64)
        status_raw = np.empty(size, dtype=np.int64)
        noncanon = {}
        for i, raw in enumerate(raws):
            encoded = self._encode_one(raw)
            if encoded is None:
                return None
            color_vals[i], color_is_int[i], status_san[i], status_raw[i], ok = encoded
            if not ok:
                noncanon[i] = raw
        return (color_vals, color_is_int, status_san, status_raw), noncanon

    def batch_encode_one(self, raw):
        """Column values for one RAM: ``(cols, canonical)`` or None (exotic)."""
        encoded = self._encode_one(raw)
        if encoded is None:
            return None
        return encoded[:4], encoded[4]

    def batch_decode(self, state):
        """The canonical (post-step) state as the scalar RAM list."""
        color_vals, _, _, status_raw = state
        return [
            (color, _STATUSES[code])
            for color, code in zip(color_vals.tolist(), status_raw.tolist())
        ]

    def batch_payload_max(self, state, include, np):
        """Max broadcast payload bits: color bits plus the status string's."""
        color_vals, _, _, status_raw = state
        best = 0
        for code, status_bits in ((0, 24), (1, 48), (2, 24)):  # 8 bits/char
            group = include & (status_raw == code)
            if bool(group.any()):
                color_bits = max(
                    1, int(np.abs(color_vals[group]).max()).bit_length() + 1
                )
                best = max(best, color_bits + status_bits)
        return best

    def transition_batch(self, state, ctx):
        """One synchronous round: ``(new_state, changed_mask)``."""
        np, csr = ctx.np, ctx.csr
        color_vals, color_is_int, status_san, status_raw = state
        new_colors = self.coloring.transition_batch_colors(color_vals, ctx)

        slot_status = status_san[csr.indices]
        any_mis = csr.any_per_vertex(slot_status == 0)
        # Color-minimal among undecided int-colored neighbors (strict <).
        und_int = (slot_status == 2) & color_is_int[csr.indices]
        min_und = np.full(color_vals.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
        if bool(und_int.any()):
            np.minimum.at(min_und, csr.rows[und_int], color_vals[csr.indices[und_int]])
        minimal = color_is_int & (color_vals < min_und)

        new_status = np.empty_like(status_san)
        in_mis = status_san == 0
        new_status[in_mis] = np.where(any_mis[in_mis], 2, 0)
        not_mis = status_san == 1
        new_status[not_mis] = np.where(any_mis[not_mis], 1, 2)
        undecided = status_san == 2
        new_status[undecided] = np.where(
            any_mis[undecided], 1, np.where(minimal[undecided], 0, 2)
        )

        changed = (color_vals != new_colors) | (status_raw != new_status)
        new_state = (
            new_colors,
            np.ones_like(color_is_int),
            new_status,
            new_status.copy(),
        )
        return new_state, changed

    def is_legal(self, graph, rams):
        colors = {}
        statuses = {}
        for v in graph.vertices():
            color, status = self._sanitize(rams.get(v))
            colors[v] = color
            statuses[v] = status
        if not self.coloring.is_legal(graph, colors):
            return False
        if any(statuses[v] == UND for v in graph.vertices()):
            return False
        members = {v for v in graph.vertices() if statuses[v] == MIS}
        snapshot, index = graph.snapshot()
        return is_maximal_independent_set(
            snapshot, {index[v] for v in members}
        )

    def mis_members(self, graph, rams):
        """The MIS vertex set of a (legal) state."""
        return {
            v
            for v in graph.vertices()
            if self._sanitize(rams[v])[1] == MIS
        }

    def stabilization_bound(self):
        palette = getattr(self.coloring, "q", None) or getattr(self.coloring, "p")
        return self.coloring.stabilization_bound() + 3 * palette + 16
