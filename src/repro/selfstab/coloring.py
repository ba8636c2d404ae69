"""Fully-dynamic self-stabilizing O(Delta)-coloring (Section 4.1, Lemma 4.2).

Procedure Self-Stabilizing-Coloring (:mod:`repro.selfstab.descent`) over an
AG core: ``I_0`` holds the pairs ``<a, b>`` of ``Z_Q x Z_Q``, encoded
``a * Q + b``.  A working pair rotates ``b`` by ``a`` when a core neighbor
shares its ``b`` and otherwise finalizes to ``<0, b>``, so the set ``S'`` of
a core neighbor's next colors is its rotation and its finalization.  A
landing at point ``x`` with value ``v`` arrives as ``<x, v>``.

Once faults stop: conflicting vertices reset in one round; colors then drain
down the intervals in ``r = log* n + O(1)`` rounds; and the AG core
finalizes everyone within ``Q = O(Delta)`` more rounds (Lemma 4.2's
``O(Delta + log* n)`` stabilization).  Only vertices adjacent to a fault can
ever detect an error, and finalized AG colors never move, so the adjustment
radius is 1 (Theorem 4.3's argument).
"""

from repro.selfstab.descent import IntervalDescentColoring

__all__ = ["SelfStabColoring"]


class SelfStabColoring(IntervalDescentColoring):
    """Self-stabilizing proper ``Q``-coloring, ``Q = O(Delta)`` prime."""

    name = "selfstab-coloring"

    def __init__(self, n_bound, delta_bound):
        # The AG core field Q doubles as the landing field: it needs
        # Q >= 2 * Delta + 1 for AG's two-conflicts-per-window argument and
        # Q >= 4 * Delta + 1 for the landing step (2*Delta agreements +
        # 2*Delta forbidden colors); the plan helper enforces both.
        q = self._landing_field(n_bound, delta_bound, 2 * delta_bound + 1)
        self.q = q
        super().__init__(
            n_bound,
            delta_bound,
            final_states=q,
            core_size=q * q,
            landing_q=q,
            landing_points=q,
        )

    def _landing_candidate(self, x, value):
        return x * self.q + value

    def _core_candidates(self, local):
        """The <= 2 colors an I_0 neighbor may hold next round (the set S')."""
        q = self.q
        a, b = divmod(local, q)
        return (a * q + (b + a) % q, b)

    def _batch_core_candidates(self, core_locals, np):
        q = self.q
        a, b = core_locals // q, core_locals % q
        return a * q + (b + a) % q, b

    def _core_next(self, local, core_neighbors):
        q = self.q
        a, b = divmod(local, q)
        if any(nb % q == b for nb in core_neighbors):
            return a * q + (b + a) % q
        return b  # <0, b>

    def _batch_core_next(self, own, owner, nbrs, np):
        q = self.q
        a, b = own // q, own % q
        conflict = np.zeros(own.size, dtype=bool)
        conflict[owner[nbrs % q == b[owner]]] = True
        return np.where(conflict, a * q + (b + a) % q, b)

    def stabilization_bound(self):
        return self.plan.levels + 3 * self.q + 16
