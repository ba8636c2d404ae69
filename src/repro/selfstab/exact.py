"""Fully-dynamic self-stabilizing exact (Delta+1)-coloring (Theorems 4.3, 7.5).

Procedure Self-Stabilizing-Coloring (:mod:`repro.selfstab.descent`) over the
*extended* high/low hybrid core:

* low states ``(L, 0, a)`` (final) and ``(L, 1, a)`` (AG(N) working, rotating
  ``a`` by 1 mod ``N = Delta + 1``), encoded as ``b * N + a`` in ``[0, 2N)``;
* high states ``(H, b, a)`` with ``b in [1, P-1]``, ``a in Z_P``, running
  AG(P) — rotate ``a`` by ``b`` — gated exactly as in Section 7: a high
  vertex may leave the high range only when it has no working-low neighbor,
  no high neighbor on the same ``a``, no finalized-low neighbor on the same
  ``a``, *and* its ``a`` lies below ``2N`` (it then becomes the low vertex
  ``a`` encodes).

The paper's static hybrid uses a prime ``p <= 2N`` so every landing value is
low.  Here the landing step from ``I_1`` needs ``P - 1 >= 4 * Delta + 1``
evaluation points (``2 * Delta`` polynomial agreements plus ``2 * Delta``
forbidden next-states of core neighbors), forcing ``P > 2N``; the extra
guard ``a < 2N`` restores convergence: within any window of ``P`` rounds a
high vertex's ``a`` visits all ``2N = 2 * Delta + 2`` low values while its at
most ``Delta`` neighbors block at most ``2 * Delta`` rounds, so a landing
round always exists.  (See DESIGN.md's substitution notes.)

Landing arrivals enter as high states ``(H, x + 1, P_v(x))`` — the
Excl-Linial pair written into the high range — so they can never collide
with low states, and the forbidden set keeps them off every high neighbor's
possible next state.
"""

from repro.selfstab.descent import IntervalDescentColoring

__all__ = ["SelfStabExactColoring"]


class SelfStabExactColoring(IntervalDescentColoring):
    """Self-stabilizing proper (Delta+1)-coloring, O(Delta + log* n) rounds."""

    name = "selfstab-exact-coloring"

    def __init__(self, n_bound, delta_bound):
        self.n_colors = delta_bound + 1  # N
        self.p = self._landing_field(n_bound, delta_bound, 4 * delta_bound + 3)
        super().__init__(
            n_bound,
            delta_bound,
            final_states=self.n_colors,
            core_size=2 * self.n_colors + (self.p - 1) * self.p,
            landing_q=self.p,
            landing_points=self.p - 1,  # keep b = x + 1 inside [1, p - 1]
        )

    # -- core state encoding -------------------------------------------------------

    def _decode_core(self, local):
        """Return ('L', b, a) or ('H', b, a) from a core-local int."""
        two_n = 2 * self.n_colors
        if local < two_n:
            return ("L", local // self.n_colors, local % self.n_colors)
        j = local - two_n
        return ("H", j // self.p + 1, j % self.p)

    def _encode_core(self, state):
        tag, b, a = state
        if tag == "L":
            return b * self.n_colors + a
        return 2 * self.n_colors + (b - 1) * self.p + a

    # -- the extended hybrid step ---------------------------------------------------

    def _core_step(self, state, neighbor_states):
        tag, b, a = state
        n, p = self.n_colors, self.p
        if tag == "L":
            if b == 0:
                return state
            conflict = any(
                nt == "L" and na == a for nt, _, na in neighbor_states
            )
            if conflict:
                return ("L", 1, (a + 1) % n)
            return ("L", 0, a)
        # High state.
        has_low_working = any(
            nt == "L" and nb == 1 for nt, nb, _ in neighbor_states
        )
        conflict = any(
            (nt == "H" and na == a) or (nt == "L" and nb == 0 and na == a)
            for nt, nb, na in neighbor_states
        )
        if conflict or has_low_working or a >= 2 * n:
            return ("H", b, (a + b) % p)
        if a < n:
            return ("L", 0, a)
        return ("L", 1, a - n)

    def _core_candidates(self, local):
        """Possible next core states of a core neighbor (the set S')."""
        state = self._core_step_options(self._decode_core(local))
        return tuple(self._encode_core(s) for s in state)

    def _core_step_options(self, state):
        tag, b, a = state
        n, p = self.n_colors, self.p
        if tag == "L":
            if b == 0:
                return (state,)
            return (("L", 1, (a + 1) % n), ("L", 0, a))
        options = [("H", b, (a + b) % p)]
        if a < n:
            options.append(("L", 0, a))
        elif a < 2 * n:
            options.append(("L", 1, a - n))
        return tuple(options)

    def _core_next(self, local, core_neighbors):
        state = self._core_step(
            self._decode_core(local), [self._decode_core(c) for c in core_neighbors]
        )
        return self._encode_core(state)

    def _landing_candidate(self, x, value):
        return 2 * self.n_colors + x * self.p + value  # ("H", x + 1, value)

    # -- batch forms ---------------------------------------------------------------

    def _batch_core_candidates(self, core_locals, np):
        """Vectorized ``_core_candidates``: two core-local arrays.

        Low working states may rotate or finalize; high states may rotate or
        (when their ``a`` encodes a low state) land on it — and both low
        encodings collapse to the value ``a`` itself.  A state with a single
        option (final low, or high with ``a >= 2N``) repeats it.
        """
        n, p = self.n_colors, self.p
        two_n = 2 * n
        is_low = core_locals < two_n
        low_b = core_locals // n
        low_a = core_locals % n
        high_j = core_locals - two_n
        high_b = high_j // p + 1
        high_a = high_j % p
        opt1 = np.where(
            is_low,
            np.where(low_b == 0, core_locals, n + (low_a + 1) % n),
            two_n + (high_b - 1) * p + (high_a + high_b) % p,
        )
        has2 = np.where(is_low, low_b == 1, high_a < two_n)
        return opt1, np.where(has2, np.where(is_low, low_a, high_a), opt1)

    def _batch_core_next(self, own, owner, nb, np):
        """The extended high/low hybrid step over the working core rows."""
        n, p = self.n_colors, self.p
        two_n = 2 * n
        is_low = own < two_n
        low_a = own % n
        high_j = own - two_n
        high_b = high_j // p + 1
        high_a = high_j % p
        own_a = np.where(is_low, low_a, high_a)

        nb_is_low = nb < two_n
        nb_b = nb // n
        nb_a = np.where(nb_is_low, nb % n, (nb - two_n) % p)
        own_low_s = is_low[owner]
        same_a = nb_a == own_a[owner]
        conflict_slot = np.where(
            own_low_s,
            nb_is_low & same_a,
            (~nb_is_low & same_a) | (nb_is_low & (nb_b == 0) & same_a),
        )
        conflict = np.zeros(own.size, dtype=bool)
        conflict[owner[conflict_slot]] = True
        low_working = np.zeros(own.size, dtype=bool)
        low_working[owner[nb_is_low & (nb_b == 1)]] = True

        return np.where(
            is_low,  # working (b == 1): final low states are not stepped
            np.where(conflict, n + (low_a + 1) % n, low_a),
            np.where(
                conflict | low_working | (high_a >= two_n),
                two_n + (high_b - 1) * p + (high_a + high_b) % p,
                high_a,  # both low landings encode to the value a itself
            ),
        )

    def stabilization_bound(self):
        return self.plan.levels + 8 * self.p + 4 * self.n_colors + 24
