"""Procedure Self-Stabilizing-Coloring (Section 4.1), written once.

The RAM of a vertex is a single color in the interval plan's global range.
Every round:

1. **Check-Error** — a color that is invalid (corrupted beyond the range) or
   equal to a neighbor's color resets to the vertex's ID slot in ``I_r``;
2. **Mod-Linial** — a color in ``I_j``, ``j >= 2``, takes the next Linial
   color over its ``I_j`` neighbors and moves to ``I_{j-1}``;
3. **Excl-Linial landing** — a color in ``I_1`` takes the first point of the
   landing field whose candidate avoids every ``I_1`` neighbor's polynomial
   and the set ``S'`` (the at most two next states of every ``I_0``
   neighbor), and moves to ``I_0``;
4. **the core step** — a color in ``I_0`` runs the uniform core machine.

:class:`IntervalDescentColoring` holds this procedure as the scalar
reference ``transition`` and as the batch kernel; the O(1)-word metered
form is :mod:`repro.selfstab.lowmem`.  The two colorings extend it and keep
only their ``I_0`` core: AG over ``Z_q``
(:class:`~repro.selfstab.coloring.SelfStabColoring`, Lemma 4.2) and the
AG(p)/AG(N) high/low hybrid
(:class:`~repro.selfstab.exact.SelfStabExactColoring`, Theorem 7.5).
"""

from repro.linial.core import linial_next_color, point_scan
from repro.linial.plan import linial_plan
from repro.mathutil.gf import batch_poly_coeffs, eval_poly_mod, int_to_poly_coeffs
from repro.selfstab.engine import SelfStabAlgorithm
from repro.selfstab.kernels import (
    ColorBatchOps,
    apply_upper_descent,
    batch_levels,
    check_error_and_frontier,
    level_slots,
    subset_positions,
)
from repro.selfstab.plan import IntervalPlan

__all__ = ["IntervalDescentColoring"]


class IntervalDescentColoring(ColorBatchOps, SelfStabAlgorithm):
    """Check-Error, the Mod-Linial descent and the ``S'``-avoiding landing.

    A subclass passes its final-state count (the final core states are the
    core-locals below it) and the plan's core size, landing field and
    landing point count, and supplies its ``I_0`` core:

    * ``_landing_candidate(x, value)`` — the core-local a landing at point
      ``x`` with polynomial value ``value`` takes (scalars or arrays);
    * ``_core_candidates(local)`` / ``_batch_core_candidates(locals, np)``
      — the at most two next states of a core vertex (the set ``S'``; the
      batch form returns two arrays, repeating the first for a single
      option);
    * ``_core_next(local, core_neighbors)`` /
      ``_batch_core_next(own, owner, nbrs, np)`` — the core step of working
      core vertices, from their core neighbors' locals;
    * ``stabilization_bound()``.

    Core-locals are the global colors themselves (``offsets[0] == 0``).
    """

    def __init__(self, n_bound, delta_bound, final_states, core_size, landing_q,
                 landing_points):
        super().__init__(n_bound, delta_bound)
        self._final_states = final_states
        self.plan = IntervalPlan(
            n_bound,
            delta_bound,
            core_size=core_size,
            landing_q=landing_q,
            landing_points=landing_points,
        )

    @staticmethod
    def _landing_field(n_bound, delta_bound, extra_floor):
        """Smallest prime landing field for ``I_1`` of these ROM bounds."""
        iterations = linial_plan(max(2, n_bound), delta_bound)
        i1_size = iterations[-1].out_palette if iterations else max(2, n_bound)
        return IntervalPlan.landing_field_for(delta_bound, i1_size, extra_floor)

    def fresh_ram(self, vertex):
        return self.plan.reset_color(vertex)

    def visible(self, vertex, ram):
        return ram

    def transition(self, vertex, ram, neighbor_visibles):
        plan = self.plan
        level = plan.level_of(ram)
        # Check-Error: invalid or conflicting colors reset to the ID slot.
        if level is None or any(ram == other for other in neighbor_visibles):
            return plan.reset_color(vertex)

        local = ram - plan.offsets[level]
        leveled = [(plan.level_of(c), c) for c in neighbor_visibles]
        same_level = [c - plan.offsets[level] for lv, c in leveled if lv == level]
        if level >= 2:
            iteration = plan.descent_iteration(level)
            return plan.to_global(
                level - 1,
                linial_next_color(local, same_level, iteration.q, iteration.degree),
            )
        if level == 1:
            forbidden = [
                option
                for lv, c in leveled
                if lv == 0
                for option in self._core_candidates(c - plan.offsets[0])
            ]
            return plan.to_global(0, self._land(local, same_level, forbidden))
        return plan.to_global(0, self._core_next(local, same_level))

    def _land(self, local, same_level_locals, forbidden_core_locals):
        """Excl-Linial into ``I_0``: the first landing point whose candidate
        is not forbidden and whose value no ``I_1`` neighbor's degree-2
        polynomial shares."""
        plan = self.plan
        q = plan.landing_q
        mine = int_to_poly_coeffs(local, 2, q)
        neighbor_polys = [
            int_to_poly_coeffs(c, 2, q) for c in set(same_level_locals) if c != local
        ]
        forbidden = set(forbidden_core_locals)
        for x in range(plan.landing_points):
            value = eval_poly_mod(mine, x, q)
            candidate = self._landing_candidate(x, value)
            if candidate in forbidden:
                continue
            if all(eval_poly_mod(g, x, q) != value for g in neighbor_polys):
                return candidate
        raise AssertionError(
            "no landing point in GF(%d) with %d neighbors and %d forbidden — "
            "the plan guarantees one" % (q, len(neighbor_polys), len(forbidden))
        )

    # -- batch protocol (see repro.selfstab.fast_engine) -------------------------
    #
    # One int64 column per vertex holding the global color.  Check-Error is a
    # CSR equality scatter over the dirty rows' slots, and the level step
    # reads only the non-final rows' slots (kernels.check_error_and_frontier);
    # each interval's descent and the landing are one Linial point scan
    # (repro.linial.core.point_scan) over all rows of their interval, the
    # landing with the S' test as its forbidden hook; the core step is
    # elementwise.  All rules are existence-based, so the kernel is
    # identical in LOCAL and SET-LOCAL.

    def _np_offsets(self, np):
        arr = self.__dict__.get("_offsets_arr")
        if arr is None:
            arr = np.asarray(self.plan.offsets, dtype=np.int64)
            self._offsets_arr = arr
        return arr

    def transition_batch_colors(self, colors, ctx):
        """Vectorized ``transition`` over the whole color column."""
        np = ctx.np
        plan = self.plan
        levels = batch_levels(colors, plan, self._np_offsets(np), np)
        # Final core states sit below the final-state count and never move.
        new, active, slots = check_error_and_frontier(
            colors, levels, self._final_states, plan, ctx
        )
        apply_upper_descent(new, colors, levels, slots, active, plan, ctx)
        if bool((active & (levels == 1)).any()):
            self._batch_land(new, colors, levels, slots, active, ctx)
        mask0 = active & (levels == 0)
        if bool(mask0.any()):
            self._batch_core(new, colors, mask0, slots, ctx)
        return new

    def _batch_land(self, new, colors, levels, slots, active, ctx):
        """Excl-Linial landing (``I_1 -> I_0``) avoiding ``S'``."""
        np = ctx.np
        slot_rows, slot_nbrs, slot_levels = slots
        plan = self.plan
        q = plan.landing_q
        sub, inv, pending, rows, nbrs = level_slots(
            colors, levels, slots, active, 1, np
        )
        # S': the at most two next states of every I_0 neighbor.
        cmask = (levels[slot_rows] == 1) & (slot_levels == 0)
        core_rows = inv[slot_rows[cmask]]
        opt1, opt2 = self._batch_core_candidates(colors[slot_nbrs[cmask]], np)

        def forbidden(x, column, scanning):
            sel = scanning[core_rows]
            owners = core_rows[sel]
            cand = self._landing_candidate(x, column[owners])
            hit = np.zeros(scanning.shape[0], dtype=bool)
            hit[owners[(opt1[sel] == cand) | (opt2[sel] == cand)]] = True
            return hit

        coeffs = batch_poly_coeffs(colors[sub] - plan.offsets[1], 2, q)
        x, value, count = point_scan(
            coeffs, q, plan.landing_points, pending, rows, nbrs, forbidden
        )
        if bool(count.any()):
            ctx.replay()
        new[sub[pending]] = plan.offsets[0] + self._landing_candidate(
            x[pending], value[pending]
        )

    def _batch_core(self, new, colors, mask0, slots, ctx):
        """The core step over the working core rows."""
        np = ctx.np
        slot_rows, slot_nbrs, slot_levels = slots
        sub, inv = subset_positions(mask0, np)
        smask = mask0[slot_rows] & (slot_levels == 0)
        new[sub] = self._batch_core_next(
            colors[sub], inv[slot_rows[smask]], colors[slot_nbrs[smask]], np
        )

    # -- legality --------------------------------------------------------------------

    def is_legal(self, graph, rams):
        """Proper coloring with every color a final core state."""
        offset = self.plan.offsets[0]
        for v in graph.vertices():
            color = rams.get(v)
            if self.plan.level_of(color) != 0 or color - offset >= self._final_states:
                return False
        for v in graph.vertices():
            for u in graph.neighbors(v):
                if rams[u] == rams[v]:
                    return False
        return True

    def batch_is_legal(self, state, csr, np):
        """Vectorized :meth:`is_legal` over canonical columns.

        Final core states are exactly ``offset <= c < offset + final``, so
        the scalar predicate collapses to a range check plus edge-wise
        properness.
        """
        (colors,) = state
        local = colors - self.plan.offsets[0]
        if not bool(((local >= 0) & (local < self._final_states)).all()):
            return False
        return not bool((colors[csr.edge_u] == colors[csr.edge_v]).any())

    def final_colors(self, graph, rams):
        """Colors in ``[0, final states)`` from a legal state."""
        offset = self.plan.offsets[0]
        return {
            v: (rams[v] - offset) % self._final_states for v in graph.vertices()
        }
