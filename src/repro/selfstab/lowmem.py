"""The O(1)-words self-stabilizing colorings (Section 1.2.1's memory claim).

"Finally, for each of these problems, there is a variant of our algorithm in
which vertices use just O(1) words of local memory."  The model grants every
vertex a re-readable read-only buffer per neighbor holding the current
incoming message; :class:`_MeteredDescent` streams Procedure
Self-Stabilizing-Coloring over those buffers for both colorings and keeps
every live local value inside a metered
:class:`~repro.lowmem.workspace.Workspace`:

* Check-Error: one pass comparing each buffer to the own color;
* one streaming point search for the Mod-Linial descent and the
  Excl-Linial landing: for each candidate point ``x``, re-stream the
  buffers, evaluating one same-interval neighbor polynomial at a time
  (:func:`~repro.lowmem.workspace.metered_horner`, the static Linial
  step's Horner) and, when landing, comparing the candidate
  against each ``I_0`` neighbor's at most *two* next colors, computed on the
  fly (never materializing the ``O(Delta)``-sized ``S'``);
* the core step: the coloring's own streamed form, one neighbor at a time.

``transition`` is bit-identical to the reference colorings (tested on random
states), so every stabilization/radius theorem transfers; the workspace
meter shows the peak stays a fixed handful of Theta(log n)-bit words.
"""

from repro.lowmem.workspace import Workspace, bits_for_range, metered_horner

from repro.selfstab.coloring import SelfStabColoring
from repro.selfstab.exact import SelfStabExactColoring
from repro.selfstab.mis import SelfStabMIS

__all__ = [
    "SelfStabColoringConstantMemory",
    "SelfStabExactColoringConstantMemory",
    "SelfStabMISConstantMemory",
]


class _MeteredDescent:
    """The workspace-metered ``transition`` of both O(1)-word colorings.

    Mixed in before a coloring, which supplies ``_metered_core_next(local,
    neighbor_visibles)``: its core step over the streamed buffers.
    """

    # The point of these variants is the metered scalar transition: opting
    # out of the batch kernels keeps the workspace meter accurate.
    batch_transitions = False

    def __init__(self, n_bound, delta_bound, bit_limit=None):
        super().__init__(n_bound, delta_bound)
        self.workspace = Workspace(bit_limit=bit_limit)
        self._color_bits = bits_for_range(self.plan.total_size)

    @property
    def peak_words(self):
        """Peak workspace usage in Theta(log n_bound)-bit words."""
        word = bits_for_range(max(2, self.n_bound))
        return self.workspace.peak_words(word)

    def transition(self, vertex, ram, neighbor_visibles):
        """Metered streaming transition; bit-identical to the reference."""
        ws = self.workspace
        plan = self.plan
        color_bits = self._color_bits

        ws.put("color", ram, color_bits)
        level = plan.level_of(ram)
        error = level is None
        if not error:
            ws.put("flag", 0, 1)
            for other in neighbor_visibles:
                ws.put("buf", other, color_bits)
                if ws.get("buf") == ws.get("color"):
                    ws.put("flag", 1, 1)
                ws.free("buf")
            error = bool(ws.get("flag"))
            ws.free("flag")
        if error:
            ws.free_all()
            return plan.reset_color(vertex)

        local = ram - plan.offsets[level]
        ws.put("local", local, color_bits)
        if level >= 2:
            iteration = plan.descent_iteration(level)
            q = iteration.q
            new_local = self._point_search(
                level, local, neighbor_visibles, q, iteration.degree, q,
                lambda x, value: x * q + value,
            )
        elif level == 1:
            new_local = self._point_search(
                1, local, neighbor_visibles, plan.landing_q, 2,
                plan.landing_points, self._landing_candidate,
            )
        else:
            new_local = self._metered_core_next(local, neighbor_visibles)
        ws.free_all()
        return plan.to_global(max(0, level - 1), new_local)

    def _point_search(self, level, local, neighbor_visibles, q, degree, points, encode):
        """The first point ``x`` whose candidate ``encode(x, g(x))`` no
        same-level neighbor polynomial agrees with and, when landing
        (level 1), no ``I_0`` neighbor may hold next round."""
        ws = self.workspace
        plan = self.plan
        value_bits = bits_for_range(q)
        for x in range(points):
            ws.put("x", x, value_bits)
            ws.put("gx", metered_horner(ws, local, x, q, degree), value_bits)
            ws.put("cand", encode(x, ws.get("gx")), self._color_bits)
            ok = True
            for color in neighbor_visibles:
                nb_level = plan.level_of(color)
                if nb_level == level:
                    nb_local = color - plan.offsets[level]
                    if nb_local == local:
                        continue
                    nval = metered_horner(ws, nb_local, x, q, degree)
                    ws.put("nval", nval, value_bits)
                    if ws.get("nval") == ws.get("gx"):
                        ok = False
                    ws.free("nval")
                elif level == 1 and nb_level == 0:
                    for option in self._core_candidates(color - plan.offsets[0]):
                        ws.put("opt", option, self._color_bits)
                        if ws.get("opt") == ws.get("cand"):
                            ok = False
                        ws.free("opt")
                if not ok:
                    break
            if ok:
                return ws.get("cand")
            ws.free("cand")
            ws.free("gx")
            ws.free("x")
        raise AssertionError("no conflict-free point — the plan guarantees one")


class SelfStabColoringConstantMemory(_MeteredDescent, SelfStabColoring):
    """Drop-in SelfStabColoring whose transition is workspace-metered.

    The AG core step keeps the own pair, one streamed neighbor value and a
    conflict flag.
    """

    name = "selfstab-coloring-o1-memory"

    def _metered_core_next(self, local, neighbor_visibles):
        ws = self.workspace
        plan = self.plan
        q = self.q
        a, b = divmod(local, q)
        ws.put("a", a, bits_for_range(q))
        ws.put("b", b, bits_for_range(q))
        ws.put("conflict", 0, 1)
        for color in neighbor_visibles:
            if plan.level_of(color) != 0:
                continue
            ws.put("nb", (color - plan.offsets[0]) % q, bits_for_range(q))
            if ws.get("nb") == ws.get("b"):
                ws.put("conflict", 1, 1)
            ws.free("nb")
        if ws.get("conflict"):
            return a * q + (b + a) % q
        return b


class SelfStabExactColoringConstantMemory(_MeteredDescent, SelfStabExactColoring):
    """O(1)-words variant of the exact (Delta+1) self-stabilizing coloring.

    The hybrid core step keeps the decoded own state plus one streamed
    neighbor state and two flags.  Bit-identical to
    :class:`~repro.selfstab.exact.SelfStabExactColoring`.
    """

    name = "selfstab-exact-coloring-o1-memory"

    def _metered_core_next(self, local, neighbor_visibles):
        ws = self.workspace
        plan = self.plan
        p = self.p
        tag, b, a = self._decode_core(local)
        ws.put("a", a, bits_for_range(p))
        ws.put("b", b, bits_for_range(p))
        ws.put("conflict", 0, 1)
        ws.put("low_working", 0, 1)
        for color in neighbor_visibles:
            if plan.level_of(color) != 0:
                continue
            ws.put("nbr", color - plan.offsets[0], self._color_bits)
            nt, nb, na = self._decode_core(ws.get("nbr"))
            if tag == "L":
                if nt == "L" and na == ws.get("a"):
                    ws.put("conflict", 1, 1)
            else:
                if (nt == "H" or nb == 0) and na == ws.get("a"):
                    ws.put("conflict", 1, 1)
                if nt == "L" and nb == 1:
                    ws.put("low_working", 1, 1)
            ws.free("nbr")
        # _core_step reads only whether some core neighbor conflicts and
        # whether some low neighbor works; one witness state stands for each.
        witnesses = [("L", 0, a)] if ws.get("conflict") else []
        if ws.get("low_working"):
            witnesses.append(("L", 1, a))
        return self._encode_core(self._core_step((tag, b, a), witnesses))


class SelfStabMISConstantMemory(SelfStabMIS):
    """O(1)-words self-stabilizing MIS.

    The color field runs through :class:`SelfStabColoringConstantMemory`'s
    metered transition; the status machine needs only two flags (an MIS
    neighbor seen?  am I color-minimal among undecided neighbors?) streamed
    over the buffers.  Bit-identical to :class:`~repro.selfstab.mis.
    SelfStabMIS` built over the plain coloring.
    """

    name = "selfstab-mis-o1-memory"

    def __init__(self, n_bound, delta_bound, bit_limit=None):
        super().__init__(
            n_bound,
            delta_bound,
            coloring_factory=lambda n, d: SelfStabColoringConstantMemory(
                n, d, bit_limit=bit_limit
            ),
        )

    @property
    def peak_words(self):
        """Peak workspace usage of the metered coloring core."""
        return self.coloring.peak_words

    def transition(self, vertex, ram, neighbor_visibles):
        """Metered MIS transition; bit-identical to SelfStabMIS."""
        ws = self.coloring.workspace
        color, status = self._sanitize(ram)
        neighbor_states = [self._sanitize(nv) for nv in neighbor_visibles]
        new_color = self.coloring.transition(
            vertex, color, tuple(c for c, _ in neighbor_states)
        )

        # Streamed status logic: two flags, one neighbor state at a time.
        ws.put("any_mis", 0, 1)
        ws.put("minimal", 1, 1)
        for nb_color, nb_status in neighbor_states:
            if nb_status == "MIS":
                ws.put("any_mis", 1, 1)
            if (
                nb_status == "UND"
                and isinstance(nb_color, int)
                and isinstance(color, int)
                and not color < nb_color
            ):
                ws.put("minimal", 0, 1)
        any_mis = bool(ws.get("any_mis"))
        minimal = bool(ws.get("minimal")) and isinstance(color, int)
        ws.free_all()
        return (new_color, self._next_status(status, any_mis, minimal))
