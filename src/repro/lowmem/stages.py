"""Corollary 3.6's three stages with a streamed, workspace-metered ``step``.

Each class here is the reference stage (same name, ``configure``, schedule,
palettes, finality and bounds) whose ``step`` keeps every live local value
in a shared :class:`~repro.lowmem.workspace.Workspace`.  The engine's
neighbor tuple is the model's re-readable read-only buffer per neighbor: a
step reads it one color at a time, as often as it likes, and never
materializes a neighborhood-sized structure.
"""

from repro.core.ag import AdditiveGroupColoring
from repro.core.reductions import StandardColorReduction
from repro.linial.core import LinialColoring
from repro.lowmem.workspace import bits_for_range, metered_horner

__all__ = [
    "MeteredLinialColoring",
    "MeteredAdditiveGroupColoring",
    "MeteredStandardColorReduction",
]


class _MeteredStage:
    """A stage whose scalar ``step`` runs inside a shared metered workspace.

    Mixed in before the reference stage, which supplies everything but the
    streamed ``step``.
    """

    # The metered scalar step is the point of these stages: without a batch
    # kernel the batch tier falls back to ``step`` (and the out-of-core tier
    # refuses the stage), so the meter sees every round that runs.
    step_batch = None

    def __init__(self, workspace):
        super().__init__()
        self.workspace = workspace


class MeteredLinialColoring(_MeteredStage, LinialColoring):
    """Linial's step as sketched at the end of Section 3.

    For each candidate point ``x``: compute ``g(x)`` (the own polynomial is
    the own color's base-q digits, read digit by digit), then stream the
    neighbor colors, evaluating one neighbor polynomial at ``x`` at a time.
    The first ``x`` where all of them differ gives ``x * q + g(x)``.
    """

    def step(self, round_index, color, neighbor_colors):
        if round_index >= len(self.plan):
            return color
        iteration = self.plan[round_index]
        q, degree = iteration.q, iteration.degree
        ws = self.workspace
        value_bits = bits_for_range(q)
        ws.put("color", color, bits_for_range(q ** (degree + 1)))
        for x in range(q):
            ws.put("x", x, value_bits)
            ws.put("gx", metered_horner(ws, color, x, q, degree), value_bits)
            ok = True
            for neighbor in neighbor_colors:
                if neighbor == color:
                    continue
                ws.put("nval", metered_horner(ws, neighbor, x, q, degree), value_bits)
                if ws.get("nval") == ws.get("gx"):
                    ok = False
                ws.free("nval")
                if not ok:
                    break
            if ok:
                new_color = x * q + ws.get("gx")
                ws.free_all()
                return new_color
            ws.free("gx")
            ws.free("x")
        ws.free_all()
        raise ValueError("no conflict-free point — field under-sized")


class MeteredAdditiveGroupColoring(_MeteredStage, AdditiveGroupColoring):
    """The AG step with the own pair, one streamed neighbor ``b`` and a flag."""

    def step(self, round_index, color, neighbor_colors):
        ws = self.workspace
        q = self.q
        ws.put("a", color[0], bits_for_range(q))
        ws.put("b", color[1], bits_for_range(q))
        ws.put("conflict", 0, 1)
        for neighbor in neighbor_colors:
            # One buffered pair is inspected at a time; only its b matters.
            ws.put("nb", neighbor[1], bits_for_range(q))
            if ws.get("nb") == ws.get("b"):
                ws.put("conflict", 1, 1)
            ws.free("nb")
        a, b = ws.get("a"), ws.get("b")
        result = (a, (b + a) % q) if ws.get("conflict") else (0, b)
        ws.free_all()
        return result


class MeteredStandardColorReduction(_MeteredStage, StandardColorReduction):
    """The standard reduction without the Delta-sized forbidden set.

    A vertex of the acting class scans the candidates ``0..target-1`` and
    re-streams the buffers for each one: O(1) words, and O(Delta) buffer
    re-reads per round, which the message-passing model gives for free.
    """

    def step(self, round_index, color, neighbor_colors):
        ws = self.workspace
        acting_color = self.start_palette - 1 - round_index
        color_bits = bits_for_range(max(2, acting_color + 1))
        ws.put("color", color, color_bits)
        if color != acting_color or color < self.target:
            ws.free_all()
            return color
        for candidate in range(self.target):
            ws.put("candidate", candidate, bits_for_range(self.target))
            taken = False
            for neighbor in neighbor_colors:
                ws.put("ncolor", neighbor, color_bits)
                if ws.get("ncolor") == ws.get("candidate"):
                    taken = True
                ws.free("ncolor")
                if taken:
                    break
            if not taken:
                result = ws.get("candidate")
                ws.free_all()
                return result
            ws.free("candidate")
        ws.free_all()
        raise AssertionError("no free color among target palette")
