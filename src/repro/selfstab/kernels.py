"""Shared NumPy kernels for the batch self-stabilization engine.

The self-stabilizing algorithms are *uniform* per-round local rules over the
interval plan: classify every (possibly corrupted) color, reset conflicts,
run one Mod-/Excl-Linial descent per interval, and step the core machine.
Each of those pieces is a data-parallel map over the 1-hop neighborhood, so
a whole round becomes a handful of array operations over a
:class:`~repro.runtime.csr.CSRAdjacency` view.  The descent of each
interval (and the landing in ``repro.selfstab.descent``) is one call of the
Linial point scan, :func:`repro.linial.core.point_scan`, over every row of
the interval (:func:`level_slots`).

Encoding.  RAM values are arbitrary Python objects (the adversary writes
garbage), but *canonical* states — what the algorithms themselves produce —
are plain machine-sized ints (or ``(int, status)`` pairs for the MIS).  The
batch state stores every color as one ``int64`` column:

* plain ints keep their exact value (negative or out-of-range garbage
  included — equality and ``<`` comparisons must match the scalar path);
* bools store their int value (``True == 1`` for every rule the algorithms
  apply) and are tracked as payload-noncanonical so the CONGEST meter still
  charges the scalar 1 bit;
* non-int garbage maps to a sentinel below every representable color, which
  classifies as invalid and equals nothing valid — exactly the scalar
  behavior (two distinct garbage values colliding on the sentinel is
  unobservable: no rule ever compares two *neighbor* values to each other);
* ints too large for the sentinel-safe ``int64`` range are *exotic*:
  ``batch_encode`` refuses and the engine runs that round through the
  inherited scalar step (bit-for-bit parity for free).

Every rule here is existence/forall-based over the neighbor multiset, so
one kernel serves both the LOCAL and SET-LOCAL visibility models.
"""

from repro.linial.core import point_scan
from repro.mathutil.gf import batch_poly_coeffs

__all__ = [
    "BatchContext",
    "ColorBatchOps",
    "replay_scalar_round",
    "level_slots",
    "batch_levels",
    "check_error_and_frontier",
    "apply_upper_descent",
    "subset_positions",
    "SENTINEL",
]

#: Stored for non-int garbage: below every valid color, equal to nothing.
SENTINEL = -(1 << 62)

#: Plain ints beyond this magnitude are "exotic" and force a scalar round.
_CANON_MAX = 1 << 61


def replay_scalar_round(algorithm, raws, csr, vertices, set_visibility):
    """Re-run one round through the scalar ``transition`` in vertex order.

    Batch kernels call this when no conflict-free point exists for some
    vertex: replaying raises the scalar path's exact exception, from the
    same vertex, with the same message.
    """
    visible = [algorithm.visible(v, raws[i]) for i, v in enumerate(vertices)]
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    for i, v in enumerate(vertices):
        view = tuple(visible[j] for j in indices[indptr[i]:indptr[i + 1]])
        if set_visibility:
            view = frozenset(view)
        algorithm.transition(v, raws[i], view)


class BatchContext:
    """Everything a ``transition_batch`` kernel needs for one round."""

    __slots__ = (
        "np", "csr", "vertices", "dirty", "set_visibility", "algorithm", "raw_values"
    )

    def __init__(self, np, csr, vertices, dirty, set_visibility, algorithm, raw_values):
        self.np = np
        self.csr = csr
        self.vertices = vertices  # int64 array: compact index -> original id
        # bool mask: rows the last round changed or a fault wrote since
        self.dirty = dirty
        self.set_visibility = set_visibility
        self.algorithm = algorithm
        self.raw_values = raw_values  # lazy: the scalar RAM list for replay

    def replay(self):
        """Replay through the scalar path to raise its exact error."""
        raws = self.raw_values()
        replay_scalar_round(
            self.algorithm,
            raws,
            self.csr,
            self.vertices.tolist(),
            self.set_visibility,
        )
        raise AssertionError(
            "batch self-stab kernel rejected a round the scalar transition accepts"
        )


def batch_levels(colors, plan, offsets_arr, np):
    """Interval index per color column entry; -1 for invalid values.

    Mirrors ``IntervalPlan.level_of``: any int64 value outside
    ``[0, total_size)`` (garbage, sentinel) classifies as invalid.
    """
    valid = (colors >= 0) & (colors < plan.total_size)
    idx = np.searchsorted(offsets_arr, colors, side="right") - 1
    return np.where(valid, idx, -1)


def check_error_and_frontier(colors, levels, final_size, plan, ctx):
    """Check-Error, then the CSR slots of the rows the level step moves.

    Check-Error reads only the dirty rows' slots and resets *both* ends of
    every monochromatic edge it finds.  That finds them all: right after a
    round no edge joins two unchanged vertices of equal color (both would
    have reset to their own, distinct ID slots ``offsets[r] + id``), and a
    fault dirties every row it writes.  The level step then reads the slots
    of every non-final row (``colors >= final_size``) that did not reset; a
    final state is a fixed point of the step.  Dirty rows would not do here:
    a vertex on its own ID slot beside a neighbor corrupted to that value
    resets to the same value, stays clean, and must still descend.

    Returns ``(new, active, slots)``: ``colors`` with the resets written,
    the mask of rows the step must still write, and per slot of those rows
    ``(owner row, neighbor row, neighbor level)``.
    """
    np, csr = ctx.np, ctx.csr
    dirty = np.flatnonzero(ctx.dirty)
    slots, owner = csr.subset_slots(dirty)
    own, nbrs = dirty[owner], csr.indices[slots]
    mono = colors[nbrs] == colors[own]
    reset = levels < 0
    reset[own[mono]] = True
    reset[nbrs[mono]] = True
    new = colors.copy()
    if bool(reset.any()):
        new[reset] = plan.offsets[plan.levels - 1] + ctx.vertices[reset]
    active = ~reset & (colors >= final_size)
    rows = np.flatnonzero(active)
    slots, owner = csr.subset_slots(rows)
    nbrs = csr.indices[slots]
    return new, active, (rows[owner], nbrs, levels[nbrs])


def subset_positions(mask, np):
    """``(rows, positions)``: the rows ``mask`` selects, and an index array
    mapping each of those rows to its position among them."""
    sub = np.flatnonzero(mask)
    inv = np.empty(mask.shape[0], dtype=np.int64)
    inv[sub] = np.arange(sub.size, dtype=np.int64)
    return sub, inv


def level_slots(colors, levels, slots, active, level, np):
    """Every row of one interval, and the same-interval slots of its active rows.

    The descent and the landing scan all rows at ``level`` as one
    coefficient matrix, so a same-level neighbor is a row of that matrix;
    the active ones are pending.  A slot is kept when its owner and its
    neighbor both sit at ``level`` and their colors differ (the scalar step
    skips its own polynomial).  Returns ``(sub, inv, pending, rows, nbrs)``:
    the rows at ``level``, the map from row to position among them, the
    pending mask over them, and each kept slot's owner and neighbor
    positions.
    """
    slot_rows, slot_nbrs, slot_levels = slots
    at = levels == level
    sub, inv = subset_positions(at, np)
    keep = at[slot_rows] & (slot_levels == level)
    owner, nbr = slot_rows[keep], slot_nbrs[keep]
    keep = colors[nbr] != colors[owner]
    return sub, inv, active[sub], inv[owner[keep]], inv[nbr[keep]]


def apply_upper_descent(new, colors, levels, slots, active, plan, ctx):
    """Mod-Linial descent for every active vertex at level >= 2.

    The one descent of both colorings:
    :class:`~repro.selfstab.descent.IntervalDescentColoring` runs it, and
    each coloring supplies only its ``I_0`` core.  ``slots`` is the
    frontier of :func:`check_error_and_frontier`.  Each level is one
    :func:`~repro.linial.core.point_scan` over its rows' locals.  Writes
    results into ``new`` in place.
    """
    np = ctx.np
    offsets = plan.offsets
    upper = active & (levels >= 2)
    if not bool(upper.any()):
        return
    for level in np.unique(levels[upper]).tolist():
        sub, _, pending, rows, nbrs = level_slots(
            colors, levels, slots, active, level, np
        )
        iteration = plan.descent_iteration(level)
        q = iteration.q
        coeffs = batch_poly_coeffs(colors[sub] - offsets[level], iteration.degree, q)
        x, value, count = point_scan(coeffs, q, q, pending, rows, nbrs)
        if bool(count.any()):
            ctx.replay()
        new[sub[pending]] = offsets[level - 1] + x[pending] * q + value[pending]


class ColorBatchOps:
    """Batch protocol mixin for algorithms whose RAM is one global color.

    Concrete classes provide ``transition_batch_colors(colors, ctx)``; this
    mixin supplies the encode/decode/payload plumbing the batch engine uses.
    Assumes ``visible`` is the identity (true for every algorithm here).
    """

    batch_transitions = True

    def batch_encode(self, raws, np):
        """Columns for a RAM list: ``((values,), noncanon)`` or None (exotic)."""
        values = np.empty(len(raws), dtype=np.int64)
        noncanon = {}
        for i, raw in enumerate(raws):
            if isinstance(raw, bool):
                values[i] = int(raw)
                noncanon[i] = raw
            elif isinstance(raw, int):
                if not -_CANON_MAX < raw < _CANON_MAX:
                    return None
                values[i] = raw
            else:
                values[i] = SENTINEL
                noncanon[i] = raw
        return (values,), noncanon

    def batch_encode_one(self, raw):
        """Column values for one RAM: ``(cols, canonical)`` or None (exotic)."""
        if isinstance(raw, bool):
            return (int(raw),), False
        if isinstance(raw, int):
            if not -_CANON_MAX < raw < _CANON_MAX:
                return None
            return (raw,), True
        return (SENTINEL,), False

    def batch_decode(self, state):
        """The canonical (post-step) state as the scalar RAM list."""
        return state[0].tolist()

    def batch_payload_max(self, state, include, np):
        """Max broadcast payload bits over the included canonical vertices."""
        values = state[0][include]
        if values.size == 0:
            return 0
        return max(1, int(np.abs(values).max()).bit_length() + 1)

    def transition_batch(self, state, ctx):
        """One synchronous round: ``(new_state, changed_mask)``."""
        (colors,) = state
        new_colors = self.transition_batch_colors(colors, ctx)
        return (new_colors,), colors != new_colors
