"""Linial's algorithm as a locally-iterative stage, and its one point scan.

Every Linial-style step of the paper encodes a color as a polynomial over
GF(q) and has the vertex pick the first evaluation point that its
neighbors' polynomials do not share.  The scan is written once per tier:

* :func:`scalar_point_scan` — one vertex; :func:`linial_next_color` (the
  proper step, which must find a point no neighbor shares) and
  ``repro.defective.vertex.defective_linial_next_color`` (the tolerant
  step, which takes the point with the fewest collisions) read it;
* :func:`point_scan` — all rows of one coefficient matrix at once, with
  three callers: :func:`linial_round_batch` (the proper and tolerant
  rounds of :class:`LinialColoring` and ``DefectiveLinialColoring``), and
  the self-stabilizing Mod-Linial descent and Excl-Linial landing of
  Section 4 (``repro.selfstab.kernels.apply_upper_descent`` and
  ``IntervalDescentColoring._batch_land``).

:class:`LinialColoring` is the static ``log* n + O(1)``-round stage of
Corollary 3.6's pipeline.
"""

from repro.linial.plan import linial_plan
from repro.mathutil.gf import (
    batch_eval_point,
    batch_poly_coeffs,
    eval_poly_mod,
    int_to_poly_coeffs,
)
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = [
    "linial_next_color",
    "linial_round_batch",
    "point_scan",
    "scalar_point_scan",
    "LinialColoring",
]


def point_scan(coeffs, q, points, pending, rows, nbrs, forbidden=None):
    """The Linial point scan over every row of one coefficient matrix.

    ``coeffs`` holds one degree-``d`` polynomial over GF(q) per row (see
    :func:`~repro.mathutil.gf.batch_poly_coeffs`), and slot ``i`` makes row
    ``nbrs[i]`` a neighbor of row ``rows[i]``.  Each ``pending`` row scans
    the points ``x = 0, ..., points - 1`` and counts its slots whose
    neighbor polynomial agrees with its own at ``x``, plus one where
    ``forbidden(x, column, pending)`` (an optional hook returning a per-row
    mask; ``column`` holds each pending row's value at ``x``) rules the
    point out.  A row keeps the first point with the fewest such collisions
    and stops at its first point with none; only the slots of rows still
    pending are read at the next point.

    Evaluation is one Horner column per point, never a ``(rows x points)``
    block, over a matrix that shrinks with the pending rows: once their
    slots are fewer than its rows, it keeps only the rows the next point
    reads, the pending rows and the rows their slots name.  Results and
    the hook stay in the caller's row numbering (only a hook pays for a
    full-length column), and ``coeffs``, ``rows`` and ``nbrs`` are only
    read.

    Returns int64 arrays ``(x, value, count)``: the point, the row's value
    there and its collision count.  Rows that were never pending read
    ``(0, 0, 0)``, so ``count.any()`` is true exactly when some pending row
    found no collision-free point.
    """
    from repro.runtime.csr import numpy_or_none

    np = numpy_or_none()
    size = coeffs.shape[0]
    best_x = np.zeros(size, dtype=np.int64)
    best_value = np.zeros(size, dtype=np.int64)
    best_count = np.where(pending, np.iinfo(np.int64).max, 0)
    # live[i] is the caller's row of matrix row i.
    live = np.arange(size)
    for x in range(points):
        column = batch_eval_point(coeffs, x, q)
        count = np.bincount(rows[column[nbrs] == column[rows]], minlength=len(live))
        if forbidden is not None:
            full = np.zeros(size, dtype=np.int64)
            full[live] = column
            count += forbidden(x, full, best_count > 0)[live]
        # A row that is not pending holds count 0, so it never improves.
        held = best_count[live]
        better = count < held
        target = live[better]
        best_x[target] = x
        best_value[target] = column[better]
        best_count[target] = count[better]
        pending = np.minimum(count, held) > 0
        if not bool(pending.any()):
            break
        keep = pending[rows]
        rows, nbrs = rows[keep], nbrs[keep]
        if len(rows) < len(live):
            read = pending.copy()
            read[nbrs] = True
            index = np.cumsum(read) - 1
            rows, nbrs = index[rows], index[nbrs]
            kept = np.flatnonzero(read)
            coeffs = np.take(coeffs, kept, axis=0)
            live = live[kept]
    return best_x, best_value, best_count


def linial_round_batch(stage, round_index, colors, csr, visibility, q, degree,
                       tolerant=False):
    """One Linial iteration over all vertices: the new int64 color array.

    The batch body of :class:`LinialColoring`'s rounds and both kinds of
    ``DefectiveLinialColoring`` round.  A proper round (``tolerant=False``)
    gives every vertex the first point no distinctly-colored neighbor
    shares; a tolerant round takes the point with the fewest collisions,
    counted once per distinct neighbor color as the scalar rule counts
    them, so LOCAL and SET-LOCAL agree.  ``stage`` is only used to replay
    the round through its scalar ``step`` when the scalar path would raise
    (an input color outside the field, or a proper round with no
    conflict-free point), so the batch tier raises the same error.
    """
    from repro.runtime.csr import numpy_or_none

    np = numpy_or_none()
    limit = q ** (degree + 1)
    out_of_field = colors < 0
    if limit < (1 << 62):
        out_of_field |= colors >= limit
    if bool(out_of_field.any()):
        _raise_like_scalar(stage, round_index, colors, csr, visibility)
    gathered = csr.gather(colors)
    sel = gathered != csr.owner_values(colors)
    if tolerant:
        sel &= csr.distinct_slot_mask(colors)
    # A proper input keeps every slot: the scan reads the view's own arrays.
    rows, nbrs = csr.rows, csr.indices
    if not bool(sel.all()):
        rows, nbrs = rows[sel], nbrs[sel]
    del gathered, sel  # free the per-slot temporaries before the scan
    x, value, count = point_scan(
        batch_poly_coeffs(colors, degree, q),
        q,
        q,
        np.ones(csr.n, dtype=bool),
        rows,
        nbrs,
    )
    if not tolerant and bool(count.any()):
        _raise_like_scalar(stage, round_index, colors, csr, visibility)
    return x * q + value


def _raise_like_scalar(stage, round_index, colors, csr, visibility):
    """Replay the round through the scalar step to raise its exact error."""
    from repro.runtime.fast_engine import scalar_replay_round

    scalar_replay_round(stage, round_index, colors.tolist(), csr, visibility)
    raise AssertionError(
        "batch Linial kernel rejected a round the scalar step accepts"
    )


def scalar_point_scan(color, neighbor_colors, q, degree):
    """The Linial point scan of one vertex: ``(x, value, count, others)``.

    Encodes ``color`` and every distinct neighbor color other than it as
    degree-``degree`` polynomials ``g`` and ``g_u`` over GF(q) and returns
    the first point ``x`` with the fewest neighbor polynomials agreeing
    with ``g``, stopping at the first point with none: ``value`` is
    ``g(x)``, ``count`` the agreements there and ``others`` the number of
    neighbor polynomials.  Raises :class:`ValueError` for a color outside
    ``[0, q^(degree + 1))``.
    """
    mine = int_to_poly_coeffs(color, degree, q)
    others = [
        int_to_poly_coeffs(c, degree, q) for c in set(neighbor_colors) if c != color
    ]
    best = None
    for x in range(q):
        value = eval_poly_mod(mine, x, q)
        count = sum(1 for other in others if eval_poly_mod(other, x, q) == value)
        if best is None or count < best[2]:
            best = (x, value, count)
            if not count:
                break
    return best + (len(others),)


def linial_next_color(color, neighbor_colors, q, degree):
    """One Linial iteration for a single vertex.

    Encodes ``color`` as a degree-``degree`` polynomial ``g`` over GF(q) and
    returns the new color ``x * q + g(x)`` for the smallest evaluation point
    ``x`` where ``g`` differs from every neighbor's polynomial.

    Existence: each of the ``<= Delta`` neighbor polynomials agrees with ``g``
    on at most ``degree`` points, so ``q >= degree * Delta + 1`` always
    leaves a valid ``x``.  Raises :class:`ValueError` when the caller
    under-sized the field.
    """
    x, value, count, others = scalar_point_scan(color, neighbor_colors, q, degree)
    if count:
        raise ValueError(
            "no conflict-free point in GF(%d) for degree %d with %d neighbors"
            % (q, degree, others)
        )
    return x * q + value


class LinialColoring(LocallyIterativeColoring):
    """``m`` colors (e.g. IDs) to ``O(Delta^2)`` colors in ``log* m + O(1)`` rounds.

    Round ``i`` applies the planned iteration ``(q_i, d_i)``; the plan is a
    pure function of ``(m, Delta)``, so every vertex derives it locally from
    ROM data.  Works in SET-LOCAL: the rule uses only the set of neighbor
    colors.
    """

    name = "linial"
    maintains_proper = True
    uniform_step = False

    def __init__(self):
        super().__init__()
        self.plan = None

    def configure(self, info):
        super().configure(info)
        self.plan = linial_plan(info.in_palette_size, info.max_degree)

    @property
    def out_palette_size(self):
        self._require_configured()
        if not self.plan:
            return self.info.in_palette_size
        return self.plan[-1].out_palette

    @property
    def rounds_bound(self):
        self._require_configured()
        return len(self.plan)

    def step(self, round_index, color, neighbor_colors):
        if round_index >= len(self.plan):
            return color
        iteration = self.plan[round_index]
        return linial_next_color(
            color, neighbor_colors, iteration.q, iteration.degree
        )

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: the current color as a single int64 array.  Each round encodes
    # all n colors as one base-q coefficient matrix and runs point_scan over
    # the slots of distinctly-colored neighbors: each vertex takes the first
    # point that no neighbor shares.  The conflict test is pure existence,
    # so the kernel is identical in LOCAL and SET-LOCAL.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial`` (identity, like the scalar path)."""
        return (initial,)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: one planned Linial iteration for all vertices."""
        (colors,) = state
        if round_index >= len(self.plan):
            return state
        iteration = self.plan[round_index]
        new_colors = linial_round_batch(
            self, round_index, colors, csr, visibility, iteration.q, iteration.degree
        )
        return (new_colors,)

    def batch_is_final(self, state):
        """Vectorized ``is_final`` (never final, like the scalar path)."""
        from repro.runtime.csr import numpy_or_none

        np = numpy_or_none()
        return np.zeros(state[0].shape[0], dtype=bool)

    def batch_decode_final(self, state):
        """Vectorized ``decode_final`` (identity, like the scalar path)."""
        return state[0]

    def batch_to_scalar(self, state):
        """The state as the scalar engine's plain-int color list."""
        return state[0].tolist()
