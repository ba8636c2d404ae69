"""p-defective ``O((Delta/p)^2)``-coloring in ``log* n + O(1)`` rounds.

Section 6 starts ArbAG from a ``p``-defective ``O((Delta/p)^2)``-coloring
computed by the algorithm of Barenboim–Elkin–Kuhn [9].  We reproduce that
guarantee with the same machinery as our Linial stage: a proper Linial
cascade down to ``O(Delta^2)`` colors, followed by O(1) *tolerant* Linial
steps.  A tolerant step encodes colors as degree-2 polynomials over GF(q) and
each vertex picks the evaluation point with the *fewest* collisions with its
distinctly-colored neighbors; by pigeonhole some point has at most
``floor(2 * Delta / q)`` collisions, so a step with ``q = Theta(Delta / p)``
adds at most ``O(p)`` defect while squaring down the palette towards
``O((Delta/p)^2)``.

:class:`DefectiveLinialColoring` is a :class:`~repro.linial.core.LinialColoring`
with a tolerant tail: its proper rounds are the Linial stage's, and both
kinds of round read the Linial point scan (one vertex:
:func:`~repro.linial.core.scalar_point_scan`; all rows:
:func:`~repro.linial.core.linial_round_batch` with ``tolerant=True``).

Already-equal neighbors stay tolerated (they may or may not separate later);
the accumulated defect is the sum of the per-step pigeonhole bounds, exposed
as :attr:`DefectiveLinialColoring.defect_bound` and asserted in tests.
"""

from repro.linial.core import LinialColoring, linial_round_batch, scalar_point_scan
from repro.linial.plan import integer_root_ceiling
from repro.mathutil.primes import next_prime_at_least

__all__ = ["DefectiveLinialColoring", "defective_linial_next_color"]

_TOLERANT_DEGREE = 2


def defective_linial_next_color(color, neighbor_colors, q, degree):
    """One tolerant Linial step: the point with the fewest collisions.

    Returns ``x * q + g(x)`` for the ``x`` minimizing the number of
    distinctly-colored neighbors whose polynomial agrees with ours at ``x``
    (ties broken towards smaller ``x``).
    """
    x, value, _, _ = scalar_point_scan(color, neighbor_colors, q, degree)
    return x * q + value


class DefectiveLinialColoring(LinialColoring):
    """``m`` colors to a ``O(p)``-defective ``O((Delta/p)^2)``-coloring.

    Rounds ``0 .. len(plan) - 1`` are the proper Linial rounds of
    :class:`~repro.linial.core.LinialColoring`; the tolerant rounds over
    ``tolerant_qs`` follow, and past them the step is the identity.

    Parameters
    ----------
    tolerance:
        The defect parameter ``p`` (``1 <= p``).  ``p = 1`` degenerates to an
        essentially-proper Linial run; ``p = sqrt(Delta)`` is the setting of
        Section 6's headline result.
    """

    name = "defective-linial"
    maintains_proper = False

    def __init__(self, tolerance):
        super().__init__()
        if tolerance < 1:
            raise ValueError("tolerance must be >= 1")
        self.tolerance = tolerance
        self.tolerant_qs = None
        self.defect_bound = None

    @property
    def proper_plan(self):
        """The proper Linial rounds (the inherited ``plan``)."""
        return self.plan

    def configure(self, info):
        super().configure(info)
        delta = info.max_degree
        # Target palette: (smallest prime >= 2 * ceil(Delta/p) + 2) squared,
        # which is what ArbAG wants to see as its input space.
        r = -(-delta // self.tolerance) if delta else 0
        target_q = next_prime_at_least(max(2 * r + 2, 2))
        target = target_q * target_q
        qs = []
        bound = 0
        m = super().out_palette_size
        while m > target:
            q = next_prime_at_least(
                max(integer_root_ceiling(m, _TOLERANT_DEGREE + 1), target_q)
            )
            if q * q >= m:
                break
            qs.append(q)
            bound += (_TOLERANT_DEGREE * delta) // q
            m = q * q
        self.tolerant_qs = qs
        self.defect_bound = bound
        self._final_palette = m

    @property
    def out_palette_size(self):
        self._require_configured()
        return self._final_palette

    @property
    def rounds_bound(self):
        self._require_configured()
        return len(self.plan) + len(self.tolerant_qs)

    @property
    def uniform_after(self):
        """Past the schedule the step is the identity — a uniform tail.

        Both engines use this for the fixed-point early exit (the same break
        the ``uniform_step`` stages get): once a round at or past this index
        changes nothing, no later round can.  Callers that run this stage
        with a generous ``max_rounds`` no longer re-enter the per-neighbor
        scan of :func:`defective_linial_next_color` on every tail round.
        """
        return self.rounds_bound

    def _tolerant_q(self, round_index):
        """The field of a tolerant round, or None for a Linial round or the tail."""
        index = round_index - len(self.plan)
        return self.tolerant_qs[index] if 0 <= index < len(self.tolerant_qs) else None

    def step(self, round_index, color, neighbor_colors):
        q = self._tolerant_q(round_index)
        if q is None:
            return super().step(round_index, color, neighbor_colors)
        return defective_linial_next_color(
            color, neighbor_colors, q, _TOLERANT_DEGREE
        )

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: planned Linial round or tolerant repick."""
        q = self._tolerant_q(round_index)
        if q is None:
            return super().step_batch(round_index, state, csr, visibility)
        (colors,) = state
        new_colors = linial_round_batch(
            self, round_index, colors, csr, visibility, q, _TOLERANT_DEGREE,
            tolerant=True,
        )
        return (new_colors,)
