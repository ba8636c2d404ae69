"""The Additive-Group (AG) coloring algorithm — Section 3 of the paper.

Given a proper ``k``-coloring with ``k = Theta(Delta^2)``, pick a prime ``q``
with ``q >= sqrt(k)`` and ``q > 2 * Delta`` and write every color ``i`` as the
pair ``<a, b> = <i // q, i mod q>`` over ``Z_q``.  Every round, every vertex
in parallel applies one uniform rule:

* if some neighbor shares the vertex's second coordinate ``b`` (a *conflict*,
  Definition 3.1), rotate: ``<a, (b + a) mod q>``;
* otherwise *finalize*: ``<0, b>``.

Because ``q`` is prime, two working neighbors' second coordinates drift apart
at rate ``(a - a') != 0`` and can coincide at most once per ``q`` rounds
(Lemma 3.3); a working vertex passes a finalized neighbor's fixed ``b`` at
most once per ``q`` rounds (Lemma 3.4).  So each neighbor blocks at most two
of the first ``q > 2 * Delta`` rounds and every vertex finds a conflict-free
round and finalizes within ``q`` rounds (Corollary 3.5).  The coloring is
proper after every round (Lemma 3.2) — the locally-iterative contract.

The rule never inspects the round number, neighbor identities, or
multiplicities: it runs unchanged in the SET-LOCAL model and is the engine of
the self-stabilizing algorithms in Section 4.  After the first color
exchange, a single bit per neighbor per round ("final" vs "rotated") keeps
neighbor color views synchronized, which is what the CONGEST/Bit-Round edge
coloring of Section 5 exploits; :meth:`message_bits` reflects that.
"""

import math

from repro.mathutil.primes import next_prime_at_least
from repro.runtime.algorithm import LocallyIterativeColoring

__all__ = ["AdditiveGroupColoring", "ag_prime_for"]


def ag_prime_for(in_palette_size, max_degree, epsilon=None):
    """Return the AG modulus: the smallest prime ``q`` with ``q^2 >= k`` and
    ``q >= 2 * Delta + 1``.

    With ``k = Theta(Delta^2)`` this lands in ``[sqrt(k), 2 * sqrt(k)]`` as in
    Section 3 (Bertrand's postulate); for smaller ``k`` the ``2 * Delta + 1``
    floor keeps Lemmas 3.3/3.4 valid.

    With ``epsilon`` set (Corollary 7.3's tradeoff), the degree floor relaxes
    to ``(1 + epsilon) * Delta``: a smaller output palette, paid for with
    ``1 + ceil(1/epsilon)`` convergence phases of ``q`` rounds each.
    """
    if epsilon is None:
        degree_floor = 2 * max_degree + 1
    else:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        degree_floor = int(math.ceil((1 + epsilon) * max_degree)) + 1
    floor = max(
        math.isqrt(max(0, in_palette_size - 1)) + 1,
        degree_floor,
        2,
    )
    return next_prime_at_least(floor)


class AdditiveGroupColoring(LocallyIterativeColoring):
    """One uniform locally-iterative step: rotate on conflict, else finalize.

    Input: proper coloring with ``k <= q^2`` colors.  Output: proper
    ``q``-coloring, ``q = O(sqrt(k) + Delta)``, within ``q`` rounds.

    Internal colors are pairs ``(a, b)`` with ``0 <= a, b < q``; a color is
    final once ``a == 0``.

    ``epsilon`` enables the Corollary 7.3 tradeoff: the modulus floor drops
    from ``2 * Delta + 1`` to ``(1 + epsilon) * Delta``, shrinking the output
    palette, while convergence takes ``1 + ceil(1/epsilon_eff)`` phases of
    ``q`` rounds (a vertex failing to finalize in a phase must have had
    ``>= (q - Delta)`` neighbors finalize during it; finalized neighbors
    block at most one round of each later phase).
    """

    name = "additive-group"
    maintains_proper = True
    uniform_step = True

    def __init__(self, epsilon=None):
        super().__init__()
        self.epsilon = epsilon
        self.q = None

    def configure(self, info):
        super().configure(info)
        self.q = ag_prime_for(info.in_palette_size, info.max_degree, self.epsilon)

    @property
    def effective_epsilon(self):
        """The realized slack ``q / Delta - 1`` (>= the requested epsilon)."""
        self._require_configured()
        delta = max(1, self.info.max_degree)
        return self.q / delta - 1

    @property
    def out_palette_size(self):
        self._require_configured()
        return self.q

    @property
    def rounds_bound(self):
        """Corollary 3.5 (``q`` rounds) or 7.3 (``O(q / epsilon)`` rounds)."""
        self._require_configured()
        if self.epsilon is None or self.q >= 2 * self.info.max_degree + 1:
            return self.q
        phases = 1 + math.ceil(1.0 / max(1e-9, self.effective_epsilon))
        return phases * self.q

    def encode_initial(self, color):
        self._require_configured()
        if not (0 <= color < self.q * self.q):
            raise ValueError(
                "input color %d does not fit in q^2 = %d" % (color, self.q * self.q)
            )
        return (color // self.q, color % self.q)

    def step(self, round_index, color, neighbor_colors):
        a, b = color
        conflict = any(nb == b for _, nb in neighbor_colors)
        if conflict:
            return (a, (b + a) % self.q)
        return (0, b)

    def is_final(self, color):
        return color[0] == 0

    def decode_final(self, color):
        a, b = color
        if a != 0:
            raise ValueError("vertex still in working stage: %r" % (color,))
        return b

    def message_bits(self, round_index):
        """Full color once, then the 1-bit final/rotated indicator.

        Section 3: "it is enough to send only one bit indicating whether its
        color became final or that it changed according to the rule".
        """
        if round_index == 0:
            return super().message_bits(round_index)
        return 1

    # -- batch protocol (see repro.runtime.fast_engine) -------------------------
    #
    # State: (a, b) as two int64 arrays.  The conflict test is pure existence
    # over the neighborhood, so the kernel is identical in LOCAL and
    # SET-LOCAL (multiplicities never matter).  A final vertex (a == 0, b in
    # [0, q) as encoded) is a fixed point of the rule, so a round reads only
    # the working vertices' CSR slots.

    def batch_encode_initial(self, initial):
        """Vectorized ``encode_initial``: int64 input colors to the state arrays."""
        self._require_configured()
        q = self.q
        bad = (initial < 0) | (initial >= q * q)
        if bool(bad.any()):
            first = int(initial[int(bad.argmax())])
            raise ValueError(
                "input color %d does not fit in q^2 = %d" % (first, q * q)
            )
        return (initial // q, initial % q)

    def step_batch(self, round_index, state, csr, visibility):
        """Vectorized ``step``: advance the working vertices one round."""
        import numpy as np

        a, b = state
        working = np.flatnonzero(a)
        slots, owner = csr.subset_slots(working)
        work_a, work_b = a[working], b[working]
        hit = b[csr.indices[slots]] == work_b[owner]
        conflict = np.bincount(owner[hit], minlength=working.shape[0]) > 0
        new_a, new_b = a.copy(), b.copy()
        new_a[working] = np.where(conflict, work_a, 0)
        new_b[working] = np.where(conflict, (work_b + work_a) % self.q, work_b)
        return (new_a, new_b)

    def batch_is_final(self, state):
        """Vectorized ``is_final``: boolean finality mask over the state."""
        return state[0] == 0

    def batch_decode_final(self, state):
        """Vectorized ``decode_final``: decoded color array (scalar errors kept)."""
        a, b = state
        working = a != 0
        if bool(working.any()):
            v = int(working.argmax())
            raise ValueError(
                "vertex still in working stage: %r" % ((int(a[v]), int(b[v])),)
            )
        return b
