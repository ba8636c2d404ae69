"""Randomized baselines, and why the paper insists on determinism.

The classical randomized symmetry breakers converge in ``O(log n)`` rounds
with high probability:

* :func:`luby_mis` — Luby's MIS: every round, undecided vertices draw a
  random priority; local maxima join, neighbors of joiners leave.
* :func:`random_trial_coloring` — trial coloring: every round, uncolored
  vertices propose a uniformly random color from their free palette and keep
  it if no neighbor proposed the same.

Both are *incomparable* to the paper's deterministic ``f(Delta) + log* n``
bounds (faster for huge Delta, slower for small), and — the paper's §1.2.1
point — they are fragile in the self-stabilizing setting: random bits must
live somewhere, and if the generator state sits in fault-prone RAM, "this
prevents the possibility that adversarial faults will manipulate random bits
of the algorithm" fails.  :class:`RandomTrialSelfStabColoring` makes that
executable: its PRNG state is RAM, and a single fault that clones one
vertex's ``(color, rng_state)`` onto a neighbor creates two vertices that
flip *identical* coins forever — a permanent symmetric deadlock that no
amount of fault-free time repairs.  The paper's deterministic algorithms
break the same symmetry instantly through their ROM-resident IDs.
"""

import random

from repro.runtime.backends import choose_tier
from repro.runtime.csr import numpy_or_none
from repro.selfstab.engine import SelfStabAlgorithm

__all__ = ["luby_mis", "random_trial_coloring", "RandomTrialSelfStabColoring"]


def luby_mis(graph, seed, max_rounds=None, backend="auto"):
    """Luby's randomized MIS; returns ``(members, rounds)``.

    Priorities are drawn in ascending vertex order over the undecided set, so
    the run is a pure function of ``(graph, seed)`` — the same property that
    lets the vectorized path replay the exact draw sequence, so every
    ``backend`` (``auto``/``batch``/``reference``) returns the same result.
    """
    tier = choose_tier(backend, graph)
    rng = random.Random(seed)
    cap = max_rounds or (8 * max(1, graph.n).bit_length() + 40)
    if tier == "batch":
        return _luby_mis_batch(numpy_or_none(), graph, rng, cap)
    undecided = set(graph.vertices())
    members = set()
    rounds = 0
    while undecided and rounds < cap:
        priority = {v: rng.random() for v in sorted(undecided)}
        joiners = {
            v
            for v in undecided
            if all(
                u not in undecided or priority[v] > priority[u]
                for u in graph.neighbors(v)
            )
        }
        members.update(joiners)
        removed = set(joiners)
        for v in joiners:
            removed.update(u for u in graph.neighbors(v) if u in undecided)
        undecided.difference_update(removed)
        rounds += 1
    if undecided:
        raise RuntimeError("Luby did not converge within %d rounds" % cap)
    return members, rounds


def _luby_mis_batch(np, graph, rng, cap):
    """Array rounds with the reference path's exact PRNG consumption."""
    csr = graph.csr()
    n = csr.n
    undecided = np.ones(n, dtype=bool)
    member = np.zeros(n, dtype=bool)
    priority = np.empty(n, dtype=np.float64)
    rounds = 0
    while bool(undecided.any()) and rounds < cap:
        order = np.nonzero(undecided)[0]
        # One rng.random() per undecided vertex, ascending — the reference
        # path's sorted(undecided) comprehension draws identically.
        priority[order] = [rng.random() for _ in range(order.size)]
        own = priority[csr.rows]
        nbr = priority[csr.indices]
        blocked = csr.any_per_vertex(
            undecided[csr.indices] & (own <= nbr)
        )
        joiner = undecided & ~blocked
        member |= joiner
        removed = joiner | (undecided & csr.any_per_vertex(joiner[csr.indices]))
        undecided &= ~removed
        rounds += 1
    if bool(undecided.any()):
        raise RuntimeError("Luby did not converge within %d rounds" % cap)
    return set(np.nonzero(member)[0].tolist()), rounds


def random_trial_coloring(graph, seed, palette=None, max_rounds=None, backend="auto"):
    """Randomized trial (Delta+1)-coloring; returns ``(colors, rounds)``.

    Both tiers consume the seeded PRNG in the identical call sequence, so
    every ``backend`` (``auto``/``batch``/``reference``) returns the same
    result.
    """
    tier = choose_tier(backend, graph)
    rng = random.Random(seed)
    if palette is None:
        palette = graph.max_degree + 1
    cap = max_rounds or (8 * max(1, graph.n).bit_length() + 40)
    if tier == "batch":
        return _random_trial_batch(numpy_or_none(), graph, rng, palette, cap)
    colors = [None] * graph.n
    rounds = 0
    while any(c is None for c in colors) and rounds < cap:
        proposals = {}
        for v in graph.vertices():
            if colors[v] is not None:
                continue
            taken = {colors[u] for u in graph.neighbors(v) if colors[u] is not None}
            free = [c for c in range(palette) if c not in taken]
            proposals[v] = rng.choice(free)
        for v, proposal in proposals.items():
            clash = any(
                proposals.get(u) == proposal or colors[u] == proposal
                for u in graph.neighbors(v)
            )
            if not clash:
                colors[v] = proposal
        rounds += 1
    if any(c is None for c in colors):
        raise RuntimeError("trial coloring did not converge within %d rounds" % cap)
    return colors, rounds


def _uniform_randbelow(np, rng, count, bound):
    """``count`` draws of ``rng._randbelow(bound)`` as one array op.

    CPython's ``_randbelow`` reads ``bound.bit_length()``-wide slices off the
    Mersenne-Twister word stream and rejection-samples; NumPy's
    ``RandomState`` runs the *same* MT19937 core, so mirroring the state
    reproduces the raw word stream exactly.  With one shared ``bound`` the
    word-to-draw assignment is alignment-free — the ``i``-th accepted word
    is the ``i``-th draw — and the Python generator is advanced by exactly
    the number of words consumed, keeping later draws in sequence.
    """
    bits = bound.bit_length()
    version, internal, gauss = rng.getstate()
    key = np.asarray(internal[:-1], dtype=np.uint32)
    shift = np.uint32(32 - bits)
    need = (count * (1 << bits)) // max(1, bound) + 64
    mirror = np.random.RandomState()
    while True:
        mirror.set_state(("MT19937", key, internal[-1], 0, 0.0))
        values = (
            mirror.randint(0, 2 ** 32, size=need, dtype=np.uint32) >> shift
        ).astype(np.int64)
        accepted = np.nonzero(values < bound)[0]
        if accepted.size >= count:
            break
        need *= 2
    consumed = int(accepted[count - 1]) + 1
    mirror.set_state(("MT19937", key, internal[-1], 0, 0.0))
    mirror.randint(0, 2 ** 32, size=consumed, dtype=np.uint32)
    state = mirror.get_state()
    rng.setstate(
        (version, tuple(int(x) for x in state[1]) + (int(state[2]),), gauss)
    )
    return values[accepted[:count]]


def _random_trial_batch(np, graph, rng, palette, cap):
    """Array rounds; ``rng.randrange(k)`` consumes exactly like ``rng.choice``
    of a ``k``-element free list (both are one ``_randbelow(k)`` call), so the
    draw sequence — and therefore every proposal — matches the reference."""
    csr = graph.csr()
    n = csr.n
    colors = np.full(n, -1, dtype=np.int64)
    proposal_of = np.full(n, -2, dtype=np.int64)  # -2: no proposal this round
    rounds = 0
    while bool((colors < 0).any()) and rounds < cap:
        uncolored = colors < 0
        actors = np.nonzero(uncolored)[0]  # ascending = graph.vertices() order
        count = actors.size
        compact = np.cumsum(uncolored) - 1
        sel = uncolored[csr.rows]
        nbrs = csr.indices[sel]
        owner = compact[csr.rows[sel]]
        if bool((~uncolored).any()):
            occupied = np.zeros((count, palette), dtype=bool)
            nbr_color = colors[nbrs]
            seen = nbr_color >= 0
            occupied[owner[seen], nbr_color[seen]] = True
            free_count = palette - occupied.sum(axis=1)
        else:
            # Nobody is colored yet (always true in round one): every free
            # list is the full palette, no occupancy matrix needed.
            occupied = None
            free_count = None
        if occupied is None:
            proposal = _uniform_randbelow(np, rng, count, palette)
        else:
            low = int(free_count.min())
            if low == int(free_count.max()) and low > 0:
                picks = _uniform_randbelow(np, rng, count, low)
            else:
                randbelow = rng._randbelow
                pick_list = []
                for k in free_count.tolist():
                    if k == 0:
                        rng.choice([])  # the reference path's exact IndexError
                    pick_list.append(randbelow(k))
                picks = np.asarray(pick_list, dtype=np.int64)
            # The pick indexes the sorted free list; translate to the color.
            free_rank = np.cumsum(~occupied, axis=1)
            hit = ~occupied & (free_rank == (picks + 1)[:, None])
            proposal = np.argmax(hit, axis=1)
        proposal_of[:] = -2
        proposal_of[actors] = proposal
        own = proposal_of[csr.rows[sel]]
        clash_slots = (proposal_of[nbrs] == own) | (colors[nbrs] == own)
        accept = np.bincount(owner[clash_slots], minlength=count) == 0
        colors[actors[accept]] = proposal[accept]
        rounds += 1
    if bool((colors < 0).any()):
        raise RuntimeError("trial coloring did not converge within %d rounds" % cap)
    return colors.tolist(), rounds


class RandomTrialSelfStabColoring(SelfStabAlgorithm):
    """Self-stabilizing trial coloring whose PRNG state lives in RAM.

    RAM: ``(color, rng_counter, rng_salt)``.  A vertex in conflict re-draws
    a free color pseudo-randomly from ``hash((salt, counter, color))`` and
    increments the counter — note the draw deliberately involves *no ROM
    identity*: all its entropy (the salt) is fault-prone RAM, exactly the
    design the paper warns about.  With distinct salts the algorithm
    converges quickly (coin flips are independent); but one fault that
    clones a vertex's RAM onto a neighbor makes the pair flip *identical*
    coins forever — a permanent symmetric deadlock no amount of fault-free
    time repairs.
    """

    name = "selfstab-random-trial"

    def __init__(self, n_bound, delta_bound):
        super().__init__(n_bound, delta_bound)
        self.palette = delta_bound + 1

    def fresh_ram(self, vertex):
        return (0, 0, vertex)  # color, rng counter, rng salt (RAM entropy)

    def visible(self, vertex, ram):
        return ram

    @staticmethod
    def _sanitize(ram):
        if (
            isinstance(ram, tuple)
            and len(ram) == 3
            and all(isinstance(field, int) for field in ram)
        ):
            return ram
        return (0, 0, 0)

    def transition(self, vertex, ram, neighbor_visibles):
        color, counter, salt = self._sanitize(ram)
        color %= self.palette
        neighbor_colors = {
            self._sanitize(nv)[0] % self.palette for nv in neighbor_visibles
        }
        if color not in neighbor_colors:
            return (color, counter, salt)
        # Conflicted: flip a RAM-seeded coin whether to act, then re-draw a
        # free color from RAM-resident randomness only.  (hash of an int
        # tuple is deterministic across processes.)
        rng = random.Random(hash((salt, counter, color)))
        if rng.random() < 0.5:
            return (color, counter + 1, salt)  # stand still this round
        free = [c for c in range(self.palette) if c not in neighbor_colors]
        draw = free[rng.randrange(len(free))]
        return (draw, counter + 1, salt)

    def is_legal(self, graph, rams):
        for v in graph.vertices():
            color = self._sanitize(rams.get(v))[0] % self.palette
            for u in graph.neighbors(v):
                if self._sanitize(rams[u])[0] % self.palette == color:
                    return False
        return True

    def final_colors(self, graph, rams):
        """Colors in ``[0, Delta]`` extracted from the RAM states."""
        return {
            v: self._sanitize(rams[v])[0] % self.palette for v in graph.vertices()
        }
