"""Unit tests for the extended hybrid core of SelfStabExactColoring.

The landing tests run for both colorings: SelfStabColoring lands into its
AG core through the same Excl-Linial landing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selfstab.coloring import SelfStabColoring
from repro.selfstab.exact import SelfStabExactColoring


def make_algorithm(delta=5, n=60):
    return SelfStabExactColoring(n, delta)


def both_colorings(delta=5, n=60):
    return [SelfStabColoring(n, delta), make_algorithm(delta=delta, n=n)]


def all_core_states(algorithm):
    n, p = algorithm.n_colors, algorithm.p
    states = [("L", 0, a) for a in range(n)]
    states += [("L", 1, a) for a in range(n)]
    states += [("H", b, a) for b in range(1, p) for a in range(p)]
    return states


class TestEncoding:
    def test_encode_decode_bijection_over_entire_core(self):
        algorithm = make_algorithm()
        seen = set()
        for state in all_core_states(algorithm):
            local = algorithm._encode_core(state)
            assert 0 <= local < algorithm.plan.core_size
            assert local not in seen
            seen.add(local)
            assert algorithm._decode_core(local) == state
        assert len(seen) == algorithm.plan.core_size

    def test_low_states_occupy_bottom_range(self):
        algorithm = make_algorithm()
        n = algorithm.n_colors
        for a in range(n):
            assert algorithm._encode_core(("L", 0, a)) == a
            assert algorithm._encode_core(("L", 1, a)) == n + a


class TestCoreStep:
    def test_low_final_absorbing(self):
        algorithm = make_algorithm()
        state = ("L", 0, 2)
        nbrs = [("L", 1, 2), ("H", 3, 2), ("L", 0, 1)]
        assert algorithm._core_step(state, nbrs) == state

    def test_low_working_rotates_on_low_conflict(self):
        algorithm = make_algorithm()
        n = algorithm.n_colors
        out = algorithm._core_step(("L", 1, 2), [("L", 0, 2)])
        assert out == ("L", 1, 3 % n)

    def test_low_working_ignores_high(self):
        algorithm = make_algorithm()
        out = algorithm._core_step(("L", 1, 2), [("H", 3, 2)])
        assert out == ("L", 0, 2)

    def test_high_gated_by_low_working(self):
        algorithm = make_algorithm()
        p = algorithm.p
        out = algorithm._core_step(("H", 2, 1), [("L", 1, 4)])
        assert out == ("H", 2, (1 + 2) % p)

    def test_high_blocked_above_two_n_keeps_rotating(self):
        """The extended-hybrid guard: a >= 2N cannot land even if conflict-free."""
        algorithm = make_algorithm()
        n, p = algorithm.n_colors, algorithm.p
        a = 2 * n  # valid since p > 2N for the landing field
        out = algorithm._core_step(("H", 3, a), [])
        assert out == ("H", 3, (a + 3) % p)

    def test_high_lands_final_below_n(self):
        algorithm = make_algorithm()
        out = algorithm._core_step(("H", 3, 2), [])
        assert out == ("L", 0, 2)

    def test_high_lands_working_between_n_and_two_n(self):
        algorithm = make_algorithm()
        n = algorithm.n_colors
        out = algorithm._core_step(("H", 3, n + 2), [])
        assert out == ("L", 1, 2)

    def test_high_conflicts_with_low_final_same_a(self):
        algorithm = make_algorithm()
        p = algorithm.p
        out = algorithm._core_step(("H", 3, 2), [("L", 0, 2)])
        assert out == ("H", 3, (2 + 3) % p)

    def test_high_ignores_low_final_different_a(self):
        algorithm = make_algorithm()
        out = algorithm._core_step(("H", 3, 2), [("L", 0, 1)])
        assert out == ("L", 0, 2)


class TestStepOptionsContract:
    """S' correctness: the actual next state is always among the advertised
    options, for every state and any neighborhood."""

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_next_state_in_options(self, seed):
        rng = random.Random(seed)
        algorithm = make_algorithm(delta=rng.randint(1, 6))
        states = all_core_states(algorithm)
        state = rng.choice(states)
        neighborhood = [rng.choice(states) for _ in range(rng.randint(0, 6))]
        nxt = algorithm._core_step(state, neighborhood)
        options = algorithm._core_step_options(state)
        assert nxt in options

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_options_at_most_two(self, seed):
        rng = random.Random(seed)
        algorithm = make_algorithm(delta=rng.randint(1, 6))
        state = rng.choice(all_core_states(algorithm))
        assert 1 <= len(algorithm._core_step_options(state)) <= 2


class TestLanding:
    def test_arrivals_are_high_states(self):
        algorithm = make_algorithm()
        local = algorithm._land(5, [7, 9], [])
        state = algorithm._decode_core(local)
        assert state[0] == "H"
        assert 1 <= state[1] < algorithm.p

    def test_forbidden_high_slots_avoided(self):
        for algorithm in both_colorings():
            unrestricted = algorithm._land(5, [7], [])
            restricted = algorithm._land(5, [7], [unrestricted])
            assert restricted != unrestricted

    def test_landing_point_capacity(self):
        """With max forbidden load (2 per neighbor, Delta neighbors) a
        landing point still exists."""
        neighbors_lvl1 = list(range(1, 6))
        for algorithm in both_colorings(delta=5):
            # Worst case: the forbidden states block the vertex's own first
            # 2 * Delta landing candidates.
            forbidden = []
            for _ in range(2 * 5):
                forbidden.append(algorithm._land(0, neighbors_lvl1, forbidden))
            assert len(set(forbidden)) == 2 * 5
            assert algorithm._land(0, neighbors_lvl1, forbidden) not in forbidden
        algorithm = make_algorithm(delta=5)
        forbidden = []
        # Worst case: 2 * Delta distinct H-slots blocked.
        for b in range(1, 6):
            for a in (0, 1):
                forbidden.append(algorithm._encode_core(("H", b, a)))
        local = algorithm._land(0, neighbors_lvl1, forbidden)
        assert algorithm._decode_core(local)[0] == "H"

    def test_core_candidates_hold_every_next_state(self):
        """S' is complete for both cores: the next state of a core vertex is
        always among the candidates the landing avoids."""
        rng = random.Random(5)
        for algorithm in both_colorings():
            size = algorithm.plan.sizes[0]
            for _ in range(400):
                c = rng.randrange(size)
                nbrs = [rng.randrange(size) for _ in range(rng.randint(0, 5))]
                if rng.random() < 0.3:
                    nbrs.append(c)  # force the conflict branch
                assert algorithm._core_next(c, nbrs) in algorithm._core_candidates(c)

    def test_transition_avoids_core_neighbor_next_states(self):
        """A vertex leaving I_1 never lands on a state an I_0 neighbor takes
        next round (the set S'), whether that neighbor rotates or settles."""
        for algorithm in both_colorings():
            plan = algorithm.plan
            own = plan.offsets[1] + 5
            unrestricted = algorithm.transition(0, own, ())
            assert plan.level_of(unrestricted) == 0

            def next_states(c):
                # Free, and beside a neighbor on the same color class.
                return {algorithm._core_next(c, []), algorithm._core_next(c, [c])}

            blocker = next(
                c for c in range(plan.sizes[0])
                if c != unrestricted and unrestricted in next_states(c)
            )
            landed = algorithm.transition(0, own, (plan.offsets[0] + blocker,))
            assert plan.level_of(landed) == 0
            assert landed not in next_states(blocker)


class TestMessageSizes:
    def test_visible_state_is_one_small_int(self):
        """Self-stab messages are single colors: O(log n) bits (the paper's
        'small messages' claim for the self-stabilizing setting)."""
        algorithm = make_algorithm(n=200, delta=6)
        for vertex in (0, 7, 199):
            ram = algorithm.fresh_ram(vertex)
            visible = algorithm.visible(vertex, ram)
            assert isinstance(visible, int)
            assert 0 <= visible < algorithm.plan.total_size
        assert algorithm.plan.total_size <= 200 ** 3  # poly(n) => O(log n) bits
