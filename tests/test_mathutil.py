"""Unit and property tests for repro.mathutil."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mathutil import (
    eval_poly_mod,
    int_to_poly_coeffs,
    is_prime,
    log_star,
    next_prime,
    next_prime_at_least,
    primes_up_to,
    tower,
)


class TestLogStar:
    def test_known_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(65535) == 3  # just below the tower boundary

    def test_tower_inverse(self):
        for height in range(5):
            assert log_star(tower(height)) == height

    def test_monotone_nondecreasing(self):
        values = [log_star(n) for n in range(1, 2000)]
        assert values == sorted(values)

    def test_nonpositive_inputs(self):
        assert log_star(0) == 0
        assert log_star(-5) == 0
        assert log_star(1.5) == 0

    def test_tower_rejects_negative(self):
        with pytest.raises(ValueError):
            tower(-1)

    @given(st.integers(min_value=2, max_value=10 ** 9))
    def test_recurrence(self, n):
        assert log_star(n) == 1 + log_star(math.log2(n))


class TestPrimes:
    def test_small_primes(self):
        assert [p for p in range(30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_primes_up_to_matches_is_prime(self):
        assert primes_up_to(500) == [p for p in range(501) if is_prime(p)]

    def test_primes_up_to_edge_cases(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]

    def test_next_prime_strict(self):
        assert next_prime(2) == 3
        assert next_prime(13) == 17
        assert next_prime(0) == 2
        assert next_prime(-10) == 2

    def test_next_prime_at_least_inclusive(self):
        assert next_prime_at_least(13) == 13
        assert next_prime_at_least(14) == 17
        assert next_prime_at_least(1) == 2

    @given(st.integers(min_value=0, max_value=10 ** 5))
    @settings(max_examples=60)
    def test_next_prime_at_least_is_minimal_prime(self, n):
        p = next_prime_at_least(n)
        assert is_prime(p)
        assert p >= n
        assert not any(is_prime(x) for x in range(max(2, n), p))

    def test_bertrand_postulate_range(self):
        # The AG family relies on a prime in [x, 2x]; spot-check Bertrand.
        for x in range(2, 2000, 37):
            assert next_prime_at_least(x) <= 2 * x


class TestGFPolynomials:
    def test_digit_encoding_roundtrip(self):
        q, degree = 7, 3
        seen = set()
        for value in range(q ** (degree + 1)):
            coeffs = int_to_poly_coeffs(value, degree, q)
            assert len(coeffs) == degree + 1
            assert all(0 <= c < q for c in coeffs)
            assert coeffs not in seen
            seen.add(coeffs)

    def test_encoding_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_poly_coeffs(27, 2, 3)
        with pytest.raises(ValueError):
            int_to_poly_coeffs(-1, 2, 3)

    def test_eval_matches_naive(self):
        q = 11
        coeffs = (3, 0, 7, 1)
        for x in range(q):
            naive = sum(c * x ** i for i, c in enumerate(coeffs)) % q
            assert eval_poly_mod(coeffs, x, q) == naive

    @given(
        st.integers(min_value=0, max_value=10 ** 4),
        st.integers(min_value=0, max_value=10 ** 4),
    )
    @settings(max_examples=80)
    def test_distinct_polys_agree_on_at_most_degree_points(self, c1, c2):
        q, degree = 23, 2
        c1 %= q ** (degree + 1)
        c2 %= q ** (degree + 1)
        if c1 == c2:
            return
        p1 = int_to_poly_coeffs(c1, degree, q)
        p2 = int_to_poly_coeffs(c2, degree, q)
        agreements = sum(
            1 for x in range(q) if eval_poly_mod(p1, x, q) == eval_poly_mod(p2, x, q)
        )
        assert agreements <= degree
