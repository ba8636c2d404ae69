"""Number-theoretic and field-arithmetic helpers used across the library.

The paper's algorithms lean on three mathematical primitives:

* the iterated logarithm ``log* n`` that shows up in every running-time bound,
* primes ``q`` chosen just above thresholds like ``2 * Delta`` so that the
  additive rotations of the AG family never revisit a residue early, and
* low-degree polynomials over ``GF(q)`` realizing Linial's cover-free set
  systems.

Everything here is deterministic and dependency-free.
"""

from repro.mathutil.logstar import log_star, tower
from repro.mathutil.primes import (
    is_prime,
    next_prime,
    next_prime_at_least,
    primes_up_to,
)
from repro.mathutil.gf import eval_poly_mod, int_to_poly_coeffs

__all__ = [
    "log_star",
    "tower",
    "is_prime",
    "next_prime",
    "next_prime_at_least",
    "primes_up_to",
    "eval_poly_mod",
    "int_to_poly_coeffs",
]
