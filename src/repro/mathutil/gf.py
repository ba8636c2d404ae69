"""Polynomials over the prime field GF(q).

Linial's algorithm (and its Excl-/Mod- variants in Section 4) encode each
color ``c`` as a polynomial ``g_c`` of degree ``d`` over ``GF(q)`` and have a
vertex pick a point ``(x, g_c(x))`` that no neighbor's polynomial passes
through.  Two distinct degree-``d`` polynomials agree on at most ``d`` points,
so with ``q >= d * Delta + 1`` a conflict-free point always exists.

Colors map to polynomials through their base-``q`` digits, which makes the
encoding injective for ``c < q^(d+1)`` and computable with O(1) words of
memory (as the paper notes at the end of Section 3).
"""

__all__ = [
    "int_to_poly_coeffs",
    "eval_poly_mod",
    "batch_poly_coeffs",
    "batch_eval_point",
]


def int_to_poly_coeffs(value: int, degree: int, q: int) -> tuple:
    """Return the base-``q`` digits of ``value`` as ``degree + 1`` coefficients.

    The returned tuple ``(c_0, ..., c_degree)`` represents the polynomial
    ``c_0 + c_1 x + ... + c_degree x^degree`` over GF(q).  Distinct values
    below ``q^(degree+1)`` yield distinct coefficient tuples.

    >>> int_to_poly_coeffs(11, 2, 3)
    (2, 0, 1)
    """
    if value < 0:
        raise ValueError("polynomial encoding requires a non-negative value")
    if value >= q ** (degree + 1):
        raise ValueError(
            "value %d does not fit in %d base-%d digits" % (value, degree + 1, q)
        )
    coeffs = []
    remaining = value
    for _ in range(degree + 1):
        coeffs.append(remaining % q)
        remaining //= q
    return tuple(coeffs)


def eval_poly_mod(coeffs, x: int, q: int) -> int:
    """Evaluate the polynomial with the given coefficients at ``x`` mod ``q``.

    Uses Horner's rule; ``coeffs`` is low-order first, as produced by
    :func:`int_to_poly_coeffs`.

    >>> eval_poly_mod((2, 0, 1), 2, 3)  # 2 + 0*2 + 1*4 = 6 = 0 mod 3
    0
    """
    result = 0
    for coeff in reversed(coeffs):
        result = (result * x + coeff) % q
    return result


def batch_poly_coeffs(values, degree, q):
    """Base-``q`` digit matrix of an int64 color array (NumPy batch helper).

    Row ``v`` of the result is ``int_to_poly_coeffs(values[v], degree, q)``:
    shape ``(len(values), degree + 1)``, low-order digits first.  Callers
    must pre-validate ``0 <= values < q**(degree + 1)``; this is the
    vectorized encoder behind the batch Linial kernel, so it assumes NumPy
    is importable (the batch path never runs without it).
    """
    import numpy as np

    values = np.asarray(values, dtype=np.int64)
    coeffs = np.empty((values.shape[0], degree + 1), dtype=np.int64)
    remaining = values.copy()
    for position in range(degree + 1):
        coeffs[:, position] = remaining % q
        remaining //= q
    return coeffs


def batch_eval_point(coeffs, x, q):
    """Evaluate every row polynomial at one point mod ``q`` (Horner, one column).

    The Linial point scan (:func:`repro.linial.core.point_scan`) scans
    points with an early exit, so it evaluates one int64 column per point
    instead of a ``(rows, points)`` block, which at out-of-core sizes is the
    difference between a ~40 MB and a ~GB transient; from the point where
    its pending rows' slots are fewer than its rows, it passes only the rows
    that point reads, so the cost is one pass over the rows it is given.
    Reducing mod ``q`` after every Horner step keeps every intermediate
    below ``q**2 + q`` — exact in int64 for any plannable field.
    """
    import numpy as np

    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape[1] == 0:
        return np.zeros(coeffs.shape[0], dtype=np.int64)
    x = int(x) % q
    result = coeffs[:, -1] % q
    for position in range(coeffs.shape[1] - 2, -1, -1):
        result *= x
        result += coeffs[:, position]
        result %= q
    return result
