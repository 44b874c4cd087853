"""Tiny exact helpers for integer vectors (tuples of python ints)."""

from math import gcd, isqrt


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def norm_sq(v):
    return sum(a * a for a in v)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(v, k):
    return tuple(k * a for a in v)


def cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def content(v) -> int:
    """gcd of the coordinates (0 for the zero vector)."""
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def vec_key(v):
    """Deterministic tie-break key: per coordinate (|c|, sign-rank).

    Zero beats positive beats negative, so e.g. (0, 1, 2) < (1, 2, 0) < (-1, 2, 0).
    Used everywhere a canonical representative of a norm shell is needed.
    """
    return tuple((abs(c), 0 if c >= 0 else 1) for c in v)


def round_div(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties toward +infinity. Exact."""
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


def floor_sqrt_ratio(num: int, den: int) -> int:
    """floor(sqrt(num/den)) for num >= 0, den > 0, exactly.

    That is isqrt(floor(num/den)): with k = isqrt(floor(x)), k^2 <= x, and
    (k + 1)^2 >= floor(x) + 1 > x.
    """
    if num < 0:
        raise ValueError("negative radicand")
    return isqrt(num // den)
