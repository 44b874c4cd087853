"""Independent checkers for the benchmark's operations.

Written apart from quadcong: nothing here imports the package.  Every check
uses either a property the mathematics guarantees or a direct computation
made with this module's own code (Euler's criterion, the benchmark's own form
evaluation and adjugate).  The numpy grid sums are in grids.py.  A failed
check raises CheckFailed with a message that names the broken property.
"""

from functools import lru_cache
from math import gcd, isqrt, prod


class CheckFailed(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ------------------------------------------------------------ scalar helpers


def legendre(a: int, p: int) -> int:
    """(a/p) for an odd prime p by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def legendre_row(p: int) -> tuple:
    """(i/p) for i in [0, p), by Euler's criterion."""
    return tuple(legendre(i, p) for i in range(p))


def ternary_value(c, x) -> int:
    """Value of sum(a_ii x_i^2) + a12 x1 x2 + a13 x1 x3 + a23 x2 x3."""
    a11, a22, a33, a12, a13, a23 = c
    x1, x2, x3 = x
    return (
        a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3
        + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3
    )


def gram2(c):
    a11, a22, a33, a12, a13, a23 = c
    return ((2 * a11, a12, a13), (a12, 2 * a22, a23), (a13, a23, 2 * a33))


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate3(m):
    """Classical adjugate (transposed cofactor matrix) of a 3 x 3 matrix."""
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [k for k in range(3) if k != j]
            minor = (
                m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                - m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            )
            cof[i][j] = (-1) ** (i + j) * minor
    return tuple(tuple(cof[j][i] for j in range(3)) for i in range(3))


def quad(m, a) -> int:
    """a^T m a."""
    return sum(a[i] * m[i][j] * a[j] for i in range(3) for j in range(3))


def binary_value(f, x, y) -> int:
    a, b, c = f
    return a * x * x + b * x * y + c * y * y


# ------------------------------------------------------------------ solver


def check_factorization(q: int, known_primes, returned_primes):
    need(tuple(returned_primes) == tuple(sorted(known_primes)),
         f"factorization of {q}: got {tuple(returned_primes)}, built from {tuple(sorted(known_primes))}")


def check_solve(coeffs, q: int, primes, solution, witness):
    """The solver's guarantees, rechecked independently.

    x != 0, Q(x) = 0 mod q, -a^T adj(2M) a a square mod every prime of q,
    and the norm chain 3 ||x||^4 <= 64 q^2 ||a||^2.
    """
    x = tuple(solution)
    a = tuple(witness)
    need(len(x) == 3 and x != (0, 0, 0), f"zero or malformed solution {x}")
    need(ternary_value(coeffs, x) % q == 0, f"Q(x) != 0 mod {q} at x = {x}")
    need(a != (0, 0, 0), "zero witness")
    v = -quad(adjugate3(gram2(coeffs)), a)
    for p in primes:
        need(legendre(v, p) != -1, f"-a^T adj(2M) a is a non-residue mod {p} at a = {a}")
    nx = sum(c * c for c in x)
    na = sum(c * c for c in a)
    need(3 * nx * nx <= 64 * q * q * na, f"norm chain broken: |x|^2 = {nx}, |a|^2 = {na}")


def vec_order_key(v):
    """Within-shell order of the square-value search: per coordinate
    (|c|, sign), zero and positive before negative."""
    return tuple((abs(c), 0 if c >= 0 else 1) for c in v)


def vectors_examined(uv) -> int:
    """Position of (u, v) in Z^2 \\ {0} ordered by (norm, vec_order_key), from 1."""
    u, v = uv
    s = u * u + v * v
    need(s > 0, "square-value search returned the zero vector")
    below = -1  # lattice points with norm < s, minus the origin
    r = isqrt(s - 1)
    for x in range(-r, r + 1):
        below += 2 * isqrt(s - 1 - x * x) + 1
    shell = []
    r = isqrt(s)
    for x in range(-r, r + 1):
        y2 = s - x * x
        y = isqrt(y2)
        if y * y == y2:
            shell.extend({(x, y), (x, -y)})
    shell.sort(key=vec_order_key)
    return below + shell.index((u, v)) + 1


# --------------------------------------------------------- prime-level sums


def diff_gcd(ns) -> int:
    """gcd of the products prod_{j != i} (n_j - n_i); 0 when all vanish."""
    g = 0
    for i, ni in enumerate(ns):
        g = gcd(g, prod(nj - ni for j, nj in enumerate(ns) if j != i))
    return g


def check_prime_shift(p: int, ns, split: bool, val: int):
    """Weil-type bound 4 r^2 p gcd(p, Delta), and squareness on split companions."""
    r = len(ns) // 2
    bound = 4 * r * r * p * gcd(p, diff_gcd(ns))
    need(abs(val) <= bound, f"|{val}| exceeds 4 r^2 p gcd(p, Delta) = {bound} at p = {p}")
    if split:
        need(val >= 0 and isqrt(val) ** 2 == val, f"split-companion sum {val} is not a square at p = {p}")


# ------------------------------------------------------- composite kernels


def good_shift_count(f, lift, q: int, bound: int) -> int:
    """Positive s with ||s|| <= bound, f(s) a unit mod q and lift(s) != 0."""
    n = 0
    for s1 in range(1, bound + 1):
        for s2 in range(1, isqrt(bound * bound - s1 * s1) + 1):
            if gcd(binary_value(f, s1, s2), q) == 1 and binary_value(lift, s1, s2) != 0:
                n += 1
    return n


def check_shift_pairs(f, lift, q: int, center, r_sq: int, bound: int, total: int, moment: int):
    expect = good_shift_count(f, lift, q, bound) * sum(hi - lo + 1 for _, lo, hi in disc_rows(center[0], center[1], r_sq))
    need(total == expect, f"pair total {total} != good shifts x disc points = {expect} at q = {q}")
    need(total <= moment <= total * total, f"second moment {moment} outside [{total}, {total}^2]")


def disc_rows(cx: int, cy: int, r_sq: int):
    """Rows (y, lo, hi) of the lattice points with (x - cx)^2 + (y - cy)^2 <= r_sq."""
    rows = []
    r = isqrt(r_sq)
    for y in range(cy - r, cy + r + 1):
        w = isqrt(r_sq - (y - cy) ** 2)
        rows.append((y, cx - w, cx + w))
    return rows


def box_rows(x_lo: int, x_hi: int, y_lo: int, y_hi: int):
    return [(y, x_lo, x_hi) for y in range(y_lo, y_hi + 1)]
