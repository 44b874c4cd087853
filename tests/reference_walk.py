"""Reference walk for the square-value search, kept apart from the package.

The plain norm-shell walk enumerates Z^2 \\ {0} one shell at a time in
(norm, vec_key) order; the walk search tests each vector with
is_square_mod.  quadcong.solver.square_value_binary sieves norm annuli
instead, and the tests check it against this obviously ordered route, with
or without its point charge.
"""

from math import isqrt

from quadcong.errors import RegionTooLarge, SearchExhausted
from quadcong.intvec import vec_key
from quadcong.modmath import is_square_mod


def iter_vectors_by_norm():
    """Yield (norm_sq, vector) over Z^2 \\ {0}, norm ascending, vec_key within a shell."""
    s = 1
    while True:
        shell = []
        r = isqrt(s)
        for x in range(0, r + 1):
            y2 = s - x * x
            y = isqrt(y2)
            if y * y == y2:
                for sx in ((x,) if x == 0 else (x, -x)):
                    for sy in ((y,) if y == 0 else (y, -y)):
                        shell.append((sx, sy))
        shell = sorted(set(shell), key=vec_key)
        for v in shell:
            yield s, v
        s += 1


def give_up_norm(q):
    """floor(max(q^0.5, 4 q^0.3 + 16)^2), with q^0.3 to 32 fraction bits
    found by bisection: u = floor(q^0.3 2^32) is the largest u with
    u^10 <= q^3 2^320, and q < 2^b puts u below 2^(3 b // 10 + 33)."""
    lo, hi = 0, 1 << (3 * q.bit_length() // 10 + 33)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**10 <= q**3 << 320 else (lo, mid)
    return max(q, (4 * lo + (16 << 32)) ** 2 >> 64)


def square_value_walk(form, mod):
    """The first walk vector whose value is a square or 0 mod every prime of
    q, with the same norm cap and SearchExhausted as square_value_binary."""
    q = mod.q
    limit = give_up_norm(q) + 1
    for s, v in iter_vectors_by_norm():
        if s > limit:
            raise SearchExhausted(f"{form.row()} takes no square value mod q = {q} below norm {limit + 1}")
        if is_square_mod(form.evaluate(v), mod):
            return v


def points_below(s):
    """Vectors of Z^2 \\ {0} with norm < s, counted row by row."""
    r = isqrt(s - 1)
    return sum(2 * isqrt(s - 1 - x * x) + 1 for x in range(-r, r + 1)) - 1


def square_value_walk_charged(form, mod, annuli, budget):
    """square_value_walk with the sieve's point charge: annuli(limit) tiles
    the norms [1, limit] as the sieve does; on reaching an annulus [s0, s1)
    every vector below s1 is charged, and past budget the walk raises the
    RegionTooLarge the sieve raises."""
    q = mod.q
    limit = give_up_norm(q) + 1
    annuli = annuli(limit)
    s1 = 1
    for s, v in iter_vectors_by_norm():
        if s > limit:
            raise SearchExhausted(f"{form.row()} takes no square value mod q = {q} below norm {limit + 1}")
        while s >= s1:
            _, s1 = next(annuli)
            n = points_below(s1)
            if n > budget:
                raise RegionTooLarge(f"square_value_binary {form.row()} mod q = {q}: {n} points exceeds budget {budget}")
        if is_square_mod(form.evaluate(v), mod):
            return v
