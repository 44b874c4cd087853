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


def square_value_walk(form, mod):
    """The first walk vector whose value is a square or 0 mod every prime of
    q, with the same norm cap and SearchExhausted as square_value_binary."""
    q = mod.q
    cap_max = max(float(q) ** 0.5, 4.0 * q**0.3 + 16.0)
    limit = int(cap_max * cap_max) + 1
    for s, v in iter_vectors_by_norm():
        if s > limit:
            raise SearchExhausted(f"{form.row()} takes no square value mod q = {q} below norm {cap_max}")
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
    cap_max = max(float(q) ** 0.5, 4.0 * q**0.3 + 16.0)
    limit = int(cap_max * cap_max) + 1
    annuli = annuli(limit)
    s1 = 1
    for s, v in iter_vectors_by_norm():
        if s > limit:
            raise SearchExhausted(f"{form.row()} takes no square value mod q = {q} below norm {cap_max}")
        while s >= s1:
            _, s1 = next(annuli)
            n = points_below(s1)
            if n > budget:
                raise RegionTooLarge(f"square_value_binary {form.row()} mod q = {q}: {n} points exceeds budget {budget}")
        if is_square_mod(form.evaluate(v), mod):
            return v
