"""Reference walk for the square-value search, kept apart from the package.

The plain norm-shell walk enumerates Z^2 \\ {0} one shell at a time in
(norm, vec_key) order; the walk search tests each vector with
is_square_mod.  quadcong.solver.square_value_binary sieves norm annuli
instead, and the tests check it against this obviously ordered route.
"""

from math import isqrt

from quadcong.errors import SearchExhausted
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
