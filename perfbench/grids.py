"""Direct numpy grid sums for the benchmark's checks, written apart from quadcong.

Kept out of checks.py so that a set-up probe can generate inputs without
importing numpy: the set-up time then includes numpy's import, as a user's
first `import quadcong` does.
"""

from functools import lru_cache

import numpy as np

from checks import adjugate3, gram2, legendre, legendre_row, need, quad


@lru_cache(maxsize=256)
def jacobi_table(q: int, primes) -> np.ndarray:
    """int64 array of jacobi(i, q) for i in [0, q), by Euler per prime."""
    idx = np.arange(q, dtype=np.int64)
    t = np.ones(q, dtype=np.int64)
    for p in primes:
        t *= np.array(legendre_row(p), dtype=np.int64)[idx % p]
    t.flags.writeable = False
    return t


def _form_grid(f, q: int) -> np.ndarray:
    a, b, c = (k % q for k in f)
    xs = np.arange(q, dtype=np.int64)
    x, y = xs[:, None], xs[None, :]
    return (a * x * x % q + b * x % q * y + c * y * y % q) % q


def direct_full_grid(f, q: int, primes) -> int:
    """sum over the q x q residue grid of jacobi(f(x, y), q)."""
    return int(jacobi_table(q, primes)[_form_grid(f, q)].sum())


def _companion_grid(qt, q: int, primes) -> np.ndarray:
    return jacobi_table(q, primes)[_form_grid(qt, q)]


def direct_shift_sum(qt, q: int, primes, ns) -> int:
    """sum over (a, b) mod q of prod_i jacobi(qt(n_i + a, b), q).

    Evaluated on each prime's p x p grid and multiplied: the residue grid
    mod q is the product of the grids mod its primes (CRT), and the
    character splits likewise.
    """
    out = 1
    for p in primes:
        g = _companion_grid(qt, p, (p,))
        acc = np.ones((p, p), dtype=np.int64)
        for n in ns:
            acc *= np.roll(g, -(n % p), axis=0)
        out *= int(acc.sum())
    return out


def direct_window_power(qt, q: int, primes, h: int, r: int) -> int:
    """sum over (a, b) mod q of (sum_{n=1..h} jacobi(qt(n + a, b), q))^(2r)."""
    g = _companion_grid(qt, q, primes)
    w = np.zeros((q, q), dtype=np.int64)
    for n in range(1, h + 1):
        w += np.roll(g, -(n % q), axis=0)
    return int((w ** (2 * r)).sum())


def direct_exp_coefficients(c, p: int, y):
    """Integer phase coefficients: coef[k] = sum of (Q(x)/p) over x with y.x = k."""
    leg = np.array(legendre_row(p), dtype=np.int64)
    xs = np.arange(p, dtype=np.int64)
    x2, x3 = xs[:, None], xs[None, :]
    a11, a22, a33, a12, a13, a23 = (k % p for k in c)
    y1, y2, y3 = (k % p for k in y)
    rest = (a22 * x2 * x2 + a33 * x3 * x3 + a23 * x2 * x3) % p
    coef = np.zeros(p, dtype=np.int64)
    for x1 in range(p):
        vals = (rest + a11 * x1 * x1 + a12 * x1 * x2 + a13 * x1 * x3) % p
        phase = (y1 * x1 + y2 * x2 + y3 * x3) % p
        coef += np.bincount(phase.ravel(), weights=leg[vals].ravel(), minlength=p).astype(np.int64)
    return coef


def check_exp_sum(c, p: int, y, coefficients, adj_zero: bool, magnitude: float, large: bool):
    own = direct_exp_coefficients(c, p, y)
    need(tuple(int(k) for k in own) == tuple(coefficients), f"phase coefficients differ at p = {p}, y = {y}")
    own_adj_zero = quad(adjugate3(gram2(c)), y) % p == 0
    need(adj_zero == own_adj_zero, f"adj_zero = {adj_zero}, direct adjugate says {own_adj_zero} at p = {p}")
    k = np.arange(p)
    own_mag = abs(complex(np.sum(own * np.exp(2j * np.pi * k / p))))
    need(abs(own_mag - magnitude) <= 1e-6 * max(1.0, own_mag), f"magnitude {magnitude} != {own_mag} at p = {p}")
    if abs(own_mag - p**1.5) > 1e-6 * p**1.5:
        need(large == (own_mag > p**1.5), f"large = {large} but |S| = {own_mag}, p^1.5 = {p ** 1.5}")


def direct_incomplete(d: int, primes, f, rows) -> int:
    """sum of jacobi(f(x, y), d) over rows (y, lo, hi).

    Prime by prime, with x, y and the coefficients reduced mod p before any
    product, so every intermediate stays below 3 p^2 < 2^63 for p < 2^21;
    larger primes are evaluated point by point in Python integers.
    """
    ys = np.concatenate([np.full(hi - lo + 1, y, dtype=object) for y, lo, hi in rows])
    xs = np.concatenate([np.arange(lo, hi + 1, dtype=object) for y, lo, hi in rows])
    chi = np.ones(len(xs), dtype=np.int64)
    for p in primes:
        if p < 1 << 21:
            a, b, c = (k % p for k in f)
            x = (xs % p).astype(np.int64)
            y = (ys % p).astype(np.int64)
            vals = (a * x % p * x + b * x % p * y + c * y % p * y) % p
            chi *= np.array(legendre_row(p), dtype=np.int64)[vals]
        else:
            chi *= np.array([legendre(f[0] * x * x + f[1] * x * y + f[2] * y * y, p)
                             for x, y in zip(xs.tolist(), ys.tolist())], dtype=np.int64)
    return int(chi.sum())
