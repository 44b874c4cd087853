"""Exact modular arithmetic over odd square-free moduli.

Jacobi symbols, prime square roots (canonical representative), CRT glue,
modulus validation with verified factorization, and the least quadratic
non-residue (the d of F_{p^2} = F_p[T]/(T^2 - d) in the norm-character
tables).
"""

from dataclasses import dataclass
from math import gcd, prod

from .errors import (
    BadFactorization,
    FactoringExhausted,
    InvalidInput,
    InvalidModulus,
    NotOdd,
    NotSquareFree,
    TooSmall,
)

# Deterministic Miller-Rabin witness set, valid far beyond 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial-division primes: the fast path of is_prime and the first stage of _factor.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)

# Pollard rho steps one split may take, over all its constants c.  Balanced
# moduli near 1e18 split in a few times 1e4 steps (at most 39,360 over 450 of
# them); past the budget the modulus is refused (FactoringExhausted) rather
# than searched for ever.
_RHO_BUDGET = 2**22


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 71 * 71:  # a composite below 71^2 has a prime factor up to 67
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n <= 0 or n % 2 == 0:
        raise InvalidModulus(f"jacobi needs positive odd n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def inv_mod(a: int, n: int) -> int:
    return pow(a, -1, n)


def _sqrt_mod_known_prime(a: int, p: int):
    """Canonical square root of a mod p, or None when a is a non-residue.

    Canonical means the representative in [0, (p-1)/2]; sqrt(0) = 0.  p must
    be an odd prime already verified, such as one of Modulus.primes: it is
    not tested again."""
    a %= p
    if a == 0:
        return 0
    if jacobi(a, p) == -1:
        return None
    if p % 4 == 3:
        t = pow(a, (p + 1) // 4, p)
    else:
        t = _tonelli(a, p)
    return min(t, p - t)


def _tonelli(a: int, p: int) -> int:
    # p ≡ 1 (mod 4), a a known quadratic residue
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def crt_combine(pairs) -> int:
    """Combine [(residue, prime), ...] into the residue mod the product.

    Primes must be pairwise distinct; duplicates raise InvalidInput.
    """
    pairs = list(pairs)
    primes = [p for _, p in pairs]
    if len(set(primes)) != len(primes):
        raise InvalidInput(f"duplicate moduli in {primes}")
    x, m = 0, 1
    for r, p in pairs:
        if m > 1 and gcd(m, p) != 1:
            raise InvalidInput(f"moduli not coprime: {m}, {p}")
        # x' ≡ x (mod m), x' ≡ r (mod p)
        k = (r - x) * inv_mod(m, p) % p  # so x stays in [0, m)
        x += m * k
        m *= p
    return x


@dataclass(frozen=True)
class Modulus:
    """An odd square-free modulus with its verified prime factorization."""

    q: int
    primes: tuple

    def __post_init__(self):
        if not (isinstance(self.q, int) and isinstance(self.primes, tuple) and all(isinstance(p, int) for p in self.primes)):
            raise BadFactorization(f"{self.primes!r} is not a tuple of int primes of an int modulus {self.q!r}")
        if self.q < 3:
            raise TooSmall(f"modulus must be >= 3, got {self.q}")
        if self.q % 2 == 0:
            raise NotOdd(f"modulus must be odd, got {self.q}")
        if prod(self.primes) != self.q or not all(is_prime(p) for p in self.primes):
            raise BadFactorization(f"{self.primes} is not the prime factorization of {self.q}")
        if len(set(self.primes)) != len(self.primes):
            raise NotSquareFree(f"{self.q} has a repeated prime factor")


def _factor(n: int):
    """Factor n > 1: the small primes by division, the rest by Pollard rho;
    returns sorted primes with multiplicity."""
    out = []
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        stack.extend(_rho_split(m))
    return sorted(out)


def _rho_split(n: int):
    # Floyd's tortoise and hare; deterministic constant schedule
    if n % 2 == 0:
        return [2, n // 2]
    steps = 0
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if steps > _RHO_BUDGET:
                raise FactoringExhausted(f"Pollard rho found no factor of {n} in {_RHO_BUDGET} steps")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return [d, n // d]
        c += 1


def make_modulus(q: int) -> Modulus:
    """Validate q as an odd square-free integer >= 3 and factor it
    (Modulus itself rejects a repeated prime)."""
    if not isinstance(q, int):
        raise InvalidInput(f"modulus must be int, got {type(q)!r}")
    if q < 3:
        raise TooSmall(f"modulus must be >= 3, got {q}")
    if q % 2 == 0:
        raise NotOdd(f"modulus must be odd, got {q}")
    return Modulus(q=q, primes=tuple(_factor(q)))


def is_square_mod(a: int, mod: Modulus) -> bool:
    """True iff a is a square mod q, prime by prime (0 counts as a square)."""
    return all(jacobi(a, p) != -1 for p in mod.primes)


def sqrt_mod_squarefree(a: int, mod: Modulus):
    """Canonical t with t^2 ≡ a (mod q), or None.

    Per-prime canonical roots glued by CRT, so the result is deterministic.
    """
    if not isinstance(a, int):
        raise InvalidInput(f"sqrt_mod_squarefree needs an int, got {type(a)!r}")
    parts = []
    for p in mod.primes:
        r = _sqrt_mod_known_prime(a, p)
        if r is None:
            return None
        parts.append((r, p))
    return crt_combine(parts)


def find_nonresidue(p: int) -> int:
    """Smallest d >= 2 with (d/p) = -1."""
    d = 2
    while jacobi(d, p) != -1:
        d += 1
    return d
