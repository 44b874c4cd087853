import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadcong import modmath
from quadcong.errors import (
    BadFactorization,
    FactoringExhausted,
    InvalidModulus,
    NotOdd,
    NotSquareFree,
    TooSmall,
)
from quadcong.modmath import (
    Modulus,
    crt_combine,
    find_nonresidue,
    inv_mod,
    is_prime,
    is_square_mod,
    jacobi,
    make_modulus,
    sqrt_mod_squarefree,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 101, 257, 65537]


def test_is_prime_small():
    # a sieve up to 10^4 covers the trial-division cut-off 71^2 = 5041 and
    # the composites 67^2 = 4489 and 71 * 73 = 5183 around it
    sieve = [False, False] + [True] * (10**4 - 2)
    for k in range(2, 100):
        if sieve[k]:
            sieve[k * k :: k] = [False] * len(range(k * k, 10**4, k))
    for n in range(-3, 10**4):
        assert is_prime(n) == (n >= 0 and sieve[n]), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_jacobi_frozen():
    assert jacobi(2, 15) == 1
    assert jacobi(7, 15) == -1
    assert jacobi(0, 15) == 0
    assert jacobi(1, 1) == 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_jacobi_is_legendre_at_primes(p):
    squares = {x * x % p for x in range(1, p)}
    for a in range(1, min(p, 60)):
        expect = 1 if a % p in squares else -1
        if a % p == 0:
            expect = 0
        assert jacobi(a, p) == expect


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
def test_jacobi_multiplicative(a, b):
    q = 105
    assert jacobi(a * b, q) == jacobi(a, q) * jacobi(b, q)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_sqrt_mod_prime_roundtrip(p):
    for a in range(p if p < 60 else 60):
        if jacobi(a, p) >= 0:
            t = sqrt_mod_squarefree(a % p, make_modulus(p))
            assert t * t % p == a % p
            assert 0 <= t <= p // 2  # canonical branch


def test_sqrt_mod_prime_frozen():
    assert sqrt_mod_squarefree(2, make_modulus(7)) == 3
    assert sqrt_mod_squarefree(4, make_modulus(13)) == 2
    assert sqrt_mod_squarefree(0, make_modulus(11)) == 0
    assert sqrt_mod_squarefree(3, make_modulus(7)) is None  # non-residue


def test_make_modulus_validation():
    with pytest.raises(InvalidModulus):
        make_modulus(9)
    with pytest.raises(InvalidModulus):
        make_modulus(12)
    with pytest.raises(InvalidModulus):
        make_modulus(1)
    mod = make_modulus(105)
    assert mod.primes == (3, 5, 7)
    assert mod.q == 105


def test_modulus_rejects_bad_factorizations():
    with pytest.raises(NotSquareFree):
        Modulus(9, (3, 3))
    with pytest.raises(TooSmall):
        Modulus(2, (2,))
    with pytest.raises(NotOdd):
        Modulus(6, (2, 3))
    with pytest.raises(BadFactorization):
        Modulus(15, (3,))
    with pytest.raises(BadFactorization):
        Modulus(15, (15,))
    assert Modulus(105, (3, 5, 7)).q == 105


@pytest.mark.parametrize(
    "q, primes",
    [(15, (3, 5.0)), (15.0, (3, 5)), (15, [3, 5]), (15, None), ("15", (3, 5)), (15, (3, "5"))],
)
def test_modulus_requires_int_primes(q, primes):
    # prod((3, 5.0)) == 15 and is_prime(5.0) hold, so a float prime used to
    # pass and fail untyped later, in the square-value sieve's tables
    with pytest.raises(BadFactorization, match="tuple of int primes"):
        Modulus(q, primes)


@pytest.mark.parametrize("p", [71, 9973, 99991])
def test_make_modulus_factors_primes_past_the_small_table(p):
    # primes above _SMALL_PRIMES are split off by Pollard rho alone
    assert make_modulus(3 * p).primes == (3, p)
    assert make_modulus(p * 1_000_000_007).primes == (p, 1_000_000_007)
    assert make_modulus(73 * p).primes == tuple(sorted((73, p)))
    with pytest.raises(NotSquareFree):
        make_modulus(p * p)
    with pytest.raises(NotSquareFree):
        make_modulus(5 * p * p)


def test_rho_budget_refuses_with_a_typed_error(monkeypatch):
    # past its step budget Pollard rho raises, naming n, where it used to
    # loop for ever (as it does on a prime, which no constant c splits)
    monkeypatch.setattr(modmath, "_RHO_BUDGET", 100)
    n = 1_000_003 * 1_000_033
    with pytest.raises(FactoringExhausted, match=f"no factor of {n} in 100 steps"):
        make_modulus(n)
    with pytest.raises(FactoringExhausted, match="no factor of 1000003 in"):
        modmath._rho_split(1_000_003)
    assert issubclass(FactoringExhausted, InvalidModulus)


def test_rho_budget_far_above_balanced_1e18_moduli(monkeypatch):
    # the budget is kept far above what balanced moduli near 1e18 need: the
    # slowest of 450 such splits takes 39,360 steps, under a 64th of it
    monkeypatch.setattr(modmath, "_RHO_BUDGET", modmath._RHO_BUDGET // 64)
    for p1, p2 in ((477_554_729, 1_531_435_771), (999_999_937, 1_000_000_007)):
        assert make_modulus(p1 * p2).primes == (p1, p2)


def test_modulus_validation_survives_optimize_flag():
    # python -O strips assert statements; the checks must not depend on them
    code = (
        "from quadcong.errors import InvalidModulus\n"
        "from quadcong.modmath import Modulus\n"
        "for q, primes in ((15, (3,)), (9, (3, 3)), (2, (2,))):\n"
        "    try:\n"
        "        Modulus(q, primes)\n"
        "    except InvalidModulus:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {q} = {primes}')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr


def test_inv_mod():
    from math import gcd

    for q in (3, 5, 15, 105):
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            assert a * inv_mod(a, q) % q == 1


def test_crt_combine():
    assert crt_combine([(1, 3), (2, 5)]) == 7
    assert crt_combine([(2, 3), (3, 5), (1, 7)]) == 8
    from quadcong.errors import InvalidInput

    with pytest.raises(InvalidInput):
        crt_combine([(0, 3), (1, 3)])


def test_sqrt_mod_squarefree_frozen():
    mod = make_modulus(15)
    assert sqrt_mod_squarefree(4, mod) == 7  # per-prime minimal roots, recombined
    assert sqrt_mod_squarefree(2, mod) is None
    assert sqrt_mod_squarefree(0, mod) == 0


@given(st.integers(min_value=0, max_value=104))
def test_sqrt_mod_squarefree_certifies(v):
    mod = make_modulus(105)
    t = sqrt_mod_squarefree(v, mod)
    if t is None:
        assert not is_square_mod(v, mod)
        assert any(jacobi(v, p) == -1 for p in mod.primes)
    else:
        assert t * t % 105 == v % 105
        assert is_square_mod(v, mod)


@pytest.mark.parametrize("p", [3, 7, 11, 23])
def test_find_nonresidue(p):
    d = find_nonresidue(p)
    assert jacobi(d, p) == -1
    for smaller in range(1, d):
        assert jacobi(smaller, p) != -1
