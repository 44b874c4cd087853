import random
import re
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcong import errors
from quadcong.charsum import _BLOCK
from quadcong.cli import sample_binary_forms
from quadcong.errors import InvalidInput, RegionTooLarge
from quadcong.intvec import norm_sq, vec_key
from quadcong.modmath import find_nonresidue, inv_mod, is_square_mod, make_modulus
from quadcong.oracle import (
    BruteResult,
    _restriction_det4_grids,
    brute_min_square,
    brute_min_zero,
    coprime_count,
    oracle_scan,
    rank_two_family_form,
    rank_two_family_min,
    restriction_coprime_count,
    root_count_mod,
)
from quadcong.qforms import BinaryForm, TernaryForm, det_gram2, restrict, sample_forms
from quadcong.solver import solve_ternary, square_value_binary

IDENTITY = TernaryForm(1, 1, 1, 0, 0, 0)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_brute_min_zero_frozen():
    assert brute_min_zero(IDENTITY, make_modulus(5)) == BruteResult(5, (0, 1, 2), 0)
    assert brute_min_zero(IDENTITY, make_modulus(7)) == BruteResult(14, (1, 2, 3), 0)
    assert brute_min_zero(IDENTITY, make_modulus(15)).norm_sq == 30
    assert brute_min_zero(TernaryForm(1, 2, 3, 1, 1, 1), make_modulus(15)) == BruteResult(5, (1, 0, 2), 0)


def test_brute_min_zero_is_canonical_minimum():
    mod = make_modulus(11)
    res = brute_min_zero(IDENTITY, mod)
    best = None
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                v = (x, y, z)
                if v == (0, 0, 0) or IDENTITY.evaluate(v) % 11 != 0:
                    continue
                key = (norm_sq(v), vec_key(v))
                if best is None or key < best:
                    best = key
    assert (res.norm_sq, vec_key(res.witness)) == best


def test_brute_min_square_frozen():
    res = brute_min_square(IDENTITY, make_modulus(5))
    assert res == BruteResult(1, (0, 0, 1), 1)
    b = brute_min_square(BinaryForm(2, 3, 1), make_modulus(5))
    assert (b.norm_sq, b.witness) == (1, (0, 1))
    assert b.t * b.t % 5 == BinaryForm(2, 3, 1).evaluate(b.witness) % 5


def test_brute_square_agrees_with_pipeline_search():
    rng = random.Random(2)
    for _ in range(30):
        q = rng.choice([5, 7, 11, 13, 15, 21, 33, 35])
        mod = make_modulus(q)
        f = BinaryForm(rng.randrange(q), rng.randrange(q), rng.randrange(q))
        got = square_value_binary(f, mod)
        want = brute_min_square(f, mod)
        assert norm_sq(got) == want.norm_sq
        assert got == want.witness  # same canonical tie-break


@pytest.mark.parametrize("k, index", [(13, 1), (14, 0), (15, 3)])
def test_brute_min_square_exact_at_many_prime_moduli(k, index):
    # q = 3 * 5 * ... up to 6.5e15, 3.1e17 and 1.6e19: the square test runs
    # prime by prime, so every value stays small whatever the size of q
    mod = make_modulus(prod(ODD_PRIMES[:k]))
    f = sample_binary_forms(mod, index + 1, f"many:{k}")[index]
    want = square_value_binary(f, mod)
    got = brute_min_square(f, mod)
    assert got.witness == want and got.norm_sq == norm_sq(want)


@pytest.mark.parametrize("q, v", [(10**15 + 37, (60, -70, 37)), (10**16 + 61, (61, 70, 67))])
def test_brute_min_zero_finds_planted_zero_near_int64_limit(q, v):
    # q prime; q r^2 at the final radius, r = 128, is far past 2^63
    mod = make_modulus(q)
    rng = random.Random(f"planted zero:{q}")
    rest = [rng.randrange(q) for _ in range(5)]
    a11 = -TernaryForm(0, *rest).evaluate(v) * inv_mod(v[0] ** 2, q) % q
    assert brute_min_zero(TernaryForm(a11, *rest), mod) == BruteResult(norm_sq(v), v, 0)


def test_zero_scan_past_its_int64_bound_raises():
    mod = make_modulus(prod(ODD_PRIMES))  # 1.6e19 itself leaves int64
    with pytest.raises(InvalidInput, match="_scan_ball mod 16294579238595022365"):
        brute_min_zero(IDENTITY, mod)
    assert brute_min_square(IDENTITY, mod).norm_sq == 1


def test_binary_scan_peak_memory_is_one_block(monkeypatch):
    # the form has no zero within reach of this budget, so the doubling scan
    # ends at r = 1024: a (2r + 1)^2 box of 4.2M points, 34 MB in each int64
    # plane, scanned in row blocks of about _BLOCK entries instead
    monkeypatch.setattr(errors, "POINT_BUDGET", 10**7)
    tracemalloc.start()
    try:
        with pytest.raises(RegionTooLarge, match=re.escape("r^2 = 4194304")):
            brute_min_zero(BinaryForm(2098, 1584, 1534), make_modulus(4515))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * _BLOCK


def test_brute_min_zero_bound_proves_absence():
    # x^2 + y^2 + z^2 = 0 mod 7 has no solution with norm < 14
    res = brute_min_zero(IDENTITY, make_modulus(7), bound_sq=13)
    assert res is None


def test_budget_guard():
    # every zero has squared norm >= 10^6 + 3, so the doubling scan reaches
    # the ball of edge 513 first, and 513^3 points exceed the budget of 10^8
    with pytest.raises(RegionTooLarge):
        brute_min_zero(IDENTITY, make_modulus(10**6 + 3))


def test_rank_two_family_form_values():
    f = rank_two_family_form(3, 2)
    for x in [(1, 0, 0), (2, 1, 0), (5, 2, 1), (-1, 3, 2)]:
        expect = (x[0] - 2 * x[1]) ** 2 - 3 * (x[1] - 2 * x[2]) ** 2
        assert f.evaluate(x) == expect


# the family primes of `quadcong exponent-fit` at its defaults
FAMILY_PRIMES = (1009, 1061, 1117, 1181, 1249, 1307, 1381, 1459, 1543, 1619, 1709, 1801)


def test_rank_two_family_min_reference_growth():
    # a non-residue: the only small zeros come from the global line, so the
    # minimum sits near p^(2/3) in euclidean norm.  (b^2, b, 1) is a zero, so
    # the ball scan capped at its norm is exhaustive and gives the reference
    assert rank_two_family_min(2, 5, make_modulus(101)) == BruteResult(417, (1, -20, -4), 0)
    for p in (101,) + FAMILY_PRIMES:
        a, b = (2, 5) if p == 101 else (find_nonresidue(p), round(p ** (1 / 3)))
        mod = make_modulus(p)
        res = rank_two_family_min(a, b, mod)
        assert res == brute_min_zero(rank_two_family_form(a, b), mod, bound_sq=b**4 + b * b + 1), p


def test_rank_two_family_min_composite_and_residue():
    # 2 is a non-residue mod 3 and mod 5, so the lattice is the same mod 15;
    # 2 is a residue mod 7, where the zeros are no longer one lattice
    res = rank_two_family_min(2, 2, make_modulus(15))
    assert res == brute_min_zero(rank_two_family_form(2, 2), make_modulus(15))
    with pytest.raises(InvalidInput, match="non-residue mod every prime of 105, got a = 2"):
        rank_two_family_min(2, 2, make_modulus(105))


def test_coprime_count_linear_frozen():
    res = coprime_count(lambda v: v[0], 1, make_modulus(3), 9)
    assert res.count == 6
    assert res.prediction == Fraction(6)
    assert res.roots == {3: 1}
    assert res.relative_gap() == 0


def test_root_count_mod():
    assert root_count_mod(lambda v: v[0], 1, 3) == 1
    assert root_count_mod(lambda v: v[0] * v[1], 2, 3) == 5  # union of two lines
    assert root_count_mod(lambda v: 1, 1, 5) == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10**6))
def test_coprime_count_matches_enumeration(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 5, 15])
    mod = make_modulus(q)
    box = rng.randrange(2, 9)
    coeffs = [rng.randrange(-4, 5) for _ in range(3)]

    def f(v):
        return coeffs[0] * v[0] * v[0] + coeffs[1] * v[0] * v[1] + coeffs[2] * v[1] + 1

    res = coprime_count(f, 2, mod, box)
    brute = sum(
        1
        for a in range(1, box + 1)
        for b in range(1, box + 1)
        if gcd(f((a, b)), q) == 1
    )
    assert res.count == brute


def test_restriction_coprime_count_matches_generic():
    """The vectorized 6-variable count must equal the generic enumerator."""
    from quadcong.qforms import restrict

    form = TernaryForm(1, 1, 1, 0, 0, 0)
    mod = make_modulus(15)
    box = 3

    def det4_of_restriction(v):
        r = restrict(form, (v[0], v[2], v[4]), (v[1], v[3], v[5]))
        return r.det4()

    fast = restriction_coprime_count(form, mod, box)
    slow = coprime_count(det4_of_restriction, 6, mod, box)
    assert fast.count == slow.count
    assert fast.roots == slow.roots
    assert fast.prediction == slow.prediction


def test_restriction_det4_grids_exact_at_largest_modulus():
    # 3 * 5 * ... * 19 is the largest q whose primes all pass the p^6 charge;
    # coordinates up to 21 (the largest box within the point budget) push the
    # unreduced det4 of far-apart columns past 2^63
    q = 4849845
    form = sample_forms(make_modulus(q), 1, "det4")[0]
    edges = range(9, 22)
    cols = list(product(edges, repeat=3))
    for col1, d4 in islice(_restriction_det4_grids(form, q, edges), 0, None, 220):
        assert d4.tolist() == [restrict(form, col1, col2).det4() % q for col2 in cols], col1


def test_restriction_coprime_count_gap_small():
    form = TernaryForm(2, 3, 5, 1, 0, 1)
    mod = make_modulus(15)
    res = restriction_coprime_count(form, mod, 8)
    assert res.relative_gap() < Fraction(1, 5)


def test_sample_forms_deterministic_and_nonsingular():
    mod = make_modulus(105)
    a = sample_forms(mod, 5, "seed")
    b = sample_forms(mod, 5, "seed")
    assert a == b
    c = sample_forms(mod, 5, "other")
    assert a != c
    for f in a:
        assert gcd(det_gram2(f), 105) == 1
        assert all(0 <= co < 105 for co in f.coeffs())


def test_oracle_scan_dominated_by_solver():
    mod = make_modulus(35)
    rows = oracle_scan(mod, 4, "scan")
    assert len(rows) == 4
    for row in rows:
        assert row.q == 35
        tr = solve_ternary(row.form, mod)
        # the exhaustive minimum can never exceed the pipeline output
        assert row.min_zero.norm_sq <= norm_sq(tr.solution)
        assert row.min_square.norm_sq <= row.min_zero.norm_sq
        assert row.form.evaluate(row.min_zero.witness) % 35 == 0
        assert is_square_mod(row.form.evaluate(row.min_square.witness), mod)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_brute_min_square_leq_min_zero(seed):
    rng = random.Random(seed)
    q = rng.choice([5, 7, 13, 15, 21])
    mod = make_modulus(q)
    f = sample_forms(mod, 1, f"sq:{seed}")[0]
    z = brute_min_zero(f, mod)
    s = brute_min_square(f, mod)
    assert s.norm_sq <= z.norm_sq  # zero values are squares


# kernel call, points charged, and the name the refusal carries
ORACLE_GUARDED = {
    "brute_min_zero": (lambda: brute_min_zero(IDENTITY, make_modulus(5)), 9**3, "_scan_ball mod 5, r^2 = 16"),
    "brute_min_square": (lambda: brute_min_square(IDENTITY, make_modulus(5)), 5**3, "_scan_ball mod 5, r^2 = 4"),
    "restriction_coprime_count": (
        lambda: restriction_coprime_count(IDENTITY, make_modulus(3), 4),
        4**6,
        "restriction_coprime_count mod 3, box 4",
    ),
    "root_count_mod": (lambda: root_count_mod(lambda v: v[0] * v[1], 2, 5), 5**2, "root_count_mod mod 5, arity 2"),
}


@pytest.mark.parametrize("call, charge, what", ORACLE_GUARDED.values(), ids=ORACLE_GUARDED)
def test_point_guard_charges_each_oracle(monkeypatch, call, charge, what):
    monkeypatch.setattr(errors, "POINT_BUDGET", charge - 1)
    with pytest.raises(RegionTooLarge, match=re.escape(what)):
        call()
    monkeypatch.setattr(errors, "POINT_BUDGET", charge)
    call()


def test_oracle_reads_coefficients_by_class():
    # the scans reduce their caller's coefficients before int64 sees them:
    # each coefficient shifted by k q with |k| near 2^70 gives the same minima
    rng = random.Random(14)

    def far(coeffs, q):
        return tuple(c + rng.choice((-1, 1)) * (2**70 + rng.randrange(2**20)) * q for c in coeffs)

    for q, form in ((35, TernaryForm(2, 3, 5, 1, 4, 6)), (105, BinaryForm(3, 4, 5))):
        mod = make_modulus(q)
        coeffs = form.coeffs() if form.arity == 3 else (form.a, form.b, form.c)
        shifted = type(form)(*far(coeffs, q))
        assert brute_min_zero(shifted, mod) == brute_min_zero(form, mod)
        assert brute_min_square(shifted, mod) == brute_min_square(form, mod)
    mod = make_modulus(15)
    form = TernaryForm(2, 3, 5, 1, 4, 6)
    shifted = TernaryForm(*far(form.coeffs(), 15))
    assert restriction_coprime_count(shifted, mod, 4) == restriction_coprime_count(form, mod, 4)
