"""Brute-force ground truth for the solver and the character-sum layer.

Exhaustive ball scans (exact, canonical tie-breaks) for the minimal zero and
minimal square-value vectors of a form mod q, coprime-value counts with their
per-prime main-term prediction, and the rank-2 family with anomalously large
minima, whose exact minima come from a lattice reduction instead.

Scans enumerate complete balls, so returned minima are proven minimal: a
reported witness means no nonzero vector of smaller (norm, key) satisfies the
predicate anywhere in the ball.
"""

from dataclasses import dataclass
from itertools import product
from math import gcd, isqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import CertificateMismatch, InvalidInput, _guard_points
from .intvec import norm_sq, vec_key
from .lattice import shortest_vector3
from .modmath import Modulus, jacobi, sqrt_mod_squarefree
from .qforms import TernaryForm, sample_forms
from .charsum import _BLOCK, _chi, _legendre_table

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class BruteResult:
    norm_sq: int
    witness: tuple
    t: int  # square root of the value mod q; 0 for plain zeros


def _scan_ball(form, mod: Modulus, r_sq: int, square: bool):
    """Canonical (norm, vector) minimum over the nonzero v with
    norm_sq(v) <= r_sq whose value is 0 mod q (square False) or a square,
    possibly 0, mod every prime of q (square True); None if there is none.

    The last two coordinates (x, y) span the (2r+1)^2 box, scanned in
    blocks of whole x-rows of about _BLOCK entries, rows nearest x = 0
    first, so no array holds the box.  In each block a ternary form's first
    coordinate v1 loops, nearest 0 first, until v1^2 + x^2 (x the block's
    row nearest 0) exceeds the best norm found so far, and the scan stops at
    the first block whose x^2 exceeds it.  Every vector of the best norm is
    kept, and the least by vec_key is returned.  Values are taken mod d, q
    itself for zeros and each prime for squares, in Horner form
        Q = v1 L(x, y) + R(x, y) + a11 v1^2,
        L = a12 x + a13 y,  R = (a22 x + a23 y) x + a33 y y,
    with every partial sum reduced mod d before it is multiplied by a
    coordinate, so no int64 intermediate reaches 3 d (r + 1).  A scan whose
    modulus would cross that bound raises InvalidInput.
    """
    r = isqrt(r_sq)
    what = f"_scan_ball mod {mod.q}, r^2 = {r_sq}"
    _guard_points((2 * r + 1) ** form.arity, what)
    moduli = mod.primes if square else (mod.q,)
    if 3 * max(moduli) * (r + 1) > np.iinfo(np.int64).max:
        raise InvalidInput(f"{what}: values mod {max(moduli)} would overflow int64")
    ternary = form.arity == 3
    a11, a22, a33, a12, a13, a23 = form.coeffs() if ternary else (0, form.a, form.c, 0, 0, form.b)
    tables = [_legendre_table(d) if square else None for d in moduli]
    near = sorted(range(-r, r + 1), key=abs)
    y = np.arange(-r, r + 1, dtype=np.int64)[None, :]
    per = max(1, _BLOCK // (2 * r + 1))
    best, cands = r_sq, []
    for i0 in range(0, 2 * r + 1, per):
        x0 = near[i0]
        if x0 * x0 > best:
            break
        xs = near[i0 : i0 + per]
        x = np.array(xs, dtype=np.int64)[:, None]
        n23 = x * x + y * y
        planes = []
        for d, table in zip(moduli, tables):
            rest = a22 % d * x + a23 % d * y
            rest %= d
            rest *= x
            rest += a33 % d * y % d * y
            rest %= d
            lin = (a12 % d * x + a13 % d * y) % d if ternary else 0
            planes.append((d, lin, rest, table))
        for v1 in near if ternary else (0,):
            if v1 * v1 + x0 * x0 > best:
                break
            hit = n23 <= best - v1 * v1
            if v1 == x0 == 0:
                hit[0, r] = False
            for d, lin, rest, table in planes:
                vals = rest if v1 == 0 else (lin * v1 + rest + a11 * v1 * v1 % d) % d
                hit &= _chi(table, vals) >= 0 if square else vals == 0
            if not hit.any():
                continue
            m = v1 * v1 + int(n23[hit].min())
            if m < best:
                best, cands = m, []
            head = (v1,) if ternary else ()
            i, j = np.nonzero(hit & (n23 == m - v1 * v1))
            cands += [head + (xs[a], b - r) for a, b in zip(i.tolist(), j.tolist())]
    return (best, min(cands, key=vec_key)) if cands else None


def _brute_min(form, mod, square: bool, bound_sq, start_sq):
    """Doubling ball scan; exact canonical (norm, vector) minimum, or None
    if bound_sq was given and the exhaustive scan up to it found nothing.
    """
    r_sq = start_sq if bound_sq is None else min(start_sq, bound_sq)
    while True:
        best = _scan_ball(form, mod, r_sq, square)
        if best is not None:
            return best
        if bound_sq is not None and r_sq >= bound_sq:
            return None
        r_sq *= 4
        if bound_sq is not None:
            r_sq = min(r_sq, bound_sq)


def brute_min_zero(form, mod: Modulus, bound_sq=None):
    """Exact minimal nonzero vector with form(v) = 0 mod q, or None if an
    exhaustive scan up to bound_sq proves there is none that small."""
    best = _brute_min(form, mod, False, bound_sq, start_sq=16)
    if best is None:
        return None
    s, v = best
    if form.evaluate(v) % mod.q:
        raise CertificateMismatch(f"ball scan returned {v}, not a zero of {form} mod {mod.q}")
    return BruteResult(norm_sq=s, witness=v, t=0)


def brute_min_square(form, mod: Modulus, bound_sq=None):
    """Exact minimal nonzero vector whose value is a square (possibly 0) mod q."""
    best = _brute_min(form, mod, True, bound_sq, start_sq=4)
    if best is None:
        return None
    s, v = best
    t = sqrt_mod_squarefree(form.evaluate(v), mod)
    if t is None:
        raise CertificateMismatch(f"ball scan returned {v}, a non-square of {form} mod {mod.q}")
    return BruteResult(norm_sq=s, witness=v, t=t)


# ------------------------------------------------------------ special family


def rank_two_family_form(a: int, b: int) -> TernaryForm:
    """(x1 - b x2)^2 - a (x2 - b x3)^2: a rank-2 form with large minima
    when a is a non-residue mod a prime q."""
    return TernaryForm(
        a11=1,
        a22=b * b - a,
        a33=-a * b * b,
        a12=-2 * b,
        a13=0,
        a23=2 * a * b,
    )


def rank_two_family_min(a: int, b: int, mod: Modulus) -> BruteResult:
    """Exact minimal zero of rank_two_family_form(a, b) mod q, for a a
    non-residue mod every prime p of q.

    Then (x1 - b x2)^2 = a (x2 - b x3)^2 mod p forces x2 = b x3 and
    x1 = b x2, so the zeros are the lattice spanned by (b^2, b, 1), (q, 0, 0)
    and (0, q, 0), and its canonical shortest vector is the minimum.
    """
    q = mod.q
    if any(jacobi(a, p) != -1 for p in mod.primes):
        raise InvalidInput(f"rank-2 family needs a non-residue mod every prime of {q}, got a = {a}")
    v = shortest_vector3([(b * b, b, 1), (q, 0, 0), (0, q, 0)])
    return BruteResult(norm_sq=norm_sq(v), witness=v, t=0)


# --------------------------------------------------------- coprime counting


@dataclass(frozen=True)
class CoprimeCount:
    count: int  # points a in [1, A]^n with gcd(F(a), q) = 1
    box: int
    arity: int
    roots: dict  # p -> #{a mod p : p | F(a)}
    prediction: "Fraction"  # A^n * prod (1 - roots[p] / p^n)

    def relative_gap(self) -> "Fraction":
        if self.prediction == 0:
            raise ZeroDivisionError("prediction vanishes")
        return abs(self.count - self.prediction) / self.prediction


def root_count_mod(f, arity: int, p: int) -> int:
    """#{a in [0, p)^arity : p | f(a)} by direct enumeration."""
    _guard_points(p**arity, f"root_count_mod mod {p}, arity {arity}")
    return sum(1 for a in product(range(p), repeat=arity) if f(a) % p == 0)


def _with_prediction(count: int, box: int, arity: int, roots: dict) -> CoprimeCount:
    from fractions import Fraction  # here, not at the top: it loads decimal too

    pred = Fraction(box**arity)
    for p, n in roots.items():
        pred *= 1 - Fraction(n, p**arity)
    return CoprimeCount(count=count, box=box, arity=arity, roots=roots, prediction=pred)


def coprime_count(f, arity: int, mod: Modulus, box: int) -> CoprimeCount:
    """Exact count of a in [1, box]^arity with gcd(f(a), q) = 1, plus the
    per-prime root counts and the product-formula prediction."""
    _guard_points(box**arity, f"coprime_count mod {mod.q}, box {box}, arity {arity}")
    q = mod.q
    count = sum(1 for a in product(range(1, box + 1), repeat=arity) if gcd(f(a), q) == 1)
    return _with_prediction(count, box, arity, {p: root_count_mod(f, arity, p) for p in mod.primes})


def _restriction_det4_grids(form: TernaryForm, d: int, edges: range):
    """Vectorized det4 mod d of the restriction to planes spanned by two columns.

    Yields (col1, det4_grid) with col1 ranging over edges^3 in lex order and
    det4_grid the int64 array of det4 mod d over all col2 in edges^3, lex
    order.  The coefficients, a_r and gr are reduced mod d as Python ints;
    with coordinates below 22 (the box the budget admits), q_c2 < 2646 d
    and b_grid < 63 d, so 4 a_r q_c2 - b_grid^2 stays within 10584 d^2 of 0
    in int64.  That is exact for d < 2.9e7, and restriction_coprime_count's
    budget keeps q <= 3 * 5 * ... * 19 = 4,849,845.
    """
    form = TernaryForm(*(c % d for c in form.coeffs()))
    rng = np.arange(edges.start, edges.stop, dtype=np.int64)
    k = len(rng)
    a2 = np.repeat(rng, k * k)
    a4 = np.tile(np.repeat(rng, k), k)
    a6 = np.tile(rng, k * k)
    g = form.gram2()
    q_c2 = (
        form.a11 * a2 * a2
        + form.a22 * a4 * a4
        + form.a33 * a6 * a6
        + form.a12 * a2 * a4
        + form.a13 * a2 * a6
        + form.a23 * a4 * a6
    )
    for col1 in product(edges, repeat=3):
        a_r = form.evaluate(col1) % d
        gr = tuple(sum(g[i][j] * col1[j] for j in range(3)) % d for i in range(3))
        b_grid = gr[0] * a2 + gr[1] * a4 + gr[2] * a6
        yield col1, (4 * a_r * q_c2 - b_grid * b_grid) % d


def restriction_coprime_count(form: TernaryForm, mod: Modulus, box: int) -> CoprimeCount:
    """coprime_count for the 6-variable restriction determinant, vectorized.

    The evaluator takes (a1, ..., a6) to det4 of the restriction of the form
    to the plane spanned by (a1, a3, a5) and (a2, a4, a6).  Every prime is
    charged p^6 before any grid is built, so the point budget keeps each
    prime below 21 and q below 4.9e6, well inside the grids' int64 bound.
    """
    _guard_points(box**6, f"restriction_coprime_count mod {mod.q}, box {box}")
    for p in mod.primes:
        _guard_points(p**6, f"restriction_coprime_count residues mod {p}")
    q = mod.q
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    count = 0
    for _, d4 in _restriction_det4_grids(form, q, range(1, box + 1)):
        count += int(coprime[d4].sum())
    roots = {}
    for p in mod.primes:
        roots[p] = sum(int((d4 == 0).sum()) for _, d4 in _restriction_det4_grids(form, p, range(p)))
    return _with_prediction(count, box, 6, roots)


@dataclass(frozen=True)
class OracleRow:
    q: int
    form: TernaryForm
    min_zero: BruteResult
    min_square: BruteResult


def oracle_scan(mod: Modulus, count: int, seed) -> list:
    """Exact minima for a reproducible sample of nonsingular forms."""
    rows = []
    for form in sample_forms(mod, count, seed):
        rows.append(
            OracleRow(
                q=mod.q,
                form=form,
                min_zero=brute_min_zero(form, mod),
                min_square=brute_min_square(form, mod),
            )
        )
    return rows
