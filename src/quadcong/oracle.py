"""Brute-force ground truth for the solver and the character-sum layer.

Exhaustive ball scans (exact, canonical tie-breaks) for the minimal zero and
minimal square-value vectors of a form mod q, the rank-2 family with
anomalously large minima, and coprime-value counts with their per-prime
main-term prediction.

Scans enumerate complete balls, so returned minima are proven minimal: a
reported witness means no nonzero vector of smaller (norm, key) satisfies the
predicate anywhere in the ball.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import numpy as np

from .errors import CertificateMismatch
from .intvec import norm_sq, vec_key
from .modmath import Modulus, sqrt_mod_squarefree
from .qforms import TernaryForm, det_gram2
from .charsum import _guard_points, _legendre_table


@dataclass(frozen=True)
class BruteResult:
    norm_sq: int
    witness: tuple
    t: int  # square root of the value mod q; 0 for plain zeros


def _zero_mask(vals: np.ndarray, mod: Modulus) -> np.ndarray:
    return vals % mod.q == 0


def _square_mask(vals: np.ndarray, mod: Modulus) -> np.ndarray:
    ok = np.ones(vals.shape, dtype=bool)
    for p in mod.primes:
        ok &= _legendre_table(p)[vals % p] >= 0
    return ok


def _best_of(cands, best):
    for v in cands:
        key = (norm_sq(v), vec_key(v))
        if best is None or key < best[0]:
            best = (key, v)
    return best


def _scan_ball2(form, mod, r_sq: int, mask_fn):
    q = mod.q
    r = isqrt(r_sq)
    xs = np.arange(-r, r + 1, dtype=np.int64)
    a, b, c = form.a % q, form.b % q, form.c % q
    vals = a * xs[:, None] ** 2 + b * xs[:, None] * xs[None, :] + c * xs[None, :] ** 2
    norms = xs[:, None] ** 2 + xs[None, :] ** 2
    mask = mask_fn(vals, mod) & (norms <= r_sq) & (norms > 0)
    best = None
    for i, j in np.argwhere(mask).tolist():
        best = _best_of([(int(xs[i]), int(xs[j]))], best)
    return best


def _scan_ball3(form, mod, r_sq: int, mask_fn):
    q = mod.q
    r = isqrt(r_sq)
    xs = np.arange(-r, r + 1, dtype=np.int64)
    x2 = xs[:, None]
    x3 = xs[None, :]
    a11, a22, a33 = form.a11 % q, form.a22 % q, form.a33 % q
    a12, a13, a23 = form.a12 % q, form.a13 % q, form.a23 % q
    base = a22 * x2 * x2 + a33 * x3 * x3 + a23 * x2 * x3
    n23 = x2 * x2 + x3 * x3
    best = None
    for v1 in xs.tolist():
        rem = r_sq - v1 * v1
        if rem < 0:
            continue
        vals = base + a11 * v1 * v1 + a12 * v1 * x2 + a13 * v1 * x3
        mask = mask_fn(vals, mod) & (n23 <= rem)
        if v1 == 0:
            mask &= n23 > 0
        if not mask.any():
            continue
        cands = [(v1, int(xs[i]), int(xs[j])) for i, j in np.argwhere(mask).tolist()]
        best = _best_of(cands, best)
    return best


def _brute_min(form, mod, mask_fn, bound_sq, start_sq):
    """Doubling ball scan; exact canonical minimum with mask_fn true at Q(v).

    Returns the (key, vector) pair or None if bound_sq was given and the
    exhaustive scan up to it found nothing.
    """
    arity = form.arity
    scan = _scan_ball2 if arity == 2 else _scan_ball3
    r_sq = start_sq if bound_sq is None else min(start_sq, bound_sq)
    while True:
        _guard_points((2 * isqrt(r_sq) + 1) ** arity, f"{scan.__name__} mod {mod.q}, r^2 = {r_sq}")
        best = scan(form, mod, r_sq, mask_fn)
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
    best = _brute_min(form, mod, _zero_mask, bound_sq, start_sq=16)
    if best is None:
        return None
    (s, _), v = best
    if form.evaluate(v) % mod.q:
        raise CertificateMismatch(f"ball scan returned {v}, not a zero of {form} mod {mod.q}")
    return BruteResult(norm_sq=s, witness=v, t=0)


def brute_min_square(form, mod: Modulus, bound_sq=None):
    """Exact minimal nonzero vector whose value is a square (possibly 0) mod q."""
    best = _brute_min(form, mod, _square_mask, bound_sq, start_sq=4)
    if best is None:
        return None
    (s, _), v = best
    t = sqrt_mod_squarefree(form.evaluate(v) % mod.q, mod)
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
    # (b^2, b, 1) kills both linear factors outright, so the minimum lives
    # inside a ball of squared radius b^4 + b^2 + 1 and one capped scan is
    # both certified and affordable
    cap = b**4 + b * b + 1
    res = brute_min_zero(rank_two_family_form(a, b), mod, bound_sq=cap)
    if res is None:
        raise CertificateMismatch(f"rank-2 form ({a}, {b}) has no zero mod {mod.q} within {cap}")
    return res


# --------------------------------------------------------- coprime counting


@dataclass(frozen=True)
class CoprimeCount:
    count: int  # points a in [1, A]^n with gcd(F(a), q) = 1
    box: int
    arity: int
    roots: dict  # p -> #{a mod p : p | F(a)}
    prediction: Fraction  # A^n * prod (1 - roots[p] / p^n)

    def relative_gap(self) -> Fraction:
        if self.prediction == 0:
            raise ZeroDivisionError("prediction vanishes")
        return abs(Fraction(self.count) - self.prediction) / self.prediction


def root_count_mod(f, arity: int, p: int) -> int:
    """#{a in [0, p)^arity : p | f(a)} by direct enumeration."""
    _guard_points(p**arity, f"root_count_mod mod {p}, arity {arity}")
    return sum(1 for a in product(range(p), repeat=arity) if f(a) % p == 0)


def coprime_count(f, arity: int, mod: Modulus, box: int) -> CoprimeCount:
    """Exact count of a in [1, box]^arity with gcd(f(a), q) = 1, plus the
    per-prime root counts and the product-formula prediction."""
    _guard_points(box**arity, f"coprime_count mod {mod.q}, box {box}, arity {arity}")
    q = mod.q
    count = sum(1 for a in product(range(1, box + 1), repeat=arity) if gcd(f(a) % q, q) == 1)
    roots = {p: root_count_mod(f, arity, p) for p in mod.primes}
    pred = Fraction(box**arity)
    for p in mod.primes:
        pred *= 1 - Fraction(roots[p], p**arity)
    return CoprimeCount(count=count, box=box, arity=arity, roots=roots, prediction=pred)


def _restriction_det4_grids(form: TernaryForm, edge_lo: int, edge_hi: int):
    """Vectorized det4 of the restriction to planes spanned by two columns.

    Yields (col1, det4_grid) with col1 ranging over [lo, hi]^3 in lex order
    and det4_grid the int64 array over all col2 in the same box, lex order.
    """
    rng = np.arange(edge_lo, edge_hi + 1, dtype=np.int64)
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
    for v1 in rng.tolist():
        for v3 in rng.tolist():
            for v5 in rng.tolist():
                col1 = (v1, v3, v5)
                a_r = form.evaluate(col1)
                gr = tuple(sum(g[i][j] * col1[j] for j in range(3)) for i in range(3))
                b_grid = gr[0] * a2 + gr[1] * a4 + gr[2] * a6
                yield col1, 4 * a_r * q_c2 - b_grid * b_grid


def restriction_coprime_count(form: TernaryForm, mod: Modulus, box: int) -> CoprimeCount:
    """coprime_count for the 6-variable restriction determinant, vectorized.

    The evaluator takes (a1, ..., a6) to det4 of the restriction of the form
    to the plane spanned by (a1, a3, a5) and (a2, a4, a6).
    """
    _guard_points(box**6, f"restriction_coprime_count mod {mod.q}, box {box}")
    q = mod.q
    # det4 mod p only depends on the coefficients mod q, and reducing keeps
    # every intermediate inside int64
    form = TernaryForm(*(c % q for c in form.coeffs()))
    count = 0
    for _, d4 in _restriction_det4_grids(form, 1, box):
        ok = np.ones(d4.shape, dtype=bool)
        for p in mod.primes:
            ok &= d4 % p != 0
        count += int(ok.sum())
    roots = {}
    for p in mod.primes:
        _guard_points(p**6, f"restriction_coprime_count residues mod {p}")
        zero = 0
        for _, d4 in _restriction_det4_grids(form, 0, p - 1):
            zero += int((d4 % p == 0).sum())
        roots[p] = zero
    pred = Fraction(box**6)
    for p in mod.primes:
        pred *= 1 - Fraction(roots[p], p**6)
    return CoprimeCount(count=count, box=box, arity=6, roots=roots, prediction=pred)


# ----------------------------------------------------------------- sampling


def sample_forms(mod: Modulus, count: int, seed) -> list:
    """count ternary forms, coefficients uniform in [0, q), resampled until
    nonsingular mod q; reproducible from the seed."""
    rng = random.Random(f"{seed}:forms:{mod.q}")
    q = mod.q
    out = []
    while len(out) < count:
        form = TernaryForm(*(rng.randrange(q) for _ in range(6)))
        if gcd(det_gram2(form), q) == 1:
            out.append(form)
    return out


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
