"""Exact character-sum evaluation for binary quadratic forms.

Covers, all in exact integer arithmetic (numpy int8/int64 and uint64 bit
planes internally):

* real characters jacobi(. , d) for odd square-free d (d = 1 = trivial),
* incomplete sums of chi(Q(x, y)) over discs and boxes,
* complete-grid sums and their per-prime factorization,
* divisor-indexed character sums and the positivity test for square values,
* minimal integral lifts of a coefficient class mod q,
* shift parameters (a, b) with Q(x + n s) = Q(s) * companion(n + a, b) mod q,
* shifted complete product sums over F_p (split route) and F_{p^2}
  (norm route), their prime-by-prime product over composite q, and the
  windowed power sums built from them,
* exponential sums sum_x e_p(y.x) chi(Q(x)) for ternary Q as an exact
  integer, with the adjugate-based size dichotomy.

Complete sums use homogeneity, chi(lam^2 m) = chi(m): a binary grid sum
mod p takes O(p) steps, and so does a ternary exponential sum, whose chart
x1 = 1 is summed in closed form (_chart_sum).

Every shifted product sum (one-variable, norm, companion grid) runs through
one kernel, ``_plane_product_sum``, over bit planes: a {-1, 0, 1} table
with m rows is held as two contiguous (m, ceil(cols/64)) uint64 arrays,
"nonzero" and "negative", packed along the columns.  Rolling the table by n
rows is a row-offset slice, the product of rolled tables is an AND of the
nonzero planes and an XOR of the negative ones, and the sum is
popcount(nonzero) - 2 popcount(nonzero & negative).  A sparse table, one
that vanishes only at (0, 0) and is too large to roll in a doubled copy,
keeps only its negative plane (``_seal``): an inert companion grid and the
F_{p^2} norm table are anisotropic, and a Legendre table vanishes only at 0.
The kernel then corrects the XOR's popcount at the few points where a
rolled factor is zero.  Split companion grids (2p - 1 zeros) keep both
planes and the AND.  Two builders make every table's planes:
``_planes`` a prime's grid, ``_legendre_planes`` a Legendre table.

The one character table is the Legendre table of a prime: d is
square-free, so jacobi(., d) is the product of the Legendre symbols mod its
primes.  A prime's p x p grid comes from homogeneity: with g the least
primitive root, chi(Q(x, y)) = N[log x - log y] for x, y != 0, where
N[k] = chi(Q(g^k, 1)), so row x is a window of one line holding the doubled
N (``_prime_line``), its columns in log order.  A prime's planes are
gathered from that line, packed once at each of the 64 bit offsets, with no
grid built (``_planes``).  A composite grid is read only as rows, by the
window sums: the Kronecker product of its prime rows, columns in CRT x log
order (``_grid_source``); no sum over all columns sees that order.  No
kernel evaluates Q point by point over a grid.

The norm table of F_{p^2}, the grid of c^2 - delta e^2, is even in e, and
-y = g^((p-1)/2) y, so its log-order columns j and j + (p - 1)/2 are equal:
``norm_shift_sum`` sums only the (p + 1)/2 columns 0..(p - 1)/2 and doubles
every column but y = 0.  The direct grid of a companion form keeps all p.

Tables live in one store (``_stored``), keyed by (kind, modulus,
arguments): Legendre tables (as bits above _PACKED, read through
``_chi``), (exp, log) tables, Legendre planes, and the planes of companion
grids and half-width norm tables.  It is bounded in bytes by TABLE_BYTES
and evicts the least recently used table first, but never a table of a
modulus held (``_holding``): a build holds its own modulus, and a call over
q's primes holds them all (form_shift_sum_q, full_grid_sum,
incomplete_sum).  So the tables one call reads never evict one another, a
scan builds each once per prime, and the store passes its cap only by the
tables of the call in progress.  ``table_stats`` counts builds, hits,
evictions and bytes held per kind.  The window sums read their grid rows
one block at a time per call (``_window_rows``).
"""

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from functools import wraps
from itertools import combinations
from math import gcd, isqrt, prod
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificateMismatch,
    InvalidInput,
    NotInGoodSet,
    SingularQTilde,
    _guard_points,
)
from .intvec import cross3
from .lattice import lift_lattice
from .modmath import (
    Modulus,
    _factor,
    crt_combine,
    find_nonresidue,
    inv_mod,
    is_prime,
    is_square_mod,
    jacobi,
    make_modulus,
)
from .qforms import BinaryForm, TernaryForm, _check_arity, adjugate4, monic_companion, restrict

_BLOCK = 1 << 16  # entries per block of a table build: its int64 temporaries stay in cache
_PACKED = 1 << 20  # primes above this keep their Legendre table as bits: p / 8 bytes
# the table store's cap on tables kept for later calls: the most any workload
# or CLI command reads again is scan-composite's 0.51 MB.  The tables of the
# call in progress may pass it (a prime near 3000 holds 4.1 MB)
TABLE_BYTES = 3 << 20


# --------------------------------------------------------------- table store

_tables: OrderedDict = OrderedDict()  # (kind, d, args) -> (table, bytes), least recently used first
_counts: dict = {}  # kind -> [builds, hits, evictions, bytes held]
_call_moduli: frozenset = frozenset()  # moduli of the call in progress (_holding): never evicted


class TableStats(NamedTuple):
    """One kind of table in the store: tables built, lookups served from
    the store, tables evicted, and the bytes held now."""

    builds: int
    hits: int
    evictions: int
    bytes: int


def _nbytes(table) -> int:
    """Bytes of the arrays in a table: an array or a tuple of them."""
    if isinstance(table, np.ndarray):
        return table.nbytes
    return sum(_nbytes(t) for t in table) if isinstance(table, tuple) else 0


def _stored(build):
    """build(d, *args), a table mod d, served from the store under the
    key (kind, d, args), kind being build's name.  A build charges the
    point budget itself, so a hit charges nothing.  The build and the
    evictions after it hold modulus d (_holding), so a table never evicts
    one of its own modulus."""
    kind = build.__name__.lstrip("_")
    _counts[kind] = count = [0, 0, 0, 0]

    @wraps(build)
    def table(d, *args):
        key = (kind, d, args)
        hit = _tables.get(key)
        if hit is not None:
            _tables.move_to_end(key)
            count[1] += 1
            return hit[0]
        with _holding((d,)):
            value = build(d, *args)
            size = _nbytes(value)
            _tables[key] = (value, size)
            count[0] += 1
            count[3] += size
            _evict()
        return value

    return table


def _evict():
    """Evict the least recently used tables of moduli no _holding block
    holds, until the store holds at most TABLE_BYTES."""
    held = sum(c[3] for c in _counts.values())
    if held <= TABLE_BYTES:
        return
    for key in [k for k in _tables if k[1] not in _call_moduli]:
        _, size = _tables.pop(key)
        count = _counts[key[0]]
        count[2] += 1
        count[3] -= size
        held -= size
        if held <= TABLE_BYTES:
            return


@contextmanager
def _holding(moduli):
    """Hold the tables of these moduli in the store for the block: a call
    over the primes of q reads each prime's tables, and they must not evict
    one another, or every repeat of the call rebuilds them all; a build
    holds its own modulus (_stored)."""
    global _call_moduli
    outer = _call_moduli
    _call_moduli = outer | frozenset(moduli)
    try:
        yield
    finally:
        _call_moduli = outer


def table_stats():
    """A read-only snapshot of the store's counters: kind -> TableStats,
    kinds in name order."""
    return MappingProxyType({kind: TableStats(*count) for kind, count in sorted(_counts.items())})


def clear_tables():
    """Empty the store and zero its counters."""
    _tables.clear()
    for count in _counts.values():
        count[:] = [0, 0, 0, 0]


# ---------------------------------------------------------------- characters


def _aranges(n: int):
    """int64 blocks of _BLOCK / 8 consecutive integers (64 KB) covering [0, n)."""
    for i0 in range(0, n, _BLOCK // 8):
        yield np.arange(i0, min(i0 + _BLOCK // 8, n), dtype=np.int64)


@dataclass(frozen=True)
class Character:
    """Real character m -> jacobi(m, d) for odd square-free d, factored into primes; d = 1 is trivial."""

    d: int
    primes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "primes", () if self.d == 1 else make_modulus(self.d).primes)


def make_character(d: int) -> Character:
    return Character(d)


@_stored
def _legendre_table(p: int) -> np.ndarray:
    # table[i] = jacobi(i, p): the squares of 0..(p-1)/2 mark every residue
    # (each once up to sign), built in blocks so no int64 array of length p
    # is ever held.  Above _PACKED only the bits of the nonzero squares are
    # kept; read every table through _chi.
    _guard_points(p, f"_legendre_table mod {p}")
    t = np.full(p, -1, dtype=np.int8)
    for i in _aranges((p + 1) // 2):
        t[i * i % p] = 1
    t[0] = 0
    if p > _PACKED:
        step = 8 * _BLOCK  # whole bytes per block; the bool temporaries stay small
        t = np.concatenate([np.packbits(t[k : k + step] > 0, bitorder="little") for k in range(0, p, step)])
    t.flags.writeable = False
    return t


def _chi(t: np.ndarray, v):
    """jacobi(v, p) for residues v mod p (an int or an int64 array), read from p's Legendre table t."""
    if t.dtype == np.int8:
        return t[v]
    v = np.asarray(v)
    return 2 * (t[v >> 3] >> (v & 7).astype(np.uint8) & 1).astype(np.int8) - (v != 0)


# ------------------------------------------------------------------- regions


@dataclass(frozen=True)
class Disc:
    """Lattice points with (x - cx)^2 + (y - cy)^2 <= r_sq."""

    cx: int
    cy: int
    r_sq: int

    def rows(self):
        if self.r_sq < 0:
            return
        r = isqrt(self.r_sq)
        for y in range(self.cy - r, self.cy + r + 1):
            w = isqrt(self.r_sq - (y - self.cy) ** 2)
            yield y, self.cx - w, self.cx + w

    def point_count(self) -> int:
        return sum(hi - lo + 1 for _, lo, hi in self.rows())


@dataclass(frozen=True)
class Box:
    """Lattice points with x_lo <= x <= x_hi, y_lo <= y <= y_hi (empty if inverted)."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def rows(self):
        if self.x_hi < self.x_lo:
            return
        for y in range(self.y_lo, self.y_hi + 1):
            yield y, self.x_lo, self.x_hi

    def point_count(self) -> int:
        w = self.x_hi - self.x_lo + 1
        h = self.y_hi - self.y_lo + 1
        return max(w, 0) * max(h, 0)


def _row_chunks(region):
    """The region's rows as lists of pieces (y, lo, width) of _BLOCK points at most."""
    chunk, size = [], 0
    for y, lo, hi in region.rows():
        while lo <= hi:
            w = min(hi - lo + 1, _BLOCK - size)
            chunk.append((y, lo, w))
            size += w
            lo += w
            if size == _BLOCK:
                yield chunk
                chunk, size = [], 0
    if chunk:
        yield chunk


def incomplete_sum(chi: Character, form: BinaryForm, region) -> int:
    """Exact sum of chi(Q(x, y)) over the lattice points of the region.

    chi(Q) is the product of the Legendre symbols of Q mod the primes p of
    d, one array per chunk of the region and prime.  On a row piece from
    (lo, y), Q(lo + k, y) = Q(lo, y) + k (2 a lo + b y + a k), whose row
    constants are reduced mod p as Python ints, so coordinates and d may
    pass 2^63.  The region charges its points and each Legendre table p to
    the budget; with p < POINT_BUDGET and k < _BLOCK, int64 stays below 2^59.
    """
    _guard_points(region.point_count(), f"incomplete_sum region mod {chi.d}")
    with _holding(chi.primes):
        tables = [(p, _legendre_table(p)) for p in chi.primes]
    total = 0
    for chunk in _row_chunks(region):
        widths = [w for _, _, w in chunk]
        q0 = [(form.a * lo + form.b * y) * lo + form.c * y * y for y, lo, _ in chunk]
        q1 = [2 * form.a * lo + form.b * y for y, lo, _ in chunk]
        k = np.arange(sum(widths), dtype=np.int64) - np.repeat(np.cumsum([0] + widths[:-1]), widths)
        chis = np.ones(len(k), dtype=np.int8)
        for p, t in tables:
            step = np.repeat([u % p for u in q1], widths) + form.a % p * k
            chis *= _chi(t, (step * k + np.repeat([u % p for u in q0], widths)) % p)
        total += int(chis.sum(dtype=np.int64))
    return total


def _prime_grid_sum(p: int, a: int, b: int, c: int) -> int:
    """Sum of jacobi(a x^2 + b x y + c y^2, p) over the p x p grid mod an odd
    prime p, in O(p) by homogeneity.

    The row y = 0 gives (p - 1) jacobi(a); for y != 0 put x = t y, and since
    jacobi(y^2) = 1 each of the p - 1 rows sums jacobi(a t^2 + b t + c).
    The Legendre table charges p, so p <= 10^8; with the coefficients
    reduced, the Horner form ((a t + b) mod p) t + c stays below p^2 + p <
    2^54 in int64.  t runs in blocks, so no int64 array of length p is held.

    The sum over t has a closed form (_chart_sum's), kept numeric here:
    grid-vanish and C06 check that these complete sums vanish.
    """
    a, b, c = a % p, b % p, c % p
    t = _legendre_table(p)
    row = int(_chi(t, a))
    for ts in _aranges(p):
        row += int(_chi(t, ((a * ts + b) % p * ts + c) % p).sum(dtype=np.int64))
    return (p - 1) * row


def full_grid_sum(form: BinaryForm, mod: Modulus) -> int:
    """Complete-grid sum mod q as the product of per-prime grid sums.

    The residue grid mod q is the product of the grids mod each prime and
    jacobi(. , q) splits likewise, so the q^2-point sum factors exactly;
    each prime's sum takes O(p) steps (_prime_grid_sum).
    """
    with _holding(mod.primes):
        return prod(_prime_grid_sum(p, form.a, form.b, form.c) for p in mod.primes)


# ------------------------------------------------------- divisor square test


def divisor_char_sum(v: int, mod: Modulus) -> int:
    """Sum of jacobi(v, d) over all divisors d of q (including d = 1).

    Computed two ways (divisor enumeration and the per-prime product
    expansion) which must agree; the shared value is returned.
    """
    primes = mod.primes
    by_divisors = 0
    for k in range(len(primes) + 1):
        for subset in combinations(primes, k):
            by_divisors += jacobi(v, prod(subset) if subset else 1)
    by_product = prod(1 + jacobi(v, p) for p in primes)
    if by_divisors != by_product:
        raise CertificateMismatch("divisor sum does not match product expansion")
    return by_product


def divisor_sum_positive(form: BinaryForm, mod: Modulus, point) -> bool:
    """True iff the divisor character sum at Q(point) is positive.

    Positivity is equivalent to Q(point) being a square mod q; both tests
    are run and cross-checked.
    """
    v = form.evaluate(point)
    positive = divisor_char_sum(v, mod) > 0
    if positive != is_square_mod(v, mod):
        raise CertificateMismatch("positivity disagrees with per-prime square test")
    return positive


# ------------------------------------------------------------- minimal lifts


@dataclass(frozen=True)
class MinimalLift:
    form: BinaryForm  # shortest-vector representative of the class
    lam: int  # form's coefficients are lam * (original class) mod q


def minimal_lift(a: int, b: int, c: int, mod: Modulus) -> MinimalLift:
    """Shortest integral form whose coefficient vector is a multiple of
    (a, b, c) mod q.

    det4(lift) = lam^2 * det4(class) mod q; when the class is nonsingular
    mod q this forces q not to divide det4(lift).
    """
    q = mod.q
    va, vb, vc = lift_lattice(a, b, c, mod)
    if not (va % q or vb % q or vc % q):
        raise CertificateMismatch("minimal lattice vector vanishes mod q")
    cls = (a, b, c)
    pairs = []
    for p in mod.primes:
        rp = tuple(x % p for x in cls)
        if rp == (0, 0, 0):
            pairs.append((0, p))
            continue
        i = next(k for k in range(3) if rp[k] != 0)
        lam_p = (va, vb, vc)[i] * inv_mod(rp[i], p)  # crt_combine reduces it
        for k in range(3):
            if ((va, vb, vc)[k] - lam_p * rp[k]) % p != 0:
                raise CertificateMismatch("lattice vector not proportional to class")
        pairs.append((lam_p, p))
    lam = crt_combine(pairs)
    lift = BinaryForm(va, vb, vc)
    cls_det = 4 * a * c - b * b
    if (lift.det4() - lam * lam * cls_det) % q != 0:
        raise CertificateMismatch("determinant congruence failed")
    if gcd(cls_det, q) == 1 and gcd(lift.det4(), q) == q:
        raise CertificateMismatch("lift determinant divisible by q")
    return MinimalLift(form=lift, lam=lam)


def in_lift_lattice(v, cls, mod: Modulus) -> bool:
    """Is v = lam * cls mod q for some integer lam?  Checked prime by prime."""
    for p in mod.primes:
        if all(x % p == 0 for x in cls):
            if any(x % p for x in v):
                return False
        elif any(x % p for x in cross3(v, cls)):
            return False
    return True


# ------------------------------------------------------------ shift machinery


@dataclass(frozen=True)
class ShiftParams:
    """Companion coordinates: Q(x + n s) = Q(s) * companion(n + a, b) mod q."""

    a: int
    b: int


def shift_params(form: BinaryForm, s, x, mod: Modulus, check: bool = True) -> ShiftParams:
    """Companion coordinates (a, b) for the shift s and base point x.

    Requires Q(s) to be a unit mod q.  When check is set, the defining
    identity is verified at n = 0..3; a failure would be a bug, not bad
    input, and raises CertificateMismatch.
    """
    q = mod.q
    qs = form.evaluate(s) % q
    if gcd(qs, q) != 1:
        raise NotInGoodSet(f"Q(s) = {qs} is not a unit mod {q}")
    iqs = inv_mod(qs, q)
    s1, s2 = s
    x1, x2 = x
    a = (form.a * x1 * s1 + form.b * x1 * s2 + form.c * x2 * s2) * iqs % q
    b = (x2 * s1 - x1 * s2) * iqs % q
    if check:
        qt = monic_companion(form)
        for n in range(4):
            lhs = form.evaluate((x1 + n * s1, x2 + n * s2)) % q
            rhs = qs * qt.evaluate((n + a, b)) % q
            if lhs != rhs:
                raise CertificateMismatch(f"shift identity violated at n = {n} (bug)")
    return ShiftParams(a=a, b=b)


def poly_identity_check(form: BinaryForm, s, x, mod: Modulus) -> bool:
    """Coefficientwise check of
    (A b X - a Y)(s2 X - s1 Y) = s2 b Q(X, Y) - (x2 X - x1 Y) Y  mod q."""
    q = mod.q
    sp = shift_params(form, s, x, mod, check=False)
    a, b = sp.a, sp.b
    s1, s2 = s
    x1, x2 = x
    lhs = (form.a * b * s2, -form.a * b * s1 - a * s2, a * s1)
    rhs = (s2 * b * form.a, s2 * b * form.b - x2, s2 * b * form.c + x1)
    return all((u - v) % q == 0 for u, v in zip(lhs, rhs))


def good_shift_vectors(form: BinaryForm, lift: BinaryForm, bound: int, mod: Modulus):
    """Positive vectors s with ||s|| <= bound, Q(s) a unit mod q, lift(s) != 0.

    Lexicographic order, hence deterministic.
    """
    q = mod.q
    out = []
    for s1 in range(1, bound + 1):
        for s2 in range(1, isqrt(bound * bound - s1 * s1) + 1):
            s = (s1, s2)
            if gcd(form.evaluate(s), q) != 1:
                continue
            if lift.evaluate(s) == 0:
                continue
            out.append(s)
    return out


PAIR_Q_LIMIT = 3 * 10**9


def shift_pair_counts(
    form: BinaryForm,
    lift: BinaryForm,
    mod: Modulus,
    center,
    radius_sq: int,
    shift_bound: int,
) -> np.ndarray:
    """Nonzero cell counts of the companion coordinates (a, b) mod q over the
    pairs (s, x), with s a good shift vector and x in the disc
    ||x - center||^2 <= radius_sq.

    Returns a 1-D int64 array with one entry per cell (a, b) that some pair
    hits, in an unspecified order; its sum is the number of pairs.  The
    disc's charge keeps its width w below 2^14; the first coordinates,
    reduced once per row, lie below q + w, the second ones and the
    multipliers below q.  a and b each add one unreduced product to one
    reduced one, so int64 stays below q^2 + q w + q < 2^63 and the cell key
    a q + b below q^2 for q < PAIR_Q_LIMIT = 3 * 10^9; larger q raises
    InvalidInput.
    """
    q = mod.q
    if q >= PAIR_Q_LIMIT:
        raise InvalidInput(f"q = {q} is not below {PAIR_Q_LIMIT}, the int64 limit of shift_pair_counts")
    shifts = good_shift_vectors(form, lift, shift_bound, mod)
    disc = Disc(center[0], center[1], radius_sq)
    _guard_points(disc.point_count() * max(len(shifts), 1), f"shift_pair_counts mod {q}")
    rows = list(disc.rows())
    # disc rows yield (y, lo, hi); here the pair is (x1, x2) with x2 the row
    xs1 = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [lo % q + np.arange(hi - lo + 1, dtype=np.int64) for _, lo, hi in rows]
    )
    xs2 = np.repeat(
        np.array([y % q for y, _, _ in rows], dtype=np.int64),
        [hi - lo + 1 for _, lo, hi in rows],
    )
    keys = [np.zeros(0, dtype=np.int64)]
    for s1, s2 in shifts:
        iqs = inv_mod(form.evaluate((s1, s2)), q)
        ka = (form.a * s1 + form.b * s2) * iqs % q
        kc = form.c * s2 * iqs % q
        kb1, kb2 = -s2 * iqs % q, s1 * iqs % q
        av = (ka * xs1 + kc * xs2 % q) % q
        bv = (kb1 * xs1 % q + kb2 * xs2) % q
        keys.append(av * q + bv)
    _, counts = np.unique(np.concatenate(keys), return_counts=True)
    return counts.astype(np.int64, copy=False)


def second_moment(counts: np.ndarray) -> int:
    """Sum of squared pair counts over the (a, b) grid."""
    return int((counts.astype(np.int64) ** 2).sum(dtype=np.int64))


# ------------------------------------------------- shifted complete sums


def delta_gcd(ns) -> int:
    """The gcd over i of prod over j != i of (n_j - n_i), 0 when every
    product vanishes."""
    return gcd(*(prod(nj - ni for j, nj in enumerate(ns) if j != i) for i, ni in enumerate(ns)))


def _require_scan_prime(p: int):
    if not is_prime(p) or p == 2:
        raise InvalidInput(f"{p} is not an odd prime")


class _Planes(NamedTuple):
    """Bit planes of a {-1, 0, 1} table with m rows and cols columns: nz and
    neg are contiguous read-only (m, ceil(cols / 64)) uint64 arrays with bit
    y of row x set where entry (x, y) is nonzero, resp. negative; size is
    m * cols.  nz is None for a sparse table, one that vanishes only at
    (0, 0) and is not _doubled: it keeps only its negative plane, and
    _plane_product_sum takes its sparse path."""

    nz: np.ndarray | None
    neg: np.ndarray
    size: int


def _doubled(m: int, w: int) -> bool:
    """Does _plane_product_sum roll a table of m rows of w words per plane
    within a doubled copy?  At most _BLOCK / 16 words, it costs numpy calls
    rather than bytes."""
    return m * w <= _BLOCK // 16


def _seal(nz: np.ndarray, neg: np.ndarray, cols: int) -> _Planes:
    """The _Planes of a table with cols columns from its (m, w) uint64
    nonzero and negative planes, padding bits clear, made read-only.  A
    sparse table keeps only its negative plane: it is not _doubled, bit
    (0, 0) of its nonzero plane is clear and every other one of its m cols
    bits is set."""
    m, w = nz.shape
    nz.flags.writeable = neg.flags.writeable = False
    sparse = not (_doubled(m, w) or nz[0, 0] & 1) and np.bitwise_count(nz).sum(dtype=np.int64) == m * cols - 1
    return _Planes(None if sparse else nz, neg, m * cols)


def _plane_product_sum(planes: _Planes, ns) -> int:
    """Sum over every entry of the product of the table rolled by each n in
    ns (row i of a roll by n is row (i + n) mod m), on the table's planes.

    Rolling every factor back by ns[0] leaves the sum unchanged, so the
    factors are rolled by d = (n - ns[0]) mod m.  A product of entries in
    {-1, 0, 1} is nonzero where every factor is and negative where an odd
    number of factors are: each roll XORs the negative plane into X, and
    ANDs the nonzero plane into the nonzero accumulator, and the sum is
    popcount(nonzero) - 2 popcount(nonzero & X).

    The rows go in blocks of about _BLOCK / 2 words, whose accumulators
    stay in cache; a block of a roll is one row slice, or two where it
    wraps.  A _doubled table is rolled within a doubled copy, where no roll
    wraps.

    A sparse table (planes.nz is None, see _seal) vanishes only at (0, 0)
    and keeps only its negative plane.  The product is (-1)^X off the set U
    of points where some factor is zero, column 0 at row (-d) mod m for
    each distinct roll d, so the sum is size - 2 popcount(X) - sum over U of
    (-1)^X(P), with X(P) read from column 0 of the negative plane.  That
    correction costs a few numpy calls whatever the table, more than the AND
    saves on a doubled table."""
    nz, neg, size = planes
    ns = tuple(ns)
    if not ns:
        return size
    m, w = neg.shape
    sparse = nz is None
    rows = min(m, max(1, _BLOCK // (2 * w)))
    if not sparse and _doubled(m, w):
        nz, neg = np.concatenate((nz, nz)), np.concatenate((neg, neg))
    acc = np.empty((2 - sparse, rows, w), dtype=np.uint64)  # [nonzero,] negative accumulators
    ones = negs = 0
    for r0 in range(0, m, rows):
        h = min(rows, m - r0)
        acc_nz, acc_neg = acc[0, :h], acc[-1, :h]
        if not sparse:
            acc_nz[:] = nz[r0 : r0 + h]
        acc_neg[:] = neg[r0 : r0 + h]
        for n in ns[1:]:
            s = (r0 + n - ns[0]) % m
            k = min(h, len(neg) - s)
            if not sparse:
                acc_nz[:k] &= nz[s : s + k]
            acc_neg[:k] ^= neg[s : s + k]
            if k < h:
                if not sparse:
                    acc_nz[k:] &= nz[: h - k]
                acc_neg[k:] ^= neg[: h - k]
        if not sparse:
            acc_neg &= acc_nz
        # a block holds h w <= max(_BLOCK / 2, w) words, at most 64 max(2^15,
        # 157) <= 2^21 set bits per plane (the guard keeps cols <= 10^4), so
        # uint32 sums them exactly, and faster than int64
        counts = np.bitwise_count(acc[:, :h]).sum(axis=(1, 2), dtype=np.uint32)
        ones += int(counts[0])
        negs += int(counts[-1])
    if not sparse:
        return ones - 2 * negs
    d = [(n - ns[0]) % m for n in ns]
    u = np.array([m - k for k in set(d)], dtype=np.int64)  # U's rows, reduced in the gather
    bits = neg[(u[:, None] + d) % m, 0]
    odd = int((np.bitwise_xor.reduce(bits, axis=1) & np.uint64(1)).sum(dtype=np.int64))
    return size - 2 * negs - (len(u) - 2 * odd)


@_stored
def _log_tables(p: int):
    """(exp, log) for the least primitive root g mod an odd prime p, read-only
    int64: exp[k] = g^k mod p for k < p - 1 and log[exp[k]] = k (log[0] = 0).

    exp is filled by doubling, exp[n + k] = exp[k] * g^n, so each product
    stays below p^2."""
    _guard_points(p, f"_log_tables mod {p}")
    rs = set(_factor(p - 1))
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // r, p) != 1 for r in rs))
    e = np.ones(p - 1, dtype=np.int64)
    n = 1
    while n < p - 1:
        k = min(n, p - 1 - n)
        e[n : n + k] = e[:k] * pow(g, n, p) % p
        n += k
    log = np.zeros(p, dtype=np.int64)
    log[e] = np.arange(p - 1, dtype=np.int64)
    e.flags.writeable = log.flags.writeable = False
    return e, log


def _prime_line(p: int, a: int, b: int, c: int):
    """(line, starts, col0) of the p x p grid G of jacobi(a x^2 + b x y +
    c y^2, p), columns in log order: row x of G is the length-p window of
    the int8 line at starts[x], with entry y = 0 set to col0[x].

    As chi(Q(x, y)) = N[log x + j] for x != 0 != y = g^-j, N[k] =
    chi(Q(g^k, 1)), the line is [N, N, 0, chi(c), ...] (3p - 2 entries),
    row x != 0 starts at log x - 1 (mod p - 1) with col0[x] = chi(a x^2) =
    chi(a), and row 0 at 2p - 2 with col0[0] = 0.  O(p) steps.  The
    coefficients may be any integers: they are reduced mod p as Python
    ints.  Every caller charges p^2 or more, so p <= 10^4 and N's arguments,
    (a e + b) e + c with e < p, stay below p^3 + p < 10^12 in int64."""
    t = _legendre_table(p)
    e, log = _log_tables(p)
    ap, bp, cp = a % p, b % p, c % p
    n = _chi(t, ((ap * e + bp) * e + cp) % p)
    line = np.concatenate([n, n, [0], np.full(p - 1, _chi(t, cp))], dtype=np.int8)
    starts = (log - 1) % (p - 1)
    starts[0] = 2 * (p - 1)
    col0 = np.full(p, _chi(t, ap), dtype=np.int8)
    col0[0] = 0
    return line, starts, col0


def _grid_source(primes, a: int, b: int, c: int):
    """rows(xs): the int8 rows x in xs (int64 residues) of the d x d grid of
    jacobi(a x^2 + b x y + c y^2, d), d = prod(primes).  By CRT, row x is
    the Kronecker product of the prime rows G_p[x mod p], each a window of
    _prime_line's line.  Only the window sums read a composite grid, and
    only as these rows (_window_rows)."""
    parts = []
    for p in primes:
        line, starts, col0 = _prime_line(p, a, b, c)
        # the 2p - 1 windows as one view; sliding_window_view costs more per call
        parts.append((p, np.ndarray((2 * p - 1, p), np.int8, line, strides=(1, 1)), starts, col0))

    def rows(xs):
        blk = None
        for p, windows, starts, col0 in parts:
            r = xs % p
            gp = windows[starts[r]]
            gp[:, 0] = col0[r]
            blk = gp if blk is None else (blk[:, :, None] * gp[:, None, :]).reshape(len(xs), -1)
        return blk

    return rows


@_stored
def _planes(p: int, a: int, b: int, c: int, cols: int | None = None) -> _Planes:
    """The bit planes of the first cols (default all p) columns of
    _prime_line's p x p grid of jacobi(a x^2 + b x y + c y^2, p), p an odd
    prime, for the shifted product sums: the companion grids
    (form_shift_sum_direct) and the half-width norm table (norm_shift_sum).
    Charges p^2 before it allocates, whatever cols is.

    The planes are built without the grid.  Each plane of the line is packed
    once at each of the 64 bit offsets, as (64, n) uint64 words with word k
    at offset o holding bits o + 64 k, ..., o + 64 k + 63.  Row x's w words
    are then the w words from word s >> 6 at offset s & 63, s = starts[x]:
    one gather through a strided view of every run of w words.  Bit 0 is
    then set from col0 and the padding bits cleared."""
    _guard_points(p * p, f"_planes mod {p}")
    cols = p if cols is None else cols
    line, starts, col0 = _prime_line(p, a, b, c)
    w = -(-cols // 64)
    n = ((2 * p - 2) >> 6) + w  # words per offset: the last window starts at bit 2p - 2
    o = np.arange(64, dtype=np.uint64)[:, None]
    planes = []
    for bits, first in ((line != 0, col0 != 0), (line < 0, col0 < 0)):
        buf = np.zeros(64 * (n + 1), dtype=bool)  # the line, cut or padded with zeros
        k = min(len(bits), len(buf))
        buf[:k] = bits[:k]
        words = np.packbits(buf, bitorder="little").view(np.uint64)
        # (hi << 1) << (63 - o): a shift by 64 is undefined, this one gives 0 at o = 0
        shifted = (words[:-1] >> o) | ((words[1:] << np.uint64(1)) << (np.uint64(63) - o))
        runs = np.ndarray((64, n - w + 1, w), np.uint64, shifted, strides=(8 * n, 8, 8))
        plane = runs[starts & 63, starts >> 6]
        plane[:, 0] = (plane[:, 0] & ~np.uint64(1)) | first
        plane[:, -1] &= np.uint64((1 << (cols - 64 * (w - 1))) - 1)
        planes.append(plane)
    return _seal(*planes, cols)


@_stored
def _legendre_planes(p: int):
    """The planes of the Legendre table mod p as a one-column table: one
    word per row, holding the entry in bit 0.  The two planes hold 128 bits
    per residue, charged before the Legendre table or the planes are built.
    They are filled block by block and allocated apart, so the nonzero plane
    that _seal drops past _BLOCK / 16 rows is freed."""
    _guard_points(128 * p, f"_legendre_planes mod {p}")
    t = _legendre_table(p)
    nz, neg = np.zeros((p, 1), dtype=np.uint64), np.zeros((p, 1), dtype=np.uint64)
    for i in _aranges(p):
        v = _chi(t, i)
        nz[i, 0], neg[i, 0] = v != 0, v < 0
    return _seal(nz, neg, 1)


def linear_shift_sum(p: int, ns) -> int:
    """sum over a mod p of jacobi(prod_i (n_i + a), p): the one-variable
    shifted product sum, O(p)."""
    _require_scan_prime(p)
    return _plane_product_sum(_legendre_planes(p), ns)


def norm_shift_sum(p: int, ns) -> int:
    """Shifted product sum over F_{p^2} through the norm character.

    The table is the grid of c^2 - delta e^2, delta the least non-residue:
    the norm-character table of F_{p^2} = F_p[T]/(T^2 - delta), whose value
    at c + eT is jacobi(Norm(c + eT), p).  The sum equals the two-variable
    complete sum for any inert companion form: the substitution
    z = a - (root) b identifies the (a, b) grid with F_{p^2} and sends
    companion(n + a, b) to Norm(n + z).

    The norm is even in e and -y = g^((p-1)/2) y, so log-order columns j
    and j + (p - 1)/2 are equal: only columns 0..(p - 1)/2 are summed
    (S_half), and the full sum is 2 S_half less column y = 0, counted twice
    there.  That column's product is 1 at each c where no c + n vanishes.
    """
    _require_scan_prime(p)
    ns = tuple(ns)
    half = _plane_product_sum(_planes(p, 1, 0, -find_nonresidue(p), (p + 1) // 2), ns)
    return 2 * half - (p - len({n % p for n in ns}))


def _check_companion(p: int, qt: BinaryForm):
    if qt.det4() % p == 0:
        raise SingularQTilde(f"det4 = {qt.det4()} vanishes mod {p}")
    if qt.a % p == 0:
        raise InvalidInput("companion leading coefficient must be a unit")


def form_shift_sum_direct(p: int, ns, qt: BinaryForm) -> int:
    """Direct O(p^2) evaluation of the shifted companion-form product sum:
    sum over (a, b) mod p of jacobi(prod_i qt(n_i + a, b), p)."""
    _require_scan_prime(p)
    _check_companion(p, qt)
    # reduced here so that congruent companions share one store entry
    return _plane_product_sum(_planes(p, qt.a % p, qt.b % p, qt.c % p), ns)


def splits_mod(qt: BinaryForm, p: int) -> bool:
    """Does the companion form factor into two linear forms over F_p?"""
    return jacobi(qt.disc(), p) == 1


def form_shift_sum(p: int, ns, qt: BinaryForm, check: bool = True) -> int:
    """Shifted companion-form product sum mod an odd prime p.

    Uses the factored route: the square of the one-variable sum when qt
    splits mod p, the norm-character sum when qt is inert.  With check set
    (the default) the direct O(p^2) grid enumeration is also computed and
    the two must agree.
    """
    _require_scan_prime(p)
    _check_companion(p, qt)
    if len(ns) == 0 or len(ns) % 2 != 0:
        raise InvalidInput("shift tuple must have positive even length")
    if splits_mod(qt, p):
        s1 = linear_shift_sum(p, ns)
        val = s1 * s1
    else:
        val = norm_shift_sum(p, ns)
    if check:
        direct = form_shift_sum_direct(p, ns, qt)
        if direct != val:
            raise CertificateMismatch(
                f"factored route {val} != direct grid {direct} at p = {p}"
            )
    return val


def form_shift_sum_q(qt: BinaryForm, mod: Modulus, ns) -> int:
    """Product over p | q of the prime-level sums: the composite-q sum.

    Exact by the residue-grid factorization; the per-prime dual-route check
    is left to form_shift_sum, because it doubles the work.
    """
    with _holding(mod.primes):
        return prod(form_shift_sum(p, ns, qt, check=False) for p in mod.primes)


def shifted_sum_bound(p: int, r: int, overall_gcd: int) -> int:
    """Unconditional integer bound 4 r^2 p gcd(p, Delta) for the prime-level
    sum; gcd(p, 0) = p covers the fully degenerate tuples."""
    return 4 * r * r * p * gcd(p, overall_gcd)


# ------------------------------------------------------- windowed power sums


def _window_rows(qt: BinaryForm, mod: Modulus, n: int):
    """For each block of m <= max(1, _BLOCK // q) window starts a = x0, ...,
    x0 + m - 1, yield m and the int8 rows x0 + 1, ..., x0 + m + n - 1 (mod q)
    of the grid of jacobi(qt, q) (_grid_source): window i adds rows i, ...,
    i + n - 1.  _grid_source reduces the coefficients and the row indices
    mod each prime, which covers the wrap-around and n > q alike."""
    q = mod.q
    rows = _grid_source(mod.primes, qt.a, qt.b, qt.c)
    block = max(1, _BLOCK // q)
    for x0 in range(0, q, block):
        m = min(block, q - x0)
        yield m, rows(np.arange(x0 + 1, x0 + m + n))


def _power_sum(counts: np.ndarray, e: int) -> int:
    """Exact sum of k^e counts[k]: each magnitude k is weighted by its
    Python-int power, never an int64 power."""
    return sum(c * k**e for k, c in enumerate(counts.tolist()) if c)


def window_power_sum(qt: BinaryForm, mod: Modulus, h: int, r: int) -> int:
    """sum over (a, b) mod q of (sum_{n=1..h} jacobi(qt(n + a, b), q))^{2r}."""
    q = mod.q
    if h < 1 or r < 1:
        raise InvalidInput("window length and power must be positive")
    _guard_points(q * q * h, f"window_power_sum mod {q}, window {h}")
    counts = np.zeros(h + 1, dtype=np.int64)
    for m, rows in _window_rows(qt, mod, h):
        w = np.zeros((m, q), dtype=np.int64)
        for k in range(h):
            w += rows[k : k + m]
        counts += np.bincount(np.abs(w, out=w).ravel(), minlength=h + 1)
    return _power_sum(counts, 2 * r)


def max_window_power_sum(qt: BinaryForm, mod: Modulus, n: int, r: int) -> int:
    """sum over (a, b) of the max over subintervals I of (0, n] of
    |sum_{m in I} jacobi(qt(m + a, b), q)|^{2r}: over the prefix sums
    P_0 = 0, ..., P_n that max is max P - min P, kept in one O(q^2 n) pass."""
    q = mod.q
    if n < 1 or r < 1:
        raise InvalidInput("window length and power must be positive")
    _guard_points(q * q * n, f"max_window_power_sum mod {q}, window {n}")
    counts = np.zeros(n + 1, dtype=np.int64)
    for m, rows in _window_rows(qt, mod, n):
        s, hi, lo = np.zeros((3, m, q), dtype=np.int64)
        for k in range(n):
            s += rows[k : k + m]
            np.maximum(hi, s, out=hi)
            np.minimum(lo, s, out=lo)
        hi -= lo
        counts += np.bincount(hi.ravel(), minlength=n + 1)
        del s, hi, lo  # free this block's accumulators before the next block's
    return _power_sum(counts, 2 * r)


# ----------------------------------------------------------- exponential sums


@dataclass(frozen=True)
class ExpCharSum:
    """Record for S = sum_x e_p(y.x) jacobi(Q(x), p) over x mod p.

    c0 is the exact integer sum of jacobi(Q(x), p) over the phase class
    y.x = 0 and c1 that over each class y.x = k != 0: homogeneity makes
    those classes equal, so S = c0 - c1 is the exact integer value.
    phase_coefficients is the p-entry vector (c0, c1, ..., c1), built on
    each access; dataclasses.replace(record, phase_coefficients=v) reads c0
    and c1 from v.
    """

    p: int
    y: tuple
    c0: int
    c1: int
    value: int  # S = c0 - c1
    magnitude: float  # |S|
    adj_zero: bool  # p divides the adjugate form at y
    large: bool  # S^2 > p^3: |S| exceeds p^{3/2}, the dichotomy threshold
    phase_coefficients: InitVar[tuple | None] = None

    def __post_init__(self, phase_coefficients):
        if phase_coefficients is not None:
            object.__setattr__(self, "c0", phase_coefficients[0])
            object.__setattr__(self, "c1", phase_coefficients[1])


# a record reads phase_coefficients here; dataclass had set the class
# attribute to the init-only field's default, None
ExpCharSum.phase_coefficients = property(lambda r: (r.c0,) + (r.c1,) * (r.p - 1))


def _chart_sum(p: int, a11: int, a22: int, a33: int, a12: int, a13: int, a23: int) -> int:
    """Sum of jacobi(Q(1, s, t), p) over (s, t) mod p in closed form, for the
    coefficients of the ternary Q (in TernaryForm order) reduced mod p.

    Q(1, s, t) = a33 t^2 + B t + C, B = a23 s + a13, C = a22 s^2 + a12 s +
    a11.  With a33 != 0 the sum over t is jacobi(a33) (p [D = 0] - 1), D =
    B^2 - 4 a33 C, so the chart is p jacobi(a33) (Z - 1), Z the number of
    roots of D(s) = L s^2 + M s + N: 1 + jacobi(M^2 - 4 L N) if L != 0, else
    1, 0 or p.  With a33 = 0, jacobi(B t + C) sums to 0 unless B = 0: the
    chart is p jacobi(C(s0)) at s0 = -a13 / a23 if a23 != 0, 0 if only a13
    != 0, else p sum_s jacobi(C(s)) = p (G / (p - 1) - jacobi(a22)), G the
    grid sum of a22 x^2 + a12 x y + a11 y^2 (_prime_grid_sum)."""
    if a33:
        lead = (a23 * a23 - 4 * a33 * a22) % p
        mid = (2 * a23 * a13 - 4 * a33 * a12) % p
        const = (a13 * a13 - 4 * a33 * a11) % p
        if lead:
            roots = 1 + jacobi(mid * mid - 4 * lead * const, p)
        else:
            roots = 1 if mid else (0 if const else p)
        return p * jacobi(a33, p) * (roots - 1)
    if a23:
        s0 = -a13 * inv_mod(a23, p)
        return p * jacobi((a22 * s0 + a12) * s0 + a11, p)
    return 0 if a13 else p * (_prime_grid_sum(p, a22, a12, a11) // (p - 1) - jacobi(a22, p))


def exp_char_sum(form: TernaryForm, p: int, y) -> ExpCharSum:
    """Exact evaluation of the ternary exponential character sum, integers only.

    x -> lam x maps the phase class k onto lam k and keeps jacobi(Q(x), p)
    (Q(lam x) = lam^2 Q(x)), so c_1 = ... = c_{p-1}.  The complete sum over
    F_p^3 is p - 1 times the sum over the p^2 + p + 1 projective points: the
    chart x1 = 1 (_chart_sum, in closed form) and the line x1 = 0 (an O(p)
    grid sum).  For y != 0, c_0 is the O(p) grid sum of Q restricted to a
    basis of the plane y.x = 0, and c_1 = (total - c_0) / (p - 1); for y = 0
    every x has phase 0.  Nothing of size p^2 is held, and the record keeps
    c_0 and c_1, not the p-entry phase vector; p is charged to the point
    budget before anything is built.  The coefficients are reduced mod p for
    _chart_sum.
    """
    _require_scan_prime(p)
    _check_arity(y, 3)
    _guard_points(p, f"exp_char_sum mod {p}")
    yv = tuple(k % p for k in y)
    chart = _chart_sum(p, *(k % p for k in form.coeffs()))
    total = (p - 1) * chart + _prime_grid_sum(p, form.a22, form.a23, form.a33)
    if yv == (0, 0, 0):
        c0, c1 = total, 0
    else:
        i = next(m for m in range(3) if yv[m])
        j, k = (m for m in range(3) if m != i)
        u, v = [0, 0, 0], [0, 0, 0]
        u[i], u[j] = -yv[j], yv[i]
        v[i], v[k] = -yv[k], yv[i]
        plane = restrict(form, tuple(u), tuple(v))
        c0 = _prime_grid_sum(p, plane.a, plane.b, plane.c)
        c1, rem = divmod(total - c0, p - 1)
        if rem:
            raise CertificateMismatch(f"phase classes of y = {yv} are not equal at p = {p} (bug)")
    s = c0 - c1
    return ExpCharSum(
        p=p,
        y=yv,
        c0=c0,
        c1=c1,
        value=s,
        magnitude=float(abs(s)),
        adj_zero=adjugate4(form).evaluate(yv) % p == 0,
        large=s * s > p**3,
    )
