import random
import re
import tracemalloc
from itertools import product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcong.errors import (
    CertificateMismatch,
    InvalidInput,
    NotInGoodSet,
    RegionTooLarge,
    SingularQTilde,
)
from quadcong.modmath import find_nonresidue, is_prime, is_square_mod, jacobi, make_modulus
from quadcong.oracle import brute_min_square
from quadcong.qforms import BinaryForm, TernaryForm, adjugate4, det_gram2, monic_companion
from quadcong import charsum, errors
from quadcong.charsum import (
    Box,
    Character,
    Disc,
    _chi,
    _grid_source,
    _legendre_table,
    _log_tables,
    _plane_product_sum,
    _planes,
    _seal,
    clear_tables,
    delta_gcd,
    divisor_char_sum,
    divisor_sum_positive,
    exp_char_sum,
    form_shift_sum,
    form_shift_sum_direct,
    form_shift_sum_q,
    full_grid_sum,
    good_shift_vectors,
    in_lift_lattice,
    incomplete_sum,
    linear_shift_sum,
    make_character,
    max_window_power_sum,
    minimal_lift,
    norm_shift_sum,
    poly_identity_check,
    second_moment,
    shift_pair_counts,
    shift_params,
    shifted_sum_bound,
    splits_mod,
    table_stats,
    window_power_sum,
)

rng_int = st.integers(min_value=-100, max_value=100)


# ---------------------------------------------------------------- characters


def _jacobi_tables(d):
    """jacobi(m, d) for m in [0, d), read twice from the per-prime Legendre
    tables: the product of _chi over the primes of d, and incomplete_sum of
    Q = x y over the single points (m, 1)."""
    ms = np.arange(d, dtype=np.int64)
    table = np.prod([_chi(_legendre_table(p), ms % p) for p in make_modulus(d).primes], axis=0).tolist()
    chi = make_character(d)
    summed = [incomplete_sum(chi, BinaryForm(0, 1, 0), Box(m, m, 1, 1)) for m in range(d)]
    return table, summed


def test_jacobi_table_frozen():
    for d, want in ((3, [0, 1, -1]), (15, [0, 1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1])):
        assert _jacobi_tables(d) == (want, want)


@pytest.mark.parametrize("d", [3, 5, 15, 105])
def test_jacobi_table_matches_pointwise(d):
    want = [jacobi(m, d) for m in range(d)]
    assert _jacobi_tables(d) == (want, want)


@pytest.mark.parametrize("d", [262147], ids=["prime"])
def test_jacobi_table_block_seams(d):
    # the Jacobi table mod a prime is its Legendre table, here built from
    # the squares of several blocks of roots
    tbl = _legendre_table(d)
    assert tbl.dtype == np.int8 and tbl.shape == (d,) and not tbl.flags.writeable
    assert int((tbl == 1).sum()) == int((tbl == -1).sum()) == (d - 1) // 2
    rng = random.Random(d)
    step = charsum._BLOCK // 8  # roots per build block
    seams = [i * i % d for k in range(1, d // 2 // step + 1) for i in (k * step - 1, k * step)]
    for m in seams + [rng.randrange(d) for _ in range(2000)] + [0, d - 1]:
        assert tbl[m] == jacobi(m, d), m


_BIG_PRIME = 4_000_037

# kernel: (call, d); each holds one int8 table of d entries and no int64 array
# of length d (the Jacobi table mod a prime is its Legendre table)
TABLE_KERNELS = {
    "jacobi_table_prime": (lambda: _legendre_table(_BIG_PRIME), _BIG_PRIME),
    "full_grid_sum": (lambda: full_grid_sum(BinaryForm(1, 1, 3), make_modulus(_BIG_PRIME)), _BIG_PRIME),
}


@pytest.mark.parametrize("call, d", TABLE_KERNELS.values(), ids=TABLE_KERNELS)
def test_table_kernels_peak_memory_near_table_size(call, d):
    # tables and O(p) sums run in blocks of 2^13 entries
    clear_tables()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * d


def _legendre_readers():
    """One value from every reader of the Legendre tables."""
    return (
        incomplete_sum(make_character(1155), BinaryForm(2, -3, 5), Disc(3, -2, 30)),
        incomplete_sum(make_character(4_000_037), BinaryForm(4_000_036, 3, 4_000_032), Box(3999990, 3999998, 1, 9)),
        full_grid_sum(BinaryForm(1, 2, 1), make_modulus(1009)),
        linear_shift_sum(1009, (1, 2, 5, 9)),
        norm_shift_sum(101, (1, 2, 3, 4)),
        window_power_sum(BinaryForm(1, 1, 3), make_modulus(105), 3, 2),
        exp_char_sum(TernaryForm(1, 2, 3, 1, 0, 1), 53, (1, 2, 3)).value,
        brute_min_square(BinaryForm(3, 1, 7), make_modulus(105 * 101)),
    )


def test_packed_legendre_tables_match_int8(monkeypatch):
    # above _PACKED a table keeps p / 8 bytes of bits; every reader gives the
    # same values from packed tables as from int8 ones
    p = 4_000_037
    clear_tables()
    t = _legendre_table(p)
    assert t.nbytes == -(-p // 8)
    rng = random.Random(p)
    ms = np.array([0, 1, p - 1] + [rng.randrange(p) for _ in range(2000)], dtype=np.int64)
    assert _chi(t, ms).tolist() == [jacobi(int(m), p) for m in ms]
    int8 = _legendre_readers()
    monkeypatch.setattr(charsum, "_PACKED", 2)
    clear_tables()
    try:
        assert _legendre_table(3).dtype == np.uint8
        assert _legendre_readers() == int8
    finally:
        clear_tables()


def test_character_principal():
    # d = 1 is the trivial character: no primes, so every product is empty
    assert make_character(1).primes == ()
    assert jacobi(7, 1) == 1
    assert make_character(3).primes == (3,)
    assert incomplete_sum(make_character(1), BinaryForm(1, 0, 1), Box(0, 2, 0, 2)) == 9


def test_make_character_rejects_even():
    from quadcong.errors import InvalidModulus

    with pytest.raises(InvalidModulus):
        make_character(9)


# ------------------------------------------------------------------- regions


def test_disc_point_count():
    d = Disc(0, 0, 4)
    pts = [(x, y) for y, lo, hi in d.rows() for x in range(lo, hi + 1)]
    assert len(pts) == d.point_count()
    assert set(pts) == {
        (x, y) for x in range(-2, 3) for y in range(-2, 3) if x * x + y * y <= 4
    }


def test_box_point_count():
    b = Box(-1, 2, 0, 1)
    assert b.point_count() == 4 * 2


def test_incomplete_sum_full_box_vanishes():
    # over a complete residue grid the incomplete sum is the complete sum
    chi = make_character(15)
    f = BinaryForm(1, 0, 1)
    assert incomplete_sum(chi, f, Box(0, 14, 0, 14)) == 0
    assert incomplete_sum(chi, f, Box(7, 21, -15, -1)) == 0  # any aligned window


def test_incomplete_sum_small_frozen():
    chi = make_character(3)
    f = BinaryForm(1, 0, 1)
    # values mod 3 on [0,2]^2: 0,1,1 / 1,2,2 / 1,2,2 -> chi: 0,1,1 / 1,-1,-1 / 1,-1,-1
    assert incomplete_sum(chi, f, Box(0, 2, 0, 2)) == 0
    assert incomplete_sum(chi, f, Box(0, 1, 0, 1)) == 1  # chi: 0,1 / 1,-1


def _pointwise_sum(d, f, region):
    return sum(jacobi(f.evaluate((x, y)), d) for y, lo, hi in region.rows() for x in range(lo, hi + 1))


def test_incomplete_sum_coordinates_beyond_int64():
    # row starts and y are reduced mod each prime as Python ints, before any
    # numpy call
    chi, f = make_character(15), BinaryForm(1, 1, 3)
    for region in (Disc(10**30, 0, 4), Box(-3, 9, 10**19, 10**19 + 4)):
        assert incomplete_sum(chi, f, region) == _pointwise_sum(15, f, region)


def test_incomplete_sum_modulus_above_int64():
    # only the per-prime tables are built, so d itself may pass 2^63
    d = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53
    assert d > 2**63
    f = BinaryForm(d - 1, 12345678901234567890, -(10**20))
    for region in (Box(-3, 4, 10**6, 10**6 + 5), Disc(7, -2, 10)):
        assert incomplete_sum(make_character(d), f, region) == _pointwise_sum(d, f, region)


@pytest.mark.parametrize("d", [1, 3, 105, 1155])
def test_incomplete_sum_row_chunks_pointwise(monkeypatch, d):
    # chunks of 7 points: rows are cut into pieces and a chunk spans rows
    monkeypatch.setattr(charsum, "_BLOCK", 7)
    f = BinaryForm(2, -3, 5)
    for region in (Disc(3, -2, 30), Box(-4, 20, 5, 9), Box(0, 6, 0, 0), Box(3, 2, 0, 5), Disc(0, 0, -1)):
        assert incomplete_sum(make_character(d), f, region) == _pointwise_sum(d, f, region)


def test_incomplete_sum_peak_memory_per_chunk():
    # a row of 10^6 points goes in chunks of _BLOCK points, not one array
    chi, f, region = make_character(105), BinaryForm(2, -3, 5), Box(0, 10**6 - 1, 7, 7)
    clear_tables()
    tracemalloc.start()
    try:
        incomplete_sum(chi, f, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * charsum._BLOCK


def test_incomplete_sum_large_modulus_exact():
    # a * x^2 in int64 overflows once d > 2^21 unless each product is reduced
    d = 4_000_037
    chi = make_character(d)
    f = BinaryForm(d - 1, 3, d - 5)
    for box, expected in ((Box(3999990, 3999998, 1, 9), -5), (Box(3999980, 3999988, 11, 19), -13)):
        pointwise = sum(
            jacobi(f.evaluate((x, y)), d)
            for x in range(box.x_lo, box.x_hi + 1)
            for y in range(box.y_lo, box.y_hi + 1)
        )
        assert pointwise == expected
        assert incomplete_sum(chi, f, box) == expected


def _whole_grid(d, a, b, c):
    """The d x d int8 grid of jacobi(a x^2 + b x y + c y^2, d), rows indexed
    by x, built here point by point from jacobi, outside the package."""
    r = np.arange(d, dtype=np.int64)
    chi = np.array([jacobi(m, d) for m in range(d)], dtype=np.int8)
    return chi[(a * r[:, None] ** 2 + b * r[:, None] * r + c * r * r) % d]


def _box_sum(f, d):
    """The complete-grid sum of jacobi(f, d) by incomplete_sum over the box
    [0, d - 1]^2: point by point, without the homogeneity argument."""
    return incomplete_sum(make_character(d), f, Box(0, d - 1, 0, d - 1))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 15, 21, 35])
def test_grid_table_matches_pointwise(d):
    # the O(p) homogeneity route and incomplete_sum's box against the grid
    # evaluated point by point
    forms = [(1, 1, 0), (2, 3, 5), (0, 1, 0), (d - 1, 0, d - 2)]
    if d in (3, 5, 7, 11):
        forms.append((1, 0, -find_nonresidue(d) % d))  # the F_{p^2} norm table, c^2 - delta e^2
    for a, b, c in forms:
        t = _whole_grid(d, a, b, c)
        f = BinaryForm(a, b, c)
        assert full_grid_sum(f, make_modulus(d)) == _box_sum(f, d) == int(t.sum(dtype=np.int64))


def test_grid_table_block_seams():
    # incomplete_sum walks the 66,049 points of the box mod 257 in two chunks,
    # the first _BLOCK = 255 * 257 + 1 points long: the seam is inside a row
    d = 257
    f = BinaryForm(123, 56, 89)
    t = _whole_grid(d, f.a, f.b, f.c)
    assert full_grid_sum(f, make_modulus(d)) == _box_sum(f, d) == int(t.sum(dtype=np.int64))


@pytest.mark.parametrize("p", [3, 7, 19])
def test_norm_table_balanced_and_multiplicative(p):
    delta = find_nonresidue(p)
    t = _whole_grid(p, 1, 0, -delta % p).astype(np.int64)
    # the norm vanishes only at 0 and takes every nonzero value p + 1 times
    assert int((t == 0).sum()) == 1
    assert int((t == 1).sum()) == int((t == -1).sum()) == (p * p - 1) // 2
    # (c1 + e1 T)(c2 + e2 T) = (c1 c2 + delta e1 e2) + (c1 e2 + c2 e1) T
    r = np.arange(p)
    c1, e1, c2, e2 = np.meshgrid(r, r, r, r, indexing="ij")
    prod = t[(c1 * c2 + delta * e1 * e2) % p, (c1 * e2 + c2 * e1) % p]
    assert (prod == t[c1, e1] * t[c2, e2]).all()


def _unpack(planes, cols):
    """The int8 table whose bit planes these are.  A sparse table holds no
    nonzero plane: it is rebuilt as every entry but (0, 0)."""
    neg = np.unpackbits(planes.neg.view(np.uint8), axis=1, bitorder="little")
    if planes.nz is None:
        nz = np.zeros_like(neg)
        nz[:, :cols] = 1
        nz[0, 0] = 0
    else:
        nz = np.unpackbits(planes.nz.view(np.uint8), axis=1, bitorder="little")
    assert not nz[:, cols:].any() and not neg[:, cols:].any()  # padding stays clear
    assert not (neg & ~nz).any()  # no zero entry is marked negative
    return nz[:, :cols].astype(np.int8) * (1 - 2 * neg[:, :cols].astype(np.int8))


@pytest.mark.parametrize(
    "p", [p for p in range(3, 62, 2) if all(p % k for k in range(3, p, 2))] + [67, 127, 131, 191, 193, 257]
)
def test_prime_planes_are_grid_rows_in_log_order(p):
    # rows stay in x order; the columns are y = 0, then g^-j for j = 0..p-2.
    # The planes are gathered from the line packed at each bit offset, so the
    # primes past 64 put row starts and row ends on every side of a word
    # boundary; the half-width tables keep columns 0..(p - 1)/2, full or
    # short last words alike
    g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    perm = [0] + [pow(g, -j, p) for j in range(p - 1)]
    delta = find_nonresidue(p)
    forms = [(1, 0, -delta % p), (0, 1, 2), (0, 0, 3), (1, 1, 0), (2, 0, 0), (1, 2, 1), (3, 6, 3), (2, 3, 5)]
    for a, b, c in forms:
        a, b, c = a % p, b % p, c % p
        want = _whole_grid(p, a, b, c)[:, perm]
        assert (_unpack(_planes(p, a, b, c), p) == want).all()
        half = (p + 1) // 2
        assert (_unpack(_planes(p, a, b, c, half), half) == want[:, :half]).all()


def test_composite_planes_match_grid_table():
    # the window sums read a composite grid as _grid_source's rows: rows stay
    # in x order; column (j_1, ..., j_k), the last prime's index running
    # fastest, is the y that is the log-order column j_i mod each p_i
    for d, (a, b, c) in [(15, (1, 1, 3)), (105, (2, 3, 5)), (1155, (1, 0, 1154))]:
        perm, m = [0], 1
        for p in make_modulus(d).primes:
            g = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
            ys = [0] + [pow(g, -j, p) for j in range(p - 1)]
            perm = [y0 + m * ((y - y0) * pow(m, -1, p) % p) for y0 in perm for y in ys]
            m *= p
        want = _whole_grid(d, a, b, c)[:, perm]
        rows = _grid_source(make_modulus(d).primes, a, b, c)
        assert (rows(np.arange(d, dtype=np.int64)) == want).all()


def test_grid_vanishing_exhaustive_small():
    for q in (3, 5, 15):
        mod = make_modulus(q)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    f = BinaryForm(a, b, c)
                    if gcd(f.det4(), q) != 1:
                        continue
                    assert full_grid_sum(f, mod) == 0
                    assert _box_sum(f, q) == 0


def test_grid_sum_factored_matches_direct_singular_cases():
    # also on forms that are singular mod part of q, both routes must agree
    mod = make_modulus(15)
    for f in (BinaryForm(3, 0, 1), BinaryForm(5, 1, 5), BinaryForm(0, 3, 0)):
        assert full_grid_sum(f, mod) == _box_sum(f, 15)


_GRID_MODULI = (3, 5, 7, 11, 13, 15, 21, 35, 97, 105, 143, 1009)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_GRID_MODULI),
    st.tuples(*[st.integers(-3000, 3000)] * 3),
    st.tuples(*[st.sampled_from([None, 0, 3, 5, 7, 11, 13])] * 3),
)
def test_full_grid_sum_matches_direct(q, coeffs, zero_mod):
    # the O(p) homogeneity route against the box summed point by point, on
    # nonsingular and singular forms, a = 0 mod some prime, and composite q
    coeffs = tuple(k if z is None else z * k for k, z in zip(coeffs, zero_mod))
    f = BinaryForm(*coeffs)
    assert full_grid_sum(f, make_modulus(q)) == _box_sum(f, q)


# ------------------------------------------------------------- divisor sums


def test_divisor_char_sum_frozen():
    mod = make_modulus(15)
    assert divisor_char_sum(2, mod) == 0
    assert divisor_char_sum(4, mod) == 4
    assert divisor_char_sum(0, mod) == 1  # only the trivial divisor survives at 0
    mod105 = make_modulus(105)
    assert divisor_char_sum(4, mod105) == 8


@given(st.integers(0, 104))
def test_divisor_sum_positive_iff_square(v):
    mod = make_modulus(105)
    s = divisor_char_sum(v, mod)
    assert s >= 0
    assert (s > 0) == is_square_mod(v, mod)


def test_divisor_sum_positive_on_form_values():
    mod = make_modulus(15)
    f = BinaryForm(1, 1, 1)
    for x in range(15):
        for y in range(15):
            res = divisor_sum_positive(f, mod, (x, y))
            assert res == is_square_mod(f.evaluate((x, y)), mod)


# ------------------------------------------------------------ minimal lifts


def test_minimal_lift_identity_class():
    mod = make_modulus(5)
    ml = minimal_lift(1, 0, 1, mod)
    assert ml.form == BinaryForm(1, 0, 1)
    assert ml.lam == 1


def test_minimal_lift_scales_class():
    mod = make_modulus(35)
    ml = minimal_lift(3, 1, 4, mod)
    assert ml.form == BinaryForm(3, 1, 4)
    assert ml.lam == 1
    # a huge representative of the same projective class reduces down
    ml2 = minimal_lift(3 * 12 % 35, 12 % 35, 4 * 12 % 35, mod)
    vec = (ml2.form.a, ml2.form.b, ml2.form.c)
    assert in_lift_lattice(vec, (3 * 12 % 35, 12, 48 % 35), mod)
    assert ml2.form.a * ml2.form.a + ml2.form.b**2 + ml2.form.c**2 <= 3 * 35 * 35


@given(st.integers(0, 34), st.integers(0, 34), st.integers(0, 34))
def test_minimal_lift_invariants(a, b, c):
    mod = make_modulus(35)
    if a % 35 == 0 and b % 35 == 0 and c % 35 == 0:
        return
    ml = minimal_lift(a, b, c, mod)
    vec = (ml.form.a, ml.form.b, ml.form.c)
    assert any(v % 35 != 0 for v in vec)  # q never divides the whole vector
    assert in_lift_lattice(vec, (a, b, c), mod)
    # det transforms with lambda^2
    cls4 = BinaryForm(a, b, c).det4()
    assert ml.form.det4() % 35 == ml.lam * ml.lam * cls4 % 35


def test_minimal_lift_det_unit_when_class_unit():
    mod = make_modulus(35)
    for (a, b, c) in [(1, 0, 1), (2, 1, 3), (1, 1, 1), (4, 3, 2)]:
        if gcd(BinaryForm(a, b, c).det4(), 35) != 1:
            continue
        ml = minimal_lift(a, b, c, mod)
        assert gcd(ml.form.det4(), 35) == 1


# ------------------------------------------------------------- shift params


def test_shift_params_frozen():
    mod = make_modulus(35)
    sp = shift_params(BinaryForm(2, 1, 3), (1, 1), (2, 3), mod)
    assert (sp.a, sp.b) == (20, 6)


def test_shift_params_rejects_nonunit():
    mod = make_modulus(15)
    f = BinaryForm(1, 0, 1)
    with pytest.raises(NotInGoodSet, match=re.escape("Q(s) = 5 is not a unit mod 15")):
        shift_params(f, (1, 2), (0, 0), mod)  # Q(1,2) = 5 shares a factor
    with pytest.raises(NotInGoodSet, match=re.escape("Q(s) = 5 is not a unit mod 15")):
        shift_params(f, (2, 4), (0, 0), mod)  # the message names Q(s) = 20 by its residue


@settings(max_examples=200)
@given(st.integers(0, 10**9))
def test_shift_identity_random(seed):
    """Q(x + n s) = Q(s) * companion(n + a, b) mod q for every n."""
    rng = random.Random(seed)
    q = rng.choice([15, 21, 35, 105])
    mod = make_modulus(q)
    f = BinaryForm(rng.randrange(q), rng.randrange(q), rng.randrange(q))
    s = (rng.randrange(1, 9), rng.randrange(1, 9))
    if gcd(f.evaluate(s), q) != 1:
        return
    x = (rng.randrange(q), rng.randrange(q))
    sp = shift_params(f, s, x, mod, check=False)
    qt = monic_companion(f)
    qs = f.evaluate(s)
    for n in range(0, q, max(1, q // 7)):
        shifted = (x[0] + n * s[0], x[1] + n * s[1])
        lhs = f.evaluate(shifted) % q
        rhs = qs * qt.evaluate(((n + sp.a) % q, sp.b % q)) % q
        assert lhs == rhs
    assert poly_identity_check(f, s, x, mod)


@settings(max_examples=100)
@given(st.integers(0, 10**9))
def test_componentwise_shift_identity(seed):
    rng = random.Random(seed)
    q = rng.choice([15, 35])
    mod = make_modulus(q)
    f = BinaryForm(rng.randrange(q), rng.randrange(q), rng.randrange(q))
    s = (rng.randrange(1, 7), rng.randrange(1, 7))
    if gcd(f.evaluate(s), q) != 1:
        return
    x = (rng.randrange(q), rng.randrange(q))
    assert poly_identity_check(f, s, x, mod)


def test_colliding_shift_params_land_in_lift_lattice():
    """If (s, x) and (s', x') produce the same companion coordinates, the
    bilinear combination of the four vectors lies in the coefficient-lift
    lattice of the form's class."""
    q = 15
    mod = make_modulus(q)
    f = BinaryForm(1, 1, 2)
    cls = (f.a, f.b, f.c)
    seen = {}
    hits = 0
    for s1 in range(1, 5):
        for s2 in range(1, 5):
            s = (s1, s2)
            if gcd(f.evaluate(s), q) != 1:
                continue
            for x1 in range(q):
                for x2 in range(q):
                    x = (x1, x2)
                    sp = shift_params(f, s, x, mod, check=False)
                    key = (sp.a, sp.b)
                    if key in seen:
                        (t1, t2), (y1, y2) = seen[key]
                        v = (
                            x2 * t2 - y2 * s2,
                            y2 * s1 + y1 * s2 - x2 * t1 - x1 * t2,
                            x1 * t1 - y1 * s1,
                        )
                        assert in_lift_lattice(v, cls, mod)
                        hits += 1
                    else:
                        seen[key] = (s, x)
    assert hits > 0


# --------------------------------------------------- shifted complete sums


def test_linear_shift_sum_frozen():
    assert linear_shift_sum(5, (1, 1)) == 4
    assert linear_shift_sum(5, (0, 5)) == 4
    assert linear_shift_sum(7, (1, 2, 3, 4)) == -1


def test_norm_shift_sum_frozen():
    assert norm_shift_sum(3, (0, 0)) == 8
    assert norm_shift_sum(3, (0, 1)) == -1
    assert norm_shift_sum(5, (1, 2, 3, 4)) == 5


def test_window_sums_do_not_evict_norm_planes():
    # the window sums read their rows outside the store, so they cannot push
    # a prime's norm planes out between two sums at that prime
    clear_tables()
    norm_shift_sum(37, (1, 2, 3, 4))
    for q in (15, 21, 33, 35, 39, 51):
        window_power_sum(BinaryForm(1, 1, 3), make_modulus(q), 2, 1)
    norm_shift_sum(37, (5, 6))
    assert table_stats()["planes"].builds == 1


def test_store_passes_its_cap_only_by_the_current_primes_tables(monkeypatch):
    # five Legendre tables of p / 8 bytes (250-375 KB) would hold 1.6 MB; the
    # store keeps at most its cap besides the table of the prime in use, and
    # incomplete_sum finds that table where full_grid_sum left it
    monkeypatch.setattr(charsum, "TABLE_BYTES", 512 << 10)
    clear_tables()
    f = BinaryForm(1, 1, 3)
    primes = [next(p for p in range(n, n + 1000) if is_prime(p)) for n in range(2_000_000, 3_000_001, 250_000)]
    for p in primes:
        full_grid_sum(f, make_modulus(p))
        incomplete_sum(make_character(p), f, Box(0, 9, 0, 9))
        stats = table_stats()["legendre_table"]
        assert stats.bytes <= charsum.TABLE_BYTES + -(-p // 8)
    assert stats.builds == stats.hits == 5 and stats.evictions >= 3
    assert sum(s.bytes for s in table_stats().values()) == stats.bytes


def test_scan_composite_mix_builds_each_table_once():
    # the small moduli of scan-composite's rounds and the 0.5 MB character of
    # d = 4,000,037 fit under the cap together: nothing is evicted, and every
    # table, the character's among them, is built once
    clear_tables()
    rng = random.Random(22)
    kernel, grid, chars = (105, 143, 385, 663), (1155, 7429, 33263), (1147, 4757, 12673, _BIG_PRIME)

    def form(q):
        # a monic companion with det4 a unit mod q
        while gcd((qt := BinaryForm(1, rng.randrange(q), rng.randrange(q))).det4(), q) != 1:
            pass
        return qt

    def one_round(pick):
        for q in pick(kernel):
            form_shift_sum_q(form(q), make_modulus(q), (1, 2, 3, 4))
            window_power_sum(form(q), make_modulus(q), 2, 2)
        for q in pick(grid):
            full_grid_sum(form(q), make_modulus(q))
        for d in pick(chars):
            incomplete_sum(make_character(d), BinaryForm(d - 1, 3, d - 5), Box(d - 47, d - 39, 1, 9))
        exp_char_sum(TernaryForm(1, 2, 3, 1, 0, 1), 101, (1, 2, 3))

    one_round(lambda pool: pool)
    for _ in range(20):
        one_round(lambda pool: rng.choices(pool, k=2))
    stats = table_stats()
    assert sum(s.evictions for s in stats.values()) == 0
    assert sum(s.builds for s in stats.values()) == len(charsum._tables)
    primes = {p for q in kernel + grid + chars for p in make_modulus(q).primes} | {101}
    assert stats["legendre_table"].builds == len(primes) and ("legendre_table", _BIG_PRIME, ()) in charsum._tables


def test_inert_table_keeps_one_plane_and_its_zero():
    # an inert companion's grid vanishes only at (0, 0): past the doubled-copy
    # limit the kernel reads only the negative plane, so the nonzero plane is
    # not kept; a split grid (2p - 1 zeros) keeps both planes.  A prime near
    # 3000 then holds 4.06 MB of tables, not 5.76 MB
    p = 2999
    split, inert = (next(BinaryForm(1, b, 1) for b in range(p) if jacobi(b * b - 4, p) == k) for k in (1, -1))
    clear_tables()
    for qt in (split, inert):
        form_shift_sum(p, (1, 2, 3, 4), qt)
    for table in (_planes(p, 1, inert.b, 1), _planes(p, 1, 0, -find_nonresidue(p), (p + 1) // 2)):
        assert table.nz is None and table.neg.size > charsum._BLOCK // 16
        assert charsum._nbytes(table) == table.neg.nbytes
    table = _planes(p, 1, split.b, 1)
    assert table.nz.shape == (p, -(-p // 64))
    assert sum(s.bytes for s in table_stats().values()) < 4_100_000


def test_composite_call_past_the_cap_keeps_only_the_current_primes_tables():
    # one modulus of three primes near 4000 with a companion inert mod each:
    # every prime's norm planes, log tables and Legendre table (about 1.1 MB)
    # pass the cap together.  A build never evicts a table of its own prime,
    # so the store passes the cap only by 4007's tables; least recently used
    # first, a repeat call over the three rebuilds each prime's tables, and
    # returns the same value
    clear_tables()
    primes = [4001, 4003, 4007]
    qt = next(BinaryForm(1, b, 1) for b in range(3, 10**6) if all(jacobi(b * b - 4, p) == -1 for p in primes))
    mod = make_modulus(prod(primes))
    values = []
    for _ in range(3):
        values.append(form_shift_sum_q(qt, mod, (1, 2, 3, 4)))
        stats = table_stats()
        last = sum(size for (_, d, _), (_, size) in charsum._tables.items() if d == 4007)
        assert sum(s.bytes for s in stats.values()) <= charsum.TABLE_BYTES + last
        assert {kind for kind, d, _ in charsum._tables if d == 4007} == {"planes", "log_tables", "legendre_table"}
    assert values == [values[0]] * 3 and values[0] == prod(form_shift_sum(p, (1, 2, 3, 4), qt) for p in primes)
    assert [stats[kind].builds for kind in ("planes", "log_tables", "legendre_table")] == [9, 9, 9]


def test_linear_shift_sum_brute():
    p = 11
    for ns in [(0, 0), (1, 5), (2, 2, 3, 7)]:
        tbl = _legendre_table(p)
        total = 0
        for a in range(p):
            prod = 1
            for n in ns:
                prod *= int(tbl[(n + a) % p])
            total += prod
        assert linear_shift_sum(p, ns) == total


def test_norm_shift_sum_brute():
    p = 5
    d = find_nonresidue(p)
    for ns in [(0, 1), (1, 2, 3, 4), (2, 2)]:
        total = 0
        for c in range(p):
            for e in range(p):
                prod = 1
                for n in ns:
                    prod *= jacobi((n + c) ** 2 - d * e * e, p)
                total += prod
        assert norm_shift_sum(p, ns) == total


@pytest.mark.parametrize("p", [3, 5, 7, 67, 131])
def test_norm_shift_sum_matches_plain_field_sum(p):
    # the half-width table doubles every column but y = 0, so repeated
    # shifts mod p, a shift = 0 mod p and the empty tuple each exercise
    # the y = 0 correction; the direct grid of the norm form reads the
    # full table
    delta = find_nonresidue(p)
    chi = [0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)]
    norm = [[chi[(c * c - delta * e * e) % p] for e in range(p)] for c in range(p)]
    tuples = [(), (0,), (3, 3 + p), (0, 1), (1, 2, 1 + 2 * p, 4), (p, 2, 3, 5, 7, 2 - p), (1, 2, 3, 4, 5, 6)]
    for ns in tuples:
        want = 0
        for c in range(p):
            for e in range(p):
                v = 1
                for n in ns:
                    v *= norm[(n + c) % p][e]
                want += v
        assert norm_shift_sum(p, ns) == want, ns
        assert form_shift_sum_direct(p, ns, BinaryForm(1, 0, -delta)) == want, ns


@pytest.mark.parametrize("p", [13, 1009])
def test_shift_sums_take_unreduced_shifts(p):
    # shifts are any integers, also past int64; at p = 1009 the norm table
    # takes the zero-sparse path, at 13 the doubled copy
    ns = (2**70 + 5, -(3**50), 7, 10**20 + 1)
    reduced = tuple(n % p for n in ns)
    assert norm_shift_sum(p, ns) == norm_shift_sum(p, reduced)
    assert linear_shift_sum(p, ns) == linear_shift_sum(p, reduced)


def _sealed(t):
    """The _Planes of the int8 table t, packed here by np.packbits."""
    m, cols = t.shape
    w = -(-cols // 64)
    planes = []
    for bits in (t != 0, t < 0):
        words = np.zeros((m, 8 * w), dtype=np.uint8)
        words[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
        planes.append(words.view(np.uint64))
    return _seal(*planes, cols)


def _rolled_product_reference(t, ns):
    """Sum of the entrywise product of t rolled by each n (row i <- row
    (i + n) mod m), in int64 arithmetic."""
    prod = np.ones(t.shape, dtype=np.int64)
    for n in ns:
        prod *= np.roll(t, -n, axis=0)
    return int(prod.sum())


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 40),
    cols=st.sampled_from([1, 63, 64, 65, 130]),
    seed=st.integers(0, 2**32 - 1),
    ns=st.lists(st.integers(-100, 100), max_size=7),
    block=st.sampled_from([4, 64, 1 << 16]),
    zeros=st.sampled_from(["uniform", "origin", 0, 1, "some", "m", "m+1"]),
)
def test_plane_product_sum_matches_int8_reference(m, cols, seed, ns, block, zeros):
    # shifts may be repeated, negative or >= m; small blocks cut the rows
    # into many accumulator blocks, so rolls that wrap inside a block occur;
    # at 2^16 every table here is rolled in a doubled copy, at 4 none is.
    # A uniform draw has about m cols / 3 zeros; the other tables are +-1
    # with their one zero at (0, 0), the sparse tables, or with 0, 1, up to
    # m, m or m + 1 zeros, on rows 0 and m - 1 among others.
    rng = np.random.default_rng(seed)
    if zeros == "uniform":
        t = rng.integers(-1, 2, size=(m, cols)).astype(np.int8)
    else:
        t = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, cols))
        k = {"origin": 1, "some": int(rng.integers(0, m + 1)), "m": m, "m+1": m + 1}.get(zeros, zeros)
        k = min(k, m * cols)
        if k < 2:
            cells = [0] if zeros == "origin" else rng.choice(m * cols, size=k, replace=False)
        else:
            ends = {int(rng.integers(cols)), (m - 1) * cols + int(rng.integers(cols))}
            rest = np.setdiff1d(np.arange(m * cols), list(ends))
            cells = [*ends, *rng.choice(rest, size=k - len(ends), replace=False)]
        t.flat[cells] = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsum, "_BLOCK", block)
        planes = _sealed(t)
        got = _plane_product_sum(planes, tuple(ns))
    assert got == _rolled_product_reference(t, ns)
    assert planes.size == m * cols
    # the nonzero plane is dropped exactly where the sparse path reads without it
    sparse = int((t == 0).sum()) == 1 and t[0, 0] == 0 and m * -(-cols // 64) > block // 16
    assert (planes.nz is None) == sparse
    assert (_unpack(planes, cols) == t).all()
    for plane in (planes.nz, planes.neg):
        if plane is None:
            continue
        assert plane.dtype == np.uint64 and plane.shape == (m, -(-cols // 64))
        assert plane.flags.c_contiguous and not plane.flags.writeable


def test_window_sums_pointwise(monkeypatch):
    cases = [
        (15, 1 << 16, [(1, 1), (3, 1), (4, 2)], [(5, 1)]),
        # blocks of 2 and 3 rows: several gathered blocks and a short last one;
        # windows longer than q wrap around the grid more than once
        (15, 32, [(1, 1), (4, 2), (16, 1), (33, 1)], [(1, 2), (5, 1), (17, 1), (33, 1)]),
        (35, 100, [(2, 1), (36, 1), (73, 1)], [(3, 1), (36, 1), (73, 1)]),
    ]
    qt = BinaryForm(1, 1, 3)
    for q, block, hs, ns in cases:
        monkeypatch.setattr(charsum, "_BLOCK", block)
        mod = make_modulus(q)
        chi = [[jacobi(qt.evaluate((x, y)), q) for y in range(q)] for x in range(q)]
        for h, r in hs:
            expected = sum(
                sum(chi[(n + a) % q][b] for n in range(1, h + 1)) ** (2 * r)
                for a in range(q)
                for b in range(q)
            )
            assert window_power_sum(qt, mod, h, r) == expected
        for n, r in ns:
            expected = 0
            for a in range(q):
                for b in range(q):
                    vals = [chi[(m + a) % q][b] for m in range(1, n + 1)]
                    expected += max(abs(sum(vals[i:j])) for i in range(n) for j in range(i + 1, n + 1)) ** (2 * r)
            assert max_window_power_sum(qt, mod, n, r) == expected


@pytest.mark.parametrize("kernel", [window_power_sum, max_window_power_sum], ids=lambda k: k.__name__)
def test_window_sums_peak_bytes_per_charged_point(kernel):
    # one block of rows at a time and no q x q grid; window 1 charges q^2
    # points
    q = 1155
    mod = make_modulus(q)
    clear_tables()
    tracemalloc.start()
    try:
        kernel(BinaryForm(1, 1, 3), mod, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * q * q


def _random_companion(rng, p, kind):
    """A monic companion (1, b, c) mod p that splits with c != 0 (kind 1) or
    is inert with b != 0 (kind -1); mod 3 no split form has b c != 0."""
    while True:
        b, c = rng.randrange(kind < 0, p), rng.randrange(kind > 0, p)
        if jacobi(b * b - 4 * c, p) == kind:
            return BinaryForm(1, b, c)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 31, 257, 1009])
@pytest.mark.parametrize("r", [1, 2])
def test_form_shift_sum_dual_route(p, r):
    # the norm form (1, 0, -delta) is the norm route's own table, so the
    # random companions are what make the grid route an independent check
    rng = random.Random(f"{p}:{r}")
    split = BinaryForm(1, 1, 0)
    inert = BinaryForm(1, 0, -find_nonresidue(p))
    forms = (split, inert, _random_companion(rng, p, 1), _random_companion(rng, p, -1))
    assert [splits_mod(qt, p) for qt in forms] == [True, False, True, False]
    for qt in forms:
        for _ in range(10):
            ns = tuple(rng.randrange(0, 3 * p) for _ in range(2 * r))
            # check=True compares the structured route against the grid route
            val = form_shift_sum(p, ns, qt, check=True)
            assert val == form_shift_sum_direct(p, ns, qt)


def test_form_shift_sum_split_is_square():
    p = 13
    qt = BinaryForm(1, 1, 0)
    rng = random.Random(3)
    for _ in range(20):
        ns = tuple(rng.randrange(0, 2 * p) for _ in range(4))
        v = form_shift_sum(p, ns, qt)
        root = linear_shift_sum(p, ns)
        assert v == root * root


def test_form_shift_sum_rejects_singular():
    with pytest.raises(SingularQTilde):
        form_shift_sum(5, (0, 1), BinaryForm(1, 2, 1))  # disc 0
    with pytest.raises(InvalidInput):
        form_shift_sum(5, (0, 1, 2), BinaryForm(1, 1, 0))  # odd tuple length
    # the checks read residues: det4 = 4 p is nonzero but singular mod p,
    # and a = p is nonzero but not a unit
    for call in (form_shift_sum, form_shift_sum_direct):
        with pytest.raises(SingularQTilde):
            call(13, (0, 1), BinaryForm(1, 2, 14))
        with pytest.raises(InvalidInput, match="leading coefficient"):
            call(13, (0, 1), BinaryForm(13, 1, 1))


def test_scan_prime_character_guards():
    with pytest.raises(InvalidInput):
        linear_shift_sum(15, (0, 1))
    with pytest.raises(InvalidInput):
        norm_shift_sum(2, (0, 1))
    with pytest.raises(InvalidInput):
        form_shift_sum_direct(9, (0, 1), BinaryForm(1, 1, 0))


def test_form_shift_sum_q_multiplicative():
    mod = make_modulus(105)
    qt = BinaryForm(1, 1, 3)
    rng = random.Random(5)
    for _ in range(10):
        ns = tuple(rng.randrange(1, 211) for _ in range(4))
        v = form_shift_sum_q(qt, mod, ns)
        per_prime = 1
        for p in mod.primes:
            per_prime *= form_shift_sum(p, ns, qt)
        assert v == per_prime == _rolled_product_reference(_whole_grid(105, qt.a, qt.b, qt.c), ns)


def test_diff_products():
    assert delta_gcd((1, 4)) == 3
    assert delta_gcd((2, 2, 2, 2)) == 0
    assert delta_gcd((0, 1, 2, 3)) == gcd(gcd(6, 2), gcd(2, 6))


@pytest.mark.parametrize("p", [5, 11, 23])
def test_weil_bound_small_exhaustive(p):
    """Every shift tuple of length 2, 4 within a window obeys the bounds."""
    for qt in (BinaryForm(1, 1, 0), BinaryForm(1, 0, -find_nonresidue(p))):
        is_split = splits_mod(qt, p)
        for r, tuples in ((1, [(a, b) for a in range(p) for b in range(p)]),):
            for ns in tuples:
                delta = delta_gcd(ns)
                val = form_shift_sum(p, ns, qt)
                assert abs(val) <= shifted_sum_bound(p, r, delta)
                if delta != 0 and delta % p != 0:
                    sharp = 4 * r * r * p if is_split else 2 * r * p
                    assert abs(val) <= sharp


def test_shifted_sum_bound_values():
    assert shifted_sum_bound(7, 2, 1) == 4 * 4 * 7
    assert shifted_sum_bound(7, 2, 14) == 4 * 4 * 7 * 7
    assert shifted_sum_bound(7, 2, 0) == 4 * 4 * 7 * 7  # gcd(p, 0) = p
    assert shifted_sum_bound(7, 2, 3) == 4 * 4 * 7


# -------------------------------------------------------- windowed power sums


def test_window_power_sum_matches_expansion():
    # expanded: the sum over all 2r-tuples in [1, h]^{2r} of the composite
    # shifted product sum
    mod = make_modulus(15)
    qt = BinaryForm(1, 1, 3)
    for h, r in [(2, 1), (3, 1), (4, 2), (2, 2)]:
        expanded = sum(form_shift_sum_q(qt, mod, ns) for ns in product(range(1, h + 1), repeat=2 * r))
        assert window_power_sum(qt, mod, h, r) == expanded


def test_window_power_sum_frozen():
    mod = make_modulus(15)
    qt = BinaryForm(1, 1, 3)
    assert window_power_sum(qt, mod, 3, 1) == 198
    assert max_window_power_sum(qt, mod, 5, 1) == 428


def test_max_window_dominates_aligned_window():
    mod = make_modulus(21)
    qt = BinaryForm(1, 2, 5)
    n = 6
    best = max_window_power_sum(qt, mod, n, 1)
    assert best >= window_power_sum(qt, mod, n, 1)


def test_window_power_sum_region_guard():
    mod = make_modulus(105)
    with pytest.raises(RegionTooLarge):
        window_power_sum(BinaryForm(1, 1, 3), mod, 10**6, 3)


def test_window_power_sums_exact_beyond_int64():
    # a power pass in int64 wrapped here: 5726499379401354874 at r = 10
    assert max_window_power_sum(BinaryForm(1, 2, 5), make_modulus(105), 20, 10) == 15095163151673814576762
    q, h, r, qt = 35, 8, 12, BinaryForm(1, 1, 3)
    windows = [sum(jacobi(qt.evaluate((a + n, b)), q) for n in range(1, h + 1)) for a in range(q) for b in range(q)]
    expect = sum(w ** (2 * r) for w in windows)
    assert expect > 2**63
    assert window_power_sum(qt, make_modulus(q), h, r) == expect


# --------------------------------------------------------------- point budget

_F, _M15 = BinaryForm(1, 1, 3), make_modulus(15)
_LIFT = minimal_lift(1, 1, 3, _M15).form

# kernel: (call, points it charges, what the RegionTooLarge message names)
GUARDED = {
    "legendre_table": (lambda: _legendre_table(53), 53, "_legendre_table mod 53"),
    "linear_shift_sum": (lambda: linear_shift_sum(53, (1, 2)), 128 * 53, "_legendre_planes mod 53"),
    "planes": (lambda: _planes(53, 1, 1, 3), 53**2, "_planes mod 53"),
    "log_tables": (lambda: _log_tables(53), 53, "_log_tables mod 53"),
    "norm_shift_sum": (lambda: norm_shift_sum(53, (1, 2)), 53**2, "_planes mod 53"),
    "form_shift_sum_direct": (
        lambda: form_shift_sum_direct(53, (1, 2), BinaryForm(1, 1, 0)), 53**2, "_planes mod 53"
    ),
    "window_power_sum": (
        lambda: window_power_sum(_F, _M15, 3, 2), 15**2 * 3, "window_power_sum mod 15"
    ),
    "max_window_power_sum": (
        lambda: max_window_power_sum(_F, _M15, 3, 2), 15**2 * 3, "max_window_power_sum mod 15"
    ),
    "incomplete_sum": (
        lambda: incomplete_sum(make_character(7), _F, Box(0, 9, 0, 9)), 100, "incomplete_sum region mod 7"
    ),
    "full_grid_sum": (lambda: full_grid_sum(_F, make_modulus(53)), 53, "_legendre_table mod 53"),
    "exp_char_sum": (
        lambda: exp_char_sum(TernaryForm(1, 2, 3, 1, 0, 1), 53, (1, 2, 3)), 53, "exp_char_sum mod 53"
    ),
    "shift_pair_counts": (
        lambda: shift_pair_counts(_F, _LIFT, _M15, (0, 0), 9, 4),
        Disc(0, 0, 9).point_count() * len(good_shift_vectors(_F, _LIFT, 4, _M15)),
        "shift_pair_counts mod 15",
    ),
}


@pytest.mark.parametrize("call, charge, what", GUARDED.values(), ids=GUARDED)
def test_point_guard_charges_each_kernel(monkeypatch, call, charge, what):
    # a store hit skips the charge, so every case starts from an empty store
    clear_tables()
    assert set(table_stats()) == {"legendre_table", "planes", "legendre_planes", "log_tables"}
    monkeypatch.setattr(errors, "POINT_BUDGET", charge - 1)
    with pytest.raises(RegionTooLarge, match=re.escape(what)):
        call()
    assert set(table_stats().values()) == {(0, 0, 0, 0)}  # refused before any table was built
    monkeypatch.setattr(errors, "POINT_BUDGET", charge)
    call()


# the tables these would build take 10 GB (p = 100003) and 1 GB (p = 10^9 + 7)
OVERSIZE = {
    "norm_shift_sum": lambda: norm_shift_sum(100003, (1, 2)),
    "form_shift_sum_direct": lambda: form_shift_sum_direct(100003, (1, 2), BinaryForm(1, 1, 0)),
    "linear_shift_sum": lambda: linear_shift_sum(10**9 + 7, (1, 2)),
    "incomplete_sum": lambda: incomplete_sum(make_character(10**9 + 7), BinaryForm(1, 0, 1), Box(0, 8, 0, 8)),
    "exp_char_sum": lambda: exp_char_sum(TernaryForm(1, 1, 1, 0, 0, 0), 10**9 + 7, (1, 2, 3)),
}


@pytest.mark.parametrize("call", OVERSIZE.values(), ids=OVERSIZE)
def test_oversize_moduli_refused_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(RegionTooLarge):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_split_route_charges_legendre_planes():
    # the Legendre planes hold two 64-bit words per residue: at p = 10,000,019
    # about 320 MB, refused before the Legendre table or the planes are built
    clear_tables()
    with pytest.raises(RegionTooLarge, match="_legendre_planes mod 10000019"):
        form_shift_sum_q(BinaryForm(1, 1, 0), make_modulus(10_000_019), (1, 2))
    stats = table_stats()
    assert stats["legendre_table"].builds == stats["legendre_planes"].builds == 0


def test_exp_char_sum_peak_memory_per_point():
    # the chart is a closed form and the record keeps c0 and c1, not the
    # p-entry phase vector, so the Legendre table's build is the largest
    # thing held: at most 2 bytes per charged point
    p = _BIG_PRIME
    clear_tables()
    tracemalloc.start()
    try:
        res = exp_char_sum(TernaryForm(1, 2, 3, 1, 0, 1), p, (1, 2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.phase_coefficients) == p
    assert peak <= 2 * p


# ----------------------------------------------------------- counting grids


def _pair_counts_reference(form, lift, mod, center, radius_sq, shift_bound):
    counts = {}
    for s in good_shift_vectors(form, lift, shift_bound, mod):
        for y, lo, hi in Disc(center[0], center[1], radius_sq).rows():
            for x in range(lo, hi + 1):
                sp = shift_params(form, s, (x, y), mod, check=False)
                counts[sp.a, sp.b] = counts.get((sp.a, sp.b), 0) + 1
    return sorted(counts.values())


@pytest.mark.parametrize(
    "q,coeffs,center,radius_sq,total,moment",
    [
        (15, (1, 1, 2), (0, 0), 16, None, None),
        (1155, (1, 1, 2), (0, 0), 1155, None, None),
        # multiplying before reducing would overflow int64 here
        (1000003, (1000002, 1000001, 1000000), (3 * 10**6, 0), 400, 10056, 13708),
        # q just below PAIR_Q_LIMIT and a disc centred at 0 mod q beyond 2^63:
        # the first coordinates wrap past q, every product nears q^2, and
        # x / s = 2x / 2s (Gaussian integers) makes cells collide
        (2999999929, (1, 0, 1), (2**32 * 2999999929, -3 * 2**32 * 2999999929), 50, 1288, 2680),
    ],
    ids=["q15", "q1155", "int64-overflow", "pair-q-limit"],
)
def test_shift_pair_counts_match_shift_params(q, coeffs, center, radius_sq, total, moment):
    mod = make_modulus(q)
    f = BinaryForm(*coeffs)
    lift = minimal_lift(*coeffs, mod).form
    counts = shift_pair_counts(f, lift, mod, center, radius_sq, 4)
    assert counts.dtype == np.int64 and counts.ndim == 1
    expect = _pair_counts_reference(f, lift, mod, center, radius_sq, 4)
    assert sorted(counts.tolist()) == expect
    assert second_moment(counts) == sum(c * c for c in expect)
    if total is not None:
        assert (int(counts.sum()), second_moment(counts)) == (total, moment)


def test_shift_pair_counts_rejects_q_above_int64_limit():
    mod = make_modulus(3000000001)
    f = BinaryForm(1, 1, 2)
    with pytest.raises(InvalidInput):
        shift_pair_counts(f, f, mod, (0, 0), 4, 2)


def test_shift_pair_counts_total():
    mod = make_modulus(15)
    f = BinaryForm(1, 1, 2)
    ml = minimal_lift(1, 1, 2, mod)
    shifts = good_shift_vectors(f, ml.form, 3, mod)
    counts = shift_pair_counts(f, ml.form, mod, (0, 0), 16, 3)
    disc_pts = sum(
        1 for x in range(-4, 5) for y in range(-4, 5) if x * x + y * y <= 16
    )
    assert int(counts.sum()) == len(shifts) * disc_pts


def test_good_shift_vectors_contract():
    mod = make_modulus(15)
    f = BinaryForm(1, 0, 1)
    ml = minimal_lift(1, 0, 1, mod)
    shifts = good_shift_vectors(f, ml.form, 4, mod)
    for s in shifts:
        assert s[0] > 0 and s[1] > 0
        assert s[0] ** 2 + s[1] ** 2 <= 16
        assert gcd(f.evaluate(s), 15) == 1
        assert ml.form.evaluate(s) != 0
    assert shifts == sorted(shifts)


# ----------------------------------------------------------------- exp sums


def _exp_coefficients_enumerated(form, p, y):
    """Phase coefficients by enumerating all p^3 points, the oracle: coef[k]
    sums jacobi(Q(x), p) over the x with y.x = k mod p."""
    r = np.arange(p, dtype=np.int64)
    x1, x2, x3 = np.meshgrid(r, r, r, indexing="ij")
    a11, a22, a33, a12, a13, a23 = (k % p for k in form.coeffs())
    vals = (a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3 + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3) % p
    chi = np.array([jacobi(v, p) for v in range(p)], dtype=np.int64)
    phase = (y[0] * x1 + y[1] * x2 + y[2] * x3) % p
    return np.bincount(phase.ravel(), weights=chi[vals].ravel(), minlength=p).astype(np.int64).tolist()


@pytest.mark.parametrize("p", [3, 5])
def test_chart_sum_exhaustive(p):
    # the closed form against the p^2 points of the chart x1 = 1, for every
    # coefficient vector mod p: every case of the identity, and discriminant
    # coefficients that are nonzero multiples of p
    r = np.arange(p, dtype=np.int64)
    s, t = (u.ravel() for u in np.meshgrid(r, r, indexing="ij"))
    monomials = np.stack([np.ones_like(s), s * s, t * t, s, t, s * t])  # Q(1, s, t) in TernaryForm order
    coeffs = np.array(list(product(range(p), repeat=6)), dtype=np.int64)
    chi = np.array([jacobi(m, p) for m in range(p)], dtype=np.int64)
    want = chi[coeffs @ monomials % p].sum(axis=1)
    got = [charsum._chart_sum(p, *map(int, c)) for c in coeffs]
    assert got == want.tolist()


def test_exp_char_sum_identity_zero_vector():
    res = exp_char_sum(TernaryForm(1, 1, 1, 0, 0, 0), 5, (0, 0, 0))
    assert res.value == 20 and res.magnitude == 20.0  # p(p-1)
    assert res.adj_zero and res.large


def test_exp_char_sum_conjugate_symmetry():
    f = TernaryForm(1, 1, 1, 0, 0, 0)
    p = 7
    for y in [(1, 2, 3), (1, 0, 0), (2, 5, 1)]:
        neg = tuple((-c) % p for c in y)
        a = exp_char_sum(f, p, y)
        b = exp_char_sum(f, p, neg)
        assert a.magnitude == pytest.approx(b.magnitude)
        assert a.adj_zero == b.adj_zero


def test_exp_char_sum_dichotomy_small_primes():
    """Magnitude threshold p^(3/2) separates exactly the adjugate-cone classes."""
    f = TernaryForm(1, 1, 1, 0, 0, 0)
    adj = adjugate4(f)
    for p in (3, 5, 7, 11):
        for y1 in range(p):
            for y2 in range(p):
                for y3 in range(p):
                    y = (y1, y2, y3)
                    res = exp_char_sum(f, p, y)
                    on_cone = adj.evaluate(y) % p == 0
                    assert res.adj_zero == on_cone
                    assert res.large == (res.magnitude > p**1.5)
                    assert res.large == on_cone


def test_exp_char_sum_guards(monkeypatch):
    # no prime cap: the p-entry phase vector charges p points, above the
    # budget here; within it, y = 0 gives the Gauss-sum value p (p - 1)
    # jacobi(-2 det M), M = gram2
    f, p = TernaryForm(1, 1, 1, 0, 0, 0), 10007
    with monkeypatch.context() as m, pytest.raises(RegionTooLarge, match="exp_char_sum mod 10007"):
        m.setattr(errors, "POINT_BUDGET", p - 1)
        exp_char_sum(f, p, (0, 0, 0))
    assert exp_char_sum(f, p, (0, 0, 0)).value == jacobi(-2 * det_gram2(f), p) * p * (p - 1)
    with pytest.raises(InvalidInput):
        exp_char_sum(TernaryForm(1, 1, 1, 0, 0, 0), 15, (0, 0, 0))


def test_exp_char_sum_phase_vector_exact():
    # every odd prime p <= 31: nonsingular and singular forms, y = 0 and
    # y with zero entries, against the p^3 enumeration
    rng = random.Random("phase")
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        forms = [
            TernaryForm(1, 2, 3, 1, 0, 1),
            TernaryForm(1, 0, 0, 0, 0, 0),  # rank 1
            TernaryForm(0, 0, 0, 1, 0, 0),  # rank 2, diagonal zero
            TernaryForm(p, 2 * p, 1, 0, p, 0),  # rank 1 mod p
            TernaryForm(*(rng.randrange(-5 * p, 5 * p) for _ in range(6))),
        ]
        ys = [(0, 0, 0), (1, 2, 0), (0, 0, p + 1), tuple(rng.randrange(-p, p) for _ in range(3))]
        for f in forms:
            for y in ys:
                res = exp_char_sum(f, p, y)
                coefs = _exp_coefficients_enumerated(f, p, y)
                assert list(res.phase_coefficients) == coefs, (p, f, y)
                assert res.value == coefs[0] - coefs[1]
                assert res.large == (res.value**2 > p**3)
                assert res.y == tuple(k % p for k in y)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 103, 1009])
def test_exp_char_sum_gauss_closed_form(p):
    """For nonsingular Q and y != 0 mod p, the Gauss-sum evaluation
    S = chi(-2 det M) (p(p - 1) on the adjugate cone, else -p), M = gram2."""
    rng = random.Random(f"gauss:{p}")
    checked = cone = 0
    while checked < 12:
        f = TernaryForm(*(rng.randrange(-3 * p, 3 * p) for _ in range(6)))
        det = det_gram2(f)
        if det % p == 0:
            continue
        if checked % 2 == 0:
            y = tuple(rng.randrange(p) for _ in range(3))
        else:
            # y = M x0 with Q(x0) = 0 lies on the adjugate cone (the tangent
            # plane at x0); every nonsingular ternary form mod p has such x0
            x0 = next(
                x for x in ((rng.randrange(p), rng.randrange(p), 1) for _ in range(50 * p)) if f.evaluate(x) % p == 0
            )
            y = tuple(sum(m * k for m, k in zip(row, x0)) % p for row in f.gram2())
        if y == (0, 0, 0):
            continue
        res = exp_char_sum(f, p, y)
        assert res.value == jacobi(-2 * det, p) * (p * (p - 1) if res.adj_zero else -p), (f, y)
        assert res.large == res.adj_zero
        checked += 1
        cone += res.adj_zero
    assert cone >= 6


# ------------------------------------------ reductions at each kernel's limit


def test_entry_points_read_coefficients_by_class():
    # every kernel reduces its caller's coefficients before int64 sees them:
    # the same class, each coefficient shifted by k M with |k| near 2^70 and
    # M a multiple of every modulus below, gives the same result
    rng = random.Random(14)
    m = 3 * 5 * 7 * 11 * 13

    def far(coeffs):
        return tuple(c + rng.choice((-1, 1)) * (2**70 + rng.randrange(2**20)) * m for c in coeffs)

    mod105, mod1155 = make_modulus(105), make_modulus(1155)
    lift = minimal_lift(1, 1, 3, mod105).form
    binary = {
        "full_grid_sum": lambda f: full_grid_sum(f, mod1155),
        "form_shift_sum": lambda f: form_shift_sum(13, (0, 1, 3, 7), f),
        "form_shift_sum_direct": lambda f: form_shift_sum_direct(13, (2, 5), f),
        "form_shift_sum_q": lambda f: form_shift_sum_q(f, mod105, (1, 2, 4, 9)),
        "window_power_sum": lambda f: window_power_sum(f, mod105, 3, 2),
        "max_window_power_sum": lambda f: max_window_power_sum(f, mod105, 3, 1),
        "incomplete_sum": lambda f: incomplete_sum(make_character(105), f, Disc(3, -2, 30)),
        "shift_pair_counts": lambda f: sorted(shift_pair_counts(f, lift, mod105, (0, 0), 16, 4).tolist()),
    }
    f = BinaryForm(1, 1, 3)
    g = BinaryForm(*far((f.a, f.b, f.c)))
    for name, call in binary.items():
        assert call(g) == call(f), name
    form = TernaryForm(2, 3, 5, 1, 4, 6)
    assert exp_char_sum(TernaryForm(*far(form.coeffs())), 13, (1, 2, 3)) == exp_char_sum(form, 13, (1, 2, 3))


def test_congruent_companions_share_one_planes_entry():
    # the companion grids are stored by coefficients reduced mod p, so a
    # class builds its planes once at each prime
    clear_tables()
    for qt in (BinaryForm(1, 1, 3), BinaryForm(1 + 13 * 17, 1 - 13 * 17, 3 + 2 * 13 * 17)):
        form_shift_sum_direct(13, (2, 5), qt)
        form_shift_sum_direct(17, (1, 2), qt)
    assert table_stats()["planes"].builds == 2


def test_full_grid_sum_vanishes_at_large_prime():
    # a nonsingular form sums to 0 over F_p^2; with coefficients near p =
    # 4,000,037 the Horner step (a t + b) t alone would pass 2^63
    mod = make_modulus(_BIG_PRIME)
    rng = random.Random(4)
    for _ in range(3):
        f = BinaryForm(*(_BIG_PRIME - 1 - rng.randrange(1000) for _ in range(3)))
        assert f.det4() % _BIG_PRIME
        assert full_grid_sum(f, mod) == 0


def test_in_lift_lattice_reads_classes_mod_p():
    # a class of nonzero multiples of 35 is the zero class mod 5 and mod 7:
    # its lattice holds exactly the vectors that vanish mod 35
    mod = make_modulus(35)
    cls = (35, 70, 0)
    assert in_lift_lattice((35, -70, 105), cls, mod)
    assert not in_lift_lattice((1, 0, 0), cls, mod)
    assert not in_lift_lattice((0, 0, 5), cls, mod)


def test_minimal_lift_refuses_vector_vanishing_mod_q(monkeypatch):
    # a lattice reduction that returned a nonzero multiple of q would be a bug
    mod = make_modulus(15)
    monkeypatch.setattr(charsum, "lift_lattice", lambda *args: (15, -30, 45))
    with pytest.raises(CertificateMismatch, match="vanishes mod q"):
        minimal_lift(1, 1, 3, mod)
