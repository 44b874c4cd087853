from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcong.charsum import in_lift_lattice, minimal_lift
from quadcong.errors import DegenerateBasis, NotPrimitive, ZeroClass
from quadcong.intvec import cross3, dot, floor_sqrt_ratio, norm_sq, vec_key
from quadcong.lattice import (
    Basis2,
    congruence_basis2,
    greedy_reduce,
    hnf_rows3,
    lift_lattice,
    orthogonal_basis,
    shortest_vector3,
    weighted_short_vectors,
)
from quadcong.modmath import make_modulus
from reference_walk import iter_vectors_by_norm

small = st.integers(min_value=-30, max_value=30)


@given(
    st.tuples(small, small),
    st.tuples(small, small),
    st.sampled_from([None, (1, 1), (2, 9), (7, 3)]),
)
def test_gauss_reduce_successive_minima(u, v, weights):
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0:
        return
    wu, wv = weights or (1, 1)

    def f(w):
        return wu * w[0] ** 2 + wv * w[1] ** 2

    b1, b2 = greedy_reduce((u, v), weights)
    assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == abs(det)
    assert f(b1) <= f(b2)
    # b1 achieves the first minimum: nothing shorter in a generous window
    m = min(
        f((a * b1[0] + b * b2[0], a * b1[1] + b * b2[1]))
        for a in range(-3, 4)
        for b in range(-3, 4)
        if (a, b) != (0, 0)
    )
    assert f(b1) == m
    # the weighted Gram determinant is wu wv det^2
    assert f(b1) * f(b2) * 3 <= 4 * wu * wv * det * det


@given(st.tuples(small, small, small))
def test_orthogonal_basis_invariants(a):
    if a == (0, 0, 0):
        return
    g = gcd(gcd(a[0], a[1]), a[2])
    a0 = tuple(c // g for c in a)
    basis = orthogonal_basis(a0)
    x1, x2 = basis.b1, basis.b2
    assert dot(x1, a0) == 0 and dot(x2, a0) == 0
    assert basis.det_gram() == norm_sq(a0)
    cr = cross3(x1, x2)
    assert cr == a0 or cr == tuple(-c for c in a0)
    # Hermite-quality bound used by the solver's norm chain
    assert 3 * norm_sq(x1) * norm_sq(x2) <= 4 * norm_sq(a0) ** 2


def test_orthogonal_basis_axis():
    basis = orthogonal_basis((1, 0, 0))
    assert sorted([norm_sq(basis.b1), norm_sq(basis.b2)]) == [1, 1]


def test_shortest_vector3_diagonal():
    v = shortest_vector3(((2, 0, 0), (0, 3, 0), (0, 0, 5)))
    assert v == (2, 0, 0)
    assert norm_sq(v) == 4


@settings(max_examples=40)
@given(
    st.tuples(small, small, small),
    st.tuples(small, small, small),
    st.tuples(small, small, small),
)
def test_shortest_vector3_is_minimal(b1, b2, b3):
    det = (
        b1[0] * (b2[1] * b3[2] - b2[2] * b3[1])
        - b1[1] * (b2[0] * b3[2] - b2[2] * b3[0])
        + b1[2] * (b2[0] * b3[1] - b2[1] * b3[0])
    )
    if det == 0:
        return
    v = shortest_vector3((b1, b2, b3))
    assert v != (0, 0, 0)
    best = min(
        norm_sq(
            (
                a * b1[0] + b * b2[0] + c * b3[0],
                a * b1[1] + b * b2[1] + c * b3[1],
                a * b1[2] + b * b2[2] + c * b3[2],
            )
        )
        for a, b, c in product(range(-4, 5), repeat=3)
        if (a, b, c) != (0, 0, 0)
    )
    # the window may miss the optimum for skew bases; the certified result
    # can never be beaten inside it
    assert norm_sq(v) <= best


def _det3(b1, b2, b3):
    return dot(b1, cross3(b2, b3))


tiny = st.integers(min_value=-8, max_value=8)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(tiny, tiny, tiny),
    st.tuples(tiny, tiny, tiny),
    st.tuples(tiny, tiny, tiny),
)
def test_greedy_reduce3_keeps_lattice_and_finds_minimum(b1, b2, b3):
    det = _det3(b1, b2, b3)
    if det == 0:
        return
    red = greedy_reduce((b1, b2, b3))
    assert abs(_det3(*red)) == abs(det)
    norms = [norm_sq(v) for v in red]
    assert norms == sorted(norms)
    # x lies in L(b1, b2, b3) iff its coordinates adj(B) x / det are integers
    adj = (cross3(b2, b3), cross3(b3, b1), cross3(b1, b2))

    def member(x):
        return all(dot(x, col) % det == 0 for col in adj)

    assert all(member(v) for v in red)
    r = isqrt(norms[0])
    lightest = min(
        norm_sq(x)
        for x in product(range(-r, r + 1), repeat=3)
        if x != (0, 0, 0) and norm_sq(x) <= norms[0] and member(x)
    )
    assert norms[0] == lightest


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 2, 3), (2, 4, 6), (0, 1, 0)),
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((2, 0, 0), (0, 2, 0), (1, 1, 0)),
        ((10**12 + 39, 0, 0), (0, 10**12 + 39, 0), (3, 10**12 + 42, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    ],
    ids=["multiple", "rank2", "rank2-rational", "rank2-large", "zero-row", "zero"],
)
def test_greedy_reduce3_rejects_dependent_rows(rows):
    with pytest.raises(DegenerateBasis):
        greedy_reduce(rows)
    with pytest.raises(DegenerateBasis):
        shortest_vector3(rows)


@pytest.mark.parametrize(
    "q, cls, lift, lam",
    [
        (105, (7, 11, 50), (7, -4, 20), 76),
        (1155, (100, 200, 301), (10, 20, 7), 1132),
        (10**9 + 7, (123456789, 987654321, 55555), (143129, 496951, -459967), 999927998),
        (
            10**12 + 39,
            (314159265358, 271828182845, 161803398874),
            (19576166, 3725937, 56333332),
            957579757856,
        ),
    ],
)
def test_minimal_lift_frozen(q, cls, lift, lam):
    # values from the LLL version this reduction replaced
    ml = minimal_lift(*cls, make_modulus(q))
    assert (ml.form.a, ml.form.b, ml.form.c) == lift
    assert ml.lam == lam


def _lift_det(cls, q):
    rows = hnf_rows3([tuple(c % q for c in cls), (q, 0, 0), (0, q, 0), (0, 0, q)])
    return abs(dot(rows[0], cross3(rows[1], rows[2])))


def test_lift_lattice_frozen():
    shortest = lift_lattice(1, 0, 1, make_modulus(5))
    assert _lift_det((1, 0, 1), 5) == 25
    assert norm_sq(shortest) == 2
    assert shortest in {(1, 0, 1), (-1, 0, -1)}
    with pytest.raises(ZeroClass):
        lift_lattice(0, 0, 0, make_modulus(5))
    with pytest.raises(ZeroClass):
        lift_lattice(15, 30, 45, make_modulus(15))


def test_lift_lattice_nonprimitive_class():
    # class vanishes mod 5 but not mod 3: only 3 distinct multiples mod 15
    shortest = lift_lattice(5, 0, 5, make_modulus(15))
    assert _lift_det((5, 0, 5), 15) == 15**3 // 3
    mod = make_modulus(15)
    assert in_lift_lattice(shortest, (5, 0, 5), mod)


def test_lift_lattice_membership():
    mod = make_modulus(35)
    cls = (3, 1, 4)
    for lam in range(35):
        v = (3 * lam % 35, lam % 35, 4 * lam % 35)
        assert in_lift_lattice(v, cls, mod)
    assert in_lift_lattice((35, 70, -35), cls, mod)
    assert not in_lift_lattice((1, 0, 0), cls, mod)


@given(st.integers(0, 34), st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40)))
def test_lift_lattice_membership_shifted(lam, k):
    mod = make_modulus(35)
    cls = (3, 1, 4)
    v = tuple(lam * c + 35 * k[i] for i, c in enumerate(cls))
    assert in_lift_lattice(v, cls, mod)


@given(st.integers(0, 2**200), st.integers(1, 2**100))
def test_floor_sqrt_ratio_brackets_the_root(num, den):
    # isqrt(num // den) needs no correction, far past 2^64 too
    k = floor_sqrt_ratio(num, den)
    assert k * k * den <= num < (k + 1) * (k + 1) * den


def test_floor_sqrt_ratio_rejects_negative_radicand():
    with pytest.raises(ValueError, match="negative radicand"):
        floor_sqrt_ratio(-1, 3)


def test_iter_vectors_by_norm_order_dim2():
    seq = []
    for s, v in iter_vectors_by_norm():
        if s > 4:
            break
        seq.append((s, v))
    norms = [s for s, _ in seq]
    assert norms == sorted(norms)
    assert seq[0][0] == 1
    shell1 = [v for s, v in seq if s == 1]
    assert shell1 == sorted(shell1, key=vec_key)
    assert set(shell1) == {(0, 1), (0, -1), (1, 0), (-1, 0)}


@given(small, small, st.sampled_from([1, 3, 5, 7, 15, 21, 35]))
def test_congruence_basis2_spans(l1, l2, m):
    basis = congruence_basis2(l1, l2, m)
    (u1, v1), (u2, v2) = basis.b1, basis.b2
    assert (l1 * u1 + l2 * v1) % m == 0
    assert (l1 * u2 + l2 * v2) % m == 0
    det = abs(u1 * v2 - u2 * v1)
    roots = sum(
        1 for u in range(m) for v in range(m) if (l1 * u + l2 * v) % m == 0
    )
    # lattice index times solution count per q x q block is m^2
    assert det * roots == m * m


def test_weighted_short_vectors_sorted():
    basis = Basis2((1, 0), (0, 1))
    out = weighted_short_vectors(basis, 1, 2, 10)
    fs = [f for f, _ in out]
    assert fs == sorted(fs)
    assert out[0][1] in {(0, 1), (0, -1), (1, 0), (-1, 0)}
    for f, (u, v) in out:
        assert f == u * u + 2 * v * v
    assert {v for _, v in out} == {
        (u, v)
        for u in range(-3, 4)
        for v in range(-2, 3)
        if (u, v) != (0, 0) and u * u + 2 * v * v <= 10
    }


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(small, small).filter(any),
    st.tuples(small, small).filter(any),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 200),
)
def test_weighted_short_vectors_matches_enumeration(b1, b2, wu, wv, cap):
    if b1[0] * b2[1] == b1[1] * b2[0]:
        return
    basis = Basis2(b1, b2)
    out = weighted_short_vectors(basis, wu, wv, cap)
    assert out == sorted(out, key=lambda t: (t[0], vec_key(t[1])))
    det = abs(b1[0] * b2[1] - b1[1] * b2[0])
    expected = set()
    for u in range(-isqrt(cap // wu), isqrt(cap // wu) + 1):
        for v in range(-isqrt(cap // wv), isqrt(cap // wv) + 1):
            # (u, v) is in the lattice iff its coordinates in the basis are integers
            c1 = u * b2[1] - v * b2[0]
            c2 = v * b1[0] - u * b1[1]
            if (u, v) != (0, 0) and c1 % det == 0 and c2 % det == 0 and wu * u * u + wv * v * v <= cap:
                expected.add((wu * u * u + wv * v * v, (u, v)))
    assert set(out) == expected


def test_orthogonal_basis_rejects_zero():
    with pytest.raises(NotPrimitive):
        orthogonal_basis((0, 0, 0))
