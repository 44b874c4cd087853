import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadcong.errors import ArityError
from quadcong.modmath import make_modulus
from quadcong.qforms import (
    BinaryForm,
    TernaryForm,
    adjoint_mod,
    adjugate4,
    covariant,
    det_gram2,
    lift_symmetric,
    monic_companion,
    negate_mod,
    nonsingular_mod,
    parse_binary,
    parse_ternary,
    restrict,
)

coef = st.integers(min_value=-50, max_value=50)
vec3 = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


def test_binary_evaluate_and_det4():
    f = BinaryForm(2, 3, 1)
    assert f.evaluate((1, 0)) == 2
    assert f.evaluate((1, 1)) == 6
    assert f.det4() == 4 * 2 * 1 - 9
    assert f.disc() == -f.det4()


def test_ternary_evaluate_matches_matrix():
    f = TernaryForm(1, 2, 3, 1, 1, 1)
    x = (2, -1, 3)
    val = (
        1 * 4 + 2 * 1 + 3 * 9
        + 1 * 2 * -1 + 1 * 2 * 3 + 1 * -1 * 3
    )
    assert f.evaluate(x) == val
    g = f.gram2()
    quad = sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
    assert quad == 2 * val


def test_det_gram2_frozen():
    assert det_gram2(TernaryForm(1, 2, 3, 1, 1, 1)) == 38
    assert det_gram2(TernaryForm(1, 1, 1, 0, 0, 0)) == 8


def test_nonsingular_mod_accepts_hyperbolic_plane():
    xy = BinaryForm(0, 1, 0)
    assert nonsingular_mod(xy, make_modulus(15))


def test_adjugate4_frozen():
    adj = adjugate4(TernaryForm(1, 2, 3, 1, 1, 1))
    assert adj.coeffs() == (23, 11, 7, -10, -6, -2)


@given(st.tuples(coef, coef, coef, coef, coef, coef), vec3)
def test_adjugate_identity(coeffs, y):
    """adj(2M) * (2M) = det(2M) * I, read off through evaluation."""
    f = TernaryForm(*coeffs)
    d = det_gram2(f)
    adj = adjugate4(f)
    g = f.gram2()
    a = adj.gram2()
    prod = [
        [sum(a[i][k] * g[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (2 * d if i == j else 0)


@given(st.tuples(coef, coef, coef, coef, coef, coef), vec3, vec3)
def test_restrict_agrees_with_substitution(coeffs, u, v):
    f = TernaryForm(*coeffs)
    r = restrict(f, u, v)
    for s, t in [(1, 0), (0, 1), (1, 1), (2, -3), (-1, 4)]:
        point = tuple(s * u[i] + t * v[i] for i in range(3))
        assert r.evaluate((s, t)) == f.evaluate(point)


@given(st.tuples(coef, coef, coef, coef, coef, coef), vec3, vec3)
def test_restriction_det4_is_adjugate_value(coeffs, u, v):
    """det4 of a plane restriction equals the adjugate at the cross product."""
    from quadcong.intvec import cross3

    f = TernaryForm(*coeffs)
    r = restrict(f, u, v)
    assert r.det4() == adjugate4(f).evaluate(cross3(u, v))


def test_adjoint_mod_range_and_negate():
    mod = make_modulus(105)
    f = TernaryForm(1, 2, 3, 1, 1, 1)
    h = adjoint_mod(f, mod)
    for c in h.coeffs():
        assert abs(c) <= (105 - 1) // 2
    adj = adjugate4(f)
    from quadcong.modmath import inv_mod

    i4 = inv_mod(4, 105)
    for hc, ac in zip(h.coeffs(), adj.coeffs()):
        assert hc % 105 == ac * i4 % 105
    n = negate_mod(h, mod)
    for nc, hc in zip(n.coeffs(), h.coeffs()):
        assert (nc + hc) % 105 == 0


def test_nonsingular_mod_rejects():
    mod = make_modulus(21)
    f = BinaryForm(1, 1, 2)  # det4 = 7
    assert not nonsingular_mod(f, mod)
    assert nonsingular_mod(f, make_modulus(5))


def test_parse_roundtrip():
    f = parse_ternary("1 2 3 -1 0 4")
    assert f == TernaryForm(1, 2, 3, -1, 0, 4)
    assert parse_ternary(f.row()) == f
    b = parse_binary("2 -3 5")
    assert b == BinaryForm(2, -3, 5)
    with pytest.raises(ArityError):
        parse_ternary("1 2 3")
    with pytest.raises(ArityError):
        parse_binary("1 2 3 4")


def test_lift_symmetric():
    assert lift_symmetric(8, 15) == 8 - 15
    assert lift_symmetric(7, 15) == 7
    assert lift_symmetric(0, 15) == 0


@given(st.integers(-3, 3), st.integers(-9, 9), st.integers(-40, 40))
def test_monic_companion_value_identity(a, b, c):
    """a * Q(x, y) = companion(a*x, y) with companion = X^2 + bXY + acY^2."""
    if a == 0:
        return
    f = BinaryForm(a, b, c)
    qt = monic_companion(f)
    assert qt.a == 1 and qt.disc() == f.disc()
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert a * f.evaluate((x, y)) == qt.evaluate((a * x, y))


def test_monic_companion_frozen():
    assert monic_companion(BinaryForm(2, 1, 3)) == BinaryForm(1, 1, 6)
    assert monic_companion(BinaryForm(1, 0, 1)) == BinaryForm(1, 0, 1)


@given(st.tuples(coef, coef, coef), st.tuples(coef, coef, coef))
def test_covariant_product_rule(u, v):
    """C applied to a product of two linear forms gives Q(u)Q(v)."""
    q = BinaryForm(3, -2, 5)
    u2, u1 = u[1], u[0]
    v2, v1 = v[1], v[0]
    # (u2 X - u1 Y)(v2 X - v1 Y)
    prod = BinaryForm(u2 * v2, -(u2 * v1 + u1 * v2), u1 * v1)
    assert covariant(prod, q) == q.evaluate((u1, u2)) * q.evaluate((v1, v2))


def test_arity_checks():
    with pytest.raises(ArityError):
        TernaryForm(1, 1, 1, 0, 0, 0).evaluate((1, 2))
    with pytest.raises(ArityError):
        BinaryForm(1, 0, 1).evaluate((1, 2, 3))
