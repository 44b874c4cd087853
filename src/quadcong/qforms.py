"""Integer binary and ternary quadratic forms and their exact invariants.

Conventions
-----------
A binary form (a, b, c) is a x^2 + b x y + c y^2; a ternary form stores the
six coefficients of sum(a_ii x_i^2) + sum(a_ij x_i x_j, i < j).  Determinants
are computed through the doubled Gram matrix 2M (always integral), so
``det4`` of a binary form is 4ac - b^2 = 4 det(M) and the adjugate comes back
as an integer form worth exactly 4 * adj(M) as a quadratic form.  Mod-q
variants divide out the 2s and 4s with modular inverses (q odd) and lift to
the symmetric interval (-q/2, q/2].
"""

import random
from dataclasses import dataclass

from .errors import ArityError, CertificateMismatch, InvalidInput
from .intvec import add
from .modmath import Modulus, inv_mod


def _check_arity(seq, n, what="coordinates"):
    """The one shape check at the public boundary: seq must hold n items."""
    if len(seq) != n:
        raise ArityError(f"expected {n} {what}, got {len(seq)}")


@dataclass(frozen=True)
class BinaryForm:
    a: int
    b: int
    c: int

    arity = 2

    def evaluate(self, point) -> int:
        _check_arity(point, 2)
        x, y = point
        return self.a * x * x + self.b * x * y + self.c * y * y

    def det4(self) -> int:
        """4*det of the rational Gram matrix; equals -disc."""
        return 4 * self.a * self.c - self.b * self.b

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def row(self) -> str:
        return f"{self.a} {self.b} {self.c}"


@dataclass(frozen=True)
class TernaryForm:
    a11: int
    a22: int
    a33: int
    a12: int
    a13: int
    a23: int

    arity = 3

    def evaluate(self, point) -> int:
        _check_arity(point, 3)
        x, y, z = point
        return (
            self.a11 * x * x
            + self.a22 * y * y
            + self.a33 * z * z
            + self.a12 * x * y
            + self.a13 * x * z
            + self.a23 * y * z
        )

    def gram2(self):
        """The integer matrix 2M (rows), M the rational Gram matrix."""
        return (
            (2 * self.a11, self.a12, self.a13),
            (self.a12, 2 * self.a22, self.a23),
            (self.a13, self.a23, 2 * self.a33),
        )

    def coeffs(self):
        return (self.a11, self.a22, self.a33, self.a12, self.a13, self.a23)

    def row(self) -> str:
        return " ".join(str(c) for c in self.coeffs())


def _parse_row(text: str, n: int, kind: str):
    try:
        parts = [int(t) for t in text.replace(",", " ").split()]
    except ValueError as e:
        raise InvalidInput(f"{kind} form row needs {n} integers: {e}") from None
    if len(parts) != n:
        raise ArityError(f"{kind} form row needs {n} integers, got {len(parts)}")
    return parts


def parse_binary(text: str) -> BinaryForm:
    return BinaryForm(*_parse_row(text, 3, "binary"))


def parse_ternary(text: str) -> TernaryForm:
    return TernaryForm(*_parse_row(text, 6, "ternary"))


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def det_gram2(form) -> int:
    """det(2M): 4ac - b^2 for binary, 8*det(M) for ternary."""
    if isinstance(form, BinaryForm):
        return form.det4()
    return _det3(form.gram2())


def nonsingular_mod(form, mod: Modulus) -> bool:
    from math import gcd

    return gcd(det_gram2(form), mod.q) == 1


def sample_forms(mod: Modulus, count: int, seed) -> list:
    """count ternary forms, coefficients uniform in [0, q), resampled until
    nonsingular mod q; reproducible from the seed."""
    rng = random.Random(f"{seed}:forms:{mod.q}")
    q = mod.q
    out = []
    while len(out) < count:
        form = TernaryForm(*(rng.randrange(q) for _ in range(6)))
        if nonsingular_mod(form, mod):
            out.append(form)
    return out


def lift_symmetric(r: int, q: int) -> int:
    """Lift r mod q to the representative in (-q/2, q/2] (q odd)."""
    r %= q
    return r - q if r > (q - 1) // 2 else r


def adjugate4(form: TernaryForm) -> TernaryForm:
    """Integer ternary form whose values are 4 * (adjugate quadratic form).

    Concretely the quadratic form of adj(2M) = 4 adj(M), so for any y
    adjugate4(Q)(y) = 4 * Q^adj(y).  Exact over Z.
    """
    m = form.gram2()
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c11 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    c22 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    c01 = -(m[0][1] * m[2][2] - m[0][2] * m[2][1])
    c02 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c12 = -(m[0][0] * m[1][2] - m[0][2] * m[1][0])
    return TernaryForm(c00, c11, c22, 2 * c01, 2 * c02, 2 * c12)


def adjoint_mod(form: TernaryForm, mod: Modulus) -> TernaryForm:
    """The adjugate form mod q, coefficients lifted to (-q/2, q/2]."""
    q = mod.q
    i4 = inv_mod(4, q)
    return TernaryForm(*(lift_symmetric(c * i4, q) for c in adjugate4(form).coeffs()))


def negate_mod(form: TernaryForm, mod: Modulus) -> TernaryForm:
    q = mod.q
    return TernaryForm(*(lift_symmetric(-c, q) for c in form.coeffs()))


def restrict(form: TernaryForm, x1, x2) -> BinaryForm:
    """The binary form R(u, v) = Q(u*x1 + v*x2), exact over Z."""
    a = form.evaluate(x1)
    c = form.evaluate(x2)
    b = form.evaluate(add(x1, x2)) - a - c
    return BinaryForm(a, b, c)


def covariant(q1: BinaryForm, q2: BinaryForm) -> int:
    """Discriminant of the pencil determinant det(alpha*q1 + beta*q2).

    Computed with the cleared convention so the result is an exact integer;
    satisfies covariant(product of linear forms (u,v), Q) = Q(u)Q(v) on the nose.
    """
    s = 2 * (q1.a * q2.c + q2.a * q1.c) - q1.b * q2.b
    num = s * s - q1.det4() * q2.det4()
    if num % 4:
        raise CertificateMismatch(f"covariant numerator {num} is not divisible by 4")
    return num // 4


def monic_companion(form: BinaryForm) -> BinaryForm:
    """x^2 + b x y + (a c) y^2: monic companion with the same discriminant."""
    return BinaryForm(1, form.b, form.a * form.c)
