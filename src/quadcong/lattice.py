"""Exact integer lattice kernels: 2D reduction, orthogonal-plane bases,
coefficient-lift lattices, short vectors, and congruence box search.

Everything is plain python ints, with Fractions only in LLL and the basis
defect; no floating point anywhere.  The weighted box search is integer-only.
Canonical tie-breaks use intvec.vec_key so outputs are deterministic.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DegenerateBasis, NotPrimitive, ZeroClass
from .intvec import (
    content,
    dot,
    floor_sqrt_ratio,
    norm_sq,
    round_div,
    scale,
    sub,
    vec_key,
    cross3,
)
from .modmath import Modulus


@dataclass(frozen=True)
class Basis2:
    b1: tuple
    b2: tuple

    def gram(self):
        return (
            (dot(self.b1, self.b1), dot(self.b1, self.b2)),
            (dot(self.b1, self.b2), dot(self.b2, self.b2)),
        )

    def det_gram(self) -> int:
        g = self.gram()
        return g[0][0] * g[1][1] - g[0][1] * g[1][0]


@dataclass(frozen=True)
class Basis3:
    b1: tuple
    b2: tuple
    b3: tuple

    def rows(self):
        return (self.b1, self.b2, self.b3)

    def det(self) -> int:
        (a, b, c), (d, e, f), (g, h, i) = self.rows()
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _weighted_dot(wu: int, wv: int):
    """The diagonal inner product wu u u' + wv v v' on plane vectors."""
    return lambda u, v: wu * u[0] * v[0] + wv * u[1] * v[1]


def gauss_reduce(b1, b2, weights=None) -> Basis2:
    """Lagrange/Gauss reduction of a rank-2 basis.

    Without weights the inner product is the dot product (any ambient
    dimension); with weights = (wu, wv), positive integers, it is the
    diagonal form wu u u' + wv v v' on plane vectors.  Under that inner
    product the output basis realizes both successive minima:
    ||b1|| <= ||b2|| and ||b1||^2 ||b2||^2 <= (4/3) det(Gram).
    """
    ip = dot if weights is None else _weighted_dot(*weights)
    n1, n2 = ip(b1, b1), ip(b2, b2)
    if n1 > n2:
        b1, b2, n1, n2 = b2, b1, n2, n1
    if n1 == 0:
        raise DegenerateBasis("zero vector in basis")
    while True:
        b2 = sub(b2, scale(b1, round_div(ip(b1, b2), n1)))
        n2 = ip(b2, b2)
        if n2 >= n1:
            break
        b1, b2, n1, n2 = b2, b1, n2, n1
        if n1 == 0:
            raise DegenerateBasis("basis vectors are dependent")
    if n1 * n2 == ip(b1, b2) ** 2:  # Gram determinant zero
        raise DegenerateBasis("basis vectors are dependent")
    return Basis2(b1, b2)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def kernel_basis3(w):
    """Basis (2 vectors) of {x in Z^3 : w . x = 0} for primitive w.

    Unimodular column operations send w to (1, 0, 0); the images of the two
    killed columns span the kernel lattice exactly (it is saturated).
    """
    if content(w) != 1:
        raise NotPrimitive(f"{w} has content {content(w)}")
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    vals = list(w)

    def combine(i, j):
        # make vals[j] zero using cols i, j
        a, b = vals[i], vals[j]
        if b == 0:
            return
        g, x, y = _xgcd(a, b)
        ci, cj = cols[i], cols[j]
        cols[i] = tuple(x * p + y * q for p, q in zip(ci, cj))
        cols[j] = tuple((-b // g) * p + (a // g) * q for p, q in zip(ci, cj))
        vals[i], vals[j] = g, 0

    combine(0, 1)
    combine(0, 2)
    if vals not in ([1, 0, 0], [-1, 0, 0]):
        raise DegenerateBasis(f"column reduction of {w} ended at {vals}")
    return cols[1], cols[2]


def orthogonal_basis(a0) -> Basis2:
    """Reduced basis of the plane lattice {x in Z^3 : a0 . x = 0}.

    Requires a0 primitive.  det(Gram) = ||a0||^2 and b1 x b2 = +-a0.
    """
    v1, v2 = kernel_basis3(a0)
    basis = gauss_reduce(v1, v2)
    cr = cross3(basis.b1, basis.b2)
    if basis.det_gram() != norm_sq(a0) or cr not in (tuple(a0), tuple(scale(a0, -1))):
        raise DegenerateBasis(f"plane basis {basis} does not span the lattice orthogonal to {a0}")
    return basis


def hnf_rows3(rows):
    """Row HNF basis (3 rows, upper triangular, positive diagonal) of the
    lattice generated by the given 3-vectors.  Straightforward Euclid."""
    work = [tuple(r) for r in rows if any(r)]
    out = []
    for col in range(3):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            newp = [p]
            for r in pivots[1:]:
                k = r[col] // p[col]
                r2 = sub(r, scale(p, k))
                if r2[col] != 0:
                    newp.append(r2)
                elif any(r2):
                    rest.append(r2)
            pivots = newp
        if pivots:
            p = pivots[0]
            if p[col] < 0:
                p = scale(p, -1)
            out.append(p)
            work = rest
        else:
            work = rest
    if len(out) != 3:
        raise DegenerateBasis(f"rank {len(out)} < 3")
    # normalize: entries above each pivot reduced mod the pivot
    for i in (1, 2):
        for j in range(i):
            k = out[j][i] // out[i][i]
            out[j] = sub(out[j], scale(out[i], k))
    return out


def lll_reduce(rows, delta=Fraction(3, 4)):
    """Exact LLL for 2-3 rows of integers; returns reduced rows."""
    b = [tuple(r) for r in rows]
    n = len(b)

    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar_sq = [Fraction(0)] * n
        gs = []
        for i in range(n):
            vi = [Fraction(x) for x in b[i]]
            for j in range(i):
                if bstar_sq[j] == 0:
                    raise DegenerateBasis("dependent rows in LLL")
                mu[i][j] = sum(Fraction(x) * y for x, y in zip(b[i], gs[j])) / bstar_sq[j]
                vi = [x - mu[i][j] * y for x, y in zip(vi, gs[j])]
            gs.append(vi)
            bstar_sq[i] = sum(x * x for x in vi)
        return mu, bstar_sq

    k = 1
    mu, bstar_sq = gram_schmidt()
    guard = 0
    while k < n:
        guard += 1
        if guard > 10_000:
            raise DegenerateBasis("LLL failed to terminate (dependent rows?)")
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round_div(mu[k][j].numerator, mu[k][j].denominator)
                b[k] = sub(b[k], scale(b[j], r))
                mu, bstar_sq = gram_schmidt()
        if bstar_sq[k] >= (delta - mu[k][k - 1] ** 2) * bstar_sq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bstar_sq = gram_schmidt()
            k = max(k - 1, 1)
    return b


@dataclass(frozen=True)
class Shortest3:
    vector: tuple
    basis: Basis3
    defect_sq: Fraction  # prod ||b_i||^2 / det(Gram) >= 1, the coefficient-bound constant


def shortest_vector3(rows) -> Shortest3:
    """Exact shortest nonzero vector of the rank-3 lattice spanned by rows.

    LLL first, then exhaustive enumeration inside the Cramer coefficient box,
    so the output is provably minimal.  Tie-break by vec_key.
    """
    red = lll_reduce(rows)
    red.sort(key=lambda v: (norm_sq(v), vec_key(v)))
    basis = Basis3(*red)
    det = abs(basis.det())
    if det == 0:
        raise DegenerateBasis("rank < 3")
    n = [norm_sq(v) for v in red]
    best = min(red, key=lambda v: (norm_sq(v), vec_key(v)))
    best_n = norm_sq(best)
    det_sq = det * det
    # any v with ||v||^2 <= best_n has |coef_i| <= sqrt(best_n * prod_{j!=i} n_j) / det
    bounds = []
    for i in range(3):
        prod = best_n
        for j in range(3):
            if j != i:
                prod *= n[j]
        bounds.append(floor_sqrt_ratio(prod, det_sq))
    for c1 in range(-bounds[0], bounds[0] + 1):
        for c2 in range(-bounds[1], bounds[1] + 1):
            for c3 in range(-bounds[2], bounds[2] + 1):
                if c1 == 0 and c2 == 0 and c3 == 0:
                    continue
                v = tuple(
                    c1 * red[0][k] + c2 * red[1][k] + c3 * red[2][k] for k in range(3)
                )
                nv = norm_sq(v)
                if (nv, vec_key(v)) < (best_n, vec_key(best)):
                    best, best_n = v, nv
    defect = Fraction(n[0] * n[1] * n[2], det_sq)
    return Shortest3(vector=best, basis=basis, defect_sq=defect)


@dataclass(frozen=True)
class LiftLattice:
    basis: Basis3
    shortest: tuple
    det: int


def lift_lattice(a: int, b: int, c: int, mod: Modulus) -> LiftLattice:
    """Lattice of integer vectors congruent to a multiple of (a, b, c) mod q.

    det = q^2 whenever gcd(a, b, c, q) = 1; raises ZeroClass when the class
    is trivial mod q (the lattice would be all of qZ^3 shifted data).
    """
    q = mod.q
    if a % q == 0 and b % q == 0 and c % q == 0:
        raise ZeroClass(f"({a}, {b}, {c}) = 0 mod {q}")
    rows = hnf_rows3([(a % q, b % q, c % q), (q, 0, 0), (0, q, 0), (0, 0, q)])
    short = shortest_vector3(rows)
    return LiftLattice(basis=short.basis, shortest=short.vector, det=abs(short.basis.det()))


def iter_vectors_by_norm(dim: int):
    """Yield (norm_sq, vector) over Z^dim \\ {0}, norm ascending, vec_key within a shell."""
    s = 1
    while True:
        shell = []
        if dim == 2:
            r = isqrt(s)
            for x in range(0, r + 1):
                y2 = s - x * x
                y = isqrt(y2)
                if y * y == y2:
                    for sx in ((x,) if x == 0 else (x, -x)):
                        for sy in ((y,) if y == 0 else (y, -y)):
                            shell.append((sx, sy))
        elif dim == 3:
            r = isqrt(s)
            for x in range(0, r + 1):
                rem = s - x * x
                ry = isqrt(rem)
                for y in range(0, ry + 1):
                    z2 = rem - y * y
                    z = isqrt(z2)
                    if z * z == z2:
                        for sx in ((x,) if x == 0 else (x, -x)):
                            for sy in ((y,) if y == 0 else (y, -y)):
                                for sz in ((z,) if z == 0 else (z, -z)):
                                    shell.append((sx, sy, sz))
        else:
            raise ValueError(f"dim {dim} not supported")
        shell = sorted(set(shell), key=vec_key)
        for v in shell:
            yield s, v
        s += 1


def congruence_basis2(l1: int, l2: int, m: int) -> Basis2:
    """Basis of the rank-2 lattice {(u, v) : l1 u + l2 v ≡ 0 (mod m)}."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    g = gcd(gcd(l1, l2), m)
    w = (l1 // g, l2 // g, m // g)
    k1, k2 = kernel_basis3(w)
    b1, b2 = (k1[0], k1[1]), (k2[0], k2[1])
    basis = Basis2(b1, b2)
    if basis.det_gram() == 0:
        raise DegenerateBasis("projected congruence basis degenerate")
    return basis


def weighted_short_vectors(basis: Basis2, wu: int, wv: int, cap: int):
    """All nonzero lattice vectors with weighted norm <= cap, as (f, vector)
    pairs sorted by (f, vec_key).  Weights and cap are integers.

    With f1 = f(b1), g = <b1, b2> and D = f1 f(b2) - g^2 > 0, the vector
    c1 b1 + c2 b2 has f = (f1 c1 + g c2)^2 / f1 + (D / f1) c2^2, so every
    bound below is an exact integer comparison.  The enumeration is exact for
    any basis; a basis reduced under the weights keeps the c1, c2 ranges short.
    """
    wdot = _weighted_dot(wu, wv)
    b1, b2 = basis.b1, basis.b2
    f1 = wdot(b1, b1)
    g = wdot(b1, b2)
    det = f1 * wdot(b2, b2) - g * g
    if det <= 0:
        raise DegenerateBasis(f"weighted Gram determinant {det} is not positive")
    out = []
    lim2 = floor_sqrt_ratio(cap * f1, det)
    for c2 in range(-lim2, lim2 + 1):
        rem = cap * f1 - det * c2 * c2  # f1^2 times the budget left for c1
        if rem < 0:
            continue
        center = round_div(-g * c2, f1)
        w1 = floor_sqrt_ratio(rem, f1 * f1) + 1
        for c1 in range(center - w1 - 1, center + w1 + 2):
            if c1 == 0 and c2 == 0:
                continue
            v = (c1 * b1[0] + c2 * b2[0], c1 * b1[1] + c2 * b2[1])
            f = wdot(v, v)
            if f <= cap:
                out.append((f, v))
    out.sort(key=lambda t: (t[0], vec_key(t[1])))
    return out
