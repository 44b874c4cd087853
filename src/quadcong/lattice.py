"""Exact integer lattice kernels: greedy 2D/3D reduction, orthogonal-plane
bases, coefficient-lift lattices, short vectors, and congruence box search.

Everything is plain python ints; no fractions and no floating point anywhere.
Canonical tie-breaks use intvec.vec_key so outputs are deterministic.
"""

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateBasis, NotPrimitive, ZeroClass
from .intvec import (
    add,
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
from .qforms import _check_arity


@dataclass(frozen=True)
class Basis2:
    b1: tuple
    b2: tuple

    def det_gram(self) -> int:
        return dot(self.b1, self.b1) * dot(self.b2, self.b2) - dot(self.b1, self.b2) ** 2


def _weighted_dot(wu: int, wv: int):
    """The diagonal inner product wu u u' + wv v v' on plane vectors."""
    return lambda u, v: wu * u[0] * v[0] + wv * u[1] * v[1]


def _reduce_against(b1, b2, t, ip):
    """t minus its closest vector in L(b1, b2), for a reduced pair (b1, b2).

    The coordinates of t's projection on the plane are x1 / D and x2 / D with
    D the Gram determinant; the closest lattice vector is one of the four
    corners (floor or ceiling of each) around them.
    """
    n1, n2, g = ip(b1, b1), ip(b2, b2), ip(b1, b2)
    r1, r2 = ip(t, b1), ip(t, b2)
    d = n1 * n2 - g * g
    k1, k2 = (n2 * r1 - g * r2) // d, (n1 * r2 - g * r1) // d
    corners = (sub(t, add(scale(b1, k1 + i), scale(b2, k2 + j))) for i in (0, 1) for j in (0, 1))
    return min(corners, key=lambda v: ip(v, v))


def greedy_reduce(rows, weights=None):
    """Greedy reduction of 2 or 3 independent integer rows, integers only.

    Two rows: the Lagrange/Gauss loop.  Without weights the inner product is
    the dot product (any ambient dimension); with weights = (wu, wv), positive
    integers, it is the diagonal form wu u u' + wv v v' on plane vectors.
    Under that inner product the output (b1, b2) realizes both successive
    minima: ||b1|| <= ||b2|| and ||b1||^2 ||b2||^2 <= (4/3) det(Gram).

    Three rows (Semaev 2001; Nguyen-Stehle 2004): sort by norm, reduce the
    first two, replace b3 by its distance vector to L(b1, b2), re-sort, and
    stop once b3 is no shorter than b2.  The sorted norm tuple strictly
    decreases at each pass, so the loop ends; the rows come back sorted by
    norm.  A nonzero b3 left in the plane of a reduced (b1, b2) is shorter
    than b2 (the covering radius is below ||b2||), so dependent rows end in a
    zero vector and raise DegenerateBasis; the rows returned are independent.
    """
    ip = dot if weights is None else _weighted_dot(*weights)
    if len(rows) == 3:
        b1, b2, b3 = sorted(rows, key=lambda v: ip(v, v))
        while True:
            b1, b2 = greedy_reduce((b1, b2), weights)
            b3 = _reduce_against(b1, b2, b3, ip)
            if ip(b3, b3) >= ip(b2, b2):
                return b1, b2, b3
            b1, b2, b3 = sorted((b1, b2, b3), key=lambda v: ip(v, v))
    b1, b2 = rows
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
    return b1, b2


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
    basis = Basis2(*greedy_reduce(kernel_basis3(a0)))
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


def shortest_vector3(rows) -> tuple:
    """Exact shortest nonzero vector of the rank-3 lattice spanned by rows.

    Greedy reduction first, then exhaustive enumeration inside the Cramer
    coefficient box, so the output is provably minimal.  Tie-break by vec_key.
    """
    _check_arity(rows, 3, "rows")
    red = greedy_reduce(rows)
    det = abs(dot(red[0], cross3(red[1], red[2])))
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
    return best


def lift_lattice(a: int, b: int, c: int, mod: Modulus) -> tuple:
    """Canonical shortest vector of the lattice of integer vectors congruent
    to a multiple of (a, b, c) mod q (shortest_vector3's tie-break).

    The lattice has det q^2 whenever gcd(a, b, c, q) = 1; raises ZeroClass
    when the class is trivial mod q (the lattice would be all of qZ^3).
    """
    q = mod.q
    if a % q == 0 and b % q == 0 and c % q == 0:
        raise ZeroClass(f"({a}, {b}, {c}) = 0 mod {q}")
    rows = hnf_rows3([(a % q, b % q, c % q), (q, 0, 0), (0, q, 0), (0, 0, q)])
    return shortest_vector3(rows)


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
