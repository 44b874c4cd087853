"""Constructive solver: small nonzero solutions of Q(x) ≡ 0 (mod q).

The pipeline, for a ternary form Q nonsingular mod an odd square-free q:

1. form the negated adjugate form mod q (small symmetric lift),
2. find a small witness a with (-Q^adj)(a) ≡ t^2 (mod q)
   (restriction to a coprime plane + square-value search on a binary form:
   a sieve over norm annuli that widen with the radius, listing one vector
   of each pair +-v since R(-v) = R(v); each row keeps only the vectors
   whose value passes the squares table of the first group of small
   primes, the survivors pass the other groups' tables, and only those
   left are sorted into the canonical order and meet jacobi for the primes
   above 2^10),
3. split a = content * primitive, q = q0 * q1 with q0 = gcd(q, content),
4. reduce the plane lattice orthogonal to the primitive part,
5. restrict Q to that plane; the restriction factors into linear forms mod q1
   because its discriminant is a square mod q1 by the witness certificate,
6. pick (u, v) in the congruence lattice of the linear factor inside an exact
   box with u*v area q1, and return x = q0 * (u x1 + v x2).

Every inequality in the trace is checked in exact integer arithmetic; the
final guarantee is 3 ||x||^4 <= 64 q^2 ||a||^2, i.e. ||x||^2 <= (8/sqrt 3) q ||a||.
"""

from dataclasses import astuple, dataclass, fields
from functools import lru_cache
from itertools import count, product
from math import gcd, isqrt, prod

from .errors import (
    CertificateMismatch,
    InvalidInput,
    RegionTooLarge,
    SearchExhausted,
    SingularForm,
    TraceInvariantViolation,
    _guard_points,
)
from .intvec import add, content, dot, norm_sq, scale
from .lattice import (
    congruence_basis2,
    greedy_reduce,
    orthogonal_basis,
    weighted_short_vectors,
)
from .modmath import (
    Modulus,
    _sqrt_mod_known_prime,
    crt_combine,
    inv_mod,
    jacobi,
    sqrt_mod_squarefree,
)
from .qforms import (
    BinaryForm,
    TernaryForm,
    adjoint_mod,
    negate_mod,
    nonsingular_mod,
    restrict,
)


def coprime_point_search(f, n: int, mod: Modulus):
    """First positive point a in [1, A]^n with gcd(f(a), q) = 1.

    Scans sup-norm shells A = 1, 2, 3, ... in lexicographic order inside each
    shell, so the hit minimizes max(a_i) over everything examined.  Shell A
    walks [1, A]^n, after charging every point walked so far to the budget.
    """
    q = mod.q
    walked = 0
    for a in count(1):
        walked += a**n
        _guard_points(walked, f"coprime_point_search in dimension {n} mod q = {q}")
        for point in product(range(1, a + 1), repeat=n):
            if max(point) != a:
                continue
            if gcd(f(point) % q, q) == 1:
                return point


# Primes below _TABLE_LIMIT are tested through cached tables of squares,
# merged into groups whose modulus m = prod(p) stays at most _GROUP_LIMIT
# (3 * 5 * 7 * 11 * 13 = 15015 is one group), so that one reduction mod m
# and one table read test a whole group; larger primes are tested through
# jacobi, only on the few vectors the tables let through, in order.
_TABLE_LIMIT = 2**10
_GROUP_LIMIT = 2**14
# Norm widths of the annuli [s0, s1): the first _FIRST_WIDTH, then doubling,
# but at most 32 isqrt(s0), so that the isqrt(s1) + 1 rows an annulus walks
# stay a small share of the about pi * width / 2 vectors it lists, and at
# most _MAX_WIDTH, so that one annulus lists at most about pi * _MAX_WIDTH / 2
# (26k) vectors.
_FIRST_WIDTH = 4
_MAX_WIDTH = 2**14


@lru_cache(maxsize=None)
def _squares_table(p: int) -> bytes:
    """Length-p bytes: 1 at each square mod p, 0 included; 0 elsewhere."""
    table = bytearray(p)
    for i in range(p // 2 + 1):
        table[i * i % p] = 1
    return bytes(table)


@lru_cache(maxsize=64)  # at most 64 tables of at most _GROUP_LIMIT bytes: 1 MB
def _group_table(group: tuple) -> bytes:
    """Length-m bytes, m = prod(group): 1 at each residue that is a square,
    0 included, mod every prime of the group; 0 elsewhere."""
    m = prod(group)
    bits = -1
    for p in group:
        # byte i of the repeated table is 1 when i mod p is a square, so the
        # AND of the big-endian integers is the bytewise AND of the tables
        bits &= int.from_bytes(_squares_table(p) * (m // p), "big")
    return bits.to_bytes(m, "big")


def _groups(primes):
    """The primes below _TABLE_LIMIT of the sorted primes, smallest first, in
    groups whose product stays at most _GROUP_LIMIT."""
    groups, m = [], _GROUP_LIMIT
    for p in primes:
        if p >= _TABLE_LIMIT:
            break
        if m * p > _GROUP_LIMIT:
            groups.append([])
            m = 1
        groups[-1].append(p)
        m *= p
    return [tuple(g) for g in groups]


def _annuli(limit: int):
    """Norm ranges [s0, s1) tiling [1, limit + 1): widths doubling from
    _FIRST_WIDTH, at most 32 isqrt(s0) and at most _MAX_WIDTH."""
    s0, width = 1, _FIRST_WIDTH
    while s0 <= limit:
        s1 = min(s0 + width, limit + 1)
        yield s0, s1
        s0, width = s1, min(2 * width, 32 * isqrt(s1), _MAX_WIDTH)


def _annulus_rows(s0: int, s1: int):
    """(x, ys) for the vectors (x, y), y in the range ys, of the annulus
    s0 <= x^2 + y^2 < s1 that lie in the half-plane x > 0 or x = 0 < y: one
    vector of each pair +-v.  Each row x > 0 gives its y <= 0 and its y > 0
    part, row 0 only its y > 0 part; any part may be empty."""
    r = isqrt(s1 - 1)
    for x in range(r + 1):
        x2 = x * x
        lo = 0 if x2 >= s0 else isqrt(s0 - x2 - 1) + 1
        hi = isqrt(s1 - 1 - x2)
        if x:
            yield x, range(-hi, 1 - lo)
        yield x, range(lo or 1, hi + 1)


def _vectors_below(s: int) -> int:
    """The number of vectors of Z^2 \\ {0} with x^2 + y^2 < s, row by row."""
    r = isqrt(s - 1)
    return sum(2 * isqrt(s - 1 - x * x) + 1 for x in range(-r, r + 1)) - 1


def _form_name(form, q: int) -> str:
    """form.row() for a give-up message; a form with a coefficient past
    Python's int-to-str digit limit is named by its coefficients reduced
    mod q, marked as reduced."""
    try:
        return form.row()
    except ValueError:
        return f"{type(form)(*(c % q for c in astuple(form))).row()} (coefficients reduced mod q)"


def _canonical_order(v):
    """(norm, vec_key) of the vector (x, y)."""
    x, y = v
    return x * x + y * y, abs(x), x < 0, abs(y), y < 0


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _give_up_norm(q: int) -> int:
    """floor(max(q^0.5, 4 q^0.3 + 16)^2) in integers, with q^0.3 to 32
    fraction bits.  q^0.5 - 4 q^0.3 grows from q = 80 on and passes 16 near
    q = 4,200, so from q = 2^13 on the norm is q and no root is taken."""
    if q >> 13:
        return q
    u = _iroot(q**3 << 320, 10)
    return max(q, (4 * u + (16 << 32)) ** 2 >> 64)


def square_value_binary(form: BinaryForm, mod: Modulus):
    """Smallest nonzero (x, y) whose value is a square mod q (prime by prime).

    Smallest in (norm, vec_key) order: the first vector of the norm-shell
    walk whose value is a square or 0 mod every prime of q.  The search
    sieves norm annuli (_annuli) in turn, listing only the half-plane
    x > 0 or x = 0 < y (_annulus_rows).  That leaves the witness unchanged:
    v and -v take the same value, so they pass or fail together, and the
    listed one sorts first in (norm, vec_key) order.  The primes below
    _TABLE_LIMIT form groups (_groups), each with one table of the residues
    that are squares mod all its primes.  Each row of an annulus keeps only
    the vectors that pass the first group's table, evaluating R(x, y) with
    the coefficients reduced mod that group's modulus; the survivors pass
    the other groups' tables in turn, and are then sorted and tested with
    jacobi for the larger primes.  Gives up past norm
    max(q^0.5, 4 q^0.3 + 16)^2 + 1, computed in integers (_give_up_norm),
    so q may pass the float range.  Before an annulus [s0, s1) is listed,
    every vector below s1, in the whole plane, is charged to the point
    budget, so a form that degenerates mod primes of a large q raises
    RegionTooLarge instead of running on.
    """
    q = mod.q
    limit = _give_up_norm(q) + 1
    primes = sorted(mod.primes)
    sieves = []
    for group in _groups(primes):
        m = prod(group)
        sieves.append((m, _group_table(group), form.a % m, form.b % m, form.c % m))
    # with no prime below _TABLE_LIMIT, a table mod 1 lets every vector through
    m1, t1, a1, b1, c1 = sieves[0] if sieves else (1, b"\x01", 0, 0, 0)
    large = [p for p in primes if p >= _TABLE_LIMIT]
    big = prod(large)
    a, b, c = form.a % big, form.b % big, form.c % big

    def what():
        return f"square_value_binary {_form_name(form, q)} mod q = {q}"

    for s0, s1 in _annuli(limit):
        _guard_points(_vectors_below(s1), what)
        found = []
        for x, ys in _annulus_rows(s0, s1):
            ax2, bx = a1 * x * x, b1 * x
            found += [(x, y) for y in ys if t1[(ax2 + (bx + c1 * y) * y) % m1]]
        for m, t, am, bm, cm in sieves[1:]:
            found = [v for v in found if t[((am * v[0] + bm * v[1]) * v[0] + cm * v[1] * v[1]) % m]]
        found.sort(key=_canonical_order)
        for x, y in found:
            value = (a * x + b * y) * x + c * y * y
            if all(jacobi(value, p) != -1 for p in large):
                return x, y
    raise SearchExhausted(f"{_form_name(form, q)} takes no square value mod q = {q} below norm {limit + 1}")


@dataclass(frozen=True)
class RestrictionChoice:
    """Six small positive integers giving a plane on which Q stays nonsingular."""

    vecs: tuple  # (a1, a2, a3, a4, a5, a6)
    form: BinaryForm  # R(u, v) = Q(a1 u + a2 v, a3 u + a4 v, a5 u + a6 v)


def ternary_to_binary(form: TernaryForm, mod: Modulus) -> RestrictionChoice:
    """Restrict a nonsingular ternary form to a plane keeping det coprime to q;
    a singular one raises SingularForm (at rank <= 1 mod p no plane would do)."""
    if not nonsingular_mod(form, mod):
        raise SingularForm(f"{_form_name(form, mod.q)} is singular mod q = {mod.q}")
    try:
        a = coprime_point_search(lambda v: restrict(form, v[0::2], v[1::2]).det4(), 6, mod)
    except RegionTooLarge as exc:
        raise RegionTooLarge(f"restrictions of {_form_name(form, mod.q)}: {exc}") from None
    return RestrictionChoice(vecs=a, form=restrict(form, a[0::2], a[1::2]))


def linear_split(r_form: BinaryForm, primes) -> tuple:
    """Linear form (l1, l2) mod prod(primes) with l1 u + l2 v dividing R there.

    Per prime: if R vanishes identically the constraint is trivial ((0, 0));
    if the leading coefficient vanishes, v | R and we take (0, 1); otherwise
    R = A (u - z1 v)(u - z2 v) with z_i the mod-p roots, and the smaller root
    is chosen.  Requires disc(R) to be a square mod every prime, which the
    solver certificate guarantees; violations raise CertificateMismatch.
    The primes must be distinct odd primes already verified, such as
    Modulus.primes: they are not tested again.
    """
    pairs1, pairs2 = [], []
    for p in primes:
        a, b, c = r_form.a % p, r_form.b % p, r_form.c % p
        if a == 0 and b == 0 and c == 0:
            l1, l2 = 0, 0
        elif a == 0:
            l1, l2 = 0, 1
        else:
            s = _sqrt_mod_known_prime(r_form.disc(), p)
            if s is None:
                raise CertificateMismatch(f"disc(R) is a non-residue mod {p}")
            i2a = inv_mod(2 * a, p)
            z1 = (-b + s) * i2a % p
            z2 = (-b - s) * i2a % p
            z = min(z1, z2)
            l1, l2 = 1, (-z) % p
        pairs1.append((l1, p))
        pairs2.append((l2, p))
    return crt_combine(pairs1), crt_combine(pairs2)


@dataclass(frozen=True)
class SolveTrace:
    """Full audit record of one solve; every field is exact."""

    q: int
    form: TernaryForm
    witness: tuple  # a, the square-value witness for the negated adjugate
    t: int
    content: int  # gcd of witness coordinates
    primitive: tuple  # witness // content
    q0: int
    q1: int
    x1: tuple
    x2: tuple
    plane_form: BinaryForm  # restriction of form to the plane orthogonal to primitive
    linear: tuple  # (l1, l2) mod q1
    uv: tuple
    solution: tuple

    def solution_norm_sq(self) -> int:
        return norm_sq(self.solution)

    def witness_norm_sq(self) -> int:
        return norm_sq(self.witness)

    def chain_ok(self) -> bool:
        """3 ||x||^4 <= 64 q^2 ||a||^2, i.e. ||x||^2 <= (8/sqrt 3) q ||a||, exactly."""
        nx = self.solution_norm_sq()
        return 3 * nx * nx <= 64 * self.q * self.q * self.witness_norm_sq()


# fields() builds a new tuple on every call; the trace is written and read per solve
_TRACE_FIELDS = fields(SolveTrace)
# field -> (how many integers its line holds, its type)
_TRACE_SHAPES = {
    f.name: ({int: 1, TernaryForm: 6, BinaryForm: 3}.get(f.type, 2 if f.name in ("linear", "uv") else 3), f.type)
    for f in _TRACE_FIELDS
}


def trace_lines(trace: SolveTrace):
    """Line-oriented serialization, one field per line, in field order.

    A field holding an integer past Python's int-to-str digit limit raises
    InvalidInput, naming the field and the form by its coefficients mod q."""
    out = []
    for f in _TRACE_FIELDS:
        val = getattr(trace, f.name)
        try:
            if f.type is int:
                text = str(val)
            elif f.type is tuple:
                text = " ".join(str(c) for c in val)
            else:  # TernaryForm, BinaryForm
                text = val.row()
        except ValueError:
            raise InvalidInput(
                f"trace field {f.name} of form {_form_name(trace.form, trace.q)} has an integer"
                " past the int-to-str digit limit"
            ) from None
        out.append(f"{f.name}: {text}")
    return out


def parse_trace(lines) -> SolveTrace:
    """Inverse of trace_lines.  A line that is no field's, repeats a field,
    holds a token that is not an integer or the wrong number of them raises
    TraceInvariantViolation naming the line, and so does a missing field."""
    vals = {}
    for line in lines:
        name, _, rest = line.partition(":")
        name = name.strip()
        shape = _TRACE_SHAPES.get(name)
        if shape is None or name in vals:
            raise TraceInvariantViolation(f"trace line {line!r}: unknown or repeated field")
        try:
            ints = tuple(map(int, rest.split()))
        except ValueError:
            raise TraceInvariantViolation(f"trace line {line!r}: a token is not an integer") from None
        count, kind = shape
        if len(ints) != count:
            raise TraceInvariantViolation(f"trace line {line!r}: expected {count} integers")
        vals[name] = ints[0] if kind is int else ints if kind is tuple else kind(*ints)
    if len(vals) != len(_TRACE_SHAPES):
        missing = [name for name in _TRACE_SHAPES if name not in vals]
        raise TraceInvariantViolation(f"trace has no line for {', '.join(missing)}")
    return SolveTrace(**vals)


def _box_pair(l1: int, l2: int, q1: int, n1: int, n2: int):
    """Min-weight (u, v) with q1 | l1 u + l2 v inside the exact pigeonhole box.

    The box is |u| <= (q1 ||x2|| / ||x1||)^(1/2), |v| <= (q1 ||x1|| / ||x2||)^(1/2);
    both bounds are irrational, so membership is tested by the equivalent
    quartic comparisons u^4 n1 <= q1^2 n2 and v^4 n2 <= q1^2 n1.  The weight
    is f(u, v) = u^2 n1 + v^2 n2, the squared triangle-inequality budget, and
    ties break by vec_key.  Requires gcd(l1, l2, q1) = 1, as linear_split
    guarantees, so the lattice has index q1.

    Every vector of weight f <= q1 sqrt(n1 n2) lies in the box.  So when the
    lattice minimum f(b1) is that small, the answer is among the minimal
    vectors and the search stops at f(b1); otherwise a packing bound leaves
    only a handful of vectors under the cap 2 q1 sqrt(n1 n2), which every box
    point respects.
    """
    q1sq = q1 * q1
    red = greedy_reduce(congruence_basis2(l1, l2, q1), (n1, n2))
    (u1, v1), _ = red
    f1 = n1 * u1 * u1 + n2 * v1 * v1
    cap = f1 if f1 * f1 <= q1sq * n1 * n2 else isqrt(4 * q1sq * n1 * n2)
    for _, v in weighted_short_vectors(red, n1, n2, cap):
        u_, v_ = v
        if u_**4 * n1 <= q1sq * n2 and v_**4 * n2 <= q1sq * n1:
            return v
    raise AssertionError("pigeonhole guarantee violated (bug)")


def solve_from_witness(form: TernaryForm, mod: Modulus, witness, t: int) -> SolveTrace:
    """Pipeline tail: build a solution from a square-value witness for -Q^adj."""
    q = mod.q
    neg_adj = negate_mod(adjoint_mod(form, mod), mod)
    if neg_adj.evaluate(witness) % q != (t * t) % q:
        raise CertificateMismatch("witness does not certify -Q^adj(a) = t^2 mod q")
    alpha = content(witness)
    a0 = tuple(c // alpha for c in witness)
    q0 = gcd(q, alpha)
    q1 = q // q0
    q1_primes = [p for p in mod.primes if q1 % p == 0]

    x1, x2 = orthogonal_basis(a0)
    r_form = restrict(form, x1, x2)
    linear = linear_split(r_form, q1_primes)
    n1, n2 = norm_sq(x1), norm_sq(x2)
    uv = _box_pair(linear[0], linear[1], q1, n1, n2)
    x = scale(add(scale(x1, uv[0]), scale(x2, uv[1])), q0)

    trace = SolveTrace(
        q=q,
        form=form,
        witness=tuple(witness),
        t=t % q,
        content=alpha,
        primitive=a0,
        q0=q0,
        q1=q1,
        x1=x1,
        x2=x2,
        plane_form=r_form,
        linear=linear,
        uv=uv,
        solution=x,
    )
    _check_trace(trace, mod)
    return trace


def solve_ternary(form: TernaryForm, mod: Modulus) -> SolveTrace:
    """Small nonzero x with form(x) ≡ 0 (mod q), with a verified audit trace.

    The stages: a witness x for -Q^adj from a plane restriction
    (ternary_to_binary) and its smallest square value (square_value_binary),
    the root t of -Q^adj(x) mod q, then solve_from_witness.
    """
    if not nonsingular_mod(form, mod):
        raise SingularForm(f"det shares a factor with {mod.q}")
    neg_adj = negate_mod(adjoint_mod(form, mod), mod)
    choice = ternary_to_binary(neg_adj, mod)
    u, v = square_value_binary(choice.form, mod)
    a1, a2, a3, a4, a5, a6 = choice.vecs
    x = (a1 * u + a2 * v, a3 * u + a4 * v, a5 * u + a6 * v)
    t = sqrt_mod_squarefree(neg_adj.evaluate(x), mod)
    if t is None:
        raise CertificateMismatch("restriction produced a non-square value")
    # ||x|| <= sqrt(6) max(a_i) ||(u, v)||, checked exactly
    if x == (0, 0, 0) or norm_sq(x) > 6 * max(choice.vecs) ** 2 * (u * u + v * v):
        raise CertificateMismatch(f"witness {x} from (u, v) = {(u, v)} breaks its size bound")
    return solve_from_witness(form, mod, x, t)


def _check_trace(trace: SolveTrace, mod: Modulus):
    """Exact invariant checks; raises TraceInvariantViolation on any breach."""
    q = trace.q
    x = trace.solution

    def need(cond, msg):
        if not cond:
            raise TraceInvariantViolation(msg)

    need(x != (0, 0, 0), "zero solution")
    need(trace.form.evaluate(x) % q == 0, "Q(x) != 0 mod q")
    need(trace.q0 * trace.q1 == q, "q0 q1 != q")
    a0 = trace.primitive
    need(content(a0) == 1, "primitive part not primitive")
    need(tuple(scale(a0, trace.content)) == trace.witness, "witness != content * primitive")
    need(dot(a0, trace.x1) == 0 and dot(a0, trace.x2) == 0, "plane not orthogonal")
    n1, n2 = norm_sq(trace.x1), norm_sq(trace.x2)
    na0 = norm_sq(a0)
    need(3 * n1 * n2 <= 4 * na0, "reduced plane basis too skew")
    u, v = trace.uv
    need((u, v) != (0, 0), "zero box pair")
    q1sq = trace.q1 * trace.q1
    need(u**4 * n1 <= q1sq * n2, "u outside the pigeonhole box")
    need(v**4 * n2 <= q1sq * n1, "v outside the pigeonhole box")
    l1, l2 = trace.linear
    need((l1 * u + l2 * v) % trace.q1 == 0, "congruence violated")
    need(trace.plane_form.evaluate((u, v)) % trace.q1 == 0, "q1 does not divide R(u, v)")
    core = add(scale(trace.x1, u), scale(trace.x2, v))
    need(tuple(scale(core, trace.q0)) == x, "solution is not q0 (u x1 + v x2)")
    nc = norm_sq(core)
    need(nc * nc <= 16 * q1sq * n1 * n2, "triangle-inequality budget exceeded")
    need(trace.chain_ok(), "norm chain constant violated")


def verify_trace(trace: SolveTrace, mod: Modulus):
    """Replay every certificate in a parsed trace; raises on any breach.

    Covers the square-value witness, the plane construction, the box point,
    and the final norm chain, so a trace that passes is a proof the recorded
    solution is a valid small zero mod q.
    """
    if trace.q != mod.q:
        raise TraceInvariantViolation(f"trace modulus {trace.q} != {mod.q}")
    neg_adj = negate_mod(adjoint_mod(trace.form, mod), mod)
    if neg_adj.evaluate(trace.witness) % mod.q != trace.t * trace.t % mod.q:
        raise TraceInvariantViolation("witness certificate broken")
    restricted = restrict(trace.form, trace.x1, trace.x2)
    if restricted != trace.plane_form:
        raise TraceInvariantViolation("plane form does not match the basis")
    _check_trace(trace, mod)
