import random
import re
import time
import tracemalloc
from functools import partial
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadcong.errors import (
    CertificateMismatch,
    InvalidInput,
    RegionTooLarge,
    SearchExhausted,
    SingularForm,
    TraceInvariantViolation,
)
from quadcong.intvec import norm_sq, vec_key
from quadcong.modmath import is_square_mod, jacobi, make_modulus
from quadcong import errors, solver
from quadcong.qforms import BinaryForm, TernaryForm, adjoint_mod, det_gram2, negate_mod, sample_forms
from quadcong.solver import (
    _box_pair,
    coprime_point_search,
    linear_split,
    parse_trace,
    solve_from_witness,
    solve_ternary,
    square_value_binary,
    ternary_to_binary,
    trace_lines,
    verify_trace,
)
from reference_walk import points_below, square_value_walk, square_value_walk_charged

IDENTITY = TernaryForm(1, 1, 1, 0, 0, 0)


def check_solution(form, mod, trace):
    q = mod.q
    x = trace.solution
    assert x != (0, 0, 0)
    assert form.evaluate(x) % q == 0
    assert trace.chain_ok()
    # the headline bound, replayed from scratch
    a = trace.witness
    assert 3 * norm_sq(x) ** 2 <= 64 * q * q * norm_sq(a)


def test_solve_identity_105():
    mod = make_modulus(105)
    tr = solve_ternary(IDENTITY, mod)
    check_solution(IDENTITY, mod, tr)
    assert tr.q0 * tr.q1 == 105


def test_solve_from_witness_split_content():
    # witness with content 3 forces the q0 > 1 branch
    mod = make_modulus(15)
    tr = solve_from_witness(IDENTITY, mod, (3, 3, 6), 6)
    assert (tr.q0, tr.q1) == (3, 5)
    assert tr.solution == (-6, 0, 3)
    check_solution(IDENTITY, mod, tr)


def test_solve_from_witness_trivial_plane():
    # content 5 kills all of q: q1 = 1, solution is q0 * (plane vector)
    mod = make_modulus(5)
    tr = solve_from_witness(IDENTITY, mod, (5, 0, 0), 0)
    assert (tr.q0, tr.q1) == (5, 1)
    assert tr.solution == (0, 0, 5)
    check_solution(IDENTITY, mod, tr)


def test_solve_from_witness_rejects_bad_certificate():
    mod = make_modulus(15)
    with pytest.raises(CertificateMismatch):
        solve_from_witness(IDENTITY, mod, (1, 1, 1), 2)


def test_solve_rejects_singular():
    mod = make_modulus(15)
    with pytest.raises(SingularForm):
        solve_ternary(TernaryForm(3, 5, 1, 0, 0, 0), mod)  # det divisible by 15


def test_square_value_binary_frozen():
    from quadcong.qforms import BinaryForm

    mod = make_modulus(5)
    v = square_value_binary(BinaryForm(2, 3, 1), mod)
    assert v == (0, 1)


PRIMES_TO_59 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def _random_binary(rng, q, bound):
    """Seeded form with coefficients in [-bound, bound) and disc coprime to q
    (a disc sharing a prime with q can push the first hit past any test's time)."""
    while True:
        form = BinaryForm(*(rng.randrange(-bound, bound) for _ in range(3)))
        if gcd(form.disc(), q) == 1:
            return form


@pytest.mark.parametrize("k", range(1, 17))
def test_square_value_sieve_matches_walk(k):
    # k primes from 3..59 (the table route); the third form adds a prime
    # above the table limit, 65537 or 1000003 among them (the jacobi route);
    # the second has coefficients of both signs up to 2^70
    rng = random.Random(f"sieve:{k}")
    for i in range(3):
        primes = rng.sample(PRIMES_TO_59, k) + ([(1031, 65537, 1_000_003)[k % 3]] if i == 2 else [])
        mod = make_modulus(prod(primes))
        form = _random_binary(rng, mod.q, 2**70 if i == 1 else mod.q)
        assert square_value_binary(form, mod) == square_value_walk(form, mod), (k, i, form)


def _shared_disc_binary(rng, primes, bound):
    """Seeded form whose disc is 0 mod each of primes: a (x + r y)^2 plus
    prod(primes) times a random form, so that it degenerates mod them."""
    a, r, p = rng.randrange(1, bound), rng.randrange(bound), prod(primes)
    return BinaryForm(*(u + p * rng.randrange(-bound, bound) for u in (a, 2 * a * r, a * r * r)))


def _search_outcome(search, form, mod):
    """The witness, or the (error type name, message) the search raised."""
    try:
        return search(form, mod)
    except (RegionTooLarge, SearchExhausted) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("k", range(8, 14))
def test_square_value_sieve_matches_charged_walk_on_windows(k, monkeypatch):
    # perfbench-shaped moduli: windows of k consecutive primes of 3..59;
    # besides a form with disc coprime to q, forms whose disc shares one to
    # three primes with q, which push the first hit out, some past a small
    # budget: both sides give the same witness, or the same error
    monkeypatch.setattr(errors, "POINT_BUDGET", 6000)
    walk = partial(square_value_walk_charged, annuli=solver._annuli, budget=6000)
    rng = random.Random(f"windows:{k}")
    kinds = set()
    for start in (0, len(PRIMES_TO_59) - k):
        primes = PRIMES_TO_59[start:start + k]
        mod = make_modulus(prod(primes))
        forms = [_random_binary(rng, mod.q, mod.q)]
        forms += [_shared_disc_binary(rng, rng.sample(primes, j), mod.q) for j in (1, 2, 3)]
        for form in forms:
            outcome = _search_outcome(square_value_binary, form, mod)
            assert outcome == _search_outcome(walk, form, mod), (k, form)
            kinds.add(outcome[0] if isinstance(outcome[0], str) else "witness")
    assert kinds == {"witness", "RegionTooLarge"}


def test_annuli_tile_keep_seams_and_widen():
    # no gaps in [1, limit]; the seams 5, 13, 29, 61 and 125 of the first,
    # doubling annuli stay put; widths stay within _MAX_WIDTH and, from norm
    # 2^12 on, grow with the radius, so that the rows walked stay a small
    # share of the vectors listed
    for limit in (1, 4, 5, 1020, 1021, 4096, 10**6 + 7, 10**9):
        annuli = list(solver._annuli(limit))
        assert annuli[0][0] == 1 and annuli[-1][1] == limit + 1
        assert all(s1 == t0 and s0 < s1 for (s0, s1), (t0, _) in zip(annuli, annuli[1:]))
        assert all(s1 - s0 <= 2**14 for s0, s1 in annuli)
        full = annuli[:-1]  # the last one is cut at limit + 1
        assert all(s1 - s0 >= min(2**14, 16 * isqrt(s0)) for s0, s1 in full if s0 >= 2**12)
        if limit >= 125:
            assert {5, 13, 29, 61, 125} <= {s0 for s0, _ in annuli}
    widths = [s1 - s0 for s0, s1 in annuli]
    assert max(widths) == 2**14 and widths[:8] == [4, 8, 16, 32, 64, 128, 256, 512]


def test_group_tables_and_groups():
    # groups take the smallest primes first, each with a product <= 2^14;
    # a group table marks exactly the residues square mod all its primes
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 103, 131, 1031)
    assert solver._groups(primes) == [(3, 5, 7, 11, 13), (17, 19, 23), (29, 31), (101, 103), (131,)]
    for group in solver._groups(primes):
        table = solver._group_table(group)
        assert len(table) == prod(group)
        assert all(table[r] == all(jacobi(r, p) != -1 for p in group) for r in range(len(table)))


def test_square_value_sieve_memory_flat_in_coefficient_size():
    # coefficients of 2^22 bits (512 KB each), congruent mod q to a small
    # form: the sieve reduces them once per group and once mod the product
    # of the large primes, so no value it computes per vector grows with
    # them, and its peak stays far below one coefficient
    mod = make_modulus(prod(PRIMES_TO_59[:10]) * 1031)
    form = BinaryForm(914981361628100521, 605004518063820444, 878369110404396046)
    huge = mod.q << 2**22
    wide = BinaryForm(form.a + huge, form.b - 3 * huge, form.c + 5 * huge)
    expected = square_value_binary(form, mod)
    assert expected == square_value_walk(form, mod)
    assert len(solver._groups(sorted(mod.primes))) == 3 and points_below(sum(v * v for v in expected) + 1) > 10**3
    tracemalloc.start()
    try:
        v = square_value_binary(wide, mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == expected
    assert peak < 2**18, peak


def test_square_value_sieve_large_primes_only():
    # no table at all: every vector of an annulus is sorted, then tested with jacobi
    rng = random.Random("sieve:large")
    mod = make_modulus(1031 * 65537 * 1_000_003)
    for _ in range(20):
        form = _random_binary(rng, mod.q, mod.q)
        assert square_value_binary(form, mod) == square_value_walk(form, mod), form
    # a value 0 mod the large prime counts as a square there: R(0, +-1) = 3
    # is a non-residue mod 65537, and R(1, 0) = 2 * 65537 is 0 mod 65537
    # and 1 mod 3
    assert square_value_binary(BinaryForm(2 * 65537, 0, 3), make_modulus(3 * 65537)) == (1, 0)


def test_square_value_sieve_hits_on_annulus_seams():
    # first hits on the first norm of an annulus, where a row bound off by
    # one would skip the shell or leave it to the wrong annulus
    seams = {s0 for s0, _ in solver._annuli(10**6)} - {1}
    rng = random.Random("seams")
    found = set()
    for _ in range(300):
        mod = make_modulus(prod(rng.sample(PRIMES_TO_59, rng.randint(2, 9))))
        form = _random_binary(rng, mod.q, mod.q)
        x, y = square_value_binary(form, mod)
        if x * x + y * y in seams:
            assert (x, y) == square_value_walk(form, mod), form
            found.add(x * x + y * y)
    assert {5, 13, 29, 61, 125} <= found


def test_square_value_sieve_peak_memory():
    # 13 primes and a first hit at norm 21106, in an annulus of about
    # 13,000 vectors: the sieve holds only one annulus's survivors at a
    # time, so its peak does not grow with the hit
    mod = make_modulus(prod(PRIMES_TO_59[2:15]))
    form = BinaryForm(914981361628100521, 605004518063820444, 878369110404396046)
    square_value_binary(form, mod)  # the squares tables are cached from here on
    tracemalloc.start()
    try:
        v = square_value_binary(form, mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == (145, -9)
    assert peak < 2**18, peak


def test_square_value_ternary_certificate():
    mod = make_modulus(105)
    neg_adj = negate_mod(adjoint_mod(IDENTITY, mod), mod)
    trace = solve_ternary(IDENTITY, mod)
    assert trace.witness != (0, 0, 0)
    assert is_square_mod(neg_adj.evaluate(trace.witness), mod)
    assert trace.t * trace.t % 105 == neg_adj.evaluate(trace.witness) % 105


def test_coprime_point_search_lex_order(monkeypatch):
    mod = make_modulus(15)
    pt = coprime_point_search(lambda v: v[0] + v[1], 2, mod)
    # shells by max coordinate, lexicographic inside; (1, 1) gives 2, a unit
    assert pt == (1, 1)
    # 3*v0 is never coprime to 15: shells 1..4 walk 1 + 4 + 9 + 16 points,
    # and the budget refuses shell 5
    monkeypatch.setattr(errors, "POINT_BUDGET", 30)
    with pytest.raises(RegionTooLarge, match=re.escape("coprime_point_search in dimension 2 mod q = 15: 55 points")):
        coprime_point_search(lambda v: 3 * v[0], 2, mod)


def test_search_exhausted_names_q_and_form(monkeypatch):
    # 5 (x + 107 y)^2 mod 10007: 5 is a non-residue, so a value is a square
    # only where x + 107 y = 0, a lattice whose shortest vector (norm 11437)
    # lies past the search's norm cap 10008
    with pytest.raises(SearchExhausted, match=re.escape("5 1070 7210 takes no square value mod q = 10007")):
        square_value_binary(BinaryForm(5, 1070, 7210), make_modulus(10007))
    # every restriction of 3 (x^2 + y^2 + z^2), or of 3 x^2 (rank 1 mod 5),
    # has det4 divisible by 3: the form is refused before any search
    for form in (TernaryForm(3, 3, 3, 0, 0, 0), TernaryForm(3, 0, 0, 0, 0, 0)):
        with pytest.raises(SingularForm, match=re.escape(f"{form.row()} is singular mod q = 15")):
            ternary_to_binary(form, make_modulus(15))
    # shell 1's one point gives u = v, so a budget below 1 + 2^6 refuses
    # every form at shell 2
    monkeypatch.setattr(errors, "POINT_BUDGET", 64)
    with pytest.raises(RegionTooLarge, match=re.escape("restrictions of 1 1 1 0 0 0: coprime_point_search")) as exc:
        ternary_to_binary(IDENTITY, make_modulus(15))
    assert "q = 15" in str(exc.value)


# the forms above with a coefficient past Python's 4,300-digit int-to-str
# limit: a give-up message names them by their coefficients mod q
HUGE = 10**5000
REDUCED = "(coefficients reduced mod q)"


def test_search_exhausted_names_huge_binary_form_mod_q():
    with pytest.raises(SearchExhausted, match=re.escape(f"5 1070 7210 {REDUCED} takes no square value mod q = 10007")):
        square_value_binary(BinaryForm(5 + 10007 * HUGE, 1070, 7210), make_modulus(10007))


def test_region_too_large_names_huge_binary_form_mod_q(monkeypatch):
    monkeypatch.setattr(errors, "POINT_BUDGET", 10**4)
    with pytest.raises(RegionTooLarge, match=re.escape(f"square_value_binary 5 1070 7210 {REDUCED} mod q = 10007")):
        square_value_binary(BinaryForm(5 + 10007 * HUGE, 1070, 7210), make_modulus(10007))


def test_restriction_search_names_huge_ternary_form_mod_q(monkeypatch):
    with pytest.raises(SingularForm, match=re.escape(f"3 3 3 0 0 0 {REDUCED} is singular mod q = 15")):
        ternary_to_binary(TernaryForm(3 - 15 * HUGE, 3, 3, 0, 0, 0), make_modulus(15))
    monkeypatch.setattr(errors, "POINT_BUDGET", 64)
    with pytest.raises(RegionTooLarge, match=re.escape(f"restrictions of 1 1 1 0 0 0 {REDUCED}: coprime_point_search")):
        ternary_to_binary(TernaryForm(1 - 15 * HUGE, 1, 1, 0, 0, 0), make_modulus(15))


def test_square_value_search_charges_listed_vectors(monkeypatch):
    # the degenerate form above lists about pi * 10008 vectors before it
    # gives up; a smaller budget refuses it, naming the form and q
    monkeypatch.setattr(errors, "POINT_BUDGET", 10**4)
    with pytest.raises(RegionTooLarge, match=re.escape("square_value_binary 5 1070 7210 mod q = 10007")):
        square_value_binary(BinaryForm(5, 1070, 7210), make_modulus(10007))
    square_value_binary(BinaryForm(1, 0, 1), make_modulus(10007))


def test_ternary_to_binary_restriction_nonsingular():
    mod = make_modulus(15)
    choice = ternary_to_binary(IDENTITY, mod)
    assert gcd(choice.form.det4() % 15, 15) == 1


def test_linear_split_roots():
    from quadcong.qforms import BinaryForm

    # R(u, v) = (u - 2v)(u - 3v) = u^2 -5uv + 6v^2 splits mod 5 and 7
    r = BinaryForm(1, -5, 6)
    l1, l2 = linear_split(r, (5, 7))
    m = 35
    # the returned linear form must divide R mod every prime: check all roots
    for u in range(m):
        for v in range(m):
            if (l1 * u + l2 * v) % m == 0:
                assert r.evaluate((u, v)) % m == 0


def test_linear_split_degenerate_leading_coeff():
    from quadcong.qforms import BinaryForm

    # leading coefficient divisible by 3: the form is linear * v mod 3
    r = BinaryForm(3, 1, 2)
    l1, l2 = linear_split(r, (3,))
    assert (l1, l2) == (0, 1)
    for u in range(3):
        for v in range(3):
            if (l1 * u + l2 * v) % 3 == 0:
                assert r.evaluate((u, v)) % 3 == 0


def test_linear_split_nonresidue_disc_rejected():
    from quadcong.qforms import BinaryForm

    r = BinaryForm(1, 0, 1)  # disc -4, non-residue mod 7
    with pytest.raises(CertificateMismatch):
        linear_split(r, (7,))


def test_box_pair_frozen():
    assert _box_pair(1, 0, 5, 1, 1) == (0, 1)
    assert _box_pair(1, 1, 5, 1, 1) == (1, -1)
    assert _box_pair(2, 3, 7, 1, 1) == (2, 1)
    assert _box_pair(2, 3, 7, 2, 9) == (2, 1)
    assert _box_pair(5, 11, 105, 3, 14) == (10, 5)
    assert _box_pair(1, 0, 1, 2, 3) == (1, 0)


@settings(deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.sampled_from([1, 3, 5, 7, 15, 35, 1155, 15015]),
    st.integers(1, 10**4),
    st.integers(1, 10**4),
)
def test_box_pair_properties(l1, l2, q1, n1, n2):
    # linear_split never returns a form vanishing mod a prime of q1
    assume(gcd(gcd(l1, l2), q1) == 1)
    u, v = _box_pair(l1, l2, q1, n1, n2)
    assert (u, v) != (0, 0)
    assert (l1 * u + l2 * v) % q1 == 0
    # |u| <= (q1^2 n2 / n1)^(1/4) and |v| <= (q1^2 n1 / n2)^(1/4), exactly
    assert u**4 * n1 <= q1 * q1 * n2
    assert v**4 * n2 <= q1 * q1 * n1


def _box_pair_brute(l1, l2, q1, n1, n2):
    best = None
    u_max = isqrt(isqrt(q1 * q1 * n2 // n1)) + 1
    v_max = isqrt(isqrt(q1 * q1 * n1 // n2)) + 1
    for u in range(-u_max, u_max + 1):
        for v in range(-v_max, v_max + 1):
            if (u, v) == (0, 0) or (l1 * u + l2 * v) % q1:
                continue
            if u**4 * n1 > q1 * q1 * n2 or v**4 * n2 > q1 * q1 * n1:
                continue
            key = (n1 * u * u + n2 * v * v, vec_key((u, v)))
            if best is None or key < best[0]:
                best = (key, (u, v))
    return best[1]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.sampled_from([1, 3, 5, 7, 15, 21, 35, 105]),
    st.integers(1, 60),
    st.integers(1, 60),
)
def test_box_pair_is_brute_force_box_minimum(l1, l2, q1, n1, n2):
    assume(gcd(gcd(l1, l2), q1) == 1)
    assert _box_pair(l1, l2, q1, n1, n2) == _box_pair_brute(l1, l2, q1, n1, n2)


@pytest.mark.parametrize(
    "coeffs,solution",
    [((0, 3, 5, 1, 1, 1), (-1, 0, 0)), ((1, 0, 0, 0, 0, 1), (-1, -1, 1))],
)
def test_box_search_stops_at_lattice_minimum(coeffs, solution):
    # the reduced plane vector x1 is a zero mod q, so the congruence lattice
    # is {(u, 0)} plus far vectors: the search must not list everything
    # under the cap 2 q1 sqrt(n1 n2) (millions of vectors at q ~ 1e12)
    mod = make_modulus(1000000000039)
    t0 = time.perf_counter()
    tr = solve_ternary(TernaryForm(*coeffs), mod)
    assert time.perf_counter() - t0 < 1.0
    assert (tr.uv, tr.solution) == ((0, 1), solution)


def test_trace_lines_frozen():
    tr = solve_ternary(TernaryForm(5, 7, 11, 1, 2, 3), make_modulus(1155))
    assert trace_lines(tr) == [
        "q: 1155",
        "form: 5 7 11 1 2 3",
        "witness: -5 -1 -2",
        "t: 640",
        "content: 1",
        "primitive: -5 -1 -2",
        "q0: 1",
        "q1: 1155",
        "x1: 0 -2 1",
        "x2: -1 1 2",
        "plane_form: 33 7 57",
        "linear: 561 397",
        "uv: 35 0",
        "solution: 0 -70 35",
    ]


def test_trace_lines_refuses_coefficient_past_digit_limit():
    # the solve and its check read the form mod q, so this trace verifies;
    # writing it would convert a 5,000-digit coefficient to decimal
    mod = make_modulus(1155)
    tr = solve_ternary(TernaryForm(1 + 1155 * 10**5000, 2, 3, 1, 1, 1), mod)
    verify_trace(tr, mod)
    msg = "trace field form of form 1 2 3 1 1 1 (coefficients reduced mod q) has an integer"
    with pytest.raises(InvalidInput, match=re.escape(msg)):
        trace_lines(tr)


def test_trace_roundtrip():
    mod = make_modulus(105)
    tr = solve_ternary(IDENTITY, mod)
    assert parse_trace(trace_lines(tr)) == tr
    verify_trace(tr, mod)


@pytest.mark.parametrize(
    "field,value",
    [
        ("solution:", "solution: 1 0 0"),
        ("uv:", "uv: 0 0"),
        ("witness:", "witness: 1 0 0"),
        ("t:", "t: 3"),
        ("x1:", "x1: 1 1 1"),
    ],
)
def test_trace_tamper_detection(field, value):
    mod = make_modulus(105)
    tr = solve_ternary(IDENTITY, mod)
    bad = [ln if not ln.startswith(field) else value for ln in trace_lines(tr)]
    with pytest.raises(TraceInvariantViolation):
        verify_trace(parse_trace(bad), mod)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines[:3] + lines[4:], "trace has no line for t"),
        (lambda lines: lines[:3] + ["t: x927"] + lines[4:], "trace line 't: x927': a token is not an integer"),
        (lambda lines: lines[:12] + ["uv: 1"] + lines[13:], "trace line 'uv: 1': expected 2 integers"),
        (lambda lines: [lines[0], lines[1] + " 7"] + lines[2:], "trace line 'form: 1 1 1 0 0 0 7': expected 6 integers"),
        (lambda lines: lines + [lines[0]], "trace line 'q: 105': unknown or repeated field"),
        (lambda lines: lines + [""], "trace line '': unknown or repeated field"),
    ],
    ids=["dropped-line", "not-an-integer", "short-tuple", "long-form", "repeated-field", "blank-line"],
)
def test_parse_trace_names_the_bad_line(edit, message):
    lines = trace_lines(solve_ternary(IDENTITY, make_modulus(105)))
    with pytest.raises(TraceInvariantViolation, match=re.escape(message)):
        parse_trace(edit(lines))


_TAMPER_MOD = make_modulus(1155)
_TAMPER_TRACES = [trace_lines(solve_ternary(f, _TAMPER_MOD)) for f in sample_forms(_TAMPER_MOD, 20, "tamper")]
_TAMPER_TOKENS = ["x927", "1.5", "0x10", "-", "", "1" * 5000, str(10**40)]


@st.composite
def _tampered_trace(draw):
    lines = list(draw(st.sampled_from(_TAMPER_TRACES)))
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        name, _, rest = lines[i].partition(": ")
        toks = rest.split()
        j = draw(st.integers(0, max(len(toks) - 1, 0)))
        op = draw(st.sampled_from(["shift", "drop", "insert", "text", "double", "line", "copy", "rename"]))
        if op == "line":
            del lines[i]
            continue
        if op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        if op == "rename":
            lines[i] = draw(st.sampled_from(["", "q", "x3", "t t"])) + ": " + rest
            continue
        if op == "shift" and toks and toks[j].lstrip("-").isdigit():
            toks[j] = str(int(toks[j]) + draw(st.sampled_from([1, -1, 1155, -1155])))
        elif op == "drop" and toks:
            del toks[j]
        elif op == "insert":
            toks.insert(j, str(draw(st.integers(-2000, 2000))))
        elif op == "text" and toks:
            toks[j] = draw(st.sampled_from(_TAMPER_TOKENS))
        elif op == "double":
            toks += toks
        lines[i] = f"{name}: {' '.join(toks)}"
    return lines


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_tampered_trace())
def test_tampered_traces_fail_typed_or_prove_a_zero(lines):
    # a trace is untrusted input: it either raises a QuadCongError, or it
    # proves what it claims, a nonzero zero of its form mod q
    try:
        tr = parse_trace(lines)
        verify_trace(tr, _TAMPER_MOD)
    except errors.QuadCongError:
        return
    x, (a11, a22, a33, a12, a13, a23) = tr.solution, tr.form.coeffs()
    value = a11 * x[0] ** 2 + a22 * x[1] ** 2 + a33 * x[2] ** 2 + a12 * x[0] * x[1] + a13 * x[0] * x[2] + a23 * x[1] * x[2]
    assert x != (0, 0, 0) and tr.q == 1155 and value % 1155 == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_solver_random_moduli_and_forms(n):
    rng = random.Random(n)
    q = rng.randrange(3, 300000, 2)
    try:
        mod = make_modulus(q)
    except Exception:
        return
    form = sample_forms(mod, 1, f"prop:{n}")[0]
    tr = solve_ternary(form, mod)
    check_solution(form, mod, tr)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_solver_diagonal_forms(n):
    rng = random.Random(f"diag:{n}")
    q = rng.randrange(3, 10**6, 2)
    try:
        mod = make_modulus(q)
    except Exception:
        return
    d = [rng.randrange(1, q) for _ in range(3)]
    form = TernaryForm(d[0], d[1], d[2], 0, 0, 0)
    if gcd(det_gram2(form), q) != 1:
        return
    tr = solve_ternary(form, mod)
    check_solution(form, mod, tr)


def test_headline_bound_is_quarter_power():
    """Repeated solves stay within the advertised norm envelope: with the
    witness found by ascending scan, 3*||x||^4 <= 64 q^2 ||a||^2 translates
    into ||x|| being roughly q^(1/2) * ||a||^(1/2)."""
    rng = random.Random(11)
    for _ in range(40):
        q = rng.randrange(10**3, 10**5, 2)
        try:
            mod = make_modulus(q)
        except Exception:
            continue
        form = sample_forms(mod, 1, "envelope")[0]
        tr = solve_ternary(form, mod)
        nx = norm_sq(tr.solution)
        na = norm_sq(tr.witness)
        assert 3 * nx * nx <= 64 * q * q * na
