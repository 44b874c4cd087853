"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Hard criteria assert exact properties; soft ones
assert a calibrated threshold and report the fitted number.
"""

import math
import random
import time
from math import gcd

import numpy as np
import pytest

from quadcong.charsum import (
    delta_gcd,
    form_shift_sum,
    form_shift_sum_direct,
    form_shift_sum_q,
    full_grid_sum,
    linear_shift_sum,
    norm_shift_sum,
    poly_identity_check,
    shift_params,
)
from quadcong.cli import fit_exponent, main, sample_binary_forms
from quadcong.errors import QuadCongError
from quadcong.intvec import cross3, norm_sq
from quadcong.modmath import find_nonresidue, is_prime, jacobi, make_modulus
from quadcong.oracle import (
    brute_min_square,
    brute_min_zero,
    restriction_coprime_count,
)
from quadcong.qforms import (
    BinaryForm,
    TernaryForm,
    adjugate4,
    covariant,
    monic_companion,
    restrict,
    sample_forms,
)
from quadcong.solver import solve_ternary, square_value_binary, verify_trace

PRIMES_500 = [p for p in range(3, 501, 2) if is_prime(p)]


def _report(tag, ok, detail=""):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}" + (f"  {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


def _random_squarefree(rng, lo, hi):
    while True:
        q = rng.randrange(lo | 1, hi, 2)
        try:
            return make_modulus(q)
        except QuadCongError:
            continue


@pytest.fixture(scope="module")
def thousand_solves():
    rng = random.Random("acceptance")
    traces = []
    t0 = time.time()
    while len(traces) < 1000:
        mod = _random_squarefree(rng, 3, 10**6)
        form = sample_forms(mod, 1, f"acc:{len(traces)}")[0]
        traces.append((mod, form, solve_ternary(form, mod)))
    return traces, time.time() - t0


def test_c01_soundness_thousand_solves(thousand_solves):
    traces, elapsed = thousand_solves
    bad = [
        (mod.q, form)
        for mod, form, tr in traces
        if tr.solution == (0, 0, 0) or form.evaluate(tr.solution) % mod.q != 0
    ]
    _report(
        "C01 soundness",
        len(traces) >= 1000 and not bad and elapsed < 600,
        f"{len(traces)} solves, 0 invalid, {elapsed:.1f}s",
    )


def test_c02_norm_chain_constant(thousand_solves):
    traces, _ = thousand_solves
    worst = 0.0
    for mod, form, tr in traces:
        verify_trace(tr, mod)  # replays every exact certificate
        nx = norm_sq(tr.solution)
        na = norm_sq(tr.witness)
        assert 3 * nx * nx <= 64 * mod.q * mod.q * na
        worst = max(worst, math.sqrt(3 * nx * nx / (64 * mod.q * mod.q * na)))
    _report("C02 chain constant", True, f"max usage of the (8/sqrt3) q ||a|| budget: {worst:.3f}")


def test_c03_oracle_dominance():
    rng = random.Random("dominance")
    checked = 0
    t0 = time.time()
    for q in range(3, 2001, 2):
        try:
            mod = make_modulus(q)
        except QuadCongError:
            continue
        form = sample_forms(mod, 1, f"dom:{q}")[0]
        tr = solve_ternary(form, mod)
        res = brute_min_zero(form, mod)
        assert res is not None, (q, form)
        assert res.norm_sq <= norm_sq(tr.solution), (q, form)
        checked += 1
    agree = 0
    for i in range(200):
        mod = _random_squarefree(rng, 3, 2000)
        f = sample_binary_forms(mod, 1, f"mhat:{i}")[0]
        got = square_value_binary(f, mod)
        want = brute_min_square(f, mod)
        assert got == want.witness and norm_sq(got) == want.norm_sq, (mod.q, f)
        agree += 1
    _report(
        "C03 oracle dominance",
        checked == 810 and agree == 200,  # 810 odd square-free moduli in [3, 2000]
        f"{checked} moduli dominated, {agree}/200 binary minima agree exactly, {time.time()-t0:.1f}s",
    )


def test_c04_exponent_fit_pipeline():
    rng = random.Random("fit")
    pts = []
    t0 = time.time()
    for i in range(200):
        target = 10 ** (3 + 4 * i / 199)
        mod = _random_squarefree(rng, int(target) | 1, int(target * 1.35) | 1)
        form = sample_forms(mod, 1, f"fit:{i}")[0]
        tr = solve_ternary(form, mod)
        pts.append((mod.q, math.sqrt(norm_sq(tr.solution))))
    fit = fit_exponent(pts)
    elapsed = time.time() - t0
    _report(
        "C04 exponent fit",
        fit.slope <= 0.72 and elapsed < 600,
        f"slope {fit.slope:.4f} over {len(pts)} samples in [1e3, 1e7] ({elapsed:.1f}s); threshold 0.72, worst case 0.625",
    )


def test_c05_weil_scan():
    rng = random.Random("weil")
    violations = 0
    sums = 0
    crosschecked = 0
    t0 = time.time()
    for p in PRIMES_500:
        split = BinaryForm(1, 1, 0)
        inert = BinaryForm(1, 0, -find_nonresidue(p))
        for r in (2, 3):
            for _ in range(200):
                ns = tuple(rng.randrange(1, 2 * p + 1) for _ in range(2 * r))
                delta = delta_gcd(ns)
                nondeg = delta != 0 and delta % p != 0

                s1 = linear_shift_sum(p, ns)
                if nondeg and s1 * s1 > 4 * r * r * p:
                    violations += 1
                if s1 * s1 > 4 * r * r * p * gcd(p, delta):
                    violations += 1

                si = norm_shift_sum(p, ns)
                if nondeg and abs(si) > 2 * r * p:
                    violations += 1
                if abs(si) > 4 * r * r * p * gcd(p, delta):
                    violations += 1
                sums += 2

                if p <= 31 and rng.random() < 0.02:
                    assert s1 * s1 == form_shift_sum_direct(p, ns, split)
                    assert si == form_shift_sum_direct(p, ns, inert)
                    crosschecked += 2
    _report(
        "C05 weil scan",
        violations == 0 and sums == len(PRIMES_500) * 2 * 200 * 2,
        f"{sums} sums over {len(PRIMES_500)} primes, {violations} violations, "
        f"{crosschecked} grid cross-checks, {time.time()-t0:.1f}s",
    )


def test_c06_grid_vanishing():
    t0 = time.time()
    tested = 0
    for q in (3, 5, 15, 21, 35):
        mod = make_modulus(q)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    f = BinaryForm(a, b, c)
                    if gcd(f.det4(), q) != 1:
                        continue
                    assert full_grid_sum(f, mod) == 0, (q, f)
                    tested += 1
    rng = random.Random("vanish")
    for _ in range(100):
        mod = _random_squarefree(rng, 3, 10**4)
        f = sample_binary_forms(mod, 1, f"van:{mod.q}")[0]
        assert full_grid_sum(f, mod) == 0, (mod.q, f)
        tested += 1
    _report("C06 grid vanishing", True, f"{tested} nonsingular grids all vanish, {time.time()-t0:.1f}s")


def _composite_shift_sum(qt, q, ns):
    """sum over (a, b) mod q of jacobi(prod_n qt(n + a, b), q), point by point:
    a grid of jacobi values and a product of its rows rolled by each n."""
    a, b, c = qt.a % q, qt.b % q, qt.c % q
    r = np.arange(q, dtype=np.int64)
    chi = np.array([jacobi(m, q) for m in range(q)], dtype=np.int64)
    grid = chi[(a * r[:, None] ** 2 + b * r[:, None] * r + c * r * r) % q]
    total = np.ones_like(grid)
    for n in ns:
        total *= np.roll(grid, -n, axis=0)
    return int(total.sum())


def test_c07_multiplicativity():
    rng = random.Random("mult")
    checked = 0
    for q in (15, 21, 35, 105):
        mod = make_modulus(q)
        for _ in range(50):
            while True:
                qt = monic_companion(
                    BinaryForm(rng.randrange(1, q), rng.randrange(q), rng.randrange(q))
                )
                if gcd(qt.det4(), q) == 1:
                    break
            r = rng.choice([1, 2])
            ns = tuple(rng.randrange(0, 2 * q) for _ in range(2 * r))
            whole = form_shift_sum_q(qt, mod, ns)
            parts = 1
            for p in mod.primes:
                parts *= form_shift_sum(p, ns, qt)
            assert whole == parts, (q, qt, ns)
            assert whole == _composite_shift_sum(qt, q, ns)
            checked += 1
    _report("C07 multiplicativity", checked == 200, f"{checked} factored sums match exactly")


def test_c08_algebraic_identities():
    rng = random.Random("ident")
    counts = {"adjugate": 0, "shift": 0, "component": 0, "covariant": 0}
    t0 = time.time()
    while min(counts.values()) < 10**4:
        kind = min(counts, key=counts.get)
        if kind == "adjugate":
            f = TernaryForm(*(rng.randrange(-60, 61) for _ in range(6)))
            u = tuple(rng.randrange(-15, 16) for _ in range(3))
            v = tuple(rng.randrange(-15, 16) for _ in range(3))
            assert restrict(f, u, v).det4() == adjugate4(f).evaluate(cross3(u, v))
        elif kind == "covariant":
            qq = BinaryForm(*(rng.randrange(-40, 41) for _ in range(3)))
            u = (rng.randrange(-20, 21), rng.randrange(-20, 21))
            v = (rng.randrange(-20, 21), rng.randrange(-20, 21))
            prod = BinaryForm(u[1] * v[1], -(u[1] * v[0] + u[0] * v[1]), u[0] * v[0])
            assert covariant(prod, qq) == qq.evaluate(u) * qq.evaluate(v)
        else:
            q = rng.choice([15, 21, 35, 105])
            mod = make_modulus(q)
            f = BinaryForm(rng.randrange(q), rng.randrange(q), rng.randrange(q))
            s = (rng.randrange(1, 10), rng.randrange(1, 10))
            if gcd(f.evaluate(s), q) != 1:
                continue
            x = (rng.randrange(q), rng.randrange(q))
            if kind == "component":
                assert poly_identity_check(f, s, x, mod)
            else:
                sp = shift_params(f, s, x, mod, check=False)
                qt = monic_companion(f)
                qs = f.evaluate(s)
                n = rng.randrange(q)
                lhs = f.evaluate((x[0] + n * s[0], x[1] + n * s[1])) % q
                assert lhs == qs * qt.evaluate(((n + sp.a) % q, sp.b % q)) % q
        counts[kind] += 1
    total = sum(counts.values())
    _report(
        "C08 algebraic identities",
        all(v >= 10**4 for v in counts.values()),
        f"{total} instances ({counts}), zero failures, {time.time()-t0:.1f}s",
    )


def test_c09_coprime_main_term():
    t0 = time.time()
    gaps = {}
    for q in (15, 105):
        mod = make_modulus(q)
        form = sample_forms(mod, 1, "cop-main")[0]
        res = restriction_coprime_count(form, mod, 20)
        gaps[q] = float(res.relative_gap())
        assert res.relative_gap() <= 0.2, (q, res)
    _report(
        "C09 coprime main term",
        True,
        f"relative gaps at box 20: q=15 {gaps[15]:.4f}, q=105 {gaps[105]:.4f} (<= 0.20), {time.time()-t0:.1f}s",
    )


def test_c10_mhat_growth():
    rng = random.Random("mhat")
    pts = []
    p = 1009
    while p <= 10**6:
        f = BinaryForm(rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if gcd(f.det4(), p) == 1:
            mod = make_modulus(p)
            w = square_value_binary(f, mod)
            pts.append((p, math.sqrt(norm_sq(w))))
        p = int(p * 1.45)
        while not is_prime(p):
            p += 1
    fit = fit_exponent(pts)
    _report(
        "C10 mhat growth",
        fit.slope <= 0.30,
        f"slope {fit.slope:.4f} over {len(pts)} primes in [1e3, 1e6]; threshold 0.30, reference 0.25",
    )


def test_c11_cli_determinism(tmp_path):
    outs = []
    for name, argv in [
        ("w", ["weil-scan", "--q-range", "3:31", "--samples", "5", "--seed", "d"]),
        ("s", ["solve", "--q", "15,105,1155", "--samples", "3", "--seed", "d"]),
    ]:
        paths = [tmp_path / f"{name}{i}.csv" for i in range(3)]
        assert main(argv + ["--out", str(paths[0])]) == 0
        assert main(argv + ["--out", str(paths[1])]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(paths[2])]) == 0
        texts = [p.read_text() for p in paths]
        outs.append(texts[0] == texts[1] == texts[2])
    _report("C11 determinism", all(outs), "repeat and --jobs 2 runs byte-identical on 2 commands")
