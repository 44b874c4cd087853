"""Self-test of the benchmark's checkers and workloads.

    python3 perfbench/selftest.py

1. The checkers' own arithmetic agrees with brute force on small cases.
2. Each workload's check accepts the program's real outputs and rejects
   every deliberately corrupted one.
3. Every workload completes at a small size, traced and untraced, with no
   failure other than the known incomplete_sum overflow operations.
Exits 0 when everything holds, 1 otherwise.
"""

import dataclasses
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import grids  # noqa: E402
from run import Run  # noqa: E402
from workloads import WORKLOADS, ScanComposite, Tracer, load_api  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def arithmetic():
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        ok = all(checks.legendre(a, p) == (0 if a == 0 else 1 if a in squares else -1) for a in range(p))
        expect(ok, f"legendre by Euler matches the squares mod {p}")
    order = sorted(
        ((x * x + y * y, checks.vec_order_key((x, y))), (x, y))
        for x in range(-6, 7) for y in range(-6, 7) if 0 < x * x + y * y <= 36
    )
    ok = all(checks.vectors_examined(v) == i + 1 for i, (_, v) in enumerate(order))
    expect(ok, "vectors_examined counts the (norm, key) order of Z^2 up to norm 36")
    m = checks.gram2((2, 3, 5, 1, 0, 1))
    adj = checks.adjugate3(m)
    prod_ = [[sum(m[i][k] * adj[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    det = checks.det3(m)
    expect(prod_ == [[det if i == j else 0 for j in range(3)] for i in range(3)], "M adj(M) = det(M) I")
    expect(grids.direct_full_grid((1, 1, 1), 35, (5, 7)) == 0, "direct grid sum of a nonsingular form vanishes mod 35")


def corruptions(wl, op, out):
    """Corrupted copies of one output, each breaking a property the check tests."""
    kind = op[0]
    if kind == "solve":
        x = out.solution
        q = op[1]
        return {
            "solution + e1": dataclasses.replace(out, solution=(x[0] + 1, x[1], x[2])),
            "zero solution": dataclasses.replace(out, solution=(0, 0, 0)),
            "solution times q^2 (norm chain)": dataclasses.replace(out, solution=tuple(c * q * q for c in x)),
            "non-square witness": dataclasses.replace(out, witness=_nonsquare_witness(op)),
        }
    if kind == "shift":
        p, ns, split = op[1], op[4], op[3]
        r = len(ns) // 2
        bad = {"beyond the bound": 4 * r * r * p * p + 1}
        if split:
            bad["not a square"] = out + 1 if out > 0 else 2
        return bad
    if kind == "full_grid":
        return {"nonzero": 1}
    if kind in ("shift_sum_q", "window_power", "incomplete"):
        return {"+1": out + 1}
    if kind == "shift_pairs":
        lift, total, moment = out
        return {"total + 1": (lift, total + 1, moment), "moment < total": (lift, total, total - 1)}
    if kind == "exp_sum":
        c = list(out.phase_coefficients)
        c[0] += 1
        return {
            "coefficient": dataclasses.replace(out, phase_coefficients=tuple(c)),
            "adj_zero flipped": dataclasses.replace(out, adj_zero=not out.adj_zero),
            "magnitude": dataclasses.replace(out, magnitude=out.magnitude + 1.0),
        }
    raise ValueError(kind)


def _nonsquare_witness(op):
    """A vector a whose -a^T adj(2M) a is a non-residue mod some prime of q."""
    _, q, primes, c = op
    adj = checks.adjugate3(checks.gram2(c))
    for a in ((x, y, z) for x in range(6) for y in range(6) for z in range(1, 6)):
        v = -checks.quad(adj, a)
        if any(checks.legendre(v, p) == -1 for p in primes):
            return a
    raise AssertionError("no non-square value found")


def checkers(api):
    for name, cls in WORKLOADS.items():
        wl = cls(7, size=1)
        wl.setup(api)
        wl.check_setup()
        q, primes = next(iter(wl.moduli()), (15, (3, 5)))
        expect(rejects(checks.check_factorization, q, primes + (3,), wl.mods.get(q, api.make_modulus(q)).primes),
               f"{name}: factorization check rejects a wrong prime list")
        seen = set()
        for op in next(wl.rounds()):
            key = (op[0], op[3] if op[0] == "shift" else None)  # split and inert companions apart
            if key in seen or wl.known_fault(op):
                continue
            seen.add(key)
            out = wl.run(op)
            expect(not rejects(wl.check, op, out), f"{name}: {op[0]} check accepts the program's output")
            for what, bad in corruptions(wl, op, out).items():
                expect(rejects(wl.check, op, bad), f"{name}: {op[0]} check rejects a corrupted output ({what})")


def small_runs(api):
    for name, cls in WORKLOADS.items():
        for traced in (False, True):
            wl = cls(11, size=1)
            wl.setup(api)
            wl.warmup()
            run = Run(wl, 0.0)
            t0 = time.perf_counter()
            if traced:
                run.traced(Tracer(time.perf_counter), 2)
            else:
                run.timed()
            known = sum(1 for op in run.ops if wl.known_fault(op))
            expect(
                run.correct and run.attempted > 0 and run.failed == known,
                f"{name} ({'traced' if traced else 'untraced'}) at small size: "
                f"{run.attempted} operations, {run.failed} failed, {time.perf_counter() - t0:.1f} s",
            )
    expect(len(ScanComposite.OVERFLOW) > 0, "scan-composite keeps its overflow operations")


def main():
    api = load_api()
    arithmetic()
    checkers(api)
    small_runs(api)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
