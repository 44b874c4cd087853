"""The four benchmark workloads: seeded inputs, rounds and operations.

Input generation uses only the standard library and this directory's own
arithmetic, so it can run before quadcong is imported.  A workload yields
rounds; a round is a list of operations, and a run attempts whole rounds.
Each operation has an untraced form (public API calls only), a traced form
(the same calls, with a span around every call into a layer) and a check
(checks.py and grids.py, never a stored copy of earlier output).
"""

import random
from itertools import combinations
from math import gcd, log, prod

import checks

# ------------------------------------------------------------ own arithmetic

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 3) | 1
    while not is_prime(n):
        n += 2
    return n


ODD_PRIMES = [p for p in range(3, 4000) if is_prime(p)]


def random_form(rng, q: int):
    """Ternary form, coefficients uniform in [0, q), det(2M) coprime to q."""
    while True:
        c = tuple(rng.randrange(q) for _ in range(6))
        if gcd(checks.det3(checks.gram2(c)), q) == 1:
            return c


def random_binary(rng, q: int):
    while True:
        f = (rng.randrange(q), rng.randrange(q), rng.randrange(q))
        if gcd(4 * f[0] * f[2] - f[1] * f[1], q) == 1:
            return f


def random_companion(rng, q: int):
    """Monic companion x^2 + b x y + c y^2 with det4 = 4c - b^2 coprime to q."""
    while True:
        b, c = rng.randrange(q), rng.randrange(q)
        if gcd(4 * c - b * b, q) == 1:
            return (1, b, c)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


# ------------------------------------------------------------------ tracing


class Tracer:
    """Per-layer busy time, calls and failures, from the benchmark's side of
    each call.  The program is single-threaded, so spans never overlap
    except where one layer calls another, and nothing waits."""

    def __init__(self, clock):
        self.clock = clock
        self.time = {}
        self.calls = {}
        self.failed = {}
        self.counts = {}
        self.spans = 0

    def call(self, layer, fn, *args):
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.spans += 1
        t0 = self.clock()
        try:
            return fn(*args)
        except Exception:
            self.failed[layer] = self.failed.get(layer, 0) + 1
            raise
        finally:
            self.time[layer] = self.time.get(layer, 0.0) + self.clock() - t0

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


# ------------------------------------------------------------- workloads


class Workload:
    """Base class.  Subclasses define round_ops(k) (None once inputs run
    out), warmup(), run(op), traced(op, tracer) -> (output, extra), check(op,
    output) and label(op), the bucket an operation is reported under."""

    name = ""
    round_s = 1.0  # measured length of one round on the reference host
    replay = True  # the traced run may repeat each operation untraced

    def __init__(self, seed: int, size: int = 0):
        self.seed = seed
        self.size = size  # 0: full size; small positive values shrink rounds for self-tests

    def moduli(self):
        """(q, known primes) for every modulus the workload passes to make_modulus."""
        return []

    def characters(self):
        """Odd square-free d the workload passes to make_character."""
        return []

    def setup(self, api):
        """make_modulus on every modulus and make_character on every character
        modulus the workload passes to the API."""
        self.api = api
        self.mods = {q: api.make_modulus(q) for q, _ in self.moduli()}
        self.chars = {d: api.make_character(d) for d in self.characters()}

    def known_fault(self, op):
        """True for operations that a named, unmended program fault breaks."""
        return False

    def after_trace(self, op, extra, tr):
        """Work counts for one traced operation, taken outside its spans."""

    def run_counts(self, ops, tr):
        """Work counts over all the operations of a traced run."""

    def check_setup(self):
        for q, primes in self.moduli():
            checks.check_factorization(q, primes, self.mods[q].primes)

    def rounds(self):
        k = 0
        while True:
            ops = self.round_ops(k)
            if ops is None:
                return
            yield ops
            k += 1


# ---------------------------------------------------------------- solvers


class _SolveWorkload(Workload):

    WARM = (1155, (3, 5, 7, 11))
    WARM_FORM = (5, 7, 11, 1, 2, 3)

    def round_ops(self, k):
        out = []
        for q, primes in self.pool:
            rng = _rng(self.seed, self.name, "form", k, q)
            out.append(("solve", q, tuple(primes), random_form(rng, q)))
        return out

    def moduli(self):
        return [(q, primes) for q, primes in self.pool] + [self.WARM]

    def warmup(self):
        self.run(("solve", 1155, self.WARM[1], self.WARM_FORM))

    def run(self, op):
        """solve_ternary, then the certificate replay of its trace."""
        mod = self.mods[op[1]]
        return self._verify(self.api.solve_ternary(self.api.TernaryForm(*op[3]), mod), mod)

    def traced(self, op, tr):
        """The solve composed stage by stage, as solve_ternary composes it.

        Returns (verified trace, square-value vector (u, v)).
        """
        api = self.api
        _, q, _, c = op
        mod = self.mods[q]
        form = api.TernaryForm(*c)
        neg_adj = tr.call("solver.prepare", self._prepare, form, mod)
        choice = tr.call("solver.restriction", api.ternary_to_binary, neg_adj, mod)
        u, v = tr.call("solver.square_value", api.square_value_binary, choice.form, mod)
        a1, a2, a3, a4, a5, a6 = choice.vecs
        x = (a1 * u + a2 * v, a3 * u + a4 * v, a5 * u + a6 * v)
        t = tr.call("modmath.sqrt", api.sqrt_mod_squarefree, neg_adj.evaluate(x), mod)
        if t is None:
            raise api.CertificateMismatch("restriction produced a non-square value")
        trace = tr.call("solver.tail", api.solve_from_witness, form, mod, x, t)
        return tr.call("solver.verify", self._verify, trace, mod), (u, v)

    def _prepare(self, form, mod):
        api = self.api
        if not api.nonsingular_mod(form, mod):
            raise api.SingularForm(f"det shares a factor with {mod.q}")
        return api.negate_mod(api.adjoint_mod(form, mod), mod)

    def after_trace(self, op, extra, tr):
        tr.count("solver.square_value.vectors", checks.vectors_examined(extra))

    def _verify(self, trace, mod):
        parsed = self.api.parse_trace(self.api.trace_lines(trace))
        self.api.verify_trace(parsed, mod)
        return parsed

    def check(self, op, out):
        _, q, primes, c = op
        checks.need(out.q == q and out.form.coeffs() == c, "trace is for another problem")
        checks.check_solve(c, q, primes, out.solution, out.witness)


class SolveWide(_SolveWorkload):
    """Random odd square-free q, log-uniform over 1e3..1e18, 1-3 primes.

    The pool is stratified: for every decade [1e d, 1e(d+1)), d = 3..17, and
    every prime count k = 1, 2, 3, PER_CELL moduli; each round solves one
    fresh form on every modulus of the pool.
    """

    name = "solve-wide"
    round_s = 0.11
    PER_CELL = 2

    def __init__(self, seed, size=0):
        super().__init__(seed, size)
        rng = _rng(seed, self.name, "moduli")
        decades = range(3, 18) if not size else range(3, 18, 5)
        self.pool = [
            self._modulus(rng, d, k)
            for d in decades
            for k in (1, 2, 3)
            for _ in range(self.PER_CELL)
        ]

    @staticmethod
    def _modulus(rng, d, k):
        """Near-balanced primes (exponent shares 1/k, jittered by 10%): the
        hard case for Pollard rho, and one whose cost varies little by seed."""
        while True:
            e = rng.uniform(d, d + 1)
            shares = [rng.uniform(0.9, 1.1) for _ in range(k)]
            primes = sorted(next_prime(int(10 ** (e * w / sum(shares)))) for w in shares)
            q = prod(primes)
            if len(set(primes)) == k and 10**d <= q < 10 ** (d + 1):
                return q, tuple(primes)

    def label(self, op):
        return f"1e{len(str(op[1])) - 1}"


class SolveManyPrime(_SolveWorkload):
    """q a product of k consecutive odd primes from the first sixteen
    (3..59), k = 8..13, WINDOWS[k] moduli per k.  A round solves FORMS base
    forms on every modulus, each scaled by a unit the seed draws.

    The moduli are the same for every seed: for each k, WINDOWS[k] windows
    of k consecutive primes spread over 3..59.  Which primes divide q sets
    the cost of the square-value search (a small prime accepts more
    values): with ten seed-drawn prime sets per k, the mean k = 13 solve
    ranged from 57 to 100 ms between seeds.  k = 13 gets two moduli, not
    four, because its solves have the heaviest tail (single solves up to
    1.2 s against a 50-110 ms mean).

    The base forms are the same for every seed too; the seed draws, for
    every operation, a unit lam mod q and the program solves lam * Q mod q.
    Scaling Q by lam scales -Q^adj by the square lam^2, so the restriction
    and the square-value search examine the same vectors for every seed,
    while the coefficients, the witness root and the box search differ.
    With seed-drawn forms the search's heavy tail alone spread ops_per_s
    over ten seeds by about 0.07 and op_p90_ms by 0.11 (quartile distance
    over median, resampled from 150 solves per modulus), and two sets of
    ten runs spread ops_per_s by up to 0.30 on a slower host.
    """

    name = "solve-manyprime"
    round_s = 2.7
    WINDOWS = {8: 4, 9: 4, 10: 4, 11: 4, 12: 4, 13: 2}
    FORMS = 6

    def __init__(self, seed, size=0):
        super().__init__(seed, size)
        first = ODD_PRIMES[:16]
        self.pool = []
        for k, n in (self.WINDOWS.items() if not size else ((8, 1), (9, 1))):
            for i in range(n):
                start = round(i * (len(first) - k) / (n - 1)) if n > 1 else 0
                primes = tuple(first[start:start + k])
                self.pool.append((prod(primes), primes))
        forms = self.FORMS if not size else 1
        self.base = [
            (q, primes, random_form(_rng(0, self.name, "base", q, i), q))
            for i in range(forms)
            for q, primes in self.pool
        ]

    def round_ops(self, k):
        out = []
        for j, (q, primes, c) in enumerate(self.base):
            rng = _rng(self.seed, self.name, "unit", k, j)
            while True:
                lam = rng.randrange(1, q)
                if gcd(lam, q) == 1:
                    break
            out.append(("solve", q, primes, tuple(lam * x % q for x in c)))
        return out

    def label(self, op):
        return f"k={len(op[2])}"


# ----------------------------------------------------------- prime scans


class ScanPrime(Workload):
    """form_shift_sum(p, ns, qt) with its dual-route check over distinct
    primes 1000 < p < 3000.

    The range is cut into eight strata of width 250 and each stratum's
    primes are shuffled by the seed.  Round k takes PER_STRATUM primes from
    every stratum, unused by earlier rounds, and scans them in increasing
    order: for each prime a random split and a random inert monic companion,
    r = 2 and 3, TUPLES shift tuples each with entries in [1, 2p], as the
    weil-scan command does.  No prime repeats within a run, so every
    (p, companion) table is built once.
    """

    name = "scan-prime"
    round_s = 14.0
    replay = False  # a repeat would find the first call's p x p tables cached
    STRATA = [(1000 + 250 * i, 1250 + 250 * i) for i in range(8)]
    PER_STRATUM = 3
    TUPLES = 12
    WARM_P = 997

    def __init__(self, seed, size=0):
        super().__init__(seed, size)
        rng = _rng(seed, self.name, "primes")
        self.strata = []
        for lo, hi in self.STRATA:
            ps = [p for p in ODD_PRIMES if lo < p < hi]
            rng.shuffle(ps)
            self.strata.append(ps)
        if size:
            self.strata = [s[:size] for s in self.strata[:2]]

    def round_ops(self, k):
        per = self.PER_STRATUM if not self.size else 1
        primes = [p for s in self.strata for p in s[k * per:(k + 1) * per]]
        if len(primes) < per * len(self.strata):
            return None
        tuples = self.TUPLES if not self.size else 2
        out = []
        for p in sorted(primes):
            rng = _rng(self.seed, self.name, "p", p)
            split = self._companion(rng, p, 1)
            inert = self._companion(rng, p, -1)
            for r in (2, 3):
                for qt, is_split in ((split, True), (inert, False)):
                    for _ in range(tuples):
                        ns = tuple(rng.randrange(1, 2 * p + 1) for _ in range(2 * r))
                        out.append(("shift", p, qt, is_split, ns))
        return out

    @staticmethod
    def _companion(rng, p, kind):
        while True:
            b, c = rng.randrange(p), rng.randrange(p)
            if checks.legendre(b * b - 4 * c, p) == kind:
                return (1, b, c)

    def warmup(self):
        self.run(("shift", self.WARM_P, (1, 1, 0), True, (1, 2, 3, 4)))

    def run(self, op):
        _, p, qt, _, ns = op
        return self.api.form_shift_sum(p, ns, self.api.BinaryForm(*qt))

    def traced(self, op, tr):
        """form_shift_sum composed from its two routes and their comparison."""
        api = self.api
        _, p, qt, _, ns = op
        form = api.BinaryForm(*qt)
        if api.splits_mod(form, p):
            s1 = tr.call("charsum.linear_shift", api.linear_shift_sum, p, ns)
            val = s1 * s1
        else:
            val = tr.call("charsum.norm_shift", api.norm_shift_sum, p, ns)
        direct = tr.call("charsum.direct_grid", api.form_shift_sum_direct, p, ns, form)
        if direct != val:
            raise api.CertificateMismatch(f"factored route {val} != direct grid {direct} at p = {p}")
        return val, None

    def after_trace(self, op, extra, tr):
        tr.count("charsum.direct_grid.points", op[1] * op[1])

    def check(self, op, out):
        _, p, _, is_split, ns = op
        checks.check_prime_shift(p, ns, is_split, out)

    def label(self, op):
        return f"p{op[1] // 500 * 500}"

    def run_counts(self, ops, tr):
        """int8 bytes of the p x p tables the operations need: one grid table
        per (p, companion), one norm table per p with an inert companion."""
        grids = {(op[1], op[2]) for op in ops}
        norms = {op[1] for op in ops if not op[3]}
        tr.count("charsum.tables.bytes", sum(p * p for p, _ in grids) + sum(p * p for p in norms))


# ------------------------------------------------------- composite scans


class ScanComposite(Workload):
    """Many small calls on composite moduli with small prime factors.

    Per round: FULL_GRID full_grid_sum, SHIFT_Q form_shift_sum_q, WINDOW
    window_power_sum, PAIRS shift_pair_counts + second_moment (half with
    q <= 256, the dense path, half above, the dict path), EXP exp_char_sum
    at p <= 101 and INCOMPLETE incomplete_sum over discs.  Each round also
    repeats the fixed incomplete_sum operations in OVERFLOW, whose character
    modulus d = 4,000,037 lies above 2^21: incomplete_sum forms a * x * x in
    int64 before reducing mod d and returns wrong values there, so these
    operations fail until that is mended.
    """

    name = "scan-composite"
    round_s = 0.06
    FULL_GRID, SHIFT_Q, WINDOW, PAIRS, EXP, INCOMPLETE = 24, 8, 6, 4, 4, 12
    D_BIG = 4_000_037
    OVERFLOW = (
        ((D_BIG - 1, 3, D_BIG - 5), (3999990, 3999998, 1, 9)),
        ((D_BIG - 1, 3, D_BIG - 5), (3999980, 3999988, 11, 19)),
    )

    def __init__(self, seed, size=0):
        super().__init__(seed, size)
        rng = _rng(seed, self.name, "moduli")
        small = ODD_PRIMES[:11]  # 3 .. 37
        self.grid_pool = self._pool(rng, small, 4, 15, 10**5, 32)
        self.kernel_pool = self._pool(rng, small, 3, 45, 700, 32)
        self.dense_pool = self._pool(rng, small, 3, 45, 256, 16)
        self.dict_pool = self._pool(rng, small, 3, 257, 1200, 16)
        self.char_pool = self._pool(rng, ODD_PRIMES[:60], 3, 1000, 20000, 8, kmin=1)

    @staticmethod
    def _pool(rng, primes, kmax, lo, hi, n, kmin=2):
        """n moduli spread evenly in log q over [lo, hi]: for each of n equal
        slices a random point, and the product of kmin..kmax distinct primes
        nearest to it.  Every seed then gets nearly the same spread of sizes,
        which the costs of these kernels follow."""
        cands = sorted(
            (prod(c), c)
            for k in range(kmin, kmax + 1)
            for c in combinations(primes, k)
            if lo <= prod(c) <= hi
        )
        span = log(hi / lo)
        pool = []
        for i in range(n):
            t = log(lo) + span * (i + rng.random()) / n
            pool.append(min(cands, key=lambda x: abs(log(x[0]) - t)))
        return pool

    def moduli(self):
        seen = {}
        for pool in (self.grid_pool, self.kernel_pool, self.dense_pool, self.dict_pool):
            seen.update(pool)
        return sorted(seen.items())

    def characters(self):
        return sorted({d for d, _ in self.char_pool}) + [self.D_BIG]

    def round_ops(self, k):
        rng = _rng(self.seed, self.name, "round", k)
        shrink = 4 if self.size else 1
        ops = []
        for _ in range(self.FULL_GRID // shrink):
            q, ps = rng.choice(self.grid_pool)
            ops.append(("full_grid", q, ps, random_binary(rng, q)))
        for _ in range(self.SHIFT_Q // shrink):
            q, ps = rng.choice(self.kernel_pool)
            ns = tuple(rng.randrange(1, 2 * q + 1) for _ in range(2 * rng.choice((2, 3))))
            ops.append(("shift_sum_q", q, ps, random_companion(rng, q), ns))
        for _ in range(self.WINDOW // shrink):
            q, ps = rng.choice(self.kernel_pool)
            ops.append(("window_power", q, ps, random_companion(rng, q), rng.randint(2, 4), 2))
        for i in range(self.PAIRS // shrink):
            q, ps = rng.choice(self.dense_pool if i % 2 == 0 else self.dict_pool)
            center = (rng.randrange(-100, 101), rng.randrange(-100, 101))
            ops.append(("shift_pairs", q, ps, random_binary(rng, q), center, q, 4))
        for _ in range(self.EXP // shrink):
            p = rng.choice([p for p in ODD_PRIMES if p <= 101])
            ops.append(("exp_sum", p, (p,), random_form(rng, p), tuple(rng.randrange(p) for _ in range(3))))
        for _ in range(self.INCOMPLETE // shrink):
            d, ps = rng.choice(self.char_pool)
            f = tuple(rng.randrange(-d, d) for _ in range(3))
            center = (rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
            ops.append(("incomplete", d, ps, f, ("disc", center[0], center[1], rng.randint(40, 400))))
        for f, box in self.OVERFLOW:
            ops.append(("incomplete", self.D_BIG, (self.D_BIG,), f, ("box",) + box))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        """A small incomplete sum with the large character: builds its 4 MB
        Jacobi table, which every later call with that modulus reuses."""
        self.run(("incomplete", self.D_BIG, (self.D_BIG,), (1, 0, 1), ("disc", 0, 0, 4)))

    def _args(self, op):
        api = self.api
        kind = op[0]
        if kind == "full_grid":
            return api.full_grid_sum, (api.BinaryForm(*op[3]), self.mods[op[1]])
        if kind == "shift_sum_q":
            return api.form_shift_sum_q, (api.BinaryForm(*op[3]), self.mods[op[1]], op[4])
        if kind == "window_power":
            return api.window_power_sum, (api.BinaryForm(*op[3]), self.mods[op[1]], op[4], op[5])
        if kind == "shift_pairs":
            return self._pairs, (api.BinaryForm(*op[3]), self.mods[op[1]], op[4], op[5], op[6])
        if kind == "exp_sum":
            return api.exp_char_sum, (api.TernaryForm(*op[3]), op[1], op[4])
        region = op[4]
        reg = api.Disc(*region[1:]) if region[0] == "disc" else api.Box(*region[1:])
        return api.incomplete_sum, (self.chars[op[1]], api.BinaryForm(*op[3]), reg)

    def _pairs(self, form, mod, center, r_sq, bound):
        api = self.api
        lift = api.minimal_lift(form.a, form.b, form.c, mod).form
        counts = api.shift_pair_counts(form, lift, mod, center, r_sq, bound)
        total = sum(counts.values()) if isinstance(counts, dict) else int(counts.sum())
        return (lift.a, lift.b, lift.c), total, api.second_moment(counts)

    LAYER = {
        "full_grid": "charsum.full_grid", "shift_sum_q": "charsum.shift_sum_q",
        "window_power": "charsum.window_power", "shift_pairs": "charsum.shift_pairs",
        "exp_sum": "charsum.exp_sum", "incomplete": "charsum.incomplete",
    }

    def run(self, op):
        fn, args = self._args(op)
        return fn(*args)

    def traced(self, op, tr):
        fn, args = self._args(op)
        out = tr.call(self.LAYER[op[0]], fn, *args)
        return out, out

    def after_trace(self, op, out, tr):
        if op[0] == "full_grid":
            tr.count("charsum.full_grid.prime_calls", len(op[2]))
        elif op[0] == "shift_pairs":
            tr.count("charsum.shift_pairs.pairs", out[1])

    def known_fault(self, op):
        return op[1] == self.D_BIG

    def check(self, op, out):
        import grids  # numpy only after quadcong: see grids.py

        kind, q, ps = op[0], op[1], op[2]
        if kind == "full_grid":
            checks.need(out == 0, f"full grid sum {out} != 0 for {op[3]} mod {q}")
            if q <= 400:
                checks.need(grids.direct_full_grid(op[3], q, ps) == 0, "direct grid does not vanish")
        elif kind == "shift_sum_q":
            expect = grids.direct_shift_sum(op[3], q, ps, op[4])
            checks.need(out == expect, f"form_shift_sum_q {out} != direct {expect} mod {q}")
        elif kind == "window_power":
            expect = grids.direct_window_power(op[3], q, ps, op[4], op[5])
            checks.need(out == expect, f"window_power_sum {out} != direct {expect} mod {q}")
        elif kind == "shift_pairs":
            lift, total, moment = out
            checks.check_shift_pairs(op[3], lift, q, op[4], op[5], op[6], total, moment)
        elif kind == "exp_sum":
            grids.check_exp_sum(op[3], q, op[4], out.phase_coefficients, out.adj_zero, out.magnitude, out.large)
        else:
            region = op[4]
            rows = checks.disc_rows(*region[1:]) if region[0] == "disc" else checks.box_rows(*region[1:])
            expect = grids.direct_incomplete(q, ps, op[3], rows)
            checks.need(out == expect, f"incomplete_sum {out} != exact {expect} for d = {q}, form {op[3]}, {region}")

    def label(self, op):
        return op[0] if op[0] != "shift_pairs" else ("shift_pairs_dense" if op[1] <= 256 else "shift_pairs_dict")

    def run_counts(self, ops, tr):
        """Distinct per-prime full_grid_sum inputs (p, a mod p, b mod p, c mod p)."""
        inputs = {(p,) + tuple(k % p for k in op[3]) for op in ops if op[0] == "full_grid" for p in op[2]}
        tr.count("charsum.full_grid.distinct_inputs", len(inputs))


def load_api():
    """The quadcong callables the workloads use, gathered in one namespace."""
    from types import SimpleNamespace

    import quadcong
    from quadcong import charsum, errors, qforms, solver

    api = SimpleNamespace(**{n: getattr(quadcong, n) for n in quadcong.__all__})
    for mod, names in (
        (qforms, ("nonsingular_mod", "adjoint_mod", "negate_mod")),
        (solver, ("ternary_to_binary", "square_value_binary")),
        (charsum, ("splits_mod", "linear_shift_sum", "norm_shift_sum", "form_shift_sum_direct")),
        (errors, ("SingularForm", "CertificateMismatch")),
    ):
        for n in names:
            setattr(api, n, getattr(mod, n))
    return api


WORKLOADS = {w.name: w for w in (SolveWide, SolveManyPrime, ScanPrime, ScanComposite)}
