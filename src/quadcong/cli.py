"""Experiment harness: deterministic CSV reports over the library.

Subcommands
-----------
solve         run the congruence solver over sampled forms per modulus
oracle        exhaustive minimal zero / square-value scans per modulus
weil-scan     shifted product sums vs their bounds over a prime range
grid-vanish   complete-grid character sums of nonsingular binary forms
exponent-fit  growth exponents of solver output norms (and the rank-2 family)
cop-count     coprime counts of the restriction determinant vs prediction
second-moment shift-parameter pair counts and their second moment

Each command is one entry of COMMANDS: its defaults and its runner.
Configuration comes from an optional key=value file plus command-line
overrides.  Identical configuration produces byte-identical CSV, including
under --jobs > 1: tasks are scheduled per modulus and merged in a canonical
order independent of the pool schedule.

Exit codes: 0 all checks pass, 1 a hard per-row check failed (the row is
named on stderr), 2 configuration errors.
"""

import math
import os
import random
import sys
from dataclasses import dataclass
from math import gcd, isqrt

from .errors import CertificateMismatch, FitError, InvalidModulus, NotOdd, NotSquareFree, QuadCongError, TooSmall
from .modmath import Modulus, find_nonresidue, is_prime, make_modulus
from .qforms import BinaryForm, sample_forms
from .solver import solve_ternary

@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    qs: tuple = ()
    q_range: tuple = ()
    samples: int = 0
    seed: str = "0"
    out: str = "-"
    jobs: int = 1


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float


def fit_exponent(rows) -> FitResult:
    """Least squares of log(value) against log(q); closed form, deterministic.

    Needs at least three distinct q and positive values throughout.
    """
    qs = [q for q, _ in rows]
    if len(set(qs)) < 3:
        raise FitError("need at least 3 distinct moduli")
    if any(v <= 0 or q <= 0 for q, v in rows):
        raise FitError("values and moduli must be positive")
    xs = [math.log(q) for q, _ in rows]
    ys = [math.log(v) for _, v in rows]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        raise FitError("degenerate abscissae")
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = math.sqrt(sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)))
    return FitResult(slope=slope, intercept=intercept, residual=residual)


def _hash_ints(vals) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, ~3.5 MB resident

    return hashlib.sha1(" ".join(str(v) for v in vals).encode()).hexdigest()[:12]


def _valid_q(q: int) -> bool:
    """Whether make_modulus accepts q.  Only an even, not square-free or too
    small q is invalid; any other refusal, such as FactoringExhausted on a q
    Pollard rho cannot split, reaches the caller."""
    try:
        make_modulus(q)
        return True
    except (NotOdd, NotSquareFree, TooSmall):
        return False


def nearest_odd_squarefree(n: int) -> int:
    """The valid modulus closest to n (ties toward smaller, _valid_q)."""
    n = max(n, 3)
    for d in range(0, 2 * n):
        for cand in (n - d, n + d):
            if _valid_q(cand):
                return cand
    raise ValueError("unreachable")


def _next_prime(n: int) -> int:
    c = max(n, 3)
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def _log_spaced(lo: int, hi: int, count: int):
    if count <= 1:
        return [lo] * count
    out = []
    for i in range(count):
        out.append(round(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (count - 1))))
    return out


def sample_binary_forms(mod: Modulus, count: int, seed) -> list:
    """Nonsingular binary forms mod q, coefficients uniform, reproducible."""
    rng = random.Random(f"{seed}:binary:{mod.q}")
    out = []
    while len(out) < count:
        f = BinaryForm(rng.randrange(mod.q), rng.randrange(mod.q), rng.randrange(mod.q))
        if gcd(f.det4(), mod.q) == 1:
            out.append(f)
    return out


# ------------------------------------------------------------------- workers
# one task per modulus (or prime); module level so the process pool can
# pickle them.  Each returns its rows, already in canonical order.
# The charsum and oracle names are imported in the tasks that use them, not at
# the top: they load numpy, which the solve command never needs.


def _task_solve(args):
    q, samples, seed = args
    mod = make_modulus(q)
    forms = sorted(sample_forms(mod, samples, seed), key=lambda f: _hash_ints(f.coeffs()))
    rows = []
    for form in forms:
        try:
            tr = solve_ternary(form, mod)
            row_ok = form.evaluate(tr.solution) % q == 0 and tr.chain_ok()
            found = (tr.witness_norm_sq(), tr.solution_norm_sq(), *tr.solution)
        except QuadCongError:
            row_ok, found = False, (-1, -1, 0, 0, 0)
        rows.append((q, *form.coeffs(), *found, int(row_ok)))
    return rows


def _task_oracle(args):
    from .oracle import oracle_scan

    q, samples, seed = args
    mod = make_modulus(q)
    rows = []
    scanned = oracle_scan(mod, samples, seed)
    for rec in sorted(scanned, key=lambda r: _hash_ints(r.form.coeffs())):
        row_ok = (
            rec.form.evaluate(rec.min_zero.witness) % q == 0
            and rec.min_square.norm_sq <= rec.min_zero.norm_sq
        )
        rows.append(
            (q,)
            + rec.form.coeffs()
            + (
                rec.min_zero.norm_sq,
                rec.min_square.norm_sq,
                rec.min_zero.witness[0],
                rec.min_zero.witness[1],
                rec.min_zero.witness[2],
                int(row_ok),
            )
        )
    return rows


def _task_weil(args):
    from .charsum import delta_gcd, form_shift_sum, shifted_sum_bound, splits_mod

    p, samples, seed = args
    rows = []
    split_qt = BinaryForm(1, 1, 0)  # disc 1: factors over every F_p
    inert_qt = BinaryForm(1, 0, -find_nonresidue(p))
    if not splits_mod(split_qt, p) or splits_mod(inert_qt, p):
        raise CertificateMismatch(f"companions {split_qt.row()}, {inert_qt.row()} not split, inert mod {p}")
    for r in (2, 3):
        for qt in (split_qt, inert_qt):
            rng = random.Random(f"{seed}:weil:{p}:{r}:{qt.row()}")
            for _ in range(samples):
                ns = tuple(rng.randrange(1, 2 * p + 1) for _ in range(2 * r))
                delta = delta_gcd(ns)
                val = form_shift_sum(p, ns, qt, check=True)
                bound = shifted_sum_bound(p, r, delta)
                if delta != 0 and delta % p != 0:
                    # sharper conditional bounds apply off the degenerate set
                    bound = min(bound, 4 * r * r * p if splits_mod(qt, p) else 2 * r * p)
                rows.append((p, p, r, _hash_ints(ns), delta, val, bound, int(abs(val) <= bound)))
    return rows


def _task_grid_vanish(args):
    from .charsum import full_grid_sum

    q, samples, seed = args
    mod = make_modulus(q)
    rows = []
    for f in sorted(sample_binary_forms(mod, samples, seed), key=lambda f: _hash_ints((f.a, f.b, f.c))):
        val = full_grid_sum(f, mod)
        rows.append((q, f.a, f.b, f.c, val, int(val == 0)))
    return rows


def _task_cop_count(args):
    from .oracle import restriction_coprime_count

    q, box, seed = args
    if box < 1:
        raise ValueError(f"cop-count box edge (--samples) must be at least 1, got {box}")
    mod = make_modulus(q)
    form = sample_forms(mod, 1, f"{seed}:cop")[0]
    res = restriction_coprime_count(form, mod, box)
    pred = f"{res.prediction.numerator}/{res.prediction.denominator}"
    return [(q, box, res.count, pred, f"{float(res.relative_gap()):.6f}")]


def _task_second_moment(args):
    from .charsum import minimal_lift, second_moment, shift_pair_counts

    q, samples, seed = args
    mod = make_modulus(q)
    rows = []
    for form in sample_binary_forms(mod, samples, seed):
        lift = minimal_lift(form.a, form.b, form.c, mod).form
        radius_sq = 4 * isqrt(q) ** 2
        shift_bound = max(2, isqrt(isqrt(q)) + 1)
        counts = shift_pair_counts(form, lift, mod, (0, 0), radius_sq, shift_bound)
        total = int(counts.sum())
        moment = second_moment(counts)
        # each cell count c >= 1 has c^2 >= c
        rows.append((q, form.a, form.b, form.c, radius_sq, shift_bound, total, moment, int(moment >= total)))
    return rows


# ----------------------------------------------------------------- commands


def _expand_moduli(cfg: ExperimentConfig):
    if cfg.qs:
        for q in cfg.qs:
            make_modulus(q)  # invalid explicit moduli are a configuration error
        return sorted(set(cfg.qs))
    if not cfg.q_range:
        return []
    lo, hi = cfg.q_range
    return [q for q in range(lo | 1, hi + 1, 2) if _valid_q(q)]


def _expand_primes(cfg: ExperimentConfig):
    if cfg.qs:
        bad = [p for p in cfg.qs if p < 3 or not is_prime(p)]
        if bad:
            raise ValueError(f"weil-scan moduli must be odd primes, got {bad}")
        return sorted(set(cfg.qs))
    if not cfg.q_range:
        return []
    lo, hi = cfg.q_range
    return [p for p in range(max(lo, 3) | 1, hi + 1, 2) if is_prime(p)]


def _run_tasks(task_fn, arglist, jobs):
    if jobs > 1 and len(arglist) > 1:
        # here, not at the top: the pool loads multiprocessing, socket and logging
        from concurrent.futures import ProcessPoolExecutor

        # fork starts every worker the pool is given at once: no more than
        # there are tasks or CPUs
        with ProcessPoolExecutor(max_workers=min(jobs, len(arglist), os.cpu_count() or 1)) as pool:
            results = list(pool.map(task_fn, arglist))
    else:
        results = [task_fn(a) for a in arglist]
    return [row for rows in results for row in rows]


def _per_modulus(task, cols: str, head, expand=_expand_moduli):
    """A command that runs task on (q, samples, seed) for each modulus of
    expand(cfg) and reports the rows under the comma-separated cols."""

    def runner(cfg):
        return head, cols.split(","), _run_tasks(task, [(q, cfg.samples, cfg.seed) for q in expand(cfg)], cfg.jobs)

    return runner


def _cmd_exponent_fit(cfg):
    from .oracle import rank_two_family_min

    if cfg.qs:
        qs = _expand_moduli(cfg)
        lo, hi = qs[0], qs[-1]
    elif cfg.q_range:
        lo, hi = cfg.q_range
        qs = sorted({nearest_odd_squarefree(t) for t in _log_spaced(lo, hi, cfg.samples)})
    else:
        qs, lo, hi = [], 3, 3
    rows = []
    pipeline_pts = []
    for q in qs:
        mod = make_modulus(q)
        form = sample_forms(mod, 1, f"{cfg.seed}:fit:{q}")[0]
        tr = solve_ternary(form, mod)
        val = math.sqrt(tr.solution_norm_sq())
        pipeline_pts.append((q, val))
        rows.append(("pipeline", q, f"{val:.6f}"))
    family_pts = []
    fam_lo, fam_hi = max(lo, 101), min(hi, 1800)
    fam_targets = _log_spaced(fam_lo, fam_hi, min(cfg.samples, 12)) if qs and fam_lo <= fam_hi else []
    for p in sorted({_next_prime(t) for t in fam_targets}):
        a = find_nonresidue(p)
        b = max(1, round(p ** (1 / 3)))
        res = rank_two_family_min(a, b, make_modulus(p))
        val = math.sqrt(res.norm_sq)
        family_pts.append((p, val))
        rows.append(("rank2-family", p, f"{val:.6f}"))
    head = ["series, modulus, norm of the found solution (euclidean)"]
    for name, pts in (("pipeline", pipeline_pts), ("rank2-family", family_pts)):
        if len(pts) >= 3:
            fit = fit_exponent(pts)
            head.append(f"fit {name}: slope={fit.slope:.6f} intercept={fit.intercept:.6f} residual={fit.residual:.6f}")
    return head, ["series", "q", "value"], rows


# command -> (defaults, runner); a runner takes the config and returns the
# report's header lines, columns and rows.  A report whose last column is ok
# fails on a row that holds 0 there
COMMANDS = {
    "solve": (
        {"qs": (15, 105, 1155), "samples": 3},
        _per_modulus(
            _task_solve,
            "q,f11,f22,f33,f12,f13,f23,witness_norm_sq,solution_norm_sq,x1,x2,x3,ok",
            ["norms are squared euclidean; ok = solution nonzero, divisible, chain bound holds"],
        ),
    ),
    "oracle": (
        {"qs": (15, 105, 385), "samples": 3},
        _per_modulus(
            _task_oracle,
            "q,f11,f22,f33,f12,f13,f23,min_zero_norm_sq,min_square_norm_sq,w1,w2,w3,ok",
            ["exhaustive scans; min_* are squared norms; witness columns give the minimal zero"],
        ),
    ),
    "weil-scan": (
        {"q_range": (3, 101), "samples": 10},
        _per_modulus(
            _task_weil,
            "q,p,r,tuple-hash,delta-gcd,sum,bound,ok",
            [
                "shifted complete product sums at prime moduli, dual-route checked",
                "bound: 4r^2 p gcd(p,delta) unconditionally, 4r^2 p (split) / 2rp (inert) off the degenerate set",
            ],
            _expand_primes,
        ),
    ),
    "grid-vanish": (
        {"qs": (15, 21, 35), "samples": 5},
        _per_modulus(
            _task_grid_vanish,
            "q,a,b,c,sum,ok",
            ["complete q x q grid character sums of nonsingular binary forms; must vanish"],
        ),
    ),
    "exponent-fit": ({"q_range": (1001, 100003), "samples": 25}, _cmd_exponent_fit),
    "cop-count": (
        {"qs": (15, 105), "samples": 12},  # samples is the box edge for this command
        _per_modulus(
            _task_cop_count,
            "q,box,count,prediction,relative_gap",
            ["coprime counts of the 6-variable restriction determinant vs the per-prime product prediction"],
        ),
    ),
    "second-moment": (
        {"qs": (15, 21, 35), "samples": 1},
        _per_modulus(
            _task_second_moment,
            "q,a,b,c,radius_sq,shift_bound,pairs,second_moment,ok",
            ["shift-parameter collision counts over a disc of squared radius radius_sq"],
        ),
    ),
}


# ------------------------------------------------------------- config plumbing


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key != "command" and key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val
    return out


def _parse_int_list(text: str):
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_range(text: str):
    parts = text.replace(":", " ").replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


# setting (flag and file key) -> (ExperimentConfig field, conversion of its text)
_SETTINGS = {
    "q": ("qs", _parse_int_list),
    "q_range": ("q_range", _parse_range),
    "samples": ("samples", int),
    "seed": ("seed", str),
    "out": ("out", str),
    "jobs": ("jobs", int),
}


def build_config(argv) -> ExperimentConfig:
    """One merge: a flag beats the config file, the file beats the command's
    defaults, and each setting's text is converted once."""
    import argparse  # here, not at the top: a library import should not pay for it

    ap = argparse.ArgumentParser(prog="quadcong", description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs="?", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--q", help="comma separated moduli (primes for weil-scan)")
    ap.add_argument("--q-range", dest="q_range", help="inclusive range lo:hi")
    ap.add_argument("--samples")
    ap.add_argument("--seed")
    ap.add_argument("--out", help="output path, - for stdout")
    ap.add_argument("--jobs")
    ns = ap.parse_args(argv)

    given = parse_config_file(ns.config) if ns.config else {}
    given.update((key, val) for key, val in vars(ns).items() if val is not None)
    command = given.get("command")
    if command not in COMMANDS:
        raise ValueError(f"no valid command (got {command!r})")
    values = dict(COMMANDS[command][0])
    if "q" in given or "q_range" in given:
        # an explicitly empty --q stays empty (header-only report); only a
        # wholly absent selection falls back to the command's moduli
        values.pop("qs", None)
        values.pop("q_range", None)
    for key, (field, conv) in _SETTINGS.items():
        if key in given:
            try:
                values[field] = conv(given[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    cfg = ExperimentConfig(command=command, **values)
    for key, least in (("samples", 0), ("jobs", 1)):
        value = getattr(cfg, key)
        if value < least:
            raise ValueError(f"{key}: must be at least {least}, got {value}")
    return cfg


def render_report(cfg: ExperimentConfig, head, cols, rows) -> str:
    # jobs is a scheduling knob, not content: it must not appear in the output
    lines = [f"# quadcong {cfg.command} seed={cfg.seed} samples={cfg.samples}"]
    for h in head:
        lines.append(f"# {h}")
    lines.append(",".join(cols))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def run(cfg: ExperimentConfig) -> int:
    try:
        head, cols, rows = COMMANDS[cfg.command][1](cfg)
    except (ValueError, InvalidModulus) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except QuadCongError as exc:
        sys.stderr.write(f"FAILED: {type(exc).__name__}: {exc}\n")
        return 1
    text = render_report(cfg, head, cols, rows)
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"config error: cannot write --out {cfg.out}: {exc.strerror or exc}\n")
            return 2
    bad = [r for r in rows if r[-1] == 0] if cols[-1] == "ok" else []
    if bad:
        sys.stderr.write(f"FAILED: {len(bad)} row(s), first: {bad[0]}\n")
        return 1
    return 0


def main(argv=None) -> int:
    try:
        cfg = build_config(sys.argv[1:] if argv is None else argv)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
