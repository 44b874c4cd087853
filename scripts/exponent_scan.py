"""Fit the growth exponent of the solver's solution norms against q.

python3 scripts/exponent_scan.py --samples 200 --lo 1000 --hi 10000000
"""

import argparse
import math
import random

from quadcong import make_modulus, sample_forms, solve_ternary
from quadcong.cli import fit_exponent
from quadcong.errors import QuadCongError
from quadcong.intvec import norm_sq


def pick_modulus(rng, lo, hi):
    while True:
        q = rng.randrange(lo | 1, hi, 2)
        try:
            return make_modulus(q)
        except QuadCongError:
            continue


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--lo", type=int, default=10**3)
    ap.add_argument("--hi", type=int, default=10**7)
    ap.add_argument("--seed", default="scan")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    span = math.log(args.hi / args.lo)
    pts = []
    for i in range(args.samples):
        target = args.lo * math.exp(span * i / max(args.samples - 1, 1))
        mod = pick_modulus(rng, int(target), int(target * 1.4) + 3)
        form = sample_forms(mod, 1, f"{args.seed}:{i}")[0]
        tr = solve_ternary(form, mod)
        pts.append((mod.q, math.sqrt(norm_sq(tr.solution))))

    fit = fit_exponent(pts)
    print(f"samples={len(pts)} q in [{min(p for p, _ in pts)}, {max(p for p, _ in pts)}]")
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} residual={fit.residual:.4f}")
    print("reference: 5/8 = 0.625 worst case, soft ceiling 0.72")


if __name__ == "__main__":
    main()
