"""Worst observed |sum| / bound ratios for shifted product sums.

Scans primes up to --pmax with random shift tuples in both splitting classes
and reports how much of the square-root-cancellation budget is actually used.
"""

import argparse
import random
from math import gcd

from quadcong.charsum import diff_products, linear_shift_sum, norm_shift_sum
from quadcong.modmath import is_prime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pmax", type=int, default=200)
    ap.add_argument("--tuples", type=int, default=100)
    ap.add_argument("--seed", default="margin")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # below any ratio, so the first tuple tested sets both entries
    worst = {"split": (-1.0, None), "inert": (-1.0, None)}
    for p in range(3, args.pmax + 1, 2):
        if not is_prime(p):
            continue
        for r in (2, 3):
            for _ in range(args.tuples):
                ns = tuple(rng.randrange(1, 2 * p + 1) for _ in range(2 * r))
                delta = diff_products(ns).overall_gcd
                if delta == 0 or delta % p == 0:
                    continue
                s1 = linear_shift_sum(p, ns)
                ratio = (s1 * s1) / (4 * r * r * p)
                if ratio > worst["split"][0]:
                    worst["split"] = (ratio, (p, r, ns))
                si = abs(norm_shift_sum(p, ns))
                ratio = si / (2 * r * p)
                if ratio > worst["inert"][0]:
                    worst["inert"] = (ratio, (p, r, ns))

    if worst["split"][1] is None:
        print("no tuple without degenerate shifts was tested")
        return
    for cls, (ratio, at) in worst.items():
        p, r, ns = at
        print(f"{cls}: worst usage {ratio:.4f} of the bound at p={p} r={r} ns={ns}")
    assert all(ratio <= 1.0 for ratio, _ in worst.values()), "bound violated"
    print("no violations")


if __name__ == "__main__":
    main()
