"""Solve one congruence Q(x) = 0 (mod q) and print the replayable trace.

Usage: python3 scripts/solve_demo.py [q] [a,b,c,d,e,f]

Defaults to q = 1155 and a pseudorandom nonsingular form. The printed trace
is exactly what `quadcong.parse_trace` accepts back.
"""

import sys

from quadcong import make_modulus, parse_ternary, sample_forms, solve_ternary, trace_lines, verify_trace
from quadcong.intvec import norm_sq


def main(argv):
    q = int(argv[0]) if argv else 1155
    mod = make_modulus(q)
    if len(argv) > 1:
        form = parse_ternary(argv[1])
    else:
        form = sample_forms(mod, 1, "demo")[0]

    trace = solve_ternary(form, mod)
    for line in trace_lines(trace):
        print(line)

    verify_trace(trace, mod)
    x = trace.solution
    lhs = 3 * norm_sq(x) ** 2
    rhs = 64 * q * q * norm_sq(trace.witness)
    print(f"# verified: Q(x) = {form.evaluate(x)} = 0 mod {q}")
    print(f"# norm chain: 3||x||^4 = {lhs} <= {rhs} = 64 q^2 ||a||^2 "
          f"(usage {lhs / rhs:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
