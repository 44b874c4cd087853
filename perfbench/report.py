"""Summarise the run records in perfbench/runs/ into the README's tables.

    python3 perfbench/report.py

For each workload: the median and quartile spread of every end-to-end
metric over its untraced runs, the operation rate per bucket (q decade on
solve-wide, prime count k on solve-manyprime), and from its traced runs the
per-layer time split, the tracing overhead and the full_grid_sum repeat share.
"""

import glob
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(glob.glob(os.path.join(HERE, "runs", "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        runs[rec["workload"]][rec["trace"]].append(rec)
    for name, by_trace in sorted(runs.items()):
        plain, traced = by_trace[0], by_trace[1]
        print(f"## {name}: {len(plain)} untraced run(s), {len(traced)} traced run(s)")
        if plain:
            fails = sorted({r["failed"] / r["attempted"] for r in plain})
            print(f"failed share per run: {', '.join(f'{x:.4f}' for x in fails)}")
            print("| metric | median | IQR / median | min | max |")
            for key in plain[0]["metrics"]:
                v = [r["metrics"][key]["value"] for r in plain]
                unit = plain[0]["metrics"][key]["unit"]
                print(f"| {key} ({unit}) | {statistics.median(v):.4g} | {spread(v):.3f} | {min(v):.4g} | {max(v):.4g} |")
            calib = [r["calibration_start_s"] for r in plain] + [r["calibration_end_s"] for r in plain]
            print(f"calibration loop: median {statistics.median(calib) * 1e3:.1f} ms, spread {spread(calib):.3f}")
            print("| bucket | ops per run | mean ms | ops/s |")
            buckets = defaultdict(lambda: [0, 0.0])
            for r in plain:
                for k, b in r["buckets"].items():
                    buckets[k][0] += b["ops"]
                    buckets[k][1] += b["ops"] * b["mean_ms"]
            for k in sorted(buckets, key=lambda s: (len(s), s)):
                n, t = buckets[k]
                print(f"| {k} | {n / len(plain):.0f} | {t / n:.3f} | {1e3 * n / t:.1f} |")
        if traced:
            m0 = traced[0]["metrics"]
            layers = [k for k in m0 if k.endswith("_s") and not k.startswith("trace.") and k != "setup.import_s"
                      and k != "modmath.make_modulus_s" and statistics.median(r["metrics"][k]["value"] for r in traced) > 0]
            ops = statistics.median(r["metrics"]["trace.ops_s"]["value"] for r in traced)
            print("| layer | median s | share of traced op time |")
            for k in layers:
                v = statistics.median(r["metrics"][k]["value"] for r in traced)
                print(f"| {k} | {v:.4g} | {v / ops:.3f} |")
            for k in ("trace.ops_s", "trace.stages_s", "trace.untraced_ops_s", "trace.overhead_s", "trace.spans", "trace.span_cost_s"):
                v = [r["metrics"][k]["value"] for r in traced]
                print(f"{k}: median {statistics.median(v):.4g}")
            counts = {k: {r["metrics"][k]["value"] for r in traced if r["seed"] == traced[0]["seed"]}
                      for k in m0 if m0[k]["unit"] in ("count", "bytes")}
            print("counts (first seed):", {k: sorted(v) for k, v in counts.items() if any(v)})
            shares = [r["full_grid_repeat_share"] for r in traced if "full_grid_repeat_share" in r]
            if shares:
                print(f"full_grid_sum per-prime calls repeating an earlier (p, coefficients mod p): median {statistics.median(shares):.3f}")
        print()


if __name__ == "__main__":
    main()
