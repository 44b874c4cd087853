"""quadcong benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ./src.
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics (see BENCHMARK.json and perfbench/README.md).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Failed operations are named with their inputs on standard error.
Each run also writes a record (calibration loop, git sha, nproc, versions,
per-bucket rates) to perfbench/runs/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS, Tracer, load_api  # noqa: E402

clock = time.perf_counter

PROBES = 5  # set-ups per run; setup_s is their median
MIN_OPS = 100  # at least ten operations beyond p90

SOLVE_LAYERS = ("solver.prepare", "solver.restriction", "solver.square_value", "modmath.sqrt", "solver.tail", "solver.verify")
SCAN_LAYERS = (
    "charsum.linear_shift", "charsum.norm_shift", "charsum.direct_grid", "charsum.full_grid",
    "charsum.shift_sum_q", "charsum.window_power", "charsum.shift_pairs", "charsum.exp_sum",
    "charsum.incomplete",
)
OP_LAYERS = SOLVE_LAYERS + SCAN_LAYERS
COUNTS = (
    "solver.square_value.vectors", "charsum.direct_grid.points", "charsum.tables.bytes",
    "charsum.full_grid.prime_calls", "charsum.full_grid.distinct_inputs", "charsum.shift_pairs.pairs",
)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tells a slow host stretch from a slow program."""
    t0 = clock()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return clock() - t0


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Probes:
    """Set-up probes spread over the run: one before the first operation,
    the rest as the run progresses and at its end.  The host's speed drifts
    over stretches of 10-20 s, so samples taken across the whole run make
    setup_s an average over the same stretch as the operation metrics."""

    def __init__(self, workload: str, seed: int, n: int = PROBES):
        self.args = (workload, seed)
        self.n = n
        self.samples = []

    def due(self, progress: float):
        """Take every sample whose point in the run (0 .. 1) has been reached."""
        while len(self.samples) < self.n and progress >= len(self.samples) / (self.n - 1):
            self.samples.append(probe(*self.args))

    def median(self, key: str) -> float:
        return statistics.median(p[key] for p in self.samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, wl, seconds, probes=None):
        self.wl = wl
        self.seconds = seconds
        self.probes = probes
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies = []
        self.buckets = {}
        self.ops = []

    def settle(self, op, out, err, dt):
        """Count one finished operation and check its output."""
        self.attempted += 1
        self.latencies.append(dt)
        b = self.buckets.setdefault(self.wl.label(op), [0, 0.0])
        b[0] += 1
        b[1] += dt
        self.ops.append(op)
        if err is None:
            try:
                self.wl.check(op, out)
                return True
            except checks.CheckFailed as e:
                err = e
        self.failed += 1
        known = self.wl.known_fault(op)
        self.correct &= known
        tag = "known fault" if known else "UNEXPECTED"
        print(f"failed ({tag}) {self.wl.name} {op!r}: {type(err).__name__}: {err}", file=sys.stderr)
        return False

    def done(self, busy):
        return busy >= self.seconds and len(self.latencies) >= MIN_OPS

    def timed(self):
        """Whole rounds, untraced, until `seconds` of operation time have passed."""
        busy = 0.0
        for ops in self.wl.rounds():
            results = []
            for op in ops:
                t0 = clock()
                try:
                    out, err = self.wl.run(op), None
                except Exception as e:  # a failed operation is counted, named and the run goes on
                    out, err = None, e
                dt = clock() - t0
                busy += dt
                results.append((op, out, err, dt))
            for r in results:
                self.settle(*r)
            self.between_rounds(busy / self.seconds if self.seconds else 1.0)
            if self.done(busy):
                break
        return busy

    def between_rounds(self, progress):
        if self.probes:
            self.probes.due(progress)

    def traced(self, tracer, rounds):
        """A fixed number of whole rounds, so that every count repeats exactly.

        Where the workload allows it, each operation is also run untraced,
        in alternating order, so that the traced time can be set against the
        untraced time of the same work under the same host conditions.
        """
        ops_s = untraced_s = 0.0
        replay = self.wl.replay
        for k, ops in enumerate(self.wl.rounds()):
            if k == rounds:
                break
            for i, op in enumerate(ops):
                if replay and i % 2:
                    plain, dt_plain = self._plain(op)
                t0 = clock()
                try:
                    (out, extra), err = self.wl.traced(op, tracer), None
                except Exception as e:
                    out, extra, err = None, None, e
                dt = clock() - t0
                if replay and not i % 2:
                    plain, dt_plain = self._plain(op)
                if replay:
                    untraced_s += dt_plain
                    if err is None and plain != out:
                        err = checks.CheckFailed(f"traced output {out!r} differs from the untraced {plain!r}")
                ops_s += dt
                if self.settle(op, out, err, dt):
                    self.wl.after_trace(op, extra, tracer)
            self.between_rounds((k + 1) / rounds)
        return ops_s, untraced_s

    def _plain(self, op):
        t0 = clock()
        try:
            out = self.wl.run(op)
        except Exception:
            out = None
        return out, clock() - t0


def span_cost(clock_fn) -> float:
    """Seconds one Tracer.call adds around a call, measured on a no-op."""
    tr = Tracer(clock_fn)
    n = 20_000

    def noop():
        return None

    t0 = clock_fn()
    for _ in range(n):
        noop()
    bare = clock_fn() - t0
    t0 = clock_fn()
    for _ in range(n):
        tr.call("x", noop)
    return max(0.0, (clock_fn() - t0 - bare) / n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quadcong", "__init__.py")):
        print(f"no quadcong sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2

    calib_start = calibrate()
    probe(args.workload, args.seed)  # throwaway: compiles and reads the package before the clock runs
    probes = Probes(args.workload, args.seed)
    probes.due(0.0)

    # The run's own set-up, in this process; reported in the record only.
    wl = WORKLOADS[args.workload](args.seed)
    sys.path.insert(0, SRC)
    t0 = clock()
    api = load_api()
    if not os.path.abspath(sys.modules["quadcong"].__file__).startswith(SRC + os.sep):
        print("quadcong was not imported from ./src", file=sys.stderr)
        return 2
    wl.setup(api)
    wl.warmup()
    own_setup = clock() - t0
    wl.check_setup()

    run = Run(wl, args.seconds, probes)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "calibration_start_s": calib_start,
        "own_setup_s": own_setup,
    }

    if args.trace:
        tracer = Tracer(clock)
        rounds = max(1, math.ceil(args.seconds / wl.round_s / (2 if wl.replay else 1)))
        ops_s, untraced_s = run.traced(tracer, rounds)
        probes.due(1.0)
        record["rounds"] = rounds
        wl.run_counts(run.ops, tracer)
        grid_calls = tracer.counts.get("charsum.full_grid.prime_calls", 0)
        if grid_calls:
            record["full_grid_repeat_share"] = 1 - tracer.counts["charsum.full_grid.distinct_inputs"] / grid_calls
        per_span = span_cost(clock)
        m = {
            "setup.import_s": metric(probes.median("import_s"), "s"),
            "modmath.make_modulus_s": metric(probes.median("make_modulus_s"), "s"),
            "modmath.make_modulus.calls": metric(len(wl.moduli()) + len(wl.characters()), "count"),
            "modmath.make_modulus.failed": metric(0, "count"),
        }
        for layer in OP_LAYERS:
            m[layer + "_s"] = metric(tracer.time.get(layer, 0.0), "s")
            m[layer + ".calls"] = metric(tracer.calls.get(layer, 0), "count")
            m[layer + ".failed"] = metric(tracer.failed.get(layer, 0), "count")
        for name in COUNTS:
            m[name] = metric(tracer.counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
        m["trace.ops_s"] = metric(ops_s, "s")
        m["trace.stages_s"] = metric(sum(tracer.time.values()), "s")
        m["trace.untraced_ops_s"] = metric(untraced_s, "s")
        m["trace.overhead_s"] = metric(ops_s - untraced_s if wl.replay else 0.0, "s")
        m["trace.spans"] = metric(tracer.spans, "count")
        m["trace.span_cost_s"] = metric(tracer.spans * per_span, "s")
    else:
        busy = run.timed()
        probes.due(1.0)
        lat = sorted(run.latencies)
        m = {
            "setup_s": metric(probes.median("setup_s"), "s"),
            "ops_per_s": metric(run.attempted / busy, "1/s"),
            "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["busy_s"] = busy

    record["probes"] = probes.samples
    record["calibration_end_s"] = calibrate()
    record["buckets"] = {k: {"ops": n, "mean_ms": 1e3 * t / n} for k, (n, t) in sorted(run.buckets.items())}
    record.update(attempted=run.attempted, failed=run.failed, correct=run.correct, metrics=m)
    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    path = os.path.join(HERE, "runs", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"{wl.name} seed={args.seed}: attempted {run.attempted}, failed {run.failed}, correct {run.correct}", file=sys.stderr)
    for name, v in m.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": m}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
