"""Reduction mutants: is every `% m` in a module load-bearing?

Each mutant drops one reduction: `a % m` becomes `(a)` and `x %= m` becomes
`pass`.  The script runs one or more test files (or test ids) against every
mutant and lists the mutants that survive, that is, the reductions no test
depends on.  Mutants are written to a copy of the source tree in a new
temporary directory (it honours TMPDIR, which must lie outside the tree),
removed at the end; the tree it reads is never changed.  A survivor is
either a missing test or a reduction that is not needed (numpy, for one,
wraps a negative index silently, so an unreduced row in -m < i < 0 reads
the right entry).

    python scripts/mutate_reductions.py src/quadcong/charsum.py \\
        tests/test_charsum.py tests/test_cli.py --functions _seal,_plane_product_sum

The tests run with a small pytest plugin, written into the copy, that loads
a Hypothesis profile with no shrink phase and no example database: a
failing example still fails its test, so the set of killed mutants is the
same, but a killed mutant's run stops at once instead of shrinking for
minutes.

Run it from the root of the source tree.  It needs only the standard library
and the test suite's own dependencies.  The tests are run once on the
unmutated copy first; the script exits 2, before it copies the tree, if a
name in --functions is no function of the module or the functions hold no
`%` reduction (so a misspelt name is not a clean pass), and exits 2 if the
unmutated run does not pass or if TMPDIR is inside the tree; it exits 1
when a mutant survives or its run times out, else 0.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_TIMEOUT = 600  # seconds per test run
_PLUGIN = "_mutant_profile"  # module name of the plugin written into the copy
_PLUGIN_SOURCE = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate, Phase.target), database=None)
settings.load_profile("mutants")
"""


def reduction_sites(source: str, functions=None):
    """(node, function name) for each `%` reduction in the source, inside the
    named functions (all functions when None); string formatting is skipped."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if functions is None or owner in functions:
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                if not isinstance(node.left, (ast.Constant, ast.JoinedStr)):
                    sites.append((node, owner))
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
                sites.append((node, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset))


def _span(lines, node):
    """Byte offsets of the node in the source, from its line and column."""
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    return starts[node.lineno - 1] + node.col_offset, starts[node.end_lineno - 1] + node.end_col_offset


def mutant(source: str, node) -> str:
    """The source with this one reduction dropped."""
    data = source.encode()
    lines = data.splitlines(keepends=True)
    lo, hi = _span(lines, node)
    if isinstance(node, ast.AugAssign):
        text = b"pass"
    else:
        a, b = _span(lines, node.left)
        text = b"(" + data[a:b] + b")"
    return (data[:lo] + text + data[hi:]).decode()


def pytest_command(tests):
    """The pytest command run on each mutant: stop at the first failure, no
    cache, and the plugin that turns shrinking off."""
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", _PLUGIN, *tests]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module file, relative to the root, e.g. src/quadcong/charsum.py")
    ap.add_argument("tests", nargs="+", help="test files or test ids that must kill each mutant")
    ap.add_argument("--functions", help="comma-separated function names (default: the whole module)")
    args = ap.parse_args()

    root = Path.cwd()
    functions = set(args.functions.split(",")) if args.functions else None
    source = (root / args.module).read_text()
    sites = reduction_sites(source, functions)
    defined = {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    missing = sorted((functions or set()) - defined)
    if missing:
        print(f"no function {', '.join(missing)} in {args.module}")
        return 2
    if not sites:
        print(f"no % reduction in {args.module}" + (f" ({args.functions})" if functions else ""))
        return 2
    work = Path(tempfile.mkdtemp(prefix="mutants-")).resolve()
    if root.resolve() in work.parents:
        shutil.rmtree(work)
        print(f"the temporary directory {work} is inside the tree; set TMPDIR outside it")
        return 2
    copy = work / "tree"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    target = copy / args.module
    (copy / f"{_PLUGIN}.py").write_text(_PLUGIN_SOURCE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy)]), PYTHONDONTWRITEBYTECODE="1")
    cmd = pytest_command(args.tests)

    def run_tests():
        """(outcome, first failing test): outcome is "passed", "failed" or "timeout"."""
        try:
            run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        killer = next((ln.split(" - ")[0] for ln in run.stdout.splitlines() if ln.startswith(("FAILED", "ERROR"))), "")
        return ("passed" if run.returncode == 0 else "failed"), killer or run.stdout[-500:] + run.stderr[-500:]

    survivors, timeouts = [], []
    try:
        outcome, detail = run_tests()
        if outcome != "passed":
            print(f"the unmutated copy does not pass {' '.join(args.tests)} ({outcome}):\n{detail}")
            return 2
        print(f"{len(sites)} reductions in {args.module}" + (f" ({args.functions})" if functions else ""))
        for node, owner in sites:
            target.write_text(mutant(source, node))
            where = f"{owner}:{node.lineno}  {ast.get_source_segment(source, node)}"
            outcome, killer = run_tests()
            if outcome == "failed":
                print(f"killed   {where}  by {killer}", flush=True)
            elif outcome == "timeout":
                print(f"TIMEOUT  {where}  after {_TIMEOUT} s", flush=True)
                timeouts.append(where)
            else:
                print(f"SURVIVED {where}", flush=True)
                survivors.append(where)
    finally:
        shutil.rmtree(work)
    print(f"{len(sites) - len(survivors) - len(timeouts)} of {len(sites)} killed, "
          f"{len(timeouts)} timed out, {len(survivors)} survived")
    return 1 if survivors or timeouts else 0

if __name__ == "__main__":
    sys.exit(main())
