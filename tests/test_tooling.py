import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadcong

SRC = Path(quadcong.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_lattice_is_integer_only():
    # the lattice reductions use exact integers; no Fraction may come back
    tree = ast.parse((SRC / "lattice.py").read_text())
    imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "fractions" not in imports
    assert "Fraction" not in names and "Fraction" not in imports


def test_exp_sums_use_no_float_roots_of_unity():
    # the exponential sums are exact integers: no complex roots of unity
    tree = ast.parse((SRC / "charsum.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    assert "complex" not in names
    assert not {("np", "exp"), ("np", "pi")} & attrs


def _loaded_by_import(names):
    """The modules among names that a fresh `import quadcong` loads."""
    code = f"import sys, quadcong; print(sorted({set(names)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_process_pool():
    # the CLI imports its process pool on first use with --jobs > 1, so a
    # plain import pays for neither multiprocessing nor its socket and logging
    assert _loaded_by_import({"multiprocessing", "concurrent.futures.process"}) == "[]"


def test_import_loads_no_argparse_or_fractions():
    # argparse is imported by the CLI's entry point and Fraction by the
    # coprime-count prediction, so a library import holds neither (nor the
    # decimal module that fractions loads)
    assert _loaded_by_import({"argparse", "fractions", "decimal"}) == "[]"


def test_solver_imports_no_numpy():
    # the solve path is pure Python: numpy's first use would cost the
    # solver resident memory it does not need
    tree = ast.parse((SRC / "solver.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(m == "numpy" or m.startswith("numpy.") for m in modules)


def test_one_point_budget():
    # one fixed work bound: POINT_BUDGET is bound once, and no parameter,
    # field or variable named budget can override it
    bound = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.arg):
                bound.append((node.arg, path.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name):
                        bound.append((t.id, path.name))
    assert [f for name, f in bound if name == "POINT_BUDGET"] == ["charsum.py"]
    assert [f for name, f in bound if name == "budget"] == []


def test_benchmark_api_names_resolve(monkeypatch):
    # the benchmark reads these names at start-up; a rename must fail here
    # rather than in every benchmark operation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    api = workloads.load_api()
    assert callable(api.square_value_binary) and callable(api.shift_pair_counts)


SCRIPTS = {
    "solve_demo.py": [],
    "exponent_scan.py": ["--samples", "8", "--lo", "1000", "--hi", "100000"],
    "weil_margin.py": ["--pmax", "30", "--tuples", "10"],
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_scripts_run(script):
    # nothing else imports the scripts, so an API rename would break them silently
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, str(path), *SCRIPTS[script]], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr


def _mutation_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "mutate_reductions.py"
    spec = importlib.util.spec_from_file_location("mutate_reductions", path)
    mut = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mut)
    return mut


def test_mutate_reductions_drops_one_reduction_at_a_time():
    # the mutation script (run by hand, not by the suite) must find every
    # reduction of the named functions, skip string formatting, and change
    # nothing but the one reduction in each mutant
    mut = _mutation_script()
    source = (
        "def f(a, m):\n"
        "    x = (a + 1) % m * 2\n"
        "    x %= m\n"
        '    return "%d" % x\n'
        "\n"
        "\n"
        "def g(a):\n"
        "    return a % 3\n"
    )
    sites = mut.reduction_sites(source, {"f"})
    assert [(owner, node.lineno) for node, owner in sites] == [("f", 2), ("f", 3)]
    assert len(mut.reduction_sites(source)) == 3
    first, second = (mut.mutant(source, node) for node, _ in sites)
    assert first == source.replace("(a + 1) % m * 2", "(a + 1) * 2")
    assert second == source.replace("    x %= m\n", "    pass\n")


def test_mutate_reductions_runs_every_test_file_without_shrinking():
    # each mutant's run takes several test files and loads the plugin that
    # drops Hypothesis's shrink phase and example database
    mut = _mutation_script()
    tests = ["tests/test_charsum.py", "tests/test_cli.py::test_weil_scan_csv_frozen"]
    cmd = mut.pytest_command(tests)
    assert cmd[:3] == [sys.executable, "-m", "pytest"] and cmd[-2:] == tests
    assert cmd[cmd.index(mut._PLUGIN) - 1] == "-p" and "-x" in cmd
    probe = mut._PLUGIN_SOURCE + "print(Phase.shrink in settings.default.phases, settings.default.database)\n"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "None"]
