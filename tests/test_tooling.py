import ast
import importlib.util
import os
import re
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


def test_tables_have_one_byte_bounded_store():
    # charsum's store bounds its tables in bytes; a functools cache in the
    # modules that build or read tables would hold them past its cap
    for name in ("charsum", "oracle"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & {"lru_cache", "cache", "cached_property"}, name
        module = importlib.import_module(f"quadcong.{name}")
        assert [k for k, v in vars(module).items() if hasattr(v, "cache_clear")] == [], name


def test_readme_states_the_table_store_cap():
    # the README's cap is charsum's constant, so the two cannot drift apart
    from quadcong import charsum

    readme = (SRC.parent.parent / "README.md").read_text()
    stated = re.findall(r"at most (\d+) MiB \(`charsum\.TABLE_BYTES`\)", " ".join(readme.split()))
    assert stated == [str(charsum.TABLE_BYTES >> 20)] and charsum.TABLE_BYTES % (1 << 20) == 0


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


def _loaded_by_import(names, then=""):
    """The modules among names that a fresh `import quadcong`, followed by
    the statements in then, loads."""
    code = f"import os, sys, quadcong\n{then}\nprint(sorted({set(names)!r} & set(sys.modules)))"
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


SOLVE_PATH = """
from quadcong import cli
mod = quadcong.make_modulus(1155)
form = quadcong.sample_forms(mod, 1, "no-numpy")[0]
trace = quadcong.solve_ternary(form, mod)
quadcong.verify_trace(quadcong.parse_trace(quadcong.trace_lines(trace)), mod)
assert cli.main(["solve", "--out", os.devnull]) == 0
"""


def test_solver_imports_no_numpy():
    # the solve path is pure Python: importing, solving, round-tripping and
    # verifying a trace, and the solve command, load no numpy, whose import
    # would cost every solve more set-up time and resident memory than the
    # solve itself
    assert _loaded_by_import({"numpy"}) == "[]"
    assert _loaded_by_import({"numpy"}, SOLVE_PATH) == "[]"
    # the check can fail: the first character-sum name loads numpy
    assert _loaded_by_import({"numpy"}, "quadcong.full_grid_sum") == "['numpy']"


# the public names before they were imported lazily; the set must not change
PUBLIC = {
    "BinaryForm", "Box", "Character", "Disc", "ExperimentConfig", "Modulus", "QuadCongError",
    "SolveTrace", "TernaryForm", "brute_min_square", "brute_min_zero", "divisor_char_sum",
    "divisor_sum_positive", "exp_char_sum", "fit_exponent", "form_shift_sum", "form_shift_sum_q",
    "full_grid_sum", "incomplete_sum", "is_prime", "jacobi", "main", "make_character",
    "make_modulus", "max_window_power_sum", "minimal_lift", "monic_companion", "oracle_scan",
    "parse_binary", "parse_ternary", "parse_trace", "sample_forms", "second_moment",
    "shift_pair_counts", "shift_params", "shifted_sum_bound", "shortest_vector3",
    "solve_from_witness", "solve_ternary", "sqrt_mod_squarefree", "trace_lines", "verify_trace",
    "window_power_sum",
}


def test_lazy_public_names():
    assert len(PUBLIC) == 43 and set(quadcong.__all__) == PUBLIC and len(quadcong.__all__) == 43
    for name in quadcong.__all__:
        value = getattr(quadcong, name)
        assert value.__module__.startswith("quadcong.") and value.__name__ == name
    star = {}
    exec("from quadcong import *", star)
    assert PUBLIC <= set(star)
    assert not hasattr(quadcong, "nope")
    with pytest.raises(AttributeError, match="nope"):
        quadcong.nope
    from quadcong import charsum  # a submodule still imports by name (the benchmark's load_api does)

    assert charsum.full_grid_sum is quadcong.full_grid_sum


# public call with a bad argument: the QuadCongError it must raise, and the
# start of the message
BAD_ARGUMENTS = {
    "parse_ternary_token": (
        lambda api: api.parse_ternary("a,b,c,d,e,f"), "InvalidInput", "ternary form row needs 6 integers: invalid"
    ),
    "parse_binary_token": (lambda api: api.parse_binary("1 x 2"), "InvalidInput", "binary form row needs 3 integers: invalid"),
    "exp_char_sum_short_y": (
        lambda api: api.exp_char_sum(api.TernaryForm(1, 2, 3, 1, 0, 1), 7, (1, 2)), "ArityError", "expected 3 coordinates, got 2"
    ),
    "shortest_vector3_two_rows": (
        lambda api: api.shortest_vector3([(1, 0, 0), (0, 1, 0)]), "ArityError", "expected 3 rows, got 2"
    ),
    "sqrt_mod_squarefree_float": (
        lambda api: api.sqrt_mod_squarefree(4.0, api.make_modulus(15)), "InvalidInput", "sqrt_mod_squarefree needs an int"
    ),
    "parse_trace_token": (
        lambda api: api.parse_trace(["q: 1e3"]), "TraceInvariantViolation", "trace line 'q: 1e3': a token is not an integer"
    ),
    "parse_trace_missing_fields": (
        lambda api: api.parse_trace(["q: 15"]), "TraceInvariantViolation", "trace has no line for form, witness, t,"
    ),
}


@pytest.mark.parametrize("call, error, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_arguments_raise_typed_errors(call, error, message):
    # errors.py: a plain ValueError, IndexError or TypeError means a bug, so
    # a bad argument must fail at the boundary with a QuadCongError
    with pytest.raises(quadcong.QuadCongError) as info:
        call(quadcong)
    assert type(info.value).__name__ == error and str(info.value).startswith(message)


def test_one_point_budget():
    # one fixed work bound: POINT_BUDGET is bound once, and no parameter,
    # field or variable named budget can override it.  No module imports it
    # either: a copy bound at import time would not see a patched budget
    bound = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.arg):
                bound.append((node.arg, path.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(t, ast.Name):
                        bound.append((t.id, path.name))
            elif isinstance(node, ast.ImportFrom):
                bound += [(alias.name, path.name) for alias in node.names]
    assert [f for name, f in bound if name == "POINT_BUDGET"] == ["errors.py"]
    assert [f for name, f in bound if name == "budget"] == []


def test_benchmark_api_names_resolve(monkeypatch):
    # the benchmark reads these names at start-up; a rename must fail here
    # rather than in every benchmark operation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    api = workloads.load_api()
    assert callable(api.square_value_binary) and callable(api.shift_pair_counts)


SCRIPTS = {
    "solve_demo.py": ("solve_demo.py", []),
}


@pytest.mark.parametrize("case", SCRIPTS)
def test_scripts_run(case):
    # nothing else imports the scripts, so an API rename would break them silently
    script, args = SCRIPTS[case]
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, str(path), *args], env=env, capture_output=True, text=True)
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


def test_mutate_reductions_refuses_names_with_no_reduction(tmp_path, monkeypatch, capsys):
    # a misspelt --functions name, or functions holding no reduction, would
    # otherwise report "0 of 0 killed" and exit 0: both exit 2 at once
    mut = _mutation_script()
    (tmp_path / "m.py").write_text("def f(a, m):\n    return a % m\n\n\ndef g(a):\n    return a + 1\n")
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the script went on to copy the tree or run the tests")

    monkeypatch.setattr(mut.subprocess, "run", refuse)
    monkeypatch.setattr(mut.shutil, "copytree", refuse)
    for functions, message in (("f,h", "no function h in m.py"), ("g", "no % reduction in m.py (g)")):
        monkeypatch.setattr(sys, "argv", ["mutate_reductions.py", "m.py", "tests/t.py", "--functions", functions])
        assert mut.main() == 2
        assert capsys.readouterr().out == message + "\n"


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
