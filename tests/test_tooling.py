import ast
from pathlib import Path

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


def test_benchmark_api_names_resolve(monkeypatch):
    # the benchmark reads these names at start-up; a rename must fail here
    # rather than in every benchmark operation
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    api = workloads.load_api()
    assert callable(api.square_value_binary) and callable(api.shift_pair_counts)
