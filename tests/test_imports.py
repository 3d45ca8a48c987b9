"""Every module-level import in the package and in its tests is used, and
importing the command line loads no heavy third-party package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "cogrules").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module):
    """(bound name, line) for each module-level import but `__future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported_names(tree)
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_reports_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom pathlib import Path as P\n"
              "def f(x: P):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["line 2: json"]


def test_cli_and_pipeline_import_neither_numpy_nor_requests():
    # numpy is not a dependency, and only HTTP backends load requests
    script = ("import sys, cogrules.pipeline, cogrules.cli; "
              "print(sorted({'numpy', 'requests'} & set(sys.modules)), "
              "sys.flags.dont_write_bytecode)")
    env = {"PYTHONPATH": str(ROOT / "src")}
    if sys.flags.dont_write_bytecode:  # a caller that writes no bytecode gets none written
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]", str(sys.flags.dont_write_bytecode)]
