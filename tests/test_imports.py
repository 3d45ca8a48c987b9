"""Every module-level import in the package and in its tests is used, every
parameter of a package function and every private name of a package module
is read, and importing the command line loads no heavy third-party package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cogrules").rglob("*.py"))
FILES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


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


def only_raises_not_implemented(body: list[ast.stmt]) -> bool:
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unused_parameters(source: str) -> list[str]:
    """'line L: function(parameter)' for each parameter but self and cls that
    the function's body, nested functions included, never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if only_raises_not_implemented(fn.body):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"line {fn.lineno}: {fn.name}({p.arg})" for p in params
                  if p is not None and p.arg not in ("self", "cls") and p.arg not in read]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_parameter_checker_reports_only_unread_parameters():
    source = ("def f(a, b, /, c, *args, d, e=1, **kw):\n"
              "    def inner():\n        return c + kw['x']\n"
              "    a = 2\n    return inner() + b\n"
              "class C:\n"
              "    def m(self, x):\n        'Abstract.'\n        raise NotImplementedError\n"
              "    @classmethod\n    def k(cls, y):\n        raise NotImplementedError(y)\n"
              "    def n(self, z):\n        raise ValueError\n")
    assert unused_parameters(source) == [
        "line 1: f(a)", "line 1: f(args)", "line 1: f(d)", "line 1: f(e)", "line 13: n(z)"]


def unread_private_names(source: str) -> list[str]:
    """'line L: name' for each private module-level function, class or
    variable, and each private method, that its module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defined += [(m.name, m.lineno) for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined
            if name.startswith("_") and not name.endswith("__") and name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_private_name_checker_reports_only_unread_names():
    source = ("_A, _B = 1, 2\n_C: int = 3\nD = _A\n"
              "def _f():\n    return _g\n"
              "def _g():\n    pass\n"
              "class _K:\n"
              "    def __init__(self):\n        self._x = 1\n"
              "    def _m(self):\n        return self._n()\n"
              "    def _n(self):\n        return self._x\n"
              "    def public(self):\n        pass\n")
    assert unread_private_names(source) == [
        "line 1: _B", "line 2: _C", "line 4: _f", "line 8: _K", "line 11: _m"]


def test_the_package_imports_only_the_standard_library():
    # cogrules declares no runtime dependency
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.append(node.module)
    assert {name.split(".")[0] for name in found} - {"__future__"} <= sys.stdlib_module_names


def test_cli_and_pipeline_import_neither_numpy_nor_http():
    # numpy is not a dependency, and only HTTP backends load the HTTP modules,
    # whose import would cost every run's start
    script = ("import sys, cogrules.pipeline, cogrules.cli; "
              "print(sorted({'numpy', 'urllib.request', 'http.client'} & set(sys.modules)), "
              "sys.flags.dont_write_bytecode)")
    env = {"PYTHONPATH": str(ROOT / "src")}
    if sys.flags.dont_write_bytecode:  # a caller that writes no bytecode gets none written
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["[]", str(sys.flags.dont_write_bytecode)]
