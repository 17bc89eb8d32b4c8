"""Every module-level import in the package is used by its module, and
every module-level private function or class is used somewhere.

No linter ships with the project, so these scans stand in for one: they
parse the sources with ast.  The import scan fails on an imported name that
its module never reads; the package __init__ is exempt, because its imports
are the public re-exports.  The private-name scan fails on a module-level
`_name` function or class that no module of the package and no test reads.
The parameter scan fails on a parameter of a package function or method
that its body never reads; self, cls and `_`-prefixed names are exempt.
The dependency scan fails on any import, nested ones included, of a module
outside the standard library, numpy and the package: loopsoup is numpy-only.
"""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "loopsoup"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nx = np.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _names_read(node) -> set:
    """Every name a subtree reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def unreferenced_private(package: dict, readers: list) -> list:
    """(module, name) of each module-level private function or class of the
    package sources {module: source} that neither the package nor a reader
    source reads; a definition's own body does not count as a reader."""
    defs, read = [], set()
    for source in [*package.values(), *readers]:
        for node in ast.parse(source).body:
            names = _names_read(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            read |= names
    for module, source in package.items():
        defs += [(module, node.name) for node in ast.parse(source).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name.startswith("_") and not node.name.startswith("__")]
    return sorted(d for d in defs if d[1] not in read)


def test_private_scan_sees_dead_and_live_names():
    package = {"a": "def _dead():\n    return _dead()\n\ndef _live():\n    pass\n"
                    "class _Used:\n    pass\n",
               "b": "from a import _live\n"}
    assert unreferenced_private(package, ["import a\na._Used()\n"]) == [("a", "_dead")]


def test_no_unreferenced_private_definitions():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [p.read_text() for p in TESTS.glob("*.py")]
    assert unreferenced_private(package, readers) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function or method
    that its body, nested definitions included, never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        read = set()
        for sub in (s for stmt in node.body for s in ast.walk(stmt)):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                read.add(sub.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                read.add(sub.target.id)  # x += 1 reads x
        found += [(node.lineno, node.name, p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_parameter_scan_sees_unread_and_read_names():
    source = ("def occupation(soup, kernel):\n    return soup.block.occupation()[0]\n"
              "def f(a, b, _c, *args, d=1, **kw):\n    return a + kw['x']\n"
              "class K:\n    def m(self, x, y):\n        y += 1\n"
              "        def g():\n            return x\n        return g\n")
    assert unread_parameters(source) == [(1, "occupation", "kernel"), (3, "f", "args"),
                                         (3, "f", "b"), (3, "f", "d")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "loopsoup"}


def foreign_imports(source: str) -> list:
    """(line, module) of each import, at any depth, whose top-level package
    is not allowed; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in ALLOWED_ROOTS]
    return sorted(found)


def test_dependency_scan_sees_foreign_imports():
    source = ("import os, numpy as np\nfrom .rng import BLOCK\nfrom loopsoup import cli\n"
              "def f():\n    import scipy.linalg\n    from numba import njit\n")
    assert foreign_imports(source) == [(5, "scipy.linalg"), (6, "numba")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_numpy_and_stdlib_only(path):
    assert foreign_imports(path.read_text()) == []
