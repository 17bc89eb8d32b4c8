"""Every module-level import in the package is used by its module, and
every module-level private function or class is used somewhere.

No linter ships with the project, so these scans stand in for one: they
parse the sources with ast.  The import scan fails on an imported name that
its module never reads; the package __init__ is exempt, because it imports
`errors` only to load it eagerly.  The private-name scan fails on a module-level
`_name` function or class that no module of the package and no test reads.
The parameter scan fails on a parameter of a package function or method
that its body never reads; self, cls and `_`-prefixed names are exempt.
The dependency scan fails on any import, nested ones included, of a module
outside the standard library, numpy and the package: loopsoup is numpy-only.
The same scan over the tests fails on a third-party module that neither
pyproject.toml's dependencies nor its `test` extra declare, so that
`pip install -e '.[test]'` brings everything the tests import.
The caller scans keep one path per job and no unused options: the public
scan fails on a module-level public function that neither the package nor
the benchmark harness reads, and the default scan on a defaulted parameter
that no call there sets.  Tests do not count as callers.  The stream scan
fails on a call, import or any other reference to replica_rng outside the
rng module: only rng keys a (seed, block) stream, and every driver reaches
its blocks through rng.replica_blocks.

The last tests pin the lazy package's public surface: its names, the object
each one resolves to, and that a re-export follows its submodule's binding.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import loopsoup

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


# The callers of the public surface: the package and the benchmark harness,
# not tests.  The package __init__ is left out, since its export table names
# every public function as a string.
CALLERS = ([p.read_text() for p in MODULES]
           + [p.read_text() for p in sorted((TESTS.parent / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")])


def uncalled_public(package: dict, callers: list) -> list:
    """(module, name) of each module-level public function of the package
    sources {module: source} that no caller source reads as a name, an
    attribute, an import or a string (perfbench's tracer finds its targets
    by dotted name); a definition's own body does not count as a reader."""
    read = set()
    for source in callers:
        for node in ast.parse(source).body:
            names = _names_read(node) | {sub.value.split(".")[-1] for sub in ast.walk(node)
                                         if isinstance(sub, ast.Constant)
                                         and isinstance(sub.value, str)}
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
            read |= names
    return sorted((module, node.name) for module, source in package.items()
                  for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in read)


def test_public_scan_sees_uncalled_and_called_names():
    package = {"a": "def dead():\n    return dead()\n\ndef live():\n    pass\n"
                    "def traced():\n    pass\n\ndef _private():\n    pass\n"}
    callers = [package["a"], "from a import live\nTARGETS = ['a.traced']\n"]
    assert uncalled_public(package, callers) == [("a", "dead")]


def test_every_public_function_has_a_caller():
    package = {p.stem: p.read_text() for p in MODULES}
    assert uncalled_public(package, CALLERS) == []


def _defaulted(node, method: bool) -> list:
    """(position, name) of each defaulted parameter of a function definition;
    position counts the positional parameters after a method's self or cls,
    and is None for a keyword-only one."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][1 if method else 0:]
    found = [(i, a.arg) for i, a in enumerate(positional)
             if i >= len(positional) - len(args.defaults)]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def _sets(call, position, name) -> bool:
    """Whether a call's arguments set the parameter: by keyword, by position,
    or through a starred argument that may reach it."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(i <= position for i, a in enumerate(call.args)
               if isinstance(a, ast.Starred)) or len(call.args) > position


def unset_defaults(package: dict, callers: list) -> list:
    """(module, function, parameter) of each defaulted parameter of a package
    function or method that no call in a caller source sets.  A call is
    matched to every definition of its name; a class call is a call of the
    class's __init__, and partial(f, ...) a call of f."""
    calls: dict = {}
    for source in callers:
        for call in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)):
            func, args = call.func, call.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
                call = ast.Call(func, args, call.keywords)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            calls.setdefault(name, []).append(call)
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in item.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            key = methods[id(node)] if node.name == "__init__" else node.name
            found += [(module, node.name, name)
                      for position, name in _defaulted(node, id(node) in methods)
                      if not any(_sets(c, position, name) for c in calls.get(key, ()))]
    return sorted(found)


def test_default_scan_sees_unset_and_set_parameters():
    package = {"a": "class H:\n    def __init__(self, c=(), d=None):\n        pass\n"
                    "    def m(self, x, y=1):\n        pass\n"
                    "def f(a, b=1, *, c=2, d=3, e=4):\n    pass\n"
                    "def g(a, b=0):\n    pass\n"}
    callers = ["H(1, d=2)\nh.m(0)\nf(0, d=1)\nf(*xs)\npartial(f, 0, e=5)\n"
               "partial(g, 0, 1)\n"]
    assert unset_defaults(package, callers) == [("a", "f", "c"), ("a", "m", "y")]


def test_every_defaulted_parameter_is_set_by_a_caller():
    package = {p.stem: p.read_text() for p in MODULES}
    assert unset_defaults(package, CALLERS) == []


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


def foreign_imports(source: str, allowed: set) -> list:
    """(line, module) of each import, at any depth, whose top-level package
    is not in allowed; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in allowed]
    return sorted(found)


def test_dependency_scan_sees_foreign_imports():
    source = ("import os, numpy as np\nfrom .rng import BLOCK\nfrom loopsoup import cli\n"
              "def f():\n    import scipy.linalg\n    from numba import njit\n")
    assert foreign_imports(source, ALLOWED_ROOTS) == [(5, "scipy.linalg"), (6, "numba")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_numpy_and_stdlib_only(path):
    assert foreign_imports(path.read_text(), ALLOWED_ROOTS) == []


def roots_for_tests(pyproject: str, local: set) -> set:
    """Top-level modules a test may import: the standard library, the
    package, the local test modules, and the import name of each
    distribution that a pyproject.toml's dependencies and `test` extra
    declare, read off the requirement's name."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(pyproject)["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}
    return set(sys.stdlib_module_names) | {"loopsoup"} | local | declared


def test_declared_scan_sees_undeclared_test_imports():
    pyproject = ('[project]\ndependencies = ["numpy>=1.24"]\n'
                 '[project.optional-dependencies]\ntest = ["pytest>=7", "Hypothesis"]\n')
    source = ("import os, pytest\nimport hypothesis.strategies\nimport oracles\n"
              "from loopsoup import cli\nimport numpy as np\ndef f():\n    import scipy\n"
              "    from yaml import load\n")
    allowed = roots_for_tests(pyproject, {"oracles"})
    assert foreign_imports(source, allowed) == [(7, "scipy"), (8, "yaml")]


def test_test_imports_are_declared():
    modules = sorted(TESTS.glob("*.py"))
    allowed = roots_for_tests((TESTS.parent / "pyproject.toml").read_text(),
                              {p.stem for p in modules})
    found = {p.name: foreign_imports(p.read_text(), allowed) for p in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}


def stream_keyers(package: dict) -> list:
    """(module, line) of each name, attribute or import of replica_rng in
    the package sources {module: source} other than rng; an import alias
    counts too, so a renamed binding cannot hide a call."""
    return sorted({(module, node.lineno)
                   for module, source in package.items() if module != "rng"
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == "replica_rng"
                   or isinstance(node, ast.Attribute) and node.attr == "replica_rng"
                   or isinstance(node, ast.ImportFrom)
                   and any(a.name == "replica_rng" for a in node.names)})


def test_stream_scan_sees_references_outside_rng():
    package = {"rng": "def replica_rng(seed, index):\n    pass\nreplica_rng(0, 0)\n",
               "soup": "from .rng import replica_rng as keyed\nx = keyed(1, 2)\n",
               "fields": "from . import rng\ny = rng.replica_rng(1, 2)\n"
                         "z = rng.replica_blocks(3, 4)\nNAMES = ('replica_rng',)\n",
               "cli": "def f(g):\n    return g(replica_rng(0, 1))\n"}
    assert stream_keyers(package) == [("cli", 2), ("fields", 2), ("soup", 1)]


def test_only_rng_keys_streams():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert stream_keyers(package) == []


# The public surface of the lazy package, each name served from its submodule:
# the 99 names it exported when it imported every submodule eagerly, less the
# deleted complex_wick_moment, HomologyClass and ks_two_sample (checks 5 and 6
# read exact laws, not a second sample) and the one-draw field samplers
# sample_real_fields and sample_complex_fields (now in tests/oracles.py).
PUBLIC = [
    'BLOCK', 'BadChi', 'BadExactInput', 'BadForm', 'BadGraph', 'BadGrid', 'BadIntensity',
    'BadMassBudget', 'BadPartition', 'BadReplicaCount', 'BadSamplerInput', 'BadSeed',
    'BadStoppingLevel', 'BadSupport', 'BadTailCut', 'BasedLoop', 'BudgetExceeded',
    'CONVENTIONS', 'ChainKernel', 'CycleBasis', 'Disconnected', 'DisconnectedSupport',
    'DuplicateIndex', 'EmptyBasis', 'EmptyNetwork', 'GridTooCoarse', 'Histogram',
    'HomologyLaw', 'JacobianVolume', 'LoopBlock', 'LoopSoup',
    'LoopSoupError', 'MismatchBeyondTolerance', 'ModifierMatrix', 'Network',
    'NetworkLawEntry', 'NonIntegral', 'NonTransient', 'NotEulerian', 'NotSquare',
    'SingularTwist', 'StatLine', 'TailTooHeavy', 'TestReport', 'TooLarge', 'UnknownSampler',
    'WeightedGraph', 'ZeroNetwork', 'alpha_permanent', 'arborescence_count',
    'best_tour_count', 'build_kernel', 'cycle_basis', 'direct_block',
    'direct_sample', 'enumerate_eulerian', 'errors', 'eulerian', 'exact',
    'exact_network_prob_alpha', 'exact_network_prob_alpha1', 'fields',
    'generating_function', 'graphs', 'homology', 'homology_distribution',
    'homology_distribution_auto', 'intersection_matrix', 'jacobian_volume', 'jump_matrix',
    'max_flow', 'mu_network_measure', 'network', 'network_histogram',
    'network_homology_class', 'occupation', 'occupation_samples', 'permanent',
    'ray_knight_check', 'replica_map', 'replica_rng', 'reports', 'rng', 'run_all',
    'sample_excursion_field', 'soup',
    'spanning_tree_weight_sum', 'verify', 'verify_det_identity', 'verify_isomorphism',
    'verify_moment_formula', 'verify_poisson_convolution', 'wilson_counts', 'wilson_sample',
]


def test_public_names_are_pinned():
    assert loopsoup.__all__ == PUBLIC and len(PUBLIC) == 94


def test_every_public_name_is_its_submodules_object():
    for name in PUBLIC:
        module = loopsoup._MODULE_OF[name]
        sub = importlib.import_module(f"loopsoup.{module}")
        assert getattr(loopsoup, name) is (sub if name == module else getattr(sub, name))
    assert loopsoup.CONVENTIONS is loopsoup.fields.CONVENTIONS is loopsoup.verify.CONVENTIONS


def test_dir_and_unknown_names():
    assert "__all__" in dir(loopsoup) and set(PUBLIC) <= set(dir(loopsoup))
    with pytest.raises(AttributeError, match="no_such_name"):
        loopsoup.no_such_name


def test_re_exports_follow_their_submodule(monkeypatch):
    original = loopsoup.graphs.build_kernel

    def f(graph):
        return original(graph)

    with monkeypatch.context() as patch:
        patch.setattr(loopsoup.graphs, "build_kernel", f)
        assert loopsoup.build_kernel is f
        assert "build_kernel" not in vars(loopsoup)  # served, never cached
    assert loopsoup.build_kernel is original
