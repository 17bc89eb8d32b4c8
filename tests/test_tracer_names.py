"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a traced run breaks if any of those names is renamed or deleted."""

import ast
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, attr: str) -> bool:
    """Look the name up as the tracer does: a module attribute, or the class
    __dict__ entry of a method."""
    mod = importlib.import_module(f"loopsoup.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, attr, None))


def test_every_traced_name_resolves():
    spans = _spans_module()
    names = [(module, attr) for module, attr, *_ in spans.TARGETS + spans.COUNTED]
    assert len(names) > 30
    assert [name for name in names if not _resolves(*name)] == []


# Names that exist only because the tracer binds them: nothing in the package
# calls them.  Once the tracer drops a binding, the name can be deleted.
KEPT_FOR_TRACER = [("graphs", "ChainKernel.walk_step"), ("fields", "sample_excursion_field"),
                   ("exact", "arborescence_count"), ("rng", "replica_map")]
PACKAGE = SPANS.parent.parent / "src" / "loopsoup"


def _reads_outside_definition(name: str) -> list:
    """(file, line) of every Name or Attribute reading `name` in the package,
    leaving out the body of the function that defines it."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {id(node) for d in ast.walk(tree)
               if isinstance(d, ast.FunctionDef) and d.name == name for node in ast.walk(d)}
        reads += [(path.name, node.lineno) for node in ast.walk(tree)
                  if id(node) not in own
                  and (isinstance(node, ast.Name) and node.id == name
                       or isinstance(node, ast.Attribute) and node.attr == name)]
    return reads


def test_names_kept_for_the_tracer_are_read_nowhere_else():
    for _, attr in KEPT_FOR_TRACER:
        assert _reads_outside_definition(attr.split(".")[-1]) == [], attr


def test_the_tracer_still_binds_the_names_kept_for_it():
    # when this fails, the named binding is gone: delete the name from the
    # package and from KEPT_FOR_TRACER
    spans = _spans_module()
    bound = {(module, attr) for module, attr, *_ in spans.TARGETS + spans.COUNTED}
    assert [name for name in KEPT_FOR_TRACER if name not in bound] == []
    assert all(_resolves(*name) for name in KEPT_FOR_TRACER)
