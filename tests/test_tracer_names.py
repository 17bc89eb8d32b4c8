"""The benchmark's tracer (perfbench/spans.py) wraps package functions by
name; a traced run breaks if any of those names is renamed or deleted."""

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
