"""The benchmark's tracer patches the package by name: every name it lists
must be bound where it patches it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def tracer_tables():
    """The (module, attribute, span name) rows of the tracer's SPANNED and
    TALLIED tables, read from the file the benchmark runs."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED + module.TALLIED


def test_every_traced_name_is_bound():
    # an unbound name fails only the benchmark's traced run otherwise
    rows = tracer_tables()
    assert rows
    unbound = []
    for module, attr, _ in rows:
        owner = importlib.import_module(f"reanalyze.{module}")
        for part in attr.split("."):  # "Class.method" names a class attribute
            owner = getattr(owner, part, None)
        if not callable(owner):
            unbound.append(f"reanalyze.{module}.{attr}")
    assert not unbound, unbound
