"""The benchmark's tracer wraps brisq functions by module attribute name.

perfbench/tracing.py replaces each name in its TARGETS on brisq.cli and
brisq.pipeline with a timing wrapper and files the span under
<module>.<function> of the wrapped function. A name that stops
resolving there, or a function that moves to a module the tracer does
not list, breaks `perfbench/run.py --trace 1` or leaves its spans at
zero. These tests pin that contract without editing the harness.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = [(module, attr) for module, attrs in tracing.TARGETS.items() for attr in attrs]


@pytest.mark.parametrize("module_name, attr", TARGETS)
def test_traced_name_resolves_to_a_listed_span(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr)
    assert callable(fn)
    assert tracing.span_name(fn) in tracing.SPANS


def test_every_span_is_reachable():
    spans = {tracing.span_name(getattr(importlib.import_module(module), attr))
             for module, attr in TARGETS}
    assert spans == set(tracing.SPANS)
