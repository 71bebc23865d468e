"""The benchmark's traced spans name functions that exist in dioph.

perfbench/tracing.py wraps each (module, attribute) of its SPANS list by
name; a deleted or renamed target would only surface when a traced
benchmark run crashes, so it is checked here.
"""

import importlib
import importlib.util
import operator
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span, module, attribute", load_spans())
def test_span_target_resolves(span, module, attribute):
    target = operator.attrgetter(attribute)(importlib.import_module(module))
    assert callable(target), span
