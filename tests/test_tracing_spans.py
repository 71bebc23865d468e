"""The benchmark's traced spans name functions that exist in dioph.

perfbench/tracing.py wraps each (module, attribute) of its SPANS list by
name; a deleted or renamed target would only surface when a traced
benchmark run crashes, so it is checked here.
"""

import importlib
import importlib.util
import operator
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span, module, attribute", load_spans())
def test_span_target_resolves(span, module, attribute):
    target = operator.attrgetter(attribute)(importlib.import_module(module))
    assert callable(target), span


# the imports of perfbench/run.py load_dioph, then Tracer.install, which
# reads sys.modules for every SPANS module: one that dioph and dioph.cli no
# longer import at start-up fails here, not in a traced benchmark run
INSTALL = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import dioph
import dioph.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
print(len(tracer.originals), len(tracing.SPANS))
"""


def test_tracer_installs_after_the_benchmark_imports():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(TRACING)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    wrapped, spans = proc.stdout.split()
    assert wrapped == spans
