"""Every name a module exports in __all__ exists in it.

``from module import *`` is the only import that reads __all__, so a name
left there after its definition is deleted fails nowhere else.
"""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["dioph.numerics", "dioph.bounds", "dioph.pgn", "dioph.suites", "dioph.cli"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
