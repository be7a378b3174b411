"""The traced benchmark run wraps each layer by module attribute
(``perfbench/tracing.py``'s ``LAYERS``) and calls ``getattr`` without a
default, so a name that a module stops exporting would crash the traced
run. Only the names are checked here; nothing is traced."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names, _, _ in module.LAYERS for name in names]


@pytest.mark.parametrize("mod_name, attr", _layers())
def test_layer_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr))
