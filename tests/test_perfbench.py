"""The benchmark's tracer names osora functions by string; a rename would silently drop their spans."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("span", LAYERS, ids=LAYERS)
def test_traced_layer_resolves(span):
    module, function = LAYERS[span]
    assert module.split(".")[0] == "osora"
    assert callable(getattr(importlib.import_module(module), function, None))
