"""The benchmark traces library functions by name (``benchmarks/tracing.py``
``LAYERS``, ``"<module>.<function>"``); each name must stay a callable of
the package, or the traced workloads lose that layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("layer", _layers())
def test_traced_layer_is_a_flatqed_callable(layer):
    mod_name, fn_name = layer.split(".")
    fn = getattr(importlib.import_module(f"flatqed.{mod_name}"), fn_name, None)
    assert callable(fn), f"flatqed.{layer} is not a callable"
