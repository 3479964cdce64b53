"""The benchmark's tracer wraps qfodc functions by name; every name it
lists must still resolve, or the traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [name for names in tracer.SPANNED.values() for name in names]
    return names + list(tracer.COUNTED)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    short, path = name.split(".", 1)
    mod = importlib.import_module(f"qfodc.{short}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, path))
