"""The benchmark tracer's targets stay wrappable.

`ringbench/tracer.py` replaces each (module, qualified name) in its TARGETS
by a timing wrapper, and the harness matches each target to a cProfile row
by its code object.  So every name must resolve, where TARGETS places it, to
a plain function or classmethod defined there with a code object of its own.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "ringbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("ringbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_is_a_plain_function_with_its_own_code():
    targets = _targets()
    codes = set()
    for module_name, qualname in targets:
        module = importlib.import_module("ringinv." + module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            raw = vars(getattr(module, cls_name))[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            fn = getattr(module, qualname)
        assert isinstance(fn, types.FunctionType), (module_name, qualname)
        assert (fn.__module__, fn.__qualname__) == (module.__name__, qualname)
        codes.add(fn.__code__)
    assert len(codes) == len(targets)
