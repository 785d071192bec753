"""The benchmark's tracer wraps fairfront callables by name, so renaming or
moving one breaks every traced benchmark run.  This check fails first."""

import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    targets = load_tracer()._targets()
    assert targets
    missing = []
    for owner, attr, _, _ in targets:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []
