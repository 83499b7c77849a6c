"""Tooling guard: every function the benchmark's tracer wraps still exists.

`perfbench/trace_request.py` wraps the functions named in its SPANS, TIMED
and COUNTED lists, and silently records 0 for a name it cannot find; a
function moved or renamed in cayspec would make its layer metric read 0.
"""

import importlib
import importlib.util
from pathlib import Path

TRACE_REQUEST = Path(__file__).resolve().parent.parent / "perfbench" / "trace_request.py"


def load_trace_request():
    spec = importlib.util.spec_from_file_location("trace_request", TRACE_REQUEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, name: str):
    target = importlib.import_module(module)
    for attr in name.split("."):
        target = getattr(target, attr, None)
    return target


def test_traced_names_resolve():
    trace = load_trace_request()
    names = [
        (module, name)
        for _, module, names in trace.SPANS
        for name in ([names] if isinstance(names, str) else names)
    ]
    names += [(module, name) for _, module, name in trace.TIMED + trace.COUNTED]
    # main() reads the request sizes through these.
    names += [
        ("cayspec.exactnum", "euler_phi"),
        ("cayspec.groups", "conjugacy_classes"),
        ("cayspec.search", "class_bundles"),
    ]
    assert len(names) > 30
    missing = [f"{module}.{name}" for module, name in names if not callable(resolve(module, name))]
    assert missing == []
