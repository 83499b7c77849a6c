"""Tooling guard: every function the benchmark's tracer wraps still exists,
and a traced search still runs.

`perfbench/trace_request.py` wraps the functions named in its SPANS, TIMED
and COUNTED lists, and silently records 0 for a name it cannot find; a
function moved or renamed in cayspec would make its layer metric read 0.
It also reads what some of them return (`classify(...).bundle_count`), so a
changed result would fail only the benchmark's traced run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_REQUEST = ROOT / "perfbench" / "trace_request.py"


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


def test_traced_search_counts_every_candidate(tmp_path):
    # D6 has 5 class bundles, so cap-2 multisets give 3^5 - 1 candidates.
    spans_path = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(TRACE_REQUEST), str(spans_path),
         "search", "--group", "dihedral:6", "--multisets", "2"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "search.count = 242\n" in done.stdout
    trace = json.loads(spans_path.read_text())
    assert trace["calls"]["search._classify_one"][0] == 242
    assert trace["sizes"]["candidates"] == 242
    classify = [span for span in trace["spans"] if span[0] == "search.classify"]
    assert [span[5] for span in classify] == [{"bundles": 5}]
