"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
ENV = {"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def _inputs(workload, seed):
    return [(r.rid, r.argv, r.files) for r in workloads.generate(workload, seed)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    first, second = _inputs(workload, 7), _inputs(workload, 8)
    assert first != second
    seeded = [r for r in workloads.generate(workload, 7) if not r.rid.startswith(("shipped-", "probe-"))]
    other = {r.rid: r for r in workloads.generate(workload, 8)}
    assert any(r.argv != other[r.rid].argv or r.files != other[r.rid].files for r in seeded)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_default_seed_request_exits_0_and_passes_its_checks(workload, monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    runner = run.Runner(workload, workloads.DEFAULT_SEED, trace=False)
    _, samples = runner.run_pass()
    runner.check(samples, checks.load_golden())
    assert [(s.rid, s.code, s.problems) for s in samples if s.code or s.problems] == []


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0.0, None],
        ["a", 1.0, 4.0, 0, 0.5, None],  # 0.5 s of summed frequent calls
        ["b", 3.0, 6.0, 0, 0.0, None],  # overlaps a: the union counts once
        ["a.child", 2.0, 3.0, 1, 0.0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 3.0, 1.0])


def _report(*argv):
    proc = subprocess.run([sys.executable, "-m", "cayspec.cli", *argv], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, check=True)
    return proc.stdout


def _check(argv, stdout, golden):
    text = (ROOT / argv[1]).read_text()
    return checks.check_output(argv, {}, text, 0, stdout, golden)


def test_checker_rejects_a_tampered_machine_block():
    argv = ["degree", "instances/d5_s1.txt"]
    stdout = _report(*argv)
    golden = {checks.input_digest(argv, {}): checks.machine_digest(stdout)}
    assert _check(argv, stdout, golden) == []
    tampered = stdout.replace("group.order = 10", "group.order = 10 ")
    assert _check(argv, tampered, golden) == ["machine block differs from the golden record"]


def test_checker_rejects_a_perturbed_eigenvalue():
    argv = ["spectrum", "instances/d8_alpha.txt"]
    stdout = _report(*argv)
    assert _check(argv, stdout, {}) == []
    _, block = checks.machine_block(stdout)
    value = block["spectrum.exact.2.embedding"]
    perturbed = stdout.replace(
        f"spectrum.exact.2.embedding = {value}",
        f"spectrum.exact.2.embedding = {float(value) + 1e-4:.10g}",
    )
    assert _check(argv, perturbed, {}) == ["exact spectrum differs from numpy eigvalsh"]


def test_traced_counts_repeat_exactly(tmp_path):
    def traced():
        out = tmp_path / "spans.json"
        subprocess.run([sys.executable, str(HERE / "trace_request.py"), str(out),
                        "degree", "instances/d8_alpha.txt"], cwd=ROOT, env=ENV,
                       capture_output=True, check=True)
        return spans.layer_metrics([json.loads(out.read_text())])

    first, second = traced(), traced()
    exact = [name for name in first if not name.endswith(("_s", "_us"))]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["exactnum.cyclotomic_new"] > 0 and first["groups.power_calls"] > 0
