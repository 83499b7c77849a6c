"""The cayspec benchmark: CLI requests as a user runs them.

Usage, from the root of a cayspec checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every request is `python -m cayspec.cli ...` in a fresh process, so no cache
survives from one request to the next.  Load is a closed loop with one
client: the next request starts when the previous one has exited.  A run
repeats the workload's pass (its seeded request list, see workloads.py)
while another pass still fits in S seconds, checks every output (checks.py),
prints each metric by name with its unit, and ends with one JSON line.

With --trace 0 the JSON holds the end-to-end metrics.  With --trace 1 the run
makes one untraced pass and one pass through trace_request.py, and the JSON
holds the per-layer metrics of the traced pass (spans.py).  Files go to
.perfbench/ in the checkout; the last result is .perfbench/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
REQUEST_TIMEOUT_S = 30
SETUP_RUNS = 7
END_TO_END = {  # name -> unit; the metrics of a --trace 0 run
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "throughput_rps": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    rid: str
    wall: float
    cpu: float
    rss_mb: float
    code: int
    sha: str = ""
    problems: list = field(default_factory=list)
    trace: Optional[dict] = None


def spawn(argv, env, stdout_path) -> tuple[float, float, float, int]:
    """Run argv to completion: wall s, user+sys s, max RSS MB, exit code (-9 on timeout)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


class Runner:
    """One run's requests, their instance files under .perfbench/, and their outputs."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        self.requests = workloads.generate(workload, seed)
        for req in self.requests:
            for name, text in req.files.items():
                (self.work / name).write_text(text)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.outputs = {}  # (rid, sha) -> stdout text, checked once each

    def argv(self, req: workloads.Request) -> list[str]:
        return [str(self.work / a) if a in req.files else a for a in req.argv]

    def run_pass(self, traced: bool = False) -> tuple[float, list[Sample]]:
        samples = []
        start = time.perf_counter()
        for req in self.requests:
            out = self.work / "out" / req.rid
            if traced:
                prefix = [sys.executable, str(HERE / "trace_request.py"), str(out) + ".spans"]
            else:
                prefix = [sys.executable, "-m", "cayspec.cli"]
            sample = Sample(req.rid, *spawn(prefix + self.argv(req), self.env, out))
            text = out.read_bytes()
            sample.sha = hashlib.sha256(text).hexdigest()
            self.outputs.setdefault((req.rid, sample.sha), text.decode(errors="replace"))
            if traced and sample.code == 0:
                sample.trace = json.loads(Path(str(out) + ".spans").read_text())
            samples.append(sample)
        return time.perf_counter() - start, samples

    def check(self, samples: list[Sample], golden: dict) -> None:
        """Set each sample's problems; `golden` maps input digests to machine-block sha256."""
        by_rid = {req.rid: req for req in self.requests}
        verdicts = {}
        for sample in samples:
            req = by_rid[sample.rid]
            key = (sample.rid, sample.sha, sample.code)
            if key not in verdicts:
                instance = next((a for a in req.argv if a.endswith(".txt")), None)
                text = None
                if instance is not None:
                    text = req.files.get(instance) or (ROOT / instance).read_text()
                verdicts[key] = checks.check_output(
                    req.argv, req.files, text, sample.code,
                    self.outputs[(sample.rid, sample.sha)], golden,
                )
            sample.problems = list(verdicts[key])
            if sample.trace is not None and sum(spans.self_times(sample.trace["spans"])) > sample.wall:
                sample.problems.append("self times sum to more than the request's wall time")


def calibrate() -> float:
    """Median time of a fixed pure-Python Fraction loop: host speed, not cayspec."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 30000):
            acc += Fraction(k % 7 - 3, k)
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_time(runner: Runner, runs: int = SETUP_RUNS) -> float:
    """Median wall time of a cold interpreter importing cayspec.cli."""
    argv = [sys.executable, "-c", "import cayspec.cli"]
    out = runner.work / "out" / "setup"
    return statistics.median(spawn(argv, runner.env, out)[0] for _ in range(runs))


def end_to_end(passes, setup_s) -> dict:
    samples = [s for _, batch in passes for s in batch]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for wall, _ in passes),
        "latency_p50_s": statistics.median(s.wall for s in samples),
        "throughput_rps": len(samples) / sum(wall for wall, _ in passes),
        "cpu_s": statistics.median(sum(s.cpu for s in batch) for _, batch in passes),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }


def reported_extras(workload, runner, passes) -> dict:
    """Metrics printed for reading but not gated: they do not exist on every workload."""
    samples = [s for _, batch in passes for s in batch]
    out = {"samples": len(samples)}
    walls = sorted(s.wall for s in samples)
    p90_rank = math.ceil(0.9 * len(walls))
    if len(walls) - p90_rank >= 10:
        out["latency_p90_s"] = walls[p90_rank - 1]
    if workload.startswith("search"):
        candidates = {r.rid: r.candidates for r in runner.requests}
        searched = [s for s in samples if candidates[s.rid]]
        out["candidates_per_s"] = sum(candidates[s.rid] for s in searched) / sum(s.wall for s in searched)
    out["failed_frac"] = sum(bool(s.problems) for s in samples) / len(samples)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cayspec" / "cli.py").is_file() or not (ROOT / "instances").is_dir():
        print(f"error: {ROOT} is not the root of a cayspec checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, bool(args.trace))
    setup_time(runner, runs=1)  # warm-up: byte-compiles the package on a fresh checkout
    diagnostics = {"calibration_before_s": calibrate()}
    if args.trace:
        passes = [runner.run_pass(), runner.run_pass(traced=True)]
    else:
        setup_s = setup_time(runner)
        start = time.perf_counter()
        passes = [runner.run_pass()]
        while time.perf_counter() - start + passes[-1][0] <= args.seconds:
            passes.append(runner.run_pass())
    diagnostics["calibration_after_s"] = calibrate()
    samples = [s for _, batch in passes for s in batch]
    runner.check(samples, checks.load_golden())

    if args.trace:
        untraced, traced = passes
        metrics = spans.layer_metrics([s.trace for s in traced[1] if s.trace])
        units = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
        diagnostics["tracing_overhead_s"] = traced[0] - untraced[0]
        diagnostics["untraced_pass_s"] = untraced[0]
        extras = {"sizes": {s.rid: s.trace["sizes"] for s in traced[1] if s.trace}}
    else:
        metrics = end_to_end(passes, setup_s)
        units = END_TO_END
        extras = reported_extras(args.workload, runner, passes)

    failed = [s for s in samples if s.problems]
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {
            name: {"value": round(metrics[name]) if unit in ("count", "bytes") else metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    detail = dict(result, workload=args.workload, seed=args.seed, passes=len(passes),
                  reported=extras, diagnostics=diagnostics,
                  samples=[[s.rid, s.wall, s.cpu, s.rss_mb, s.code, s.problems] for s in samples])
    (runner.work / "result.json").write_text(json.dumps(detail, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests {len(samples)}  failed {len(failed)}")
    for s in failed[:10]:
        print(f"  FAILED {s.rid}: {'; '.join(s.problems)}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for name, value in extras.items():
        if name != "sizes":
            print(f"  {name:36s} {value:14.6g}  (reported, not gated)")
    for rid, size in extras.get("sizes", {}).items():
        print(f"  size {rid:32s} " + " ".join(f"{k}={v}" for k, v in size.items()))
    for name, value in diagnostics.items():
        print(f"  {name:36s} {value:14.6g} s  (diagnostic)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
