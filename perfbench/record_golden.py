"""Record golden.json: the machine-block sha256 of every default-seed request.

Usage, from the root of the checkout whose outputs are the reference:

    python3 perfbench/record_golden.py

Each request runs once.  Nothing is written unless every request exits 0 and
passes the benchmark's other output checks.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    golden, failed = {}, 0
    for workload in sorted(workloads.WORKLOADS):
        runner = run.Runner(workload, workloads.DEFAULT_SEED, trace=False)
        _, samples = runner.run_pass()
        runner.check(samples, golden={})
        for req, sample in zip(runner.requests, samples):
            if sample.problems:
                failed += 1
                print(f"{workload}/{req.rid}: {'; '.join(sample.problems)}", file=sys.stderr)
                continue
            golden[f"{workload}/{req.rid}"] = {
                "input": checks.input_digest(req.argv, req.files),
                "machine": checks.machine_digest(runner.outputs[(req.rid, sample.sha)]),
            }
    if failed:
        return 1
    checks.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} records to {checks.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
