#!/usr/bin/env python3
"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--smoke]

Runs run.py once per workload with --trace 0 (end-to-end metrics) and once
with --trace 1 (per-layer metrics), and adds failure_rate: failed over
attempted operations of both runs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    status = 0
    environment = None
    for workload in WORKLOADS:
        attempted = failed = 0
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)] + (["--smoke"] if args.smoke else []),
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload}: run.py --trace {trace} exited {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            environment = environment or json.loads(lines[0])["environment"]
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload:12} {name:28} {metric['value']:<22.6g} {metric['unit']}")
        if attempted:
            print(f"{workload:12} {'failure_rate':28} {failed / attempted:<22.6g} share")
        status |= bool(failed)
    print(json.dumps({"environment": environment}))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
