#!/usr/bin/env python3
"""Write reference.json: the verdict `skewgrowth verify --format json` prints
for every input of every workload variant, at both scales.

    python3 perfbench/capture_reference.py

The benchmark compares each verdict it sees with these, byte for byte, so
re-capture only when a change to the verdict text is intended.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import cli_verify
from workloads import VARIANTS, WORKLOADS, model_inputs

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    reference: dict = {}
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as workdir:
        for workload in WORKLOADS:
            for variant in range(VARIANTS):
                for smoke in (True, False):
                    for inp in model_inputs(workload, variant, smoke):
                        if inp.key in reference:
                            continue
                        inp.write(workdir)
                        rc, text = cli_verify(inp, Path(workdir))
                        if rc != 0:
                            print(f"error: {inp.key} exits {rc}", file=sys.stderr)
                            return 1
                        reference[inp.key] = text
                        print(inp.key, file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
