#!/usr/bin/env python3
"""Benchmark of `skewgrowth verify`, end to end and stage by stage.

    python3 perfbench/run.py --workload zpos --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports skewgrowth from src/.
Workloads and their inputs are in workloads.py; --seed 0 gives the inputs
named there and any other seed a neighbour of the same shape.

--trace 0 reports the end-to-end metrics.  Each comes from fresh worker
processes (worker.py), one client in a closed loop, no threads:

    verify_s     median wall time of one complete verify of the workload's
                 models through skewgrowth.cli.main, after imports and
                 warm-up, at a nominal machine speed: before each verify a
                 fixed calibration kernel (worker.py) runs for a quarter of
                 the previous verify's time, and the median is scaled by
                 CALIBRATION_NOMINAL_S / the kernel's median time.
                 A shared machine's speed drifts by tens of percent over
                 minutes, and this keeps runs made at different moments
                 comparable.  The raw samples and the kernel's times are in
                 the details line.
    peak_rss_mb  peak RSS (ru_maxrss) of the measuring worker
    setup_s      median over three fresh interpreters of the time to import
                 skewgrowth and verify the workload's models at tiny cutoffs

--trace 1 reports the per-layer metrics: a staged pass calls each layer's
public function in pipeline order and times it, alternating with untraced
verifies so that trace.overhead_s (staged pass minus verify) is measured in
the same process.  trace.unspanned_s is the part of the staged pass outside
every stage span.

Every verdict is compared with reference.json and every P and N with the
oracles in oracles.py; the failure rate is failed / attempted in the result.
--smoke runs the same workloads at tiny cutoffs.  stdout carries a line with
the environment, a line with details (inputs, samples, sizes), and last the
result record.  Exit status is 0 when a result was printed, 2 otherwise.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import PROBES, STAGES
from workloads import WORKLOADS, model_inputs, variant_for_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_WORKERS = 2        # plus the measuring worker: three set-up samples
DEADLINE_S = 170.0       # every worker of one run ends within this
# verify_s is reported at the machine speed where the worker's calibration
# kernel takes this long (about its median on a quiet 2-core x86 VM).
CALIBRATION_NOMINAL_S = 0.1

END_TO_END = {"verify_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    **{f"{name}_s": "s" for name in STAGES + PROBES},
    "models.elements": "count",
    "models.atoms": "count",
    "models.enumerate_rss_mb": "MiB",
    "divisibility.poset_bytes": "bytes",
    "dirichlet.growth_terms": "count",
    "dirichlet.skew_terms": "count",
    "towers.count": "count",
    "towers.max_height": "count",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}


class BenchError(RuntimeError):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(lines[-1])
    if record["failed"]:
        sys.stderr.write(proc.stderr[-4000:])
    return record


def end_to_end(main: dict, setups: list[float]) -> dict:
    speed = CALIBRATION_NOMINAL_S / statistics.median(main["calibration_s"])
    return {
        "verify_s": statistics.median(main["verify_s"]) * speed,
        "peak_rss_mb": main["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(main: dict) -> dict:
    passes = main["passes"]
    out = {f"{name}_s": statistics.median(s.get(name, 0.0) for s in passes)
           for name in STAGES + PROBES}
    counts = dict(main["counts"])
    out["models.enumerate_rss_mb"] = counts.pop("models.enumerate_rss_kib", 0) / 1024
    out.update(counts)
    out["trace.overhead_s"] = (statistics.median(s["trace.total"] for s in passes)
                               - statistics.median(main["verify_s"]))
    out["trace.unspanned_s"] = statistics.median(
        s["trace.total"] - s["trace.spanned"] for s in passes)
    return out


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
    deadline = time.monotonic() + DEADLINE_S
    variant = variant_for_seed(seed)
    warm = model_inputs(workload, variant, smoke=True)
    full = warm if smoke else model_inputs(workload, variant, smoke=False)
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        for inp in warm + full:
            inp.write(workdir)
        job = {"reference": str(REFERENCE), "workdir": str(workdir),
               "warm": [inp.to_json() for inp in warm], "full": None,
               "seconds": seconds, "trace": trace}
        setup_runs = [run_worker(job, deadline) for _ in range(SETUP_WORKERS)]
        main = run_worker({**job, "full": [inp.to_json() for inp in full]}, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [r["setup_s"] for r in setup_runs] + [main["setup_s"]]
    attempted = main["attempted"] + sum(r["attempted"] for r in setup_runs)
    failed = main["failed"] + sum(r["failed"] for r in setup_runs)
    metrics = per_layer(main) if trace else end_to_end(main, setups)
    units = PER_LAYER if trace else END_TO_END
    details = {
        "workload": workload, "seed": seed, "variant": variant, "smoke": smoke,
        "inputs": [inp.key for inp in full],
        "verify_s_samples": main["verify_s"],
        "calibration_s_samples": main.get("calibration_s"),
        "setup_s_samples": setups,
        "failure_rate": failed / attempted,
    }
    if trace:
        details["sizes"] = main["sizes"]
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cutoffs, to check that the benchmark works")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewgrowth" / "__init__.py").is_file():
        print(f"error: no skewgrowth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
