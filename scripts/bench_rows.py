#!/usr/bin/env python3
"""Time `skewgrowth verify` on a fixed matrix of inputs and write the rows
as one JSON file.

    python3 scripts/bench_rows.py --out BENCH_<n>.json
    python3 scripts/bench_rows.py --out rows.json example3@20 mp-twin@22

Each row runs `verify --format json` in a fresh interpreter, RUNS times,
and records every run's wall time, its peak RSS (``ru_maxrss`` from
``os.wait4``), its exit status and its `error:` line, if it printed one.
One more fresh interpreter then calls each layer in pipeline order and
times each stage: enumerate, atoms, towers, skew, cancellativity and
convolve.  Each stage is charged with the generator maps it builds: the
right maps fall to the towers stage when the poset's reverse pass reads
them, and else to the cancellativity probe, unless the presentation proves
the right side.  It runs that sequence STAGE_RUNS times, each on a freshly
built model and table, and records every sample, each stage's median and,
next to it, its lower and upper quartiles (inclusive method); the first
sample includes the cold first calls.  A stage that raises ends the row's
stages and is recorded with its error.  The source measured is the `src/`
of the checkout this script sits in.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# the presentation twin of mp:p=4,8,16, written to a file for `verify`.  A
# child's ru_maxrss starts at this process's peak (Linux carries it over at
# exec), so this process never imports skewgrowth: a child renders the file.
TWIN = "mp-twin"
TWIN_TEXT = ("from skewgrowth import MpSpec, family_presentation\n"
             "from skewgrowth.presentation import render_presentation\n"
             "print(render_presentation(family_presentation(MpSpec((4, 8, 16)))), end='')")

# <3, 4, 5>, the numerical semigroup, as presentation text: its tower forest
# grows about twentyfold per 10 degrees of cutoff, to 851,961 towers at 50
SEMIGROUP = "semigroup-3-4-5"
SEMIGROUP_TEXT = ("gen a : 3\ngen b : 4\ngen c : 5\n"
                  "rel a b = b a\nrel a c = c a\nrel b c = c b\n"
                  "rel b b = a c\nrel c c = a a b\nrel a a a = b c\n")

# (preset, cutoff): the verify rows of ROADMAP.md's baseline table whose
# inputs are in the repository, braid3@13 and the twin, which with
# example3@20 and free:2@12 are the presented inputs of perfbench/,
# zpos:1500, its zpos input, and <3, 4, 5> at 50
ROWS = [
    ("example3", "20"), ("braid3", "12"), ("mp:p=4,8,16", "40"), ("free:2", "12"),
    ("braid3", "13"), (TWIN, "22"), ("zpos:1500", "1500"), (SEMIGROUP, "50"),
    ("zpos:3000", "3000"), ("example3", "1000"), ("example3", "4000"),
    ("example3", "16000"), ("zpos:20000", "20000"), ("zpos:50000", "50000"),
    ("braid3", "20"), ("braid3", "21"), ("free:2", "16"), ("braid3", "24"),
    ("free:1", "60000000"),  # past the word cap: exit 2
]
RUNS = 2
STAGE_RUNS = 5
STAGES = ("enumerate", "atoms", "towers", "skew", "cancellativity", "convolve")


def _model(preset: str):
    from skewgrowth import (MpSpec, RewriteModel, family_presentation, parse_presentation,
                            parse_preset)

    if preset == TWIN:
        return RewriteModel(family_presentation(MpSpec((4, 8, 16))), name=TWIN)
    if preset == SEMIGROUP:
        return RewriteModel(parse_presentation(SEMIGROUP_TEXT), name=SEMIGROUP)
    return parse_preset(preset)


def stage_times(preset: str, cutoff: str) -> dict:
    """Each layer's time in pipeline order, in this process: the median and
    the quartiles of STAGE_RUNS samples per stage, and the samples."""
    samples = []
    for _ in range(STAGE_RUNS):
        gc.collect()  # the last sample's table, outside the timed steps
        times, outcome = _stage_sample(preset, cutoff)
        samples.append(times)
        if "stage_error" in outcome:
            break
    times = {name: [s[name] for s in samples if name in s] for name in samples[0]}
    medians = {name: statistics.median(t) for name, t in times.items()}
    quartiles = {name: _quartiles(t) for name, t in times.items()}
    return {"stage_s": medians, "stage_quartiles_s": quartiles, "stage_samples": samples,
            **outcome}


def _quartiles(values: list[float]) -> list[float]:
    """The lower and upper quartiles; one sample is both."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def _stage_sample(preset: str, cutoff: str) -> tuple[dict, dict]:
    """One pass over the stages on a freshly built model and table: the
    time of each stage, and the element count or the error that ended it."""
    import warnings

    from skewgrowth import SkewGrowthError, check_cancellative, enumerate_towers
    from skewgrowth.dirichlet import convolve_on_grid, parse_key
    from skewgrowth.towers import skew_on_grid

    warnings.simplefilter("ignore")  # the mp depth warning
    model = _model(preset)
    table = forest = skew = None
    steps = {
        "enumerate": lambda: model.enumerate_up_to(parse_key(model.key_kind, cutoff)),
        "atoms": lambda: table.atoms(),
        "towers": lambda: enumerate_towers(table),
        "skew": lambda: skew_on_grid(table, forest),
        "cancellativity": lambda: check_cancellative(table),
        "convolve": lambda: convolve_on_grid(table.grid, table.grid_counts().items(),
                                             skew.items()),
    }
    times = {}
    for name in STAGES:
        start = time.perf_counter()
        try:
            result = steps[name]()
        except (SkewGrowthError, MemoryError) as exc:
            return times, {"stage_error": f"{name}: {exc}"}
        times[name] = round(time.perf_counter() - start, 6)
        if name == "enumerate":
            table = result
        elif name == "towers":
            forest = result
        elif name == "skew":
            skew = result
    return times, {"elements": table.n_elements}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child_output(argv: list[str]) -> str:
    return subprocess.run([sys.executable, *argv], env=_child_env(), capture_output=True,
                          text=True, check=True).stdout


def run_verify(argv: list[str]) -> dict:
    """One fresh `verify` process: wall time, peak RSS, exit status and
    `error:` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "skewgrowth", "verify", *argv,
                             "--format", "json"], env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    return {"wall_s": round(wall, 4), "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode, "error": errors[0] if errors else None}


def bench_row(preset: str, cutoff: str, workdir: Path) -> dict:
    if preset in (TWIN, SEMIGROUP):
        path = workdir / f"{preset}.txt"
        text = _child_output(["-c", TWIN_TEXT]) if preset == TWIN else SEMIGROUP_TEXT
        path.write_text(text, encoding="utf-8")
        source, shown = ["--file", str(path)], ["--file", path.name]
    else:
        source = shown = ["--preset", preset]
    samples = [run_verify([*source, "--max-degree", cutoff]) for _ in range(RUNS)]
    staged = json.loads(_child_output([__file__, "--stages", preset, cutoff]))
    return {"row": f"{preset}@{cutoff}", "argv": ["verify", *shown, "--max-degree", cutoff],
            "best_wall_s": min(s["wall_s"] for s in samples), "runs": samples, **staged}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="*", metavar="PRESET@CUTOFF",
                        help="rows to run (default: all of ROWS)")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--stages", nargs=2, metavar=("PRESET", "CUTOFF"),
                        help="print one row's stage times as JSON and exit")
    args = parser.parse_args(argv)
    if args.stages:
        print(json.dumps(stage_times(*args.stages)))
        return 0
    if not args.out:
        parser.error("--out is required")
    rows = [tuple(row.rsplit("@", 1)) for row in args.rows] or ROWS
    if any(len(row) != 2 for row in rows):
        parser.error("a row is PRESET@CUTOFF")
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        for preset, cutoff in rows:
            result = bench_row(preset, cutoff, Path(workdir))
            results.append(result)
            status = result["runs"][0]["exit"]
            print(f"{result['row']:<22} exit {status}  best {result['best_wall_s']:.3f}s  "
                  f"peak {max(r['peak_rss_mib'] for r in result['runs']):.0f} MiB",
                  file=sys.stderr)
    payload = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "src_sha256": _src_digest(),
        "rows": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
