"""Measuring child: one fresh interpreter per set-up sample or measured run.

    python3 perfbench/worker.py '<job as JSON>'

run.py starts it.  The job names the warm-up inputs (smoke scale), the
measured inputs (absent for a set-up sample), the run length and whether to
trace.  The worker

1. imports skewgrowth and verifies every warm-up input through the CLI; the
   time from the import to here is one set-up sample;
2. repeats one complete verify of the measured inputs through
   ``skewgrowth.cli.main`` in a closed loop for the run length;
3. untraced, runs the calibration kernel before each verify, then builds P
   and N of each input once and checks them against the oracles; traced, it
   runs a staged pass (see ``staged_pass``) before each verify instead,
   which also checks P and N.

Every verdict is compared byte for byte with the captured reference, and a
crash, a non-zero exit or a mismatch counts as a failed attempt.  The last
line of stdout is a JSON record of the raw samples.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

from oracles import mobius_upto, naive_product, series_problems
from workloads import ModelInput

ROOT = Path(__file__).resolve().parents[1]
MIN_SAMPLES = 3
clock = time.perf_counter


class Tally:
    """Attempted and failed operations, judged against the reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def verdict(self, inp: ModelInput, rc: int, text: str) -> None:
        expected = self.reference.get(inp.key)
        if expected is None:
            problem = "has no reference verdict"
        elif text != expected:
            problem = "differs from the reference verdict"
        else:
            problem = f"exited {rc}"
        self.check(rc == 0 and text == expected, f"verify {inp.key} {problem}")

    def guarded(self, what: str, fn, *args):
        """fn(*args), or None after counting a crash as a failed attempt."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what} raised")
            return None


def maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cli_verify(inp: ModelInput, workdir: Path) -> tuple[int, str]:
    """The user path: `skewgrowth verify ... --format json`, stdout captured."""
    from skewgrowth.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(inp.argv(workdir))
    return rc, out.getvalue()


def verify_sample(inputs, workdir, tally) -> float:
    """Wall time of one complete verify of every input."""
    total = 0.0
    for inp in inputs:
        start = clock()
        result = tally.guarded(f"verify {inp.key}", cli_verify, inp, workdir)
        total += clock() - start
        if result is not None:
            tally.verdict(inp, *result)
    return total


# ------------------------------------------------------------- staged pass

STAGES = (
    "models.enumerate", "models.atoms", "divisibility.poset", "towers.enumerate",
    "checks.cancellativity", "checks.inversion", "checks.recursion",
    "checks.lcm_reduction",
)
PROBES = ("towers.skew", "dirichlet.series_mul", "dirichlet.series_invert")


def timed_into(spans: dict, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), its wall time added to spans[name]."""
    start = clock()
    out = fn(*args, **kwargs)
    spans[name] = spans.get(name, 0.0) + clock() - start
    return out


def build_model(inp: ModelInput, workdir: Path):
    """The model and cutoff the CLI would build for *inp*."""
    from skewgrowth import KeyKind, RewriteModel, parse_presentation, parse_preset

    if inp.preset is not None:
        model = parse_preset(inp.preset)
    else:
        path = inp.path(workdir)
        model = RewriteModel(parse_presentation(path.read_text(encoding="utf-8")),
                             name=path.stem)
    if inp.max_degree is None:
        return model, model.default_cutoff
    if model.key_kind is KeyKind.MULTINT:
        return model, int(inp.max_degree)
    return model, Fraction(inp.max_degree)


def stages(inp: ModelInput, workdir: Path, spans: dict):
    """verify's work split at its layer boundaries, in pipeline order, each
    call timed into *spans*.  Returns the verdict text as the CLI renders it,
    the objects the probes need, and the growth of peak RSS in enumeration."""
    from skewgrowth import (
        check_cancellative,
        check_inversion,
        check_lcm_reduction,
        check_recursion,
        enumerate_towers,
    )
    from skewgrowth.dirichlet import render_key

    timed = functools.partial(timed_into, spans)
    model, cutoff = build_model(inp, workdir)
    rss_before = maxrss_kib()
    table = timed("models.enumerate", model.enumerate_up_to, cutoff)
    rss_growth = maxrss_kib() - rss_before
    timed("models.atoms", table.atoms)
    poset = timed("divisibility.poset", table.poset)
    forest = timed("towers.enumerate", enumerate_towers, table, poset=poset)
    cancel = timed("checks.cancellativity", check_cancellative, table)
    reports = [
        cancel,
        timed("checks.inversion", check_inversion, table, forest=forest,
              cancellativity=cancel),
        timed("checks.recursion", check_recursion, table, forest=forest),
        timed("checks.lcm_reduction", check_lcm_reduction, table, poset=poset,
              forest=forest),
    ]
    failed = any(not r.ok for r in reports)
    payload = {
        "model": model.name,
        "cutoff": render_key(table.key_kind, table.cutoff),
        "overall": "fail" if failed else "pass",
        "checks": [r.to_json() for r in reports],
    }
    return json.dumps(payload, indent=2) + "\n", table, poset, forest, rss_growth


def probes(table, forest, spans: dict):
    """The series kernels inside checks.inversion, each timed alone on the
    built P and N.  Returns (P, N)."""
    from skewgrowth import growth_series, series_invert, series_mul, skew_growth

    skew = timed_into(spans, "towers.skew", skew_growth, table, forest=forest)
    growth = growth_series(table)
    timed_into(spans, "dirichlet.series_mul", series_mul, growth, skew)
    timed_into(spans, "dirichlet.series_invert", series_invert, growth)
    return growth, skew


def check_series(inp: ModelInput, table, growth, skew, tally) -> None:
    from skewgrowth.dirichlet import KeyKind

    problems = series_problems(dict(growth.terms), dict(skew.terms), table.cutoff,
                               table.key_kind is KeyKind.MULTINT, inp.oracle)
    tally.check(not problems, f"series of {inp.key}: {'; '.join(problems)}")


def series_pass(inp: ModelInput, workdir, tally) -> None:
    """Build P and N of *inp* through the library and check them."""
    from skewgrowth import growth_series, skew_growth

    model, cutoff = build_model(inp, workdir)
    table = model.enumerate_up_to(cutoff)
    check_series(inp, table, growth_series(table), skew_growth(table), tally)


def staged_pass(inputs, workdir, tally) -> dict:
    """One traced pass over every input: spans, size counters and sizes.
    ``trace.total`` is the wall time of the stages and the glue between
    them; the probes run after it."""
    from skewgrowth.dirichlet import render_key

    spans: dict = {"trace.total": 0.0}
    counts: Counter = Counter()
    sizes: dict = {}
    for inp in inputs:
        start = clock()
        out = tally.guarded(f"staged pass over {inp.key}", stages, inp, workdir, spans)
        spans["trace.total"] += clock() - start
        if out is None:
            continue
        verdict, table, poset, forest, rss_growth = out
        tally.verdict(inp, 0, verdict)
        growth, skew = probes(table, forest, spans)
        check_series(inp, table, growth, skew, tally)
        heights = Counter(tower.height for tower in forest.towers)
        poset_bytes = sum((mask.bit_length() + 7) // 8
                          for mask in poset.divisor_masks + poset.multiple_masks)
        counts["models.elements"] += table.n_elements
        counts["models.atoms"] += len(table.atoms())
        counts["models.enumerate_rss_kib"] += max(rss_growth, 0)
        counts["divisibility.poset_bytes"] += poset_bytes
        counts["dirichlet.growth_terms"] += len(growth.terms)
        counts["dirichlet.skew_terms"] += len(skew.terms)
        counts["towers.count"] += len(forest.towers)
        counts["towers.max_height"] = max(counts["towers.max_height"], max(heights))
        sizes[inp.key] = {
            "elements_per_degree": [
                [render_key(table.key_kind, d), len(table.elements_of_degree(d))]
                for d in table.realized_degrees()
            ],
            "towers_per_height": dict(sorted(heights.items())),
            "poset_bytes": poset_bytes,
        }
    spans["trace.spanned"] = sum(spans[name] for name in STAGES if name in spans)
    return {"spans": spans, "counts": dict(counts), "sizes": sizes}


# ------------------------------------------------------------- calibration

CALIBRATION_SHARE = 0.25      # of the previous verify's time
CALIBRATION_MIN_REPEATS = 4


def calibration_kernel() -> None:
    """Fixed pure-Python work like the program's hot loops: dict lookups,
    int products and Fraction sums.  It never changes, so its time measures
    how fast the machine runs Python at the moment."""
    mu = mobius_upto(20000)
    ints = {n: mu[n] for n in range(1, 1500) if mu[n]}
    naive_product(ints, ints, 1500, True)
    fracs = {Fraction(n, 8): n for n in range(1, 120)}
    naive_product(fracs, fracs, Fraction(15), False)


def calibration_sample(seconds: float) -> list[float]:
    """Times of kernel runs for at least *seconds* (and at least
    CALIBRATION_MIN_REPEATS runs), with the collector off so that the
    program's heap cannot slow the yardstick."""
    times: list[float] = []
    gc.disable()
    try:
        while len(times) < CALIBRATION_MIN_REPEATS or sum(times) < seconds:
            start = clock()
            calibration_kernel()
            times.append(clock() - start)
    finally:
        gc.enable()
    return times


# ------------------------------------------------------------------- loop

def repeat(seconds: float, step) -> list:
    """Closed loop: call *step* until the next call would probably overrun
    *seconds*, and at least MIN_SAMPLES times."""
    results, walls = [], []
    start = clock()
    while len(results) < MIN_SAMPLES or clock() - start + statistics.median(walls) <= seconds:
        gc.collect()
        began = clock()
        results.append(step())
        walls.append(clock() - began)
    return results


def run(job: dict) -> dict:
    reference = json.loads(Path(job["reference"]).read_text(encoding="utf-8"))
    tally = Tally(reference)
    workdir = Path(job["workdir"])
    warm = [ModelInput(**spec) for spec in job["warm"]]
    sys.path.insert(0, str(ROOT / "src"))

    start = clock()
    import skewgrowth.cli  # noqa: F401  (the import is part of set-up)
    verify_sample(warm, workdir, tally)
    record: dict = {"setup_s": clock() - start}

    if job["full"] is not None:
        full = [ModelInput(**spec) for spec in job["full"]]
        if job["trace"]:
            # the staged pass goes first, so that the first one sees the
            # enumeration raise the peak RSS
            pairs = repeat(job["seconds"], lambda: (
                staged_pass(full, workdir, tally),
                verify_sample(full, workdir, tally),
            ))
            record["passes"] = [p["spans"] for p, _ in pairs]
            record["counts"] = pairs[0][0]["counts"]
            record["sizes"] = pairs[0][0]["sizes"]
            record["verify_s"] = [v for _, v in pairs]
        else:
            calibration: list[float] = []
            verify_times: list[float] = []

            def step():
                last = verify_times[-1] if verify_times else 0.0
                calibration.extend(calibration_sample(CALIBRATION_SHARE * last))
                verify_times.append(verify_sample(full, workdir, tally))

            repeat(job["seconds"], step)
            record["calibration_s"] = calibration
            record["verify_s"] = verify_times
            record["peak_rss_kib"] = maxrss_kib()
            for inp in full:
                tally.guarded(f"series of {inp.key}", series_pass, inp, workdir, tally)
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
