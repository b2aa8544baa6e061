#!/usr/bin/env python3
"""Run the full check battery against every builtin model and print a grid.

Handy smoke test after touching the enumeration or tower code:

    python3 scripts/verify_builtins.py
    python3 scripts/verify_builtins.py --cutoff 12 example3 braid3
"""
import argparse
import sys
import time

from skewgrowth.checks import run_all_checks
from skewgrowth.dirichlet import parse_key
from skewgrowth.errors import SkewGrowthError
from skewgrowth.presets import builtin

DEFAULTS = [
    ("free:2", lambda: builtin("free", count=2)),
    ("example3", lambda: builtin("example3")),
    ("braid3", lambda: builtin("braid3")),
    ("zpos:60", lambda: builtin("zpos", nmax=60)),
    ("mp:4,8,16", lambda: builtin("mp", p=[4, 8, 16])),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("presets", nargs="*",
                        help="preset strings, e.g. example3 or mp:p=4,8")
    parser.add_argument("--cutoff", help="override the model default cutoff")
    args = parser.parse_args(argv)

    if args.presets:
        from skewgrowth.presets import parse_preset
        models = [(text, lambda t=text: parse_preset(t)) for text in args.presets]
    else:
        models = DEFAULTS

    width = max(len(name) for name, _ in models)
    failures = 0
    try:
        for name, make in models:
            model = make()
            cutoff = model.default_cutoff
            if args.cutoff is not None:
                cutoff = parse_key(model.key_kind, args.cutoff)
            started = time.perf_counter()
            table = model.enumerate_up_to(cutoff)
            reports = run_all_checks(table)
            elapsed = time.perf_counter() - started
            cells = "  ".join(f"{r.name}={r.status}" for r in reports)
            print(f"{name:<{width}}  cutoff={cutoff}  {cells}  ({elapsed:.2f}s)")
            failures += sum(1 for r in reports if not r.ok)
    except SkewGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
