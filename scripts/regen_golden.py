#!/usr/bin/env python3
"""Regenerate the CLI golden files under tests/golden/.

Each golden file records its command line in a leading '# argv:' comment;
the test suite re-runs that exact command and compares bytes.  Run this
after an intentional output-format change, then review the diff.  With
``--check`` it writes nothing: it lists each golden whose bytes would change
and exits 1 if any would, 0 if all are current.
"""
import argparse
import io
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

from skewgrowth.cli import main as cli_main

CASES = [
    ("growth_example3_table", "growth --preset example3 --max-degree 6"),
    ("growth_braid3_json", "growth --preset braid3 --max-degree 6 --format json"),
    ("growth_mp_table", "growth --preset mp:p=4,8,16:K=3"),
    ("skew_example3_table", "skew --preset example3 --max-degree 6"),
    ("skew_zpos30_table", "skew --preset zpos:30"),
    ("skew_mp_json", "skew --preset mp:p=4,8,16:K=3 --format json"),
    ("skew_free2_table", "skew --preset free:2 --max-degree 4"),
    ("towers_example3_table", "towers --preset example3 --max-degree 4"),
    ("towers_braid3_dot", "towers --preset braid3 --format dot"),
    ("towers_mp12_dot", "towers --preset mp:p=4,8,16:K=3 --max-degree 12 --format dot"),
    ("towers_zpos10_json", "towers --preset zpos:10 --format json"),
    ("atoms_mp_table", "atoms --preset mp:p=4,8,16:K=3"),
    ("atoms_zpos30_json", "atoms --preset zpos:30 --format json"),
    ("verify_braid3_json", "verify --preset braid3 --format json"),
    ("verify_example3_table", "verify --preset example3"),
    ("verify_zpos30_table", "verify --preset zpos:30"),
    ("cancel_check_example3", "cancel-check --preset example3"),
    # full command x model coverage
    ("growth_zpos30_table", "growth --preset zpos:30"),
    ("growth_free2_table", "growth --preset free:2 --max-degree 5"),
    ("skew_braid3_table", "skew --preset braid3"),
    ("towers_mp_table", "towers --preset mp:p=4,8,16:K=3"),
    ("towers_free2_table", "towers --preset free:2 --max-degree 5"),
    ("atoms_example3_table", "atoms --preset example3"),
    ("atoms_braid3_table", "atoms --preset braid3"),
    ("atoms_free2_table", "atoms --preset free:2 --max-degree 5"),
    ("verify_mp_table", "verify --preset mp:p=4,8,16:K=3"),
    ("verify_free2_table", "verify --preset free:2 --max-degree 5"),
    ("cancel_check_braid3", "cancel-check --preset braid3"),
    ("cancel_check_zpos30", "cancel-check --preset zpos:30"),
    ("cancel_check_mp", "cancel-check --preset mp:p=4,8,16:K=3"),
    ("cancel_check_free2", "cancel-check --preset free:2 --max-degree 5"),
    # custom grounds, one token spelling per model
    ("towers_mp_ground_table",
     "towers --preset mp:p=4,8,16:K=3 --max-degree 14 --ground 'a0^2,a1,a2'"),
    ("towers_zpos30_ground_json", "towers --preset zpos:30 --ground 4,6,9 --format json"),
    ("skew_example3_ground_table", "skew --preset example3 --max-degree 6 --ground 'aa,ab'"),
    # JSON shapes of their own: a check report, int series keys, "p/q" degrees
    ("cancel_check_example3_json", "cancel-check --preset example3 --format json"),
    ("growth_zpos30_json", "growth --preset zpos:30 --format json"),
    ("atoms_mp_json", "atoms --preset mp:p=4,8,16:K=3 --format json"),
    # cutoffs off the degree grid, and generator degrees on mixed denominators
    ("growth_free2_mixed_table",
     "growth --preset free:2:degrees=1/2,2/3 --max-degree 37/10"),
    ("verify_mp_offgrid_json", "verify --preset mp:p=4,8,16:K=3 --max-degree 61/6 --format json"),
    ("towers_free2_mixed_json",
     "towers --preset free:2:degrees=1/2,2/3 --max-degree 37/10 --format json"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the CLI golden files.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list the goldens whose bytes would "
                             "change and exit 1 if any would")
    args = parser.parse_args(argv)
    golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
    if not args.check:
        golden.mkdir(parents=True, exist_ok=True)
    stale = []
    for name, argv_text in CASES:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rc = cli_main(shlex.split(argv_text))
        if rc != 0:
            print(f"{name}: exit code {rc}, refusing to freeze", file=sys.stderr)
            return 1
        path = golden / f"{name}.txt"
        text = f"# argv: {argv_text}\n" + buffer.getvalue()
        shown = path.relative_to(golden.parent.parent)
        if args.check:
            if not path.is_file() or path.read_bytes() != text.encode("utf-8"):
                stale.append(shown)
                print(f"would change {shown}")
            continue
        path.write_text(text, encoding="utf-8")
        print(f"wrote {shown}")
    if args.check:
        print(f"{len(CASES) - len(stale)} of {len(CASES)} goldens current")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
