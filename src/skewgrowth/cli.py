"""Command line front end: ``skewgrowth COMMAND [options]``.

The commands, each with its help text, are the keys of ``_COMMANDS``:
growth, skew, towers, atoms, verify and cancel-check.  Their options are
declared once, on one parser, so ``--help`` is one page and options may
come before or after the command; ``main`` refuses an option a command does
not use.  A warning raised during a run is printed as one ``warning:`` line,
like the ``error:`` lines.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or input.
Output is deterministic byte for byte for a fixed command line.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

from .checks import check_cancellative, run_all_checks
from .dirichlet import Series, growth_series, key_to_json, parse_key, render_key, series_to_json
from .errors import (InvalidGroundError, MalformedKeyError, PresentationParseError,
                     SkewGrowthError)
from .models import RewriteModel
from .presentation import parse_presentation
from .presets import parse_preset
from .towers import (enumerate_towers, forest_to_dot, forest_to_json, forest_to_lines,
                     sum_over_tops)


@dataclass
class RunConfig:
    """Everything a command needs once arguments are resolved."""

    model: object
    table: object
    fmt: str
    ground: tuple[int, ...] | None
    out: str | None


def build_parser() -> argparse.ArgumentParser:
    commands = "\n".join(f"  {name:<14}{text}" for name, (text, *_) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="skewgrowth",
        description="growth and skew-growth series of finitely presented "
                    "cancellative monoids",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND",
                        help="one of the commands listed below")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", metavar="NAME[:PARAMS]",
                        help="builtin model, e.g. example3, free:2, zpos:50, "
                             "mp:p=4,8,16:K=3")
    source.add_argument("--file", metavar="PATH",
                        help="presentation file ('gen NAME : DEGREE' lines, "
                             "then 'rel WORD = WORD' lines)")
    parser.add_argument("--max-degree", metavar="Q",
                        help="enumeration cutoff; a rational like 8 or 21/4 "
                             "(for zpos an integer bound)")
    parser.add_argument("--ground", metavar="ELEMS",
                        help="comma-separated ground elements (default: the atoms)")
    parser.add_argument("--format", dest="fmt", default="table",
                        choices=("table", "json", "dot"),
                        help="output format (dot applies to towers only)")
    parser.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            config = _configure(args)
            _, formats, takes_ground, handler = _COMMANDS[args.command]
            if config.fmt not in formats:
                raise SkewGrowthError(f"format {config.fmt!r} is not available here "
                                      f"(choose from {', '.join(formats)})")
            if config.ground is not None and not takes_ground:
                raise SkewGrowthError(f"--ground does not apply to {args.command}")
            text, status = handler(config)
            if config.out:
                Path(config.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            return status
        except (SkewGrowthError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:  # its text is usually empty
            print("error: out of memory", file=sys.stderr)
            return 2


def _print_warning(message, *_):
    """One 'warning: ...' line per warning, like the 'error: ...' lines."""
    print(f"warning: {message}", file=sys.stderr)


# ------------------------------------------------------------- configuration

def _configure(args) -> RunConfig:
    model = _build_model(args)
    table = model.enumerate_up_to(_resolve_cutoff(args, model))
    ground = None
    if args.ground is not None:
        ground = tuple(
            _resolve_element(table, token.strip())
            for token in args.ground.split(",") if token.strip()
        )
        if not ground:
            raise InvalidGroundError("--ground named no elements")
    return RunConfig(model=model, table=table, fmt=args.fmt,
                     ground=ground, out=args.out)


def _build_model(args):
    if args.preset:
        return parse_preset(args.preset)
    if args.file:
        path = Path(args.file)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise PresentationParseError(f"{path} is not UTF-8 text: byte "
                                         f"0x{exc.object[exc.start]:02x} at offset "
                                         f"{exc.start}") from None
        presentation = parse_presentation(text)
        return RewriteModel(presentation, name=path.stem)
    raise SkewGrowthError("one of --preset or --file is required")


def _resolve_cutoff(args, model):
    if args.max_degree is None:
        return model.default_cutoff
    try:
        return parse_key(model.key_kind, args.max_degree)
    except MalformedKeyError as exc:
        raise SkewGrowthError(f"--max-degree: {exc}") from None


def _resolve_element(table, token: str) -> int:
    """Turn a user token, spelled as the table labels elements, into an id."""
    eid = table.parse_label(token)
    if eid is None:
        raise InvalidGroundError(f"ground element {token!r} is outside the "
                                 f"enumerated range")
    return eid


# ------------------------------------------------------------------ rendering

def _text(config: RunConfig, title: str, lines) -> str:
    """Table output: a '# title  model=..  cutoff=..' line, then *lines*."""
    cutoff = render_key(config.table.key_kind, config.table.cutoff)
    header = f"# {title}  model={config.model.name}  cutoff={cutoff}"
    return "\n".join([header, *lines]) + "\n"


def _json(config: RunConfig, payload: dict) -> str:
    """JSON output: the "model" and "cutoff" keys, then *payload*."""
    header = {"model": config.model.name,
              "cutoff": render_key(config.table.key_kind, config.table.cutoff)}
    return json.dumps({**header, **payload}, indent=2) + "\n"


def _report_lines(report) -> list[str]:
    lines = [f"{report.name}: {report.status}  ({report.notes})"]
    if report.counterexample:
        lines.append(f"  counterexample: {json.dumps(report.counterexample)}")
    return lines


# ----------------------------------------------------------------- handlers
# Each handler returns the output text and the exit status.

def _cmd_series(config: RunConfig, title: str, series: Series) -> tuple[str, int]:
    if config.fmt == "json":
        # series JSON keeps its own cutoff: an int for multiplicative keys
        payload = {"model": config.model.name, "series": title, **series_to_json(series)}
        return json.dumps(payload, indent=2) + "\n", 0
    lines = [f"{render_key(series.kind, key)}  {coeff}" for key, coeff in series.items()]
    return _text(config, title, ["degree  coefficient", *lines]), 0


def _cmd_towers(config: RunConfig) -> tuple[str, int]:
    table = config.table
    forest = enumerate_towers(table, ground=config.ground)
    if config.fmt == "json":
        return _json(config, forest_to_json(forest, table)), 0
    if config.fmt == "dot":
        return forest_to_dot(forest, table), 0
    return _text(config, "towers", forest_to_lines(forest, table)), 0


def _cmd_atoms(config: RunConfig) -> tuple[str, int]:
    table = config.table
    atoms = table.atoms()
    if config.fmt == "json":
        return _json(config, {"atoms": [
            {"label": table.label(e),
             "degree": key_to_json(table.key_kind, table.degree(e))}
            for e in atoms
        ]}), 0
    lines = [f"{table.label(e)}  {render_key(table.key_kind, table.degree(e))}"
             for e in atoms]
    return _text(config, "atoms", ["label  degree", *lines]), 0


def _cmd_verify(config: RunConfig) -> tuple[str, int]:
    reports = run_all_checks(config.table, ground=config.ground)
    ok = all(r.ok for r in reports)
    overall = "pass" if ok else "fail"
    if config.fmt == "json":
        text = _json(config, {"overall": overall, "checks": [r.to_json() for r in reports]})
    else:
        lines = [line for r in reports for line in _report_lines(r)]
        text = _text(config, "verify", [*lines, f"overall: {overall}"])
    return text, 0 if ok else 1


def _cmd_cancel_check(config: RunConfig) -> tuple[str, int]:
    report = check_cancellative(config.table)
    if config.fmt == "json":
        text = _json(config, report.to_json())
    else:
        text = _text(config, "cancel-check", _report_lines(report))
    return text, 0 if report.ok else 1


# command: (help text, the formats it offers, whether it reads --ground, handler)
_COMMANDS = {
    "growth": ("growth series (element counts per degree)", ("table", "json"), False,
               lambda config: _cmd_series(config, "growth", growth_series(config.table))),
    "skew": ("skew-growth series from the tower enumeration", ("table", "json"), True,
             lambda config: _cmd_series(config, "skew-growth", config.table.grid.series(
                 sum_over_tops(config.table, config.ground)[0]))),
    "towers": ("enumerate the tower forest", ("table", "json", "dot"), True, _cmd_towers),
    "atoms": ("list the atoms", ("table", "json"), False, _cmd_atoms),
    "verify": ("run all verification checks", ("table", "json"), True, _cmd_verify),
    "cancel-check": ("run the cancellativity probe", ("table", "json"), False,
                     _cmd_cancel_check),
}

# built once per process: parsing keeps no state between calls
_PARSER = build_parser()


if __name__ == "__main__":
    raise SystemExit(main())
