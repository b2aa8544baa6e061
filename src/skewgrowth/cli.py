"""Command line front end.

Subcommands:

    growth        element counts per degree, as a truncated series
    skew          tower-based skew-growth series
    towers        the tower forest itself (table, json, or dot)
    atoms         the indecomposable elements up to the cutoff
    verify        cancellativity, inversion, recursion, lcm-reduction
    cancel-check  the cancellativity probe alone

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or input.
Output is deterministic byte for byte for a fixed command line.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .checks import FAIL, check_cancellative, run_all_checks
from .dirichlet import KeyKind, Series, growth_series, key_to_json, render_key, series_to_json
from .errors import InvalidGroundError, SkewGrowthError
from .models import RewriteModel
from .presentation import parse_presentation
from .presets import parse_preset
from .towers import enumerate_towers, forest_to_dot, forest_to_json, skew_growth


@dataclass
class RunConfig:
    """Everything a subcommand needs once arguments are resolved."""

    model: object
    table: object
    fmt: str
    ground: tuple[int, ...] | None
    out: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewgrowth",
        description="growth and skew-growth series of finitely presented "
                    "cancellative monoids",
    )
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group()
    source.add_argument("--preset", metavar="NAME[:PARAMS]",
                        help="builtin model, e.g. example3, free:2, zpos:50, "
                             "mp:p=4,8,16:K=3")
    source.add_argument("--file", metavar="PATH",
                        help="presentation file ('gen NAME : DEGREE' lines, "
                             "then 'rel WORD = WORD' lines)")
    common.add_argument("--max-degree", metavar="Q",
                        help="enumeration cutoff; a rational like 8 or 21/4 "
                             "(for zpos an integer bound)")
    common.add_argument("--nmax", type=int, metavar="N",
                        help="integer cutoff for multiplicative models; "
                             "alias for --max-degree")
    common.add_argument("--ground", metavar="ELEMS",
                        help="comma-separated ground elements (default: the atoms)")
    common.add_argument("--format", dest="fmt", default="table",
                        choices=("table", "json", "dot"),
                        help="output format (dot applies to towers only)")
    common.add_argument("--word-cap", type=int, metavar="N",
                        help="for presented models, the most (generator, class) "
                             "pairs enumerated at one degree")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("growth", "growth series (element counts per degree)"),
        ("skew", "skew-growth series from the tower enumeration"),
        ("towers", "enumerate the tower forest"),
        ("atoms", "list the atoms"),
        ("verify", "run all verification checks"),
        ("cancel-check", "run the cancellativity probe"),
    ):
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _configure(args)
        handler = _HANDLERS[args.command]
        return handler(config)
    except SkewGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ------------------------------------------------------------- configuration

def _configure(args) -> RunConfig:
    model = _build_model(args)
    if args.word_cap is not None:
        if args.word_cap < 1:
            raise SkewGrowthError(f"--word-cap must be >= 1, got {args.word_cap}")
        if hasattr(model, "word_cap"):
            model.word_cap = args.word_cap
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
        presentation = parse_presentation(path.read_text(encoding="utf-8"))
        return RewriteModel(presentation, name=path.stem)
    raise SkewGrowthError("one of --preset or --file is required")


def _resolve_cutoff(args, model):
    if args.max_degree is not None and args.nmax is not None:
        raise SkewGrowthError("give only one of --max-degree and --nmax")
    if args.nmax is not None:
        if model.key_kind is not KeyKind.MULTINT:
            raise SkewGrowthError("--nmax applies to multiplicative models; "
                                  "use --max-degree")
        return args.nmax
    if args.max_degree is None:
        return model.default_cutoff
    text = args.max_degree.strip()
    if model.key_kind is KeyKind.MULTINT:
        try:
            return int(text)
        except ValueError:
            raise SkewGrowthError(
                f"--max-degree for this model must be an integer, got {text!r}"
            ) from None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SkewGrowthError(f"cannot parse --max-degree {text!r}") from None


def _resolve_element(table, token: str) -> int:
    """Turn a user token, spelled as the table labels elements, into an id."""
    eid = table.parse_label(token)
    if eid is None:
        raise InvalidGroundError(f"ground element {token!r} is outside the "
                                 f"enumerated range")
    return eid


# ------------------------------------------------------------------ rendering

def _header(kind_line: str, config: RunConfig, table) -> str:
    cutoff = render_key(table.key_kind, table.cutoff)
    return f"# {kind_line}  model={config.model.name}  cutoff={cutoff}"

def _series_lines(title: str, config: RunConfig, table, series: Series) -> str:
    lines = [_header(title, config, table), "degree  coefficient"]
    for key, coeff in series.items():
        lines.append(f"{render_key(series.kind, key)}  {coeff}")
    return "\n".join(lines) + "\n"


def _series_json(title: str, config: RunConfig, series: Series) -> str:
    payload = {"model": config.model.name, "series": title}
    payload.update(series_to_json(series))
    return json.dumps(payload, indent=2) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        Path(config.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _label_set(table, eids) -> str:
    return "{" + ",".join(table.label(e) for e in eids) + "}"


# ----------------------------------------------------------------- handlers

def _require_format(config: RunConfig, *allowed: str) -> None:
    if config.fmt not in allowed:
        raise SkewGrowthError(
            f"format {config.fmt!r} is not available here (choose from "
            f"{', '.join(allowed)})"
        )


def _cmd_growth(config: RunConfig) -> int:
    _require_format(config, "table", "json")
    table = config.table
    series = growth_series(table)
    if config.fmt == "json":
        _emit(config, _series_json("growth", config, series))
    else:
        _emit(config, _series_lines("growth", config, table, series))
    return 0


def _cmd_skew(config: RunConfig) -> int:
    _require_format(config, "table", "json")
    table = config.table
    series = skew_growth(table, enumerate_towers(table, ground=config.ground))
    if config.fmt == "json":
        _emit(config, _series_json("skew-growth", config, series))
    else:
        _emit(config, _series_lines("skew-growth", config, table, series))
    return 0


def _cmd_towers(config: RunConfig) -> int:
    _require_format(config, "table", "json", "dot")
    table = config.table
    forest = enumerate_towers(table, ground=config.ground)
    if config.fmt == "json":
        payload = {"model": config.model.name,
                   "cutoff": render_key(table.key_kind, table.cutoff)}
        payload.update(forest_to_json(forest, table))
        _emit(config, json.dumps(payload, indent=2) + "\n")
        return 0
    if config.fmt == "dot":
        _emit(config, forest_to_dot(forest, table))
        return 0
    lines = [_header("towers", config, table),
             f"ground: {_label_set(table, forest.ground)}"]
    for index, tower in enumerate(forest.towers):
        stages = " ".join(_label_set(table, stage) for stage in tower.stages)
        stages = f" stages: {stages}" if stages else ""
        lines.append(
            f"[{index}] height={tower.height} sign={tower.sign:+d}"
            f"{stages} top: {_label_set(table, tower.top)}"
        )
    _emit(config, "\n".join(lines) + "\n")
    return 0


def _cmd_atoms(config: RunConfig) -> int:
    _require_format(config, "table", "json")
    table = config.table
    atoms = table.atoms()
    if config.fmt == "json":
        payload = {
            "model": config.model.name,
            "cutoff": render_key(table.key_kind, table.cutoff),
            "atoms": [
                {"label": table.label(e),
                 "degree": key_to_json(table.key_kind, table.degree(e))}
                for e in atoms
            ],
        }
        _emit(config, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [_header("atoms", config, table), "label  degree"]
    for e in atoms:
        lines.append(f"{table.label(e)}  {render_key(table.key_kind, table.degree(e))}")
    _emit(config, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(config: RunConfig) -> int:
    _require_format(config, "table", "json")
    table = config.table
    reports = run_all_checks(table, ground=config.ground)
    failed = any(r.status == FAIL for r in reports)
    if config.fmt == "json":
        payload = {
            "model": config.model.name,
            "cutoff": render_key(table.key_kind, table.cutoff),
            "overall": "fail" if failed else "pass",
            "checks": [r.to_json() for r in reports],
        }
        _emit(config, json.dumps(payload, indent=2) + "\n")
        return 1 if failed else 0
    lines = [_header("verify", config, table)]
    for r in reports:
        lines.append(f"{r.name}: {r.status}  ({r.notes})")
        if r.counterexample:
            lines.append(f"  counterexample: {json.dumps(r.counterexample)}")
    lines.append(f"overall: {'fail' if failed else 'pass'}")
    _emit(config, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_cancel_check(config: RunConfig) -> int:
    _require_format(config, "table", "json")
    table = config.table
    report = check_cancellative(table)
    if config.fmt == "json":
        payload = {
            "model": config.model.name,
            "cutoff": render_key(table.key_kind, table.cutoff),
        }
        payload.update(report.to_json())
        _emit(config, json.dumps(payload, indent=2) + "\n")
        return 0 if report.ok else 1
    lines = [_header("cancel-check", config, table),
             f"{report.name}: {report.status}  ({report.notes})"]
    if report.counterexample:
        lines.append(f"  counterexample: {json.dumps(report.counterexample)}")
    _emit(config, "\n".join(lines) + "\n")
    return 0 if report.ok else 1


_HANDLERS = {
    "growth": _cmd_growth,
    "skew": _cmd_skew,
    "towers": _cmd_towers,
    "atoms": _cmd_atoms,
    "verify": _cmd_verify,
    "cancel-check": _cmd_cancel_check,
}


if __name__ == "__main__":
    raise SystemExit(main())
