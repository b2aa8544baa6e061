import importlib.util
import json
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from numerical_reference import THREE_FOUR_FIVE
from skewgrowth import divisibility, models
from skewgrowth.cli import _COMMANDS, build_parser, main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.txt"))
SCRIPTS = Path(__file__).parent.parent / "scripts"
NOT_UTF8 = Path(__file__).parent / "data" / "not_utf8.txt"  # holds byte 0xff


def _run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden(path, capsys):
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    assert header.startswith("# argv: ")
    argv = shlex.split(header[len("# argv: "):])
    rc, out = _run(argv, capsys)
    assert rc == 0
    assert out == body


def test_output_is_byte_stable(capsys):
    argv = ["towers", "--preset", "example3", "--max-degree", "5"]
    _, first = _run(argv, capsys)
    _, second = _run(argv, capsys)
    assert first == second


def test_calls_in_one_process_share_no_options(capsys):
    # main parses with one parser per process; no option may carry over to
    # the next call, whether the call before it ran or was refused
    golden = Path(__file__).parent / "golden" / "towers_zpos10_json.txt"
    header, _, default = golden.read_text(encoding="utf-8").partition("\n")
    argv = shlex.split(header[len("# argv: "):])
    assert "--ground" not in argv
    for before, status in [
        (argv + ["--ground", "4,6,9"], 0),
        (argv + ["--format", "svg"], 2),            # refused by the parser
        (["growth", "--preset", "zpos:10", "--ground", "4,6,9"], 2),  # by main
    ]:
        rc, out = _run(before, capsys)
        assert rc == status and out != default
        assert _run(argv, capsys) == (0, default)


@pytest.mark.parametrize("argv", [
    ["growth", "--preset", "braid3", "--max-degree", "4"],
    ["towers", "--preset", "braid3", "--format", "dot"],
    ["verify", "--preset", "zpos:30", "--format", "json"],
], ids=["growth-table", "towers-dot", "verify-json"])
def test_out_flag_writes_the_same_bytes(argv, tmp_path, capsys):
    target = tmp_path / "out.txt"
    rc, written = _run(argv + ["--out", str(target)], capsys)
    assert rc == 0
    assert written == ""
    rc, stdout = _run(argv, capsys)
    assert target.read_text(encoding="utf-8") == stdout


def test_file_input(tmp_path, capsys):
    source = tmp_path / "pres.txt"
    source.write_text("gen x : 1\ngen y : 1\nrel x y = y x\n", encoding="utf-8")
    rc, out = _run(["growth", "--file", str(source), "--max-degree", "3"], capsys)
    assert rc == 0
    # commuting pair: counts are 1, 2, 3, 4
    assert out.splitlines()[2:] == ["0  1", "1  2", "2  3", "3  4"]
    assert "model=pres" in out.splitlines()[0]


def test_ground_flag_matches_default(capsys):
    for argv, atoms in [
        (["skew", "--preset", "braid3"], "a,b"),
        # reversed, so verify reads the atoms through --ground, not the default
        (["verify", "--preset", "zpos:30"], "29,23,19,17,13,11,7,5,3,2"),
    ]:
        rc1, explicit = _run(argv + ["--ground", atoms], capsys)
        rc2, default = _run(argv, capsys)
        assert rc1 == rc2 == 0
        assert explicit == default


def test_ground_flag_mp_tokens(capsys):
    rc, out = _run(["towers", "--preset", "mp:p=4,8,16", "--ground", "a0,a1",
                    "--format", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["ground"] == ["a0", "a1"]


_BAD_CANCEL = {
    "name": "cancellativity", "status": "fail", "max_degree_verified": "2",
    "counterexample": {"side": "left", "factor": "a", "first": "b", "second": "c",
                       "product_degree": "2"},
    "notes": "left multiplication by a identifies b and c",
}
_BAD_CANCEL_LINES = [
    "cancellativity: fail  (left multiplication by a identifies b and c)",
    '  counterexample: {"side": "left", "factor": "a", "first": "b", "second": "c", '
    '"product_degree": "2"}',
]
_BAD_VERIFY_JSON = {"model": "bad", "cutoff": "4", "overall": "fail", "checks": [
    _BAD_CANCEL,
    {"name": "inversion", "status": "fail", "max_degree_verified": "2",
     "counterexample": {"degree": "2", "product_coefficient": -1},
     "notes": "P*N deviates from 1 first at degree 2; cancellativity probe: fail"},
    {"name": "recursion", "status": "fail", "max_degree_verified": "2",
     "counterexample": {"degree": "2", "residual": -1},
     "notes": "count recursion fails first at degree 2"},
    {"name": "lcm-reduction", "status": "pass", "max_degree_verified": "4",
     "counterexample": None,
     "notes": "unique-lcm inclusion-exclusion reproduces the tower series"},
]}


def test_verify_failure_exits_one(tmp_path, capsys):
    """The failing paths, whose exit status 1 keeps them out of the goldens,
    pinned byte for byte on the non-cancellative ab = ac."""
    source = tmp_path / "bad.txt"
    source.write_text("gen a : 1\ngen b : 1\ngen c : 1\nrel a b = a c\n",
                      encoding="utf-8")
    source_args = ["--file", str(source), "--max-degree", "4"]
    expected = {
        ("verify", "table"): [
            "# verify  model=bad  cutoff=4",
            *_BAD_CANCEL_LINES,
            "inversion: fail  (P*N deviates from 1 first at degree 2; "
            "cancellativity probe: fail)",
            '  counterexample: {"degree": "2", "product_coefficient": -1}',
            "recursion: fail  (count recursion fails first at degree 2)",
            '  counterexample: {"degree": "2", "residual": -1}',
            "lcm-reduction: pass  (unique-lcm inclusion-exclusion reproduces the "
            "tower series)",
            "overall: fail",
        ],
        ("verify", "json"): _BAD_VERIFY_JSON,
        ("cancel-check", "table"): ["# cancel-check  model=bad  cutoff=4",
                                    *_BAD_CANCEL_LINES],
        ("cancel-check", "json"): {"model": "bad", "cutoff": "4", **_BAD_CANCEL},
    }
    for (command, fmt), want in expected.items():
        rc, out = _run([command, *source_args, "--format", fmt], capsys)
        assert rc == 1
        if fmt == "json":
            assert out == json.dumps(want, indent=2) + "\n"
        else:
            assert out == "\n".join(want) + "\n"


@pytest.mark.parametrize("command", ["growth", "skew", "atoms", "verify", "cancel-check"])
def test_dot_is_refused_where_not_offered(command, capsys):
    assert main([command, "--preset", "example3", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: format 'dot' is not available here "
                            "(choose from table, json)\n")


@pytest.mark.parametrize("argv", [
    ["growth", "--preset", "nosuch"],
    ["growth", "--preset", "example3", "--max-degree", "nonsense"],
    # the --nmax alias is gone, like --word-cap below
    ["growth", "--preset", "example3", "--max-degree", "4", "--nmax", "4"],
    ["growth", "--preset", "example3", "--nmax", "4"],
    ["growth", "--preset", "zpos:10", "--max-degree", "7/2"],
    ["growth", "--preset", "example3", "--format", "dot"],
    ["growth", "--preset", "mp:p=3,8:K=2"],
    ["growth", "--preset", "free"],
    ["growth", "--file", "/nonexistent/path.txt"],
    ["skew", "--preset", "example3", "--ground", "zz"],
    ["skew", "--preset", "example3", "--ground", ""],
    ["towers", "--preset", "example3", "--ground", "a,aa"],
    ["growth", "--preset", "example3", "--word-cap", "0"],  # the option is gone
    ["verify", "--preset", "braid3", "--max-degree", "0"],
    ["verify", "--preset", "zpos:30", "--max-degree", "1"],
    ["growth", "--preset", "free:2.5"],
    ["growth", "--preset", "zpos:7/2"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a0^x"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a0^-1 a1"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a0^+2"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a0^"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a0^\u00b2"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "a\u0661"],
    ["towers", "--preset", "zpos:30", "--ground", "1_3"],
    ["towers", "--preset", "zpos:30", "--ground", "\u0663"],
    ["growth", "--preset", "free:2:degrees=2"],
    ["growth", "--preset", "free:2:degrees=pow2"],
    ["growth", "--preset", "zpos:30", "--ground", "4,6,9"],
    ["atoms", "--preset", "zpos:30", "--ground", "4,6,9"],
    ["cancel-check", "--preset", "example3", "--ground", "aa,ab"],
    ["towers", "--preset", "example3", "--ground", "1"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "1"],
    ["towers", "--preset", "zpos:30", "--ground", "1"],
    ["growth", "--file", str(NOT_UTF8)],
    ["growth", "--preset", "zpos:200000000"],
    pytest.param(["growth", "--preset", "mp:p=4,8,16", "--max-degree", "30000000"],
                 marks=pytest.mark.filterwarnings("ignore:cutoff 30000000 reaches")),
    ["growth", "--preset", "zpos"],
    ["growth", "--preset", "mp"],
    ["growth", "--preset", "mp:p=pow2"],
    ["growth", "--preset", "mp:p=4,8:K=3"],
    ["growth", "--preset", "example3:foo=1"],
    ["growth", "--preset", "free:2:3"],
    ["growth", "--preset", "free:x"],
    ["growth", "--preset", "free:27"],
    ["towers", "--preset", "mp:p=4,8,16", "--ground", "b1"],  # mp names are a0, a1, ...
])
def test_usage_errors_exit_two(argv, capsys):
    rc = main(argv)
    capsys.readouterr()
    assert rc == 2


def test_cutoff_past_the_word_cap_is_refused_before_enumerating(capsys):
    assert main(["growth", "--preset", "zpos:200000000"]) == 2
    assert capsys.readouterr().err == ("error: 200000000 elements up to cutoff 200000000 "
                                       "exceed the word cap 10000000\n")


def test_file_that_is_not_utf8_names_the_file(capsys):
    assert main(["growth", "--file", str(NOT_UTF8)]) == 2
    assert capsys.readouterr().err == (f"error: {NOT_UTF8} is not UTF-8 text: "
                                       f"byte 0xff at offset 14\n")


@pytest.mark.parametrize("preset", ["example3", "braid3", "free:2", "mp:p=4,8,16", "zpos:30"])
def test_ground_with_the_unit_is_refused(preset, capsys):
    # every table reads its unit's label "1" back, so each model gives the
    # same reason
    assert main(["skew", "--preset", preset, "--ground", "1"]) == 2
    assert capsys.readouterr().err == "error: ground set may not contain the unit\n"


@pytest.mark.parametrize("preset, token", [
    ("example3", "aaaaaaaaa"), ("zpos:30", "31"), ("mp:p=4,8,16", "a0^100"),
])
def test_ground_token_past_the_cutoff_is_refused(preset, token, capsys):
    assert main(["skew", "--preset", preset, "--ground", token]) == 2
    assert capsys.readouterr().err == (f"error: ground element {token!r} is outside "
                                       f"the enumerated range\n")


def test_free_preset_takes_a_single_degree(capsys):
    rc, out = _run(["growth", "--preset", "free:1:degrees=2", "--max-degree", "6"], capsys)
    assert rc == 0
    assert out.splitlines()[2:] == ["0  1", "2  1", "4  1", "6  1"]


def test_mp_depth_warning_is_given_once(capsys):
    rc = main(["verify", "--preset", "mp:p=4,8,16", "--max-degree", "40"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ("warning: cutoff 40 reaches degree 341/16, where the "
                            "canonical continuation of p adds a generator beyond "
                            "depth 3; results describe the depth-3 family only\n")
    assert captured.out.endswith("overall: pass\n")


def test_verify_builtins_script_reports_errors(capsys):
    spec = importlib.util.spec_from_file_location(
        "verify_builtins", SCRIPTS / "verify_builtins.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["nosuch"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown builtin 'nosuch'")


def test_bench_rows_script_records_a_passing_and_a_refused_row(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_rows", SCRIPTS / "bench_rows.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "rows.json"
    assert script.main(["--out", str(out), "mp-twin@8", "free:1@60000000"]) == 0
    twin, refused = json.loads(out.read_text())["rows"]
    assert twin["argv"] == ["verify", "--file", "mp-twin.txt", "--max-degree", "8"]
    assert [run["exit"] for run in twin["runs"]] == [0] * script.RUNS
    assert list(twin["stage_s"]) == list(script.STAGES)
    message = "60000001 elements up to cutoff 60000000 exceed the word cap 10000000"
    assert refused["runs"][0]["exit"] == 2
    assert refused["runs"][0]["error"] == f"error: {message}"
    assert refused["stage_error"] == f"enumerate: {message}"
    assert refused["runs"][0]["peak_rss_mib"] > 0


def _load_regen_golden():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", SCRIPTS / "regen_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_regen_golden_check_finds_every_golden_current(capsys):
    script = _load_regen_golden()
    assert len(script.CASES) == len(GOLDEN)
    assert script.main(["--check"]) == 0
    assert capsys.readouterr().out == f"{len(GOLDEN)} of {len(GOLDEN)} goldens current\n"


def test_regen_golden_check_lists_a_stale_golden_and_writes_nothing(capsys, monkeypatch):
    script = _load_regen_golden()
    path = Path(__file__).parent / "golden" / "skew_zpos30_table.txt"
    before = path.read_bytes()
    monkeypatch.setattr(script, "CASES", [("skew_zpos30_table", "skew --preset zpos:31")])
    assert script.main(["--check"]) == 1
    assert capsys.readouterr().out == ("would change tests/golden/skew_zpos30_table.txt\n"
                                       "0 of 1 goldens current\n")
    assert path.read_bytes() == before

def test_word_cap_budget_exhaustion(capsys, monkeypatch):
    monkeypatch.setattr(models, "WORD_CAP", 100)
    rc = main(["growth", "--preset", "free:2", "--max-degree", "10"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: 128 (generator, class) pairs at degree 7 exceed the word cap 100\n"


def test_degree_closure_past_the_word_cap_is_refused_before_it_is_built(capsys):
    # free:1 at 60,000,000 would hold that many elements, one per degree
    tracemalloc.start()
    try:
        rc = main(["growth", "--preset", "free:1", "--max-degree", "60000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err == ("error: 60000001 elements up to cutoff 60000000 "
                                       "exceed the word cap 10000000\n")
    assert peak < 2 ** 22


def test_presented_table_past_the_word_cap_in_all_is_refused(capsys, monkeypatch):
    # free:2 at 6 holds 127 elements, and no degree more than 64 pairs
    monkeypatch.setattr(models, "WORD_CAP", 100)
    assert main(["growth", "--preset", "free:2", "--max-degree", "6"]) == 2
    assert capsys.readouterr().err == ("error: 127 elements up to cutoff 6 "
                                       "exceed the word cap 100\n")


@pytest.mark.parametrize("command", ["towers", "verify"])
def test_tower_forest_past_the_word_cap_is_refused(command, tmp_path, capsys, monkeypatch):
    # <3, 4, 5> at 40 has 39 elements and 42,940 towers
    path = tmp_path / "three_four_five.txt"
    path.write_text(THREE_FOUR_FIVE, encoding="utf-8")
    monkeypatch.setattr(models, "WORD_CAP", 1000)
    assert main([command, "--file", str(path), "--max-degree", "40"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 1001 towers exceed the word cap 1000\n"


def test_poset_past_its_cap_is_refused_before_any_mask_is_built(capsys, monkeypatch):
    monkeypatch.setattr(divisibility, "POSET_BIT_CAP", 100)
    calls = []
    right_maps = models.ElementTable.right_maps
    monkeypatch.setattr(models.ElementTable, "right_maps",
                        lambda table: calls.append(table) or right_maps(table))
    assert main(["verify", "--preset", "braid3", "--max-degree", "8"]) == 2
    # braid3@8's 221**2 bits are past the cap, so the masks are built one
    # by one, and the first would hold up to 221 bits
    assert capsys.readouterr().err == ("error: 221 divisibility mask bits for 221 elements "
                                       "exceed the poset cap 100\n")
    assert calls == []  # only the reverse pass reads the right maps


def test_out_of_memory_is_a_usage_error_not_a_failed_check(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("skewgrowth.cli.run_all_checks", exhausted)
    assert main(["verify", "--preset", "example3"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_readme_names_exactly_the_parsers_long_options():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.partition("## Command line")[2].partition("\n## ")[0]
    parsed = {flag for action in build_parser()._actions for flag in action.option_strings
              if flag.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == parsed


def test_argparse_errors_are_returned_not_raised(capsys):
    assert main([]) == 2                      # missing subcommand
    assert main(["growth"]) == 2              # missing --preset/--file
    assert main(["growth", "--preset", "a", "--file", "b"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # every command is named with its help text
    for name, (text, *_) in _COMMANDS.items():
        assert any(line.split() == [name, *text.split()] for line in lines), name


def test_command_help_is_the_one_help_page(capsys):
    assert main(["--help"]) == 0
    page = capsys.readouterr().out
    assert main(["verify", "--help"]) == 0
    assert capsys.readouterr().out == page


def test_options_may_come_before_the_command(capsys):
    golden = Path(__file__).parent / "golden" / "verify_braid3_json.txt"
    header, _, body = golden.read_text(encoding="utf-8").partition("\n")
    assert header == "# argv: verify --preset braid3 --format json"
    rc, out = _run(["--preset", "braid3", "--format", "json", "verify"], capsys)
    assert rc == 0
    assert out == body


def test_module_entry_point():
    # `python -m skewgrowth` prints what the golden of the same command holds
    golden = Path(__file__).parent / "golden" / "growth_example3_table.txt"
    header, _, body = golden.read_text(encoding="utf-8").partition("\n")
    assert header == "# argv: growth --preset example3 --max-degree 6"
    proc = subprocess.run([sys.executable, "-m", "skewgrowth", *shlex.split(header[8:])],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == body


@pytest.mark.skipif(shutil.which("skewgrowth") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["skewgrowth", "atoms", "--preset", "zpos:10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "7  7"
