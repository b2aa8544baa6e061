import json
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

from scan_oracles import (
    cancellative_by_scan,
    convolve_by_fractions,
    inversion_two_step,
    recursion_by_sum,
)
from skewgrowth import checks
from skewgrowth.checks import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    check_cancellative,
    check_inversion,
    check_lcm_reduction,
    check_recursion,
    run_all_checks,
)
from skewgrowth.dirichlet import growth_series, parse_key, series_one
from skewgrowth.models import RewriteModel
from skewgrowth.presentation import parse_presentation
from skewgrowth.presets import parse_preset
from skewgrowth.towers import enumerate_towers, skew_growth, skew_on_grid
from test_models import small_presentations

LEFT_BAD = parse_presentation("gen a : 1\ngen b : 1\ngen c : 1\nrel a b = a c\n")
RIGHT_BAD = parse_presentation("gen a : 1\ngen b : 1\ngen c : 1\nrel b a = c a\n")


@pytest.fixture(scope="module")
def left_bad_table():
    return RewriteModel(LEFT_BAD, name="left-bad").enumerate_up_to(Fraction(4))


def test_battery_passes_on_builtins(example3_table, braid3_table, free2_table,
                                    zpos_table, mp_table):
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table):
        for report in run_all_checks(table):
            assert report.status in (PASS, NOT_APPLICABLE), (type(table).__name__, report)


def test_battery_order_and_names(braid3_table):
    names = [r.name for r in run_all_checks(braid3_table)]
    assert names == ["cancellativity", "inversion", "recursion", "lcm-reduction"]


def test_left_violation_witness(left_bad_table):
    # the last letters b and c are joined once: the right side is proven
    with mock.patch.object(left_bad_table, "right_maps",
                           wraps=left_bad_table.right_maps) as right_maps:
        report = check_cancellative(left_bad_table)
    assert not right_maps.called
    assert report.status == FAIL
    assert report.counterexample == {
        "side": "left", "factor": "a", "first": "b", "second": "c",
        "product_degree": "2",
    }
    assert report.max_degree_verified == Fraction(2)


def test_right_violation_witness():
    # the first letters b and c are joined once: the left side is proven
    table = RewriteModel(RIGHT_BAD).enumerate_up_to(Fraction(4))
    with mock.patch.object(table, "left_maps", wraps=table.left_maps) as left_maps:
        report = check_cancellative(table)
    assert not left_maps.called
    assert report.status == FAIL
    assert report.counterexample["side"] == "right"
    assert {report.counterexample["first"], report.counterexample["second"]} == {"b", "c"}


@pytest.mark.parametrize("preset, cutoff, sides", [
    ("zpos:1500", "1500", 1),
    pytest.param("mp:p=4,8,16", "40", 1,
                 marks=pytest.mark.filterwarnings("ignore:cutoff 40 reaches")),
    ("example3", "20", 2),
    ("braid3", "13", 0),
    ("free:2", "12", 0),
])
def test_cancellativity_probes_shared_maps_once(preset, cutoff, sides):
    # zpos and mp tables hand back their left maps as their right maps;
    # braid3's and free:2's relations prove both sides, so they probe none
    model = parse_preset(preset)
    table = model.enumerate_up_to(parse_key(model.key_kind, cutoff))
    with mock.patch.object(checks, "_first_collision",
                           side_effect=checks._first_collision) as spy, \
            mock.patch.object(table, "right_maps", wraps=table.right_maps) as right_maps:
        report = check_cancellative(table)
    assert spy.call_count == sides * len(table.generators())
    assert right_maps.called == bool(sides)
    assert report.to_json() == cancellative_by_scan(table).to_json()


A3 = "gen a : 1\ngen b : 1\ngen c : 1\nrel a b a = b a b\nrel b c b = c b c\nrel a c = c a\n"


@pytest.mark.parametrize("presentation, proven", [
    (LEFT_BAD, ("right",)),  # a loop at a on the left
    (RIGHT_BAD, ("left",)),  # a loop at a on the right
    (parse_preset("example3").presentation, ()),  # a double edge a-b on each side
    (parse_presentation(A3), ()),  # a triangle on each side
    (parse_presentation("gen a : 1\ngen b : 1\nrel a b a b a = b a b a b\n"),
     ("left", "right")),  # I2(5)
    (parse_presentation(A3.replace("rel a c = c a\n", "")),
     ("left", "right")),  # the path a-b-c
    (parse_presentation("gen a : 1\ngen b : 2\nrel a a = b\n"), ("left", "right")),
    (None, ()),  # a table with no presentation
], ids=["loop-left", "loop-right", "example3", "A3", "I2(5)", "path", "aa=b", "none"])
def test_adjan_graphs_prove_the_sides_with_no_cycle(presentation, proven):
    assert checks._proven_sides(presentation) == proven


@settings(deadline=None, max_examples=200)
@given(small_presentations())
def test_a_proven_side_has_no_collision_on_random_presentations(drawn):
    presentation, cutoff = drawn
    table = RewriteModel(presentation).enumerate_up_to(cutoff)
    maps = {"left": table.left_maps, "right": table.right_maps}
    for side in checks._proven_sides(presentation):
        assert all(checks._first_collision(row) is None for row in maps[side]()), side


def test_inversion_fails_for_noncancellative_input(left_bad_table):
    report = check_inversion(left_bad_table)
    assert report.status == FAIL
    assert report.counterexample["degree"] == "2"
    assert "cancellativity probe: fail" in report.notes


def test_recursion_agrees_with_inversion_on_failure(left_bad_table):
    inversion = check_inversion(left_bad_table)
    recursion = check_recursion(left_bad_table)
    assert recursion.status == FAIL
    assert recursion.max_degree_verified == inversion.max_degree_verified


def test_product_really_deviates(left_bad_table):
    growth = growth_series(left_bad_table)
    skew = skew_growth(left_bad_table)
    from skewgrowth.dirichlet import series_mul

    product = series_mul(growth, skew)
    assert product != series_one(left_bad_table.key_kind, left_bad_table.cutoff)


def test_lcm_reduction_statuses(example3_table, braid3_table, free2_table,
                                zpos_table, mp_table):
    assert check_lcm_reduction(braid3_table).status == PASS
    assert check_lcm_reduction(free2_table).status == PASS
    assert check_lcm_reduction(zpos_table).status == PASS
    assert check_lcm_reduction(example3_table).status == NOT_APPLICABLE
    assert check_lcm_reduction(mp_table).status == NOT_APPLICABLE


def test_lcm_reduction_reports_the_offending_subset(example3_table):
    report = check_lcm_reduction(example3_table)
    assert report.counterexample["subset"] == ["a", "b"]
    assert report.counterexample["minimal_common_multiples"] == ["aa", "ab"]


def test_report_json_schema(braid3_table):
    payload = check_cancellative(braid3_table).to_json()
    assert payload == {
        "name": "cancellativity",
        "status": "pass",
        "max_degree_verified": "8",
        "counterexample": None,
        "notes": "no collision among products of degree <= cutoff",
    }


def test_trivial_table_checks_pass():
    # every generator is heavier than the cutoff: only the unit survives
    table = RewriteModel(parse_presentation("gen a : 9\n")).enumerate_up_to(Fraction(4))
    assert table.n_elements == 1
    skew = skew_growth(table)
    assert skew == series_one(table.key_kind, table.cutoff)
    for report in run_all_checks(table):
        assert report.status in (PASS, NOT_APPLICABLE)


def test_pass_reports_carry_cutoff(zpos_table):
    report = check_recursion(zpos_table)
    assert report.status == PASS
    assert report.max_degree_verified == 30


def _assert_product_reports_match_oracles(table):
    forest = enumerate_towers(table)
    cancel = check_cancellative(table)
    expected = [inversion_two_step(table, forest=forest, cancellativity=cancel).to_json(),
                recursion_by_sum(table, forest=forest).to_json()]
    assert [r.to_json() for r in run_all_checks(table)[1:3]] == expected
    assert [check_inversion(table).to_json(), check_recursion(table).to_json()] == expected


def test_product_reports_match_oracles(example3_table, braid3_table, free2_table,
                                       zpos_table, mp_table, left_bad_table):
    right_bad_table = RewriteModel(RIGHT_BAD).enumerate_up_to(Fraction(4))
    for table in (example3_table, braid3_table, free2_table, zpos_table, mp_table,
                  left_bad_table, right_bad_table):
        _assert_product_reports_match_oracles(table)


@settings(deadline=None, max_examples=100)
@given(small_presentations())
def test_product_reports_match_oracles_on_random_presentations(drawn):
    presentation, cutoff = drawn
    _assert_product_reports_match_oracles(RewriteModel(presentation).enumerate_up_to(cutoff))


@pytest.mark.parametrize("preset, cutoff", [("mp:p=4,8,16", Fraction(40)),
                                            ("example3", Fraction(60))])
def test_reports_match_the_fraction_kernel(preset, cutoff, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mp past its canonical continuation
        table = parse_preset(preset).enumerate_up_to(cutoff)

    def reports():
        return json.dumps([r.to_json() for r in run_all_checks(table)], indent=2)

    def product_by_fractions(table, skew):
        """P*N of the public Fraction series by the Fraction loop, its keys
        put on the table's grid where the reports read them."""
        product = convolve_by_fractions(growth_series(table), table.grid.series(skew))
        return {table.grid.point(key): coeff for key, coeff in product.items()}

    on_grid = reports()
    monkeypatch.setattr(checks, "_product", product_by_fractions)
    assert reports() == on_grid


def test_battery_sums_n_once(braid3_table, monkeypatch):
    calls = []

    def counted(table, forest):
        calls.append(forest)
        return skew_on_grid(table, forest)

    monkeypatch.setattr(checks, "skew_on_grid", counted)
    reports = run_all_checks(braid3_table)
    assert len(calls) == 1
    assert [r.status for r in reports] == [PASS, PASS, PASS, PASS]


def test_lcm_reduction_fails_at_the_least_wrong_term_of_n(braid3_table):
    forest = enumerate_towers(braid3_table)
    assert skew_on_grid(braid3_table, forest) == {0: 1, 1: -2, 3: 1}
    report = checks._lcm_report(braid3_table, forest, {0: 1, 1: -1, 3: 2})
    assert report.status == FAIL
    assert report.max_degree_verified == 1
    assert report.counterexample == {
        "degree": "1", "reduced_coefficient": -2, "tower_coefficient": -1,
    }
