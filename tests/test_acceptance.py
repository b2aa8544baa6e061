"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value here is either derived in-test from an independent
oracle (closed forms, a Mobius sieve, brute-force recomputation) or is a
frozen hand-checked constant; nothing is read back from the code under test.
Wall-clock budgets are asserted where the criterion carries one.
"""
import time
from fractions import Fraction

import pytest
from mp_reference import element_of_id, mp_min_common_multiples
from scan_oracles import height_headroom_holds, min_common_multiples, tower_chain

from skewgrowth.checks import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    check_cancellative,
    check_lcm_reduction,
    check_recursion,
)
from skewgrowth.dirichlet import (
    KeyKind,
    Series,
    growth_series,
    series_invert,
    series_mul,
    series_one,
)
from skewgrowth.models import RewriteModel
from skewgrowth.mp_family import MpSpec, family_presentation
from skewgrowth.presentation import parse_presentation
from skewgrowth.presets import builtin
from skewgrowth.towers import enumerate_towers, skew_growth

F = Fraction


def _verdict(capsys, number: int, label: str, ok: bool, elapsed: float | None = None,
             budget: float | None = None) -> None:
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label}{timing}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_example3_closed_forms(capsys):
    start = time.perf_counter()
    table = builtin("example3").enumerate_up_to(F(20))
    growth = growth_series(table)
    skew = skew_growth(table)
    elapsed = time.perf_counter() - start

    expected_growth = {F(0): 1}
    expected_growth.update({F(d): 2 for d in range(1, 21)})
    expected_skew = {F(0): 1}
    expected_skew.update({F(d): (2 if d % 2 == 0 else -2) for d in range(1, 21)})
    ok = (
        growth.terms == expected_growth
        and skew.terms == expected_skew
        and elapsed < 10.0
    )
    _verdict(capsys, 1, "example3 growth and skew closed forms to degree 20",
             ok, elapsed, 10.0)


def _mobius_sieve(n: int) -> list[int]:
    mu = [1] * (n + 1)
    sieve = [True] * (n + 1)
    for p in range(2, n + 1):
        if sieve[p]:
            for m in range(p, n + 1, p):
                if m > p:
                    sieve[m] = False
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def test_criterion_2_multiplicative_integers_mobius(capsys):
    start = time.perf_counter()
    table = builtin("zpos", nmax=200).enumerate_up_to(200)
    growth = growth_series(table)
    skew = skew_growth(table)
    product = series_mul(growth, skew)
    elapsed = time.perf_counter() - start

    mu = _mobius_sieve(200)
    ok = (
        growth.terms == {n: 1 for n in range(1, 201)}
        and all(skew.coefficient(n) == mu[n] for n in range(1, 201))
        and product == series_one(KeyKind.MULTINT, 200)
        and elapsed < 10.0
    )
    _verdict(capsys, 2, "zpos to 200: unit growth, Mobius skew, P*N == 1",
             ok, elapsed, 10.0)


def test_criterion_3_example3_tower_shape(capsys):
    start = time.perf_counter()
    table = builtin("example3").enumerate_up_to(F(10))
    forest = enumerate_towers(table)
    elapsed = time.perf_counter() - start

    by_height: dict = {}
    for tower in forest:
        by_height.setdefault(tower.height, []).append(tower)
    ok = set(by_height) == set(range(10)) and elapsed < 10.0
    for height in range(10):
        towers = by_height.get(height, [])
        ok = ok and len(towers) == 1
        if not towers:
            continue
        top = towers[0].top
        ok = ok and len(top) == 2
        ok = ok and {table.degree(e) for e in top} == {F(height + 1)}
    _verdict(capsys, 3,
             "example3 to degree 10: one tower per height, twin tops at h+1",
             ok, elapsed, 10.0)


def test_criterion_4_height_bound_on_all_builtins(capsys):
    models = [
        builtin("free", count=2),
        builtin("example3"),
        builtin("braid3"),
        builtin("zpos", nmax=30),
        builtin("mp", p=[4, 8, 16]),
    ]
    ok = True
    for model in models:
        table = model.enumerate_up_to(model.default_cutoff)
        forest = enumerate_towers(table)
        ok = ok and all(height_headroom_holds(table, t) for t in forest)
    _verdict(capsys, 4, "degree floor (height+1)*d_min holds on every builtin tower", ok)


def test_criterion_5_master_oracle(capsys):
    cases = [
        ("free:2", builtin("free", count=2), F(12)),
        ("example3", builtin("example3"), F(12)),
        ("braid3", builtin("braid3"), F(10)),
        ("zpos:100", builtin("zpos", nmax=100), 100),
        ("mp", builtin("mp", p=[4, 8, 16]), F(8)),
    ]
    start = time.perf_counter()
    ok = True
    for name, model, cutoff in cases:
        table = model.enumerate_up_to(cutoff)
        growth = growth_series(table)
        skew = skew_growth(table)
        ok = ok and skew == series_invert(growth)
        ok = ok and check_recursion(table).status == PASS
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(capsys, 5,
             "five models: tower series inverts growth, count recursion holds",
             ok, elapsed, 60.0)


def test_criterion_6_lcm_reduction(capsys):
    braid = builtin("braid3").enumerate_up_to(F(8))
    braid_report = check_lcm_reduction(braid)
    braid_series_ok = skew_growth(braid).terms == {F(0): 1, F(1): -2, F(3): 1}

    zpos = builtin("zpos", nmax=30).enumerate_up_to(30)
    zpos_report = check_lcm_reduction(zpos)

    example = builtin("example3").enumerate_up_to(F(8))
    example_report = check_lcm_reduction(example)

    ok = (
        braid_report.status == PASS
        and braid_series_ok
        and zpos_report.status == PASS
        and example_report.status == NOT_APPLICABLE
    )
    _verdict(capsys, 6,
             "lcm reduction: braid3 gives 1 - 2t + t^3, zpos passes, "
             "example3 not applicable", ok)


def test_criterion_7_mp_family_dual_route(capsys):
    start = time.perf_counter()
    spec = MpSpec((4, 8, 16))
    cutoff = F(8)
    # the depth cap must be invisible at this cutoff: the next generator
    # under the canonical parameter pattern sits strictly above it
    assert cutoff < spec.degrees[-1] / 2 + F(2 ** (spec.depth + 2), 2)
    intrinsic = builtin("mp", p=[4, 8, 16]).enumerate_up_to(cutoff)
    rewrite = RewriteModel(family_presentation(spec)).enumerate_up_to(cutoff)

    # product formula, assembled from scratch
    expected = series_invert(Series.build(KeyKind.RATIONAL, cutoff, {0: 1, 1: -1}))
    for k in range(1, spec.depth + 1):
        terms = {F(0): 1}
        if spec.degrees[k] <= cutoff:
            terms[spec.degrees[k]] = 1
        expected = series_mul(expected, Series.build(KeyKind.RATIONAL, cutoff, terms))
    ok = growth_series(intrinsic) == expected

    # dual route: intrinsic normal forms vs generic rewrite enumeration
    ok = ok and [intrinsic.degree(e) for e in intrinsic.all_elements()] == \
        [rewrite.degree(e) for e in rewrite.all_elements()]
    ok = ok and [intrinsic.degree(a) for a in intrinsic.atoms()] == \
        [rewrite.degree(a) for a in rewrite.atoms()]
    ok = ok and growth_series(intrinsic) == growth_series(rewrite)
    ok = ok and skew_growth(intrinsic) == skew_growth(rewrite)

    # minimal common multiples of atom pairs, intrinsic scan vs poset
    poset = rewrite.poset()
    atoms = intrinsic.atoms()
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            members = [element_of_id(intrinsic, atoms[i]), element_of_id(intrinsic, atoms[j])]
            mine = [
                e.n + sum(b * d for b, d in zip(e.eps, spec.degrees[1:]))
                for e in mp_min_common_multiples(spec, members, cutoff=cutoff)
            ]
            theirs = [
                rewrite.degree(e)
                for e in min_common_multiples(
                    poset, [rewrite.atoms()[i], rewrite.atoms()[j]])
            ]
            ok = ok and mine == theirs
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(capsys, 7,
             "mp family: product-formula growth and intrinsic/rewrite agreement",
             ok, elapsed, 120.0)


def test_criterion_8_cancellativity_probe(capsys):
    ok = True
    for model in (
        builtin("free", count=2),
        builtin("example3"),
        builtin("braid3"),
        builtin("zpos", nmax=30),
        builtin("mp", p=[4, 8, 16]),
    ):
        table = model.enumerate_up_to(model.default_cutoff)
        ok = ok and check_cancellative(table).status == PASS

    bad = RewriteModel(parse_presentation(
        "gen a : 1\ngen b : 1\ngen c : 1\nrel a b = a c\n"
    )).enumerate_up_to(F(4))
    report = check_cancellative(bad)
    ok = ok and report.status == FAIL
    ok = ok and report.counterexample["factor"] == "a"
    ok = ok and {report.counterexample["first"],
                 report.counterexample["second"]} == {"b", "c"}
    _verdict(capsys, 8,
             "cancellativity: builtins pass, a*b == a*c is caught with witness", ok)


def test_criterion_9_truncation_exactness(capsys):
    ok = True
    for name in ("example3", "braid3"):
        small = builtin(name).enumerate_up_to(F(4))
        large = builtin(name).enumerate_up_to(F(8))

        growth_small = growth_series(small)
        growth_large = growth_series(large)
        restricted = Series.build(
            KeyKind.RATIONAL, F(4),
            {k: c for k, c in growth_large.terms.items() if k <= 4})
        ok = ok and growth_small == restricted

        skew_small = skew_growth(small)
        skew_large = skew_growth(large)
        restricted = Series.build(
            KeyKind.RATIONAL, F(4),
            {k: c for k, c in skew_large.terms.items() if k <= 4})
        ok = ok and skew_small == restricted

        ok = ok and [small.label(a) for a in small.atoms()] == [
            large.label(a) for a in large.atoms()
            if large.degree(a) <= 4]

        mcm_small = min_common_multiples(small.poset(), small.atoms())
        mcm_large = min_common_multiples(large.poset(), large.atoms())
        ok = ok and [small.label(e) for e in mcm_small] == [
            large.label(e) for e in mcm_large
            if large.degree(e) <= 4]

        # every small tower reappears at the larger cutoff with the same
        # stage picks, and its top is the visible part of the larger top
        def stage_labels(table, forest, tower):
            stages, _ = tower_chain(forest, tower)
            return tuple(tuple(table.label(e) for e in s) for s in stages)

        forest_small = enumerate_towers(small)
        forest_large = enumerate_towers(large)
        large_by_stages = {
            stage_labels(large, forest_large, t): t for t in forest_large.towers
        }
        for tower in forest_small.towers:
            partner = large_by_stages.get(stage_labels(small, forest_small, tower))
            if partner is None:
                ok = False
                continue
            visible = [large.label(e) for e in partner.top
                       if large.degree(e) <= 4]
            ok = ok and [small.label(e) for e in tower.top] == visible
            ok = ok and tower.sign == partner.sign
    _verdict(capsys, 9,
             "cutoff 4 agrees with cutoff 8 restricted: growth, skew, atoms, towers",
             ok)
