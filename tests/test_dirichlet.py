import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scan_oracles import convolve_by_fractions, invert_by_closure, series_add, series_neg
from skewgrowth import dirichlet
from skewgrowth.dirichlet import (
    KeyKind,
    Series,
    coerce_key,
    convolve,
    growth_series,
    parse_key,
    render_key,
    series_from_json,
    series_invert,
    series_mul,
    series_one,
    series_to_json,
)
from skewgrowth.errors import (
    CutoffMismatchError,
    KeyKindMismatchError,
    MalformedKeyError,
    NonUnitConstantTermError,
)

R = KeyKind.RATIONAL
M = KeyKind.MULTINT


# ------------------------------------------------------------------- keys

def test_coerce_rejects_floats():
    with pytest.raises(MalformedKeyError):
        coerce_key(R, 0.5)
    with pytest.raises(MalformedKeyError):
        coerce_key(M, 2.0)


def test_coerce_rejects_bad_values():
    with pytest.raises(MalformedKeyError):
        coerce_key(R, Fraction(-1, 2))
    with pytest.raises(MalformedKeyError):
        coerce_key(M, 0)
    with pytest.raises(MalformedKeyError):
        coerce_key(M, True)
    with pytest.raises(MalformedKeyError):
        coerce_key(R, False)
    with pytest.raises(MalformedKeyError):  # text is a key only through parse_key
        coerce_key(R, "1/2")
    with pytest.raises(MalformedKeyError):
        Series.build(R, 8, {object(): 1})


def test_rational_series_refuse_bool_keys():
    with pytest.raises(MalformedKeyError):
        Series.build(R, 8, {True: 2})
    with pytest.raises(MalformedKeyError):
        Series.build(R, True, {})
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": "rational", "cutoff": True, "terms": [[False, "1"]]})
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": "rational", "cutoff": "8", "terms": [[False, "1"]]})


@given(st.fractions(min_value=0, max_value=100))
def test_render_parse_roundtrip_rational(q):
    assert parse_key(R, render_key(R, q)) == q


@given(st.integers(min_value=1, max_value=10**6))
def test_render_parse_roundtrip_multint(n):
    assert parse_key(M, render_key(M, n)) == n


@pytest.mark.parametrize("kind, text", [(M, "x"), (R, "1/0"), (R, "a/b"), (R, "abc"),
                                        (R, "1.5")])
def test_parse_key_rejects_malformed_text(kind, text):
    with pytest.raises(MalformedKeyError):
        parse_key(kind, text)


# ------------------------------------------------------------------ build

def test_build_merges_and_drops_zeros():
    f = Series.build(R, 8, [(1, 2), (Fraction(1), -2), (2, 3), (3, 0)])
    assert f.terms == {Fraction(2): 3}


def test_build_rejects_keys_past_cutoff():
    with pytest.raises(MalformedKeyError):
        Series.build(R, 4, {Fraction(9, 2): 1})


def test_str_rendering():
    f = Series.build(R, 8, {0: 1, Fraction(5, 2): -3})
    assert str(f) == "1*t^0 - 3*t^5/2"
    assert str(Series.build(R, 8, {1: 0})) == "0"


# -------------------------------------------------------------- ring laws

def _rational_series(cutoff=Fraction(8), coefficients=st.integers(-5, 5), dense=False):
    keys = st.fractions(min_value=0, max_value=cutoff).filter(
        lambda q: q.denominator in (1, 2, 4)
    )
    terms = st.dictionaries(keys, coefficients, max_size=6)
    if dense:
        terms |= _dense([Fraction(n, 4) for n in range(int(4 * cutoff) + 1)], coefficients)
    return terms.map(lambda terms: Series.build(R, cutoff, terms))


def _multint_series(cutoff=30, coefficients=st.integers(-5, 5), dense=False):
    terms = st.dictionaries(st.integers(1, cutoff), coefficients, max_size=6)
    if dense:
        terms |= _dense(range(1, cutoff + 1), coefficients)
    return terms.map(lambda terms: Series.build(M, cutoff, terms))


def _dense(keys, coefficients):
    """A coefficient (drawn from *coefficients*, zeros dropped) at each of
    the first m of *keys*, for m from half of them to all of them."""
    keys = list(keys)
    return st.lists(coefficients, min_size=len(keys) // 2, max_size=len(keys)).map(
        lambda coeffs: dict(zip(keys, coeffs)))


# Coefficients of one series: signs that cancel often, small ints, or ints
# past 2**64, which need product slots wider than a machine word.
_COEFFICIENTS = st.sampled_from([st.sampled_from((-1, 1)), st.integers(-5, 5),
                                 st.integers(-2**70, 2**70)])


@given(_rational_series(), _rational_series(), _rational_series())
def test_rational_ring_laws(f, g, h):
    assert series_add(f, g) == series_add(g, f)
    assert series_mul(f, g) == series_mul(g, f)
    assert series_mul(f, series_mul(g, h)) == series_mul(series_mul(f, g), h)
    left = series_mul(f, series_add(g, h))
    right = series_add(series_mul(f, g), series_mul(f, h))
    assert left == right
    assert series_add(f, series_neg(f)) == Series.build(R, f.cutoff, {})


@given(_multint_series(), _multint_series(), _multint_series())
def test_multint_ring_laws(f, g, h):
    assert series_mul(f, g) == series_mul(g, f)
    assert series_mul(f, series_mul(g, h)) == series_mul(series_mul(f, g), h)


@settings(deadline=None)
@given(_COEFFICIENTS.flatmap(lambda c: st.tuples(
    _multint_series(coefficients=c, dense=True), _multint_series(coefficients=c, dense=True),
    _rational_series(coefficients=c, dense=True), _rational_series(coefficients=c, dense=True))))
def test_multint_convolution_matches_naive(drawn):
    # sparse factors and dense ones, up to every quarter up to 8, draw both
    # sides of the rule that packs a rational product or loops over it
    f, g, f_rational, g_rational = drawn
    for f, g in ((f, g), (f_rational, g_rational)):
        naive = {}
        for ka, ca in f.terms.items():
            for kb, cb in g.terms.items():
                key = ka * kb if f.kind is M else ka + kb
                if key <= f.cutoff:
                    naive[key] = naive.get(key, 0) + ca * cb
        # the loop runs over the shorter factor and sorts the other itself:
        # its cutoff break must not rely on the caller's order, and the
        # product, sums that cancel to 0 included, must not depend on which
        # factor is the shorter
        f_down, g_down = (Series(h.kind, h.cutoff, dict(sorted(h.terms.items(), reverse=True)))
                          for h in (f, g))
        assert convolve(f_down, g_down) == naive
        assert convolve(g_down, f_down) == naive
        assert series_mul(f, g) == Series.build(f.kind, f.cutoff, naive)


@pytest.mark.parametrize("kind, cutoff, f, g", [
    (M, 12, {1: 1, 2: 1}, {5: 1, 3: 2, 2: -1, 1: 1}),
    (R, Fraction(12), {0: 1, 1: 1}, {4: 1, 2: 2, 1: -1, 0: 1}),
])
def test_the_loop_is_symmetric_and_keeps_sums_that_cancel(kind, cutoff, f, g):
    # the shorter factor first and last; 1*2 and 2*1 (0+1 and 1+0) cancel
    f, g = Series.build(kind, cutoff, f), Series.build(kind, cutoff, g)
    product = convolve(f, g)
    assert product == convolve(g, f) == convolve_by_fractions(f, g)
    assert product[coerce_key(kind, 2 if kind is M else 1)] == 0


# ------------------------------------------------------------ scaled keys

_DENOMINATORS = (1, 2, 3, 4, 5, 8, 16)


def _fractions_up_to(bound, least=0):
    return st.sampled_from(_DENOMINATORS).flatmap(
        lambda d: st.integers(least, math.floor(bound * d)).map(lambda n: Fraction(n, d))
    )


def _series_on_mixed_denominators(count):
    """*count* rational series on one cutoff in (0, 20], where the cutoff and
    every key have denominators in _DENOMINATORS (17/3 and 33/16 among them).
    A series is sparse, up to 8 keys with any of those denominators, or
    dense, on the least multiples of one denominator, from half of those up
    to the cutoff to all of them; its coefficients are drawn from one of
    _COEFFICIENTS."""
    def sparse(cutoff, coefficients):
        return st.dictionaries(_fractions_up_to(cutoff), coefficients, max_size=8)

    def dense(cutoff, coefficients):
        return st.sampled_from(_DENOMINATORS).flatmap(lambda d: _dense(
            [Fraction(n, d) for n in range(math.floor(cutoff * d) + 1)], coefficients))

    def on(cutoff):
        terms = _COEFFICIENTS.flatmap(lambda c: sparse(cutoff, c) | dense(cutoff, c))
        return st.tuples(*[terms.map(lambda t: Series.build(R, cutoff, t))] * count)

    return _fractions_up_to(20, least=1).flatmap(on)


@settings(deadline=None)
@given(_series_on_mixed_denominators(2))
def test_convolve_matches_fraction_loop(pair):
    f, g = pair
    product = convolve(f, g)
    assert product == convolve_by_fractions(f, g)
    assert all(type(key) is Fraction for key in product)


_PACKING_ROWS = [  # size, coeff, packs, cutoff
    (201, 1, True, 200),        # two-byte slots
    (201, 3**45, False, 200),   # slots wider than 8 bytes: the loop
    (2, 1, False, 200),         # two terms on 201 ints: the loop is cheaper
    (2, 3**45, False, 200),
    (21, 1, False, 20),         # all 21 ints of a tiny grid: packing costs more than the loop
]


@pytest.mark.parametrize("size, coeff, packs, cutoff", _PACKING_ROWS,
                         ids=[f"{size}-{coeff}-{packs}" for size, coeff, packs, _ in _PACKING_ROWS])
def test_convolve_packs_dense_grids_and_loops_over_sparse_ones(size, coeff, packs, cutoff):
    # f * g is -coeff**2 at every even int it reaches and cancels at every
    # odd one; f * f reaches the slot width's bound, size * coeff**2, at
    # its greatest int
    f = Series.build(R, cutoff, {k: coeff for k in range(size)})
    g = Series.build(R, cutoff, {k: (-1) ** (k + 1) * coeff for k in range(size)})
    with mock.patch.object(dirichlet, "_packed_product", wraps=dirichlet._packed_product) as spy:
        product, square = convolve(f, g), convolve(f, f)
    assert spy.call_count == (2 if packs else 0)
    assert product == convolve_by_fractions(f, g)
    assert product[Fraction(0)] == -coeff**2 and product[Fraction(1)] == 0
    assert square == convolve_by_fractions(f, f)


def _grid_factor(kind, top, coefficients):
    """Int-keyed terms on the grid of *kind* up to *top*: sparse, up to 8
    ints, or dense, from half of the ints to all of them."""
    least = 0 if kind is R else 1
    sparse = st.dictionaries(st.integers(least, top), coefficients, max_size=8)
    return (sparse | _dense(range(least, top + 1), coefficients)).map(
        lambda terms: {n: c for n, c in terms.items() if c})


@settings(deadline=None)
@given(st.sampled_from([R, M]).flatmap(lambda kind: st.integers(1, 300).flatmap(
    lambda top: _COEFFICIENTS.flatmap(lambda c: st.tuples(
        st.just(kind), st.just(top), _grid_factor(kind, top, c), _grid_factor(kind, top, c))))))
def test_the_reach_and_the_slot_loop_match_the_fraction_loop(drawn):
    # the loop sums into list slots once the pairs are 4 times the ints
    # and into a dict below that; the reach ORs shifted supports; all of
    # them keep the ints where a sum cancels to 0
    kind, top, f, g = drawn
    expected = convolve_by_fractions(Series.build(kind, top, f), Series.build(kind, top, g))
    grid = dirichlet.Grid(kind, top)
    left, right = sorted(f.items()), sorted(g.items())
    assert dirichlet._convolve_by_loop(grid, left, right) == expected
    if kind is R and left and right:
        reached = {Fraction(n) for n in expected}
        flags = dirichlet._reach(left, right, top + 1)
        assert set(itertools.compress(range(top + 1), flags)) == reached


def test_kernels_take_raw_int_keys():
    f = Series(R, 8, {0: 1, 2: 1})  # the raw constructor keeps int keys
    product = convolve(f, f)
    assert product == {0: 1, 2: 2, 4: 1}
    assert all(type(key) is Fraction for key in product)
    inverse = series_invert(f)
    assert inverse == Series.build(R, 8, {0: 1, 2: -1, 4: 1, 6: -1, 8: 1})
    assert all(type(key) is Fraction for key in inverse.terms)


# -------------------------------------------------------------- inversion

def _invertible(series):
    """Series with constant term 1 or -1 (the only invertible ones)."""
    def with_unit(drawn):
        f, unit = drawn
        zero = Fraction(0) if f.kind is R else 1
        terms = {k: c for k, c in f.terms.items() if k != zero}
        return Series.build(f.kind, f.cutoff, {**terms, zero: unit})

    return st.tuples(series, st.sampled_from((1, -1))).map(with_unit)


@given(st.one_of(_invertible(_rational_series()), _invertible(_multint_series())))
def test_invert_is_a_right_inverse(f):
    assert series_mul(f, series_invert(f)) == series_one(f.kind, f.cutoff)


@given(_invertible(_rational_series()), _invertible(_multint_series()))
def test_invert_matches_closure_solve(f_rational, f_multint):
    for f in (f_rational, f_multint):
        assert series_invert(f) == invert_by_closure(f)
        # the solve sorts f itself: its cutoff break must not rely on the caller
        descending = Series(f.kind, f.cutoff, dict(sorted(f.terms.items(), reverse=True)))
        assert series_invert(descending) == invert_by_closure(f)


@settings(deadline=None)  # the Fraction oracle alone can take 0.2 s on one draw
@given(_invertible(_series_on_mixed_denominators(1).map(lambda drawn: drawn[0])))
def test_invert_matches_closure_solve_on_mixed_denominators(f):
    inverse = series_invert(f)
    assert inverse == invert_by_closure(f)
    assert all(type(key) is Fraction for key in inverse.terms)


@pytest.mark.parametrize("name", ["example3_table", "braid3_table", "free2_table",
                                  "zpos_table", "mp_table"])
def test_invert_matches_closure_solve_on_growth_series(name, request):
    growth = growth_series(request.getfixturevalue(name))
    assert series_invert(growth) == invert_by_closure(growth)


@given(_multint_series())
def test_invert_is_an_involution(f):
    f = series_add(f, series_one(M, f.cutoff))
    if f.coefficient(1) not in (1, -1):
        return
    assert series_invert(series_invert(f)) == f


def test_invert_requires_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        series_invert(Series.build(R, 8, {0: 2, 1: 1}))
    with pytest.raises(NonUnitConstantTermError):
        series_invert(Series.build(R, 8, {1: 1}))


def test_invert_geometric():
    f = Series.build(R, 6, {0: 1, 1: -1})
    assert series_invert(f) == Series.build(R, 6, {d: 1 for d in range(7)})


# ------------------------------------------------------------ mixed errors

def test_kind_mismatch_raises():
    with pytest.raises(KeyKindMismatchError):
        series_mul(series_one(R, 8), series_one(M, 8))


def test_cutoff_mismatch_raises():
    with pytest.raises(CutoffMismatchError):
        series_mul(series_one(R, 8), series_one(R, 9))


# ------------------------------------------------------------------- JSON

@given(_rational_series())
def test_json_roundtrip_rational(f):
    assert series_from_json(json.loads(json.dumps(series_to_json(f)))) == f


@given(_multint_series())
def test_json_roundtrip_multint(f):
    assert series_from_json(json.loads(json.dumps(series_to_json(f)))) == f


# past a float, parse_key's refusals, with '-' the one sign read: a digit
# separator, Arabic-Indic three, '+', a doubled, detached or bare '-'
@pytest.mark.parametrize("coeff", [2.5, "2.5", "1_0", "٣", "+3", " +3 ", "--3", "- 3", "-"])
def test_json_rejects_non_integral_coefficients(coeff):
    with pytest.raises(MalformedKeyError):
        series_from_json({"key_kind": "rational", "cutoff": "8", "terms": [["1", coeff]]})
    with pytest.raises(MalformedKeyError):
        Series.build(R, 8, {1: coeff})


def test_json_coefficients_read_signed_digits():
    obj = {"key_kind": "multint", "cutoff": "8", "terms": [["1", " -3 "], ["2", "12"]]}
    assert series_from_json(obj).terms == {1: -3, 2: 12}
    with pytest.raises(MalformedKeyError):  # more digits than int() reads by default
        series_from_json({"key_kind": "multint", "cutoff": "8", "terms": [["1", "9" * 5000]]})
    f = Series.build(R, 8, {0: 1, Fraction(1, 2): -(10 ** 40), 8: 7})
    assert series_from_json(json.loads(json.dumps(series_to_json(f)))) == f


@pytest.mark.parametrize("obj", [
    {"key_kind": "bogus", "cutoff": "8", "terms": []},
    {"key_kind": "rational", "terms": []},
    {"key_kind": "rational", "cutoff": "8", "terms": [["1"]]},
    {"key_kind": "multint", "cutoff": 8, "terms": [2]},
], ids=["unknown-kind", "no-cutoff", "one-element-term", "scalar-term"])
def test_json_rejects_malformed_shapes(obj):
    with pytest.raises(MalformedKeyError):
        series_from_json(obj)
