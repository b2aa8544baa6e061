"""Slow, obviously correct references for what the library derives from
shared structures instead.

Pair-by-pair product scans check the atoms, the divisibility poset and the
cancellativity probe, which the library reads off its generator maps; each
scan walks every pair of elements whose degrees fit under the cutoff and
asks the table for their product.  Two series computations check the
inversion and recursion reports, which the library reads off one truncated
convolution P*N: the inversion identity as P*N against 1 followed by N
against invert(P), and the count recursion summed degree by degree.  A pull
solve over the closure of the support checks ``series_invert``, which
pushes each solved coefficient forward instead.  The convolution loop on the
keys as given, ``Fraction`` sums and comparisons for rational keys, checks
``convolve``, which runs the same loop on keys scaled to ints.
"""
import operator

from skewgrowth.checks import (
    FAIL,
    PASS,
    CheckReport,
    _first_difference,
    check_cancellative,
)
from skewgrowth.dirichlet import (
    KeyKind,
    Series,
    growth_series,
    key_add,
    key_zero,
    render_key,
    series_mul,
    series_one,
)
from skewgrowth.errors import NonUnitConstantTermError
from skewgrowth.towers import skew_growth


def _key_sub(kind, a, b):
    """The key c with b (+) c == a, or None where there is none."""
    if kind is KeyKind.RATIONAL:
        d = a - b
        return d if d >= 0 else None
    q, r = divmod(a, b)
    return q if r == 0 else None


def _positive_degrees(table):
    zero = key_zero(table.key_kind)
    return [d for d in table.realized_degrees() if d != zero]


def atoms_by_scan(table) -> tuple[int, ...]:
    """The non-units that are not a product of two non-units."""
    non_atoms = set()
    positive = _positive_degrees(table)
    for du in positive:
        for dx in positive:
            if key_add(table.key_kind, du, dx) > table.cutoff:
                continue
            for u in table.elements_of_degree(du):
                for x in table.elements_of_degree(dx):
                    non_atoms.add(table.product(u, x))
    return tuple(e for e in table.all_elements() if e != table.unit and e not in non_atoms)


def masks_by_scan(table) -> tuple[list[int], list[int]]:
    """(divisor masks, multiple masks): bit u of divisors[v] and bit v of
    multiples[u] are set for every in-range product u*x == v."""
    divisors = [0] * table.n_elements
    multiples = [0] * table.n_elements
    degrees = table.realized_degrees()
    for du in degrees:
        for dx in degrees:
            if key_add(table.key_kind, du, dx) > table.cutoff:
                continue
            for u in table.elements_of_degree(du):
                for x in table.elements_of_degree(dx):
                    v = table.product(u, x)
                    divisors[v] |= 1 << u
                    multiples[u] |= 1 << v
    return divisors, multiples


def cancellative_by_scan(table) -> CheckReport:
    """Every factor against every degree slice, product degrees ascending,
    then factor degree, side (left first) and factor id; the first collision
    is the reported witness."""
    kind = table.key_kind
    degrees = table.realized_degrees()
    for total in degrees:
        for factor_degree in _positive_degrees(table):
            other_degree = _key_sub(kind, total, factor_degree)
            if other_degree is None or not table.elements_of_degree(other_degree):
                continue
            for side in ("left", "right"):
                witness = _collision(table, side, factor_degree, other_degree)
                if witness is None:
                    continue
                factor, first, second = witness
                return CheckReport(
                    name="cancellativity",
                    status=FAIL,
                    max_degree_verified=total,
                    counterexample={
                        "side": side,
                        "factor": table.label(factor),
                        "first": table.label(first),
                        "second": table.label(second),
                        "product_degree": render_key(kind, total),
                    },
                    notes=(
                        f"{side} multiplication by {table.label(factor)} "
                        f"identifies {table.label(first)} and {table.label(second)}"
                    ),
                    key_kind=kind,
                )
    return CheckReport(
        name="cancellativity",
        status=PASS,
        max_degree_verified=table.cutoff,
        notes="no collision among products of degree <= cutoff",
        key_kind=kind,
    )


def _collision(table, side, factor_degree, other_degree):
    for factor in table.elements_of_degree(factor_degree):
        seen = {}
        for other in table.elements_of_degree(other_degree):
            if side == "left":
                result = table.product(factor, other)
            else:
                result = table.product(other, factor)
            if result is None:
                continue
            if result in seen:
                return factor, seen[result], other
            seen[result] = other
    return None


def inversion_two_step(table, forest=None, cancellativity=None) -> CheckReport:
    """P*N == 1 under truncated convolution, then N == invert(P) term by
    term, each reported at its first differing degree."""
    if cancellativity is None:
        cancellativity = check_cancellative(table)
    growth = growth_series(table)
    skew = skew_growth(table, forest=forest)
    product = series_mul(growth, skew)
    one = series_one(table.key_kind, table.cutoff)
    notes = f"cancellativity probe: {cancellativity.status}"
    if product != one:
        bad = _first_difference(product, one)
        return CheckReport(
            name="inversion",
            status=FAIL,
            max_degree_verified=bad,
            counterexample={
                "degree": render_key(table.key_kind, bad),
                "product_coefficient": product.coefficient(bad) - one.coefficient(bad),
            },
            notes=f"P*N deviates from 1 first at degree {render_key(table.key_kind, bad)}; "
                  f"{notes}",
            key_kind=table.key_kind,
        )
    inverse = invert_by_closure(growth)
    if skew != inverse:
        bad = _first_difference(skew, inverse)
        return CheckReport(
            name="inversion",
            status=FAIL,
            max_degree_verified=bad,
            counterexample={
                "degree": render_key(table.key_kind, bad),
                "skew_coefficient": skew.coefficient(bad),
                "inverse_coefficient": inverse.coefficient(bad),
            },
            notes=(
                f"tower series differs from invert(P) first at degree "
                f"{render_key(table.key_kind, bad)}; {notes}"
            ),
            key_kind=table.key_kind,
        )
    return CheckReport(
        name="inversion",
        status=PASS,
        max_degree_verified=table.cutoff,
        notes=f"P*N == 1 and N == invert(P) up to cutoff; {notes}",
        key_kind=table.key_kind,
    )


def recursion_by_sum(table, forest=None) -> CheckReport:
    """The count recursion sum over terms (k, c) of N of c * m(t - k), from
    the element counts m, at every degree t > 0 reachable as a tower
    contribution plus an element degree, in increasing order."""
    kind = table.key_kind
    zero = key_zero(kind)
    skew = skew_growth(table, forest=forest)
    counts = {d: len(table.elements_of_degree(d)) for d in table.realized_degrees()}
    targets = set()
    for n_key in skew.terms:
        for degree in counts:
            total = key_add(kind, n_key, degree)
            if total <= table.cutoff and total != zero:
                targets.add(total)
    for total in sorted(targets):
        acc = 0
        for n_key, coeff in skew.terms.items():
            rest = _key_sub(kind, total, n_key)
            if rest is None:
                continue
            acc += coeff * counts.get(rest, 0)
        if acc:
            return CheckReport(
                name="recursion",
                status=FAIL,
                max_degree_verified=total,
                counterexample={"degree": render_key(kind, total), "residual": acc},
                notes=f"count recursion fails first at degree {render_key(kind, total)}",
                key_kind=kind,
            )
    return CheckReport(
        name="recursion",
        status=PASS,
        max_degree_verified=table.cutoff,
        notes=f"count recursion holds at all {len(targets)} reachable degrees",
        key_kind=kind,
    )


def convolve_by_fractions(f: Series, g: Series) -> dict:
    """Every reachable key ``ka (+) kb <= cutoff`` mapped to its summed
    coefficient, zeros kept, with each pass over g's sorted terms stopped at
    the first key past the cutoff; keys are combined as they are stored."""
    combine = operator.add if f.kind is KeyKind.RATIONAL else operator.mul
    right = sorted(g.terms.items())
    acc: dict = {}
    for ka, ca in f.terms.items():
        for kb, cb in right:
            key = combine(ka, kb)
            if key > f.cutoff:
                break
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


def _support_closure(kind, base, cutoff) -> list:
    """All nonzero keys reachable as combinations of *base* keys, <= cutoff,
    in increasing order; the inverse is supported inside this closure."""
    zero = key_zero(kind)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for b in base:
            nxt = key_add(kind, cur, b)
            if nxt <= cutoff and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    seen.discard(zero)
    return sorted(seen)


def invert_by_closure(f: Series) -> Series:
    """The truncated inverse of *f* solved key by key in increasing order:
    each coefficient pulls in every (base key, remaining key) pair."""
    kind, cutoff = f.kind, f.cutoff
    zero = key_zero(kind)
    unit = f.terms.get(zero, 0)
    if unit not in (1, -1):
        raise NonUnitConstantTermError(
            f"cannot invert: constant term is {unit}, need 1 or -1"
        )
    positive = [k for k in f.terms if k != zero]
    inv: dict = {zero: unit}  # 1/unit == unit for unit in {1,-1}
    for key in _support_closure(kind, positive, cutoff):
        total = 0
        for base in positive:
            rest = _key_sub(kind, key, base)
            if rest is None:
                continue
            coeff = inv.get(rest)
            if coeff:
                total += f.terms[base] * coeff
        if total:
            inv[key] = -unit * total
    return Series(kind, cutoff, dict(sorted(inv.items())))
