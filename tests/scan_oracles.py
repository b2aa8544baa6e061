"""Pair-by-pair product scans: the slow, obviously correct references for the
atoms, the divisibility poset and the cancellativity probe, which the
library derives from its generator maps instead.

Each scan walks every pair of elements whose degrees fit under the cutoff
and asks the table for their product.
"""
from skewgrowth.checks import FAIL, PASS, CheckReport
from skewgrowth.dirichlet import key_add, key_sub, key_zero, render_key


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
            other_degree = key_sub(kind, total, factor_degree)
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
