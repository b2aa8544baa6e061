"""Verification passes over an enumerated monoid table.

Each check returns a :class:`CheckReport` built by :func:`_report`; nothing
raises on a negative result, so a runner can collect every report before
deciding an exit code.  All verdicts are scoped to the enumerated range:
"pass" means no violation exists among elements of degree <= cutoff, which is
evidence, not a proof for the untruncated monoid.  The cancellativity probe
skips a side that a presented table's relations prove cancellative, with
the same report.  The checks compute on the table's grid ints (see
:class:`skewgrowth.dirichlet.Grid`).  Inversion, recursion and lcm
reduction each build a term map that must be all zero and fail at its
least nonzero int; :func:`run_all_checks` sums N once for all three.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .dirichlet import KeyKind, convolve_on_grid, key_to_json, render_key
from .divisibility import DivPoset
from .towers import TowerForest, enumerate_towers, skew_on_grid

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class CheckReport:
    name: str
    status: str
    max_degree_verified: object = None
    counterexample: dict | None = None
    notes: str = ""
    key_kind: KeyKind | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        degree = self.max_degree_verified
        if degree is not None:
            degree = key_to_json(self.key_kind, degree)
        return {
            "name": self.name,
            "status": self.status,
            "max_degree_verified": degree,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }


def _report(table, name: str, status: str, at: int | None = None,
            counterexample: dict | None = None, notes: str = "") -> CheckReport:
    """A report on *table*: a pass is verified up to the cutoff, a failure
    up to the grid int *at* where it was found, and a check that does not
    apply names no degree."""
    verified = table.cutoff if status == PASS else (None if at is None else table.grid.key(at))
    return CheckReport(name, status, verified, counterexample, notes, table.key_kind)


def _render(table, n: int) -> str:
    """The key at grid int *n*, as text."""
    return render_key(table.key_kind, table.grid.key(n))


def _least_nonzero(terms: dict) -> int | None:
    """The least int with a nonzero coefficient in *terms*, or None."""
    return min((n for n, coeff in terms.items() if coeff), default=None)


# ------------------------------------------------------------- cancellativity

def check_cancellative(table) -> CheckReport:
    """Collision probe for cancellativity on the enumerated range.

    The probe asks whether each generator map x -> g*x and x -> x*g is
    injective.  That suffices: a collision u*x == u*y with u = g*u' gives
    either u'*x == u'*y, a collision of smaller degree, or
    g*(u'*x) == g*(u'*y), one of the map of g; right products likewise.
    A failure is reported at the least witness, ordered by product degree,
    factor degree, side (left first) and factor id.  The same argument makes
    the factor of that least witness an atom, hence a generator, so it is
    the least of the first collisions of the maps.  Right maps that are
    the left ones are not probed again: a left witness sorts first.

    A side that a presented table's relations prove cancellative
    (:func:`_proven_sides`) has no collision, so its maps are neither built
    nor probed, and the report is the one the probe would give.
    """
    degrees, combine = table.grid_degrees, table.grid.combine
    proven = _proven_sides(getattr(table, "presentation", None))
    sides = {}
    if "left" not in proven:
        sides["left"] = table.left_maps()
    if "right" not in proven and (right := table.right_maps()) is not sides.get("left"):
        sides["right"] = right
    found = []
    for side, maps in sides.items():
        for factor, row in zip(table.generators(), maps):
            witness = _first_collision(row)
            if witness is not None:
                total = combine(degrees[factor], degrees[witness[1]])
                found.append((total, degrees[factor], side == "right", factor,
                              side) + witness)
    if not found:
        return _report(table, "cancellativity", PASS,
                       notes="no collision among products of degree <= cutoff")
    total, _, _, factor, side, first, second = min(found)
    factor, first, second = (table.label(e) for e in (factor, first, second))
    return _report(
        table, "cancellativity", FAIL, total,
        {"side": side, "factor": factor, "first": first, "second": second,
         "product_degree": _render(table, total)},
        f"{side} multiplication by {factor} identifies {first} and {second}")


def _proven_sides(presentation) -> tuple[str, ...]:
    """The sides, "left" and "right", on which the monoid *presentation*
    presents is cancellative by Adjan's theorem (S. I. Adjan 1966; J. H.
    Remmers, Adv. Math. 36, 1980): it is left cancellative when its left
    graph, one edge per relation joining the first letters of its two
    sides, has no cycle, a loop or a second edge between joined letters
    included; the right graph joins the last letters.  Relations too heavy
    for the cutoff count too: the table truncates the whole monoid, and
    more edges can only prove less.  None, for a table with no
    presentation, proves no side."""
    if presentation is None:
        return ()
    proven = []
    for side, end in (("left", 0), ("right", -1)):
        parent: dict[str, str] = {}  # union-find over the generator names
        for rel in presentation.relations:
            a, b = rel.lhs[end], rel.rhs[end]
            while a in parent:
                a = parent[a]
            while b in parent:
                b = parent[b]
            if a == b:
                break  # a cycle
            parent[a] = b
        else:
            proven.append(side)
    return tuple(proven)


def _first_collision(row: list[int]):
    """(first, second): the least id second with row[second] equal to an
    earlier value, and the least such earlier id first; None when row is
    injective."""
    if len(set(row)) == len(row):
        return None
    seen: dict = {}
    for x, result in enumerate(row):  # a row with a repeat returns in here
        if result in seen:
            return seen[result], x
        seen[result] = x


# ------------------------------------------------- inversion and recursion

def _product(table, skew: dict[int, int]) -> dict:
    """P*N on the table's grid over every reachable int, sums that cancel
    to 0 included; *skew* is N on the grid.  On a rational grid this is one
    packed big-int product, which also marks the reachable ints; on
    multiplicative keys it is the loop over pairs of terms."""
    return convolve_on_grid(table.grid, table.grid_counts().items(), skew.items())


def check_inversion(table, forest: TowerForest | None = None,
                    cancellativity: CheckReport | None = None) -> CheckReport:
    """Does the tower skew-growth series invert the growth series?

    Checks P*N == 1 under truncated convolution.  That alone gives
    N == invert(P): the constant terms multiply to 1, so P(0) is 1 or -1 and
    P is a unit of the truncated ring, whose inverse is unique.  The report
    notes the cancellativity probe's verdict, since the inversion identity is
    only meaningful evidence for cancellative input.
    """
    if cancellativity is None:
        cancellativity = check_cancellative(table)
    return _inversion_report(table, _product(table, skew_on_grid(table, forest)), cancellativity)


def _inversion_report(table, product: dict, cancellativity: CheckReport) -> CheckReport:
    notes = f"cancellativity probe: {cancellativity.status}"
    zero = table.grid.zero
    deviation = {**product, zero: product.get(zero, 0) - 1}  # P*N - 1
    bad = _least_nonzero(deviation)
    if bad is None:
        return _report(table, "inversion", PASS,
                       notes=f"P*N == 1 and N == invert(P) up to cutoff; {notes}")
    return _report(
        table, "inversion", FAIL, bad,
        {"degree": _render(table, bad), "product_coefficient": deviation[bad]},
        f"P*N deviates from 1 first at degree {_render(table, bad)}; {notes}")


def check_recursion(table, forest: TowerForest | None = None) -> CheckReport:
    """Element-count recursion: for every degree t > 0 reachable as a tower
    contribution plus an element degree,

        sum over terms (k, c) of N of  c * m(t - k)  ==  0

    with m the element count.  The left side is the coefficient of t in P*N,
    so this reads the same truncated convolution as the inversion check, at
    every reachable degree, including those where the sum cancels.
    """
    return _recursion_report(table, _product(table, skew_on_grid(table, forest)))


def _recursion_report(table, product: dict) -> CheckReport:
    residuals = {n: coeff for n, coeff in product.items() if n != table.grid.zero}
    bad = _least_nonzero(residuals)
    if bad is None:
        return _report(table, "recursion", PASS,
                       notes=f"count recursion holds at all {len(residuals)} reachable degrees")
    return _report(
        table, "recursion", FAIL, bad,
        {"degree": _render(table, bad), "residual": residuals[bad]},
        f"count recursion fails first at degree {_render(table, bad)}")


# -------------------------------------------------------------- lcm reduction

def check_lcm_reduction(table, poset: DivPoset | None = None,
                        forest: TowerForest | None = None) -> CheckReport:
    """Inclusion-exclusion shortcut available when minimal common multiples
    of ground subsets are unique.

    When every nonempty subset J of the ground with a common multiple in range
    has exactly one minimal common multiple D_J, the skew-growth series
    collapses to  1 + sum_J (-1)^|J| t^deg(D_J).  The check compares that sum
    against the tower series; a ground subset with two or more minimal common
    multiples makes the shortcut inapplicable and is reported as such, the
    first in lexicographic order over the sorted ground.

    The subsets are read off the forest, not walked again.  A singleton's
    only minimal common multiple is itself.  The subsets of two or more
    elements with a common multiple in range, and their minimal common
    multiples, are the stages and tops of the root's children, in the same
    order.  They are read from the towers after the root with no stop at
    height 2: a height-2 tower's parent is a root child with two or more
    tops, which breadth-first order lists first, and that child already
    makes the report not applicable.  The tower walk drops a ground element
    g whose degree plus the least positive degree d_min passes the cutoff,
    but such a g is in no supported subset: a common multiple of g and
    another element of the antichain is a strict multiple g*x, and x is a
    non-unit of degree at most that of g*x, hence enumerated, so deg(g*x)
    >= deg(g) (+) d_min is past the cutoff.

    Read off the forest, the comparison checks the code, not the monoid:
    when every child of the root has a single top, no tower rises above
    height 1, and the sum recounts the height-0 and height-1 terms of
    ``skew_growth``.  A FAIL then points to a bug in ``skew_growth`` or
    ``Tower.sign``, not to a property of the monoid.
    """
    if forest is None:
        forest = enumerate_towers(table, poset)
    return _lcm_report(table, forest, skew_on_grid(table, forest))


def _lcm_report(table, forest: TowerForest, skew: dict[int, int]) -> CheckReport:
    degrees = table.grid_degrees
    reduced = {table.grid.zero: 1}
    for eid in forest.ground:
        reduced[degrees[eid]] = reduced.get(degrees[eid], 0) - 1
    # the root's children are the height-1 towers, which directly follow it
    for child in forest.towers[1:]:
        subset, tops = child.stage, child.top
        if len(tops) > 1:
            return _report(table, "lcm-reduction", NOT_APPLICABLE, None,
                           {"subset": [table.label(e) for e in subset],
                            "minimal_common_multiples": [table.label(e) for e in tops]},
                           "a ground subset has several minimal common multiples")
        degree = degrees[tops[0]]
        reduced[degree] = reduced.get(degree, 0) + (-1 if len(subset) % 2 else 1)
    difference = {n: reduced.get(n, 0) - skew.get(n, 0) for n in reduced.keys() | skew.keys()}
    bad = _least_nonzero(difference)
    if bad is None:
        return _report(table, "lcm-reduction", PASS,
                       notes="unique-lcm inclusion-exclusion reproduces the tower series")
    return _report(
        table, "lcm-reduction", FAIL, bad,
        {"degree": _render(table, bad), "reduced_coefficient": reduced.get(bad, 0),
         "tower_coefficient": skew.get(bad, 0)},
        "inclusion-exclusion over unique lcms disagrees with towers")


def run_all_checks(table, ground=None) -> list[CheckReport]:
    """The full battery in a stable order, sharing one forest, the towers
    over *ground* (by default the atoms), and the one N summed from it."""
    forest = enumerate_towers(table, ground=ground)
    skew = skew_on_grid(table, forest)
    cancel = check_cancellative(table)
    product = _product(table, skew)
    return [
        cancel,
        _inversion_report(table, product, cancel),
        _recursion_report(table, product),
        _lcm_report(table, forest, skew),
    ]
