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
``convolve``, which packs a rational product into one big-int product on
keys scaled to ints, or runs the same loop on them.  Growth and
skew series summed on ``Fraction`` degrees read off each element's least
word check the int grid a presented table keeps its degrees on.  A subset
walk that tests every later candidate at every node, minimal elements read
from divisor masks, the tower enumeration built on the two, and an
lcm-reduction that walks the ground's subsets again check the survivor-pool
walk, the minimal-element peel and the lcm-reduction read off the forest.

Beside them sit helpers only the tests need: the poset queries ``divides``,
``common_multiples`` and ``min_common_multiples`` on the multiple masks,
``mask_to_ids``, ``series_add`` and ``series_neg`` for the ring laws,
``key_add`` and ``first_difference`` on keys as they are, the
per-height degree floor ``height_headroom_holds``, which like the oracles
reads the least positive degree off the table's public degrees, and
``tower_chain``, a tower's stage and top lists walked off its parent indices.
"""
import functools
import operator
from fractions import Fraction

from skewgrowth.checks import FAIL, NOT_APPLICABLE, PASS, CheckReport, check_cancellative
from skewgrowth.dirichlet import (
    KeyKind,
    Series,
    growth_series,
    key_zero,
    render_key,
    series_mul,
    series_one,
)
from skewgrowth.dirichlet import _check_compatible
from skewgrowth.errors import NonUnitConstantTermError
from skewgrowth.towers import Tower, TowerForest, _validate_ground, skew_growth


def mask_to_ids(mask: int) -> list[int]:
    """The set bits of *mask*, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def divides(poset, u: int, v: int) -> bool:
    return bool(poset.multiples(u) >> v & 1)


def _common_mask(poset, index_set) -> int:
    """The common right multiples of a non-empty index set, as a mask."""
    return functools.reduce(operator.and_, map(poset.multiples, index_set))


def common_multiples(poset, index_set) -> list[int]:
    return mask_to_ids(_common_mask(poset, index_set))


def min_common_multiples(poset, index_set) -> list[int]:
    """The minimal common multiples, peeled by the poset."""
    return poset.minimal_in_mask(_common_mask(poset, index_set))


def series_add(f: Series, g: Series) -> Series:
    _check_compatible(f, g)
    terms = dict(f.terms)
    for key, coeff in g.terms.items():
        new = terms.get(key, 0) + coeff
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)
    return Series(f.kind, f.cutoff, dict(sorted(terms.items())))


def series_neg(f: Series) -> Series:
    return Series(f.kind, f.cutoff, {k: -c for k, c in f.terms.items()})


def key_add(kind, a, b):
    """a (+) b on keys as they are: a sum of ``Fraction``s, a product of ints."""
    return a + b if kind is KeyKind.RATIONAL else a * b


def first_difference(f: Series, g: Series):
    """The least key where two series differ; they must differ."""
    return min(key for key in f.terms.keys() | g.terms.keys()
               if f.terms.get(key, 0) != g.terms.get(key, 0))


def key_repeat(kind, key, times: int):
    """*key* combined with itself *times* times (0 gives the zero key)."""
    return key * times if kind is KeyKind.RATIONAL else key ** times


def height_headroom_holds(table, tower: Tower) -> bool:
    """Degree floor per height: every top element of a height-n tower has
    degree at least (n + 1) combined copies of the least positive degree,
    read off the table's public degrees."""
    floor = key_repeat(table.key_kind, min(_positive_degrees(table)), tower.height + 1)
    return all(table.degree(eid) >= floor for eid in tower.top)


def tower_chain(forest: TowerForest, tower: Tower) -> tuple[tuple, tuple]:
    """The stages of *tower* and the top after each, from height 1 up,
    walked off the parent indices into *forest*."""
    chain = []
    while tower.parent is not None:
        chain.append(tower)
        tower = forest.towers[tower.parent]
    chain.reverse()
    return tuple(t.stage for t in chain), tuple(t.top for t in chain)


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
        bad = first_difference(product, one)
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
        bad = first_difference(skew, inverse)
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


def word_degrees(table) -> list[Fraction]:
    """The degree of each element of a presented table, as the ``Fraction``
    sum of its least word's generator degrees."""
    names = [g.name for g in table.presentation.generators if g.degree <= table.cutoff]
    return [table.presentation.word_degree([names[i] for i in table.word(e)])
            for e in table.all_elements()]


def series_by_fractions(table, forest) -> tuple[Series, Series]:
    """Growth and skew series of a presented table, summed on the
    ``Fraction`` degrees of :func:`word_degrees`; the towers are *forest*'s."""
    degrees = word_degrees(table)
    growth: dict = {}
    for degree in degrees:
        growth[degree] = growth.get(degree, 0) + 1
    skew = {Fraction(0): 1}
    for tower in forest:
        for eid in tower.top:
            skew[degrees[eid]] = skew.get(degrees[eid], 0) + tower.sign
    return (Series.build(KeyKind.RATIONAL, table.cutoff, growth),
            Series.build(KeyKind.RATIONAL, table.cutoff, skew))


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


def supported_subsets_by_rescan(poset, candidates, min_size):
    """Every subset of *candidates* of at least *min_size* elements with a
    common multiple in range, with its common-multiple mask, in
    lexicographic order; each node ANDs its mask with every later
    candidate."""
    candidates = list(candidates)

    def rec(start, chosen, mask):
        for i in range(start, len(candidates)):
            eid = candidates[i]
            next_mask = mask & poset.multiples(eid) if chosen else poset.multiples(eid)
            if not next_mask:
                continue
            chosen.append(eid)
            if len(chosen) >= min_size:
                yield tuple(chosen), next_mask
            yield from rec(i + 1, chosen, next_mask)
            chosen.pop()

    yield from rec(0, [], 0)


def minimal_by_divisors(poset, subset):
    """The members of *subset* with no strict divisor in it, ascending,
    each tested against its divisor mask."""
    mask = 0
    for eid in subset:
        mask |= 1 << eid
    return sorted(eid for eid in subset
                  if poset.divisor_masks[eid] & mask & ~(1 << eid) == 0)


def min_common_multiples_by_divisors(poset, index_set):
    return minimal_by_divisors(poset, common_multiples(poset, index_set))


def headroom_candidates(table, tower: Tower) -> list[int]:
    """The elements of *tower*'s top that keep one least positive degree
    of headroom below the cutoff: the picks its stages may draw from."""
    d_min = min(_positive_degrees(table))
    return [eid for eid in tower.top
            if key_add(table.key_kind, table.degree(eid), d_min) <= table.cutoff]


def towers_by_rescan(table, ground=None) -> TowerForest:
    """Breadth-first towers over *ground* (default the atoms), each stage
    found by the rescanning walk and each top by divisor masks.  A tower
    keeps its chain's total stage size, so that its sign is the closed form
    (-1) ** (sum of the stage sizes - height + 1)."""
    poset = table.poset()
    if ground is None:
        ground = table.atoms()
        if not ground:
            return TowerForest((Tower(),))
    ground = _validate_ground(table, poset, ground)
    towers, picked = [Tower(None, (), ground, 0, -1)], [0]
    for i, tower in enumerate(towers):  # grows while it is read
        candidates = headroom_candidates(table, tower)
        for stage, mask in supported_subsets_by_rescan(poset, candidates, 2):
            top = tuple(minimal_by_divisors(poset, mask_to_ids(mask)))
            height, total = tower.height + 1, picked[i] + len(stage)
            towers.append(Tower(i, stage, top, height, (-1) ** (total - height + 1)))
            picked.append(total)
    return TowerForest(tuple(towers))


def lcm_reduction_by_walk(table, ground=None) -> CheckReport:
    """Every nonempty ground subset with a common multiple in range, walked
    in lexicographic order: the first with several minimal common multiples
    makes the check not applicable; otherwise 1 + sum (-1)^|J| t^deg(D_J)
    is compared with the tower series of the rescanning enumeration."""
    poset = table.poset()
    forest = towers_by_rescan(table, ground)
    kind = table.key_kind
    terms = {key_zero(kind): 1}
    for subset, mask in supported_subsets_by_rescan(poset, forest.ground, 1):
        tops = minimal_by_divisors(poset, mask_to_ids(mask))
        if len(tops) > 1:
            return CheckReport(
                name="lcm-reduction",
                status=NOT_APPLICABLE,
                counterexample={
                    "subset": [table.label(e) for e in subset],
                    "minimal_common_multiples": [table.label(e) for e in tops],
                },
                notes="a ground subset has several minimal common multiples",
                key_kind=kind,
            )
        degree = table.degree(tops[0])
        terms[degree] = terms.get(degree, 0) + (-1 if len(subset) % 2 else 1)
    reduced = Series.build(kind, table.cutoff, terms)
    skew = skew_growth(table, forest=forest)
    if reduced != skew:
        bad = first_difference(reduced, skew)
        return CheckReport(
            name="lcm-reduction",
            status=FAIL,
            max_degree_verified=bad,
            counterexample={
                "degree": render_key(kind, bad),
                "reduced_coefficient": reduced.coefficient(bad),
                "tower_coefficient": skew.coefficient(bad),
            },
            notes="inclusion-exclusion over unique lcms disagrees with towers",
            key_kind=kind,
        )
    return CheckReport(
        name="lcm-reduction",
        status=PASS,
        max_degree_verified=table.cutoff,
        notes="unique-lcm inclusion-exclusion reproduces the tower series",
        key_kind=kind,
    )
