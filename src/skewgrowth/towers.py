"""Towers of iterated minimal common multiples and the skew-growth series.

A tower starts from a fixed ground set ``I0`` (an antichain of non-units,
the atoms by default) and climbs by stages: each stage picks at least two
elements from the current top set and the next top set is the set of
minimal common multiples of that pick.  The tower of height 0 is the bare
ground; a tower of height n is determined by its stage list ``J_1..J_n``,
and its parent is the tower with the last stage removed, so the collection
of towers is a rooted tree.

Each tower contributes ``sign * t^deg(x)`` for every element x of its top
set, where the sign is ``(-1) ** (sum of stage sizes - height + 1)``; the
skew-growth series is one plus the total over all towers.  Multiplying it
with the growth series of the monoid gives exactly 1 when the monoid is
cancellative, which is what :mod:`skewgrowth.checks` verifies.

Truncation: a stage can only produce useful top elements if every picked
element keeps at least one minimal positive degree of headroom below the
cutoff, so candidate picks are filtered accordingly; every dropped tower
has its whole top set above the cutoff and cannot affect reported degrees.
Enumeration is breadth-first and fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dirichlet import Series, key_add, key_to_json, key_zero
from .divisibility import DivPoset
from .errors import InvalidGroundError


@dataclass(frozen=True)
class Tower:
    """One tower: the ground, stage picks, and the top set after each stage.

    ``tops[i]`` is the enumerated part of the minimal common multiples of
    ``stages[i]``.  Identity is the stage list: two towers over one ground
    are equal iff their stage lists are equal.
    """

    ground: tuple[int, ...]
    stages: tuple[tuple[int, ...], ...] = ()
    tops: tuple[tuple[int, ...], ...] = ()

    @property
    def height(self) -> int:
        return len(self.stages)

    @property
    def top(self) -> tuple[int, ...]:
        return self.tops[-1] if self.tops else self.ground

    @property
    def sign(self) -> int:
        exponent = sum(len(stage) for stage in self.stages) - self.height + 1
        return -1 if exponent % 2 else 1


@dataclass(frozen=True)
class TowerForest:
    """All towers over one ground, breadth-first, root (height 0) first.
    ``children[i]`` indexes into ``towers``."""

    ground: tuple[int, ...]
    towers: tuple[Tower, ...]
    children: tuple[tuple[int, ...], ...]

    def __iter__(self):
        return iter(self.towers)


def _min_positive_degree(table):
    positive = [d for d in table.realized_degrees() if d != key_zero(table.key_kind)]
    return min(positive) if positive else None


def _validate_ground(table, poset: DivPoset, ground: Sequence[int]) -> tuple[int, ...]:
    ground = tuple(ground)
    if not ground:
        raise InvalidGroundError("ground set is empty")
    if any(not isinstance(eid, int) or not 0 <= eid < table.n_elements for eid in ground):
        raise InvalidGroundError(f"ground ids must be ints in range({table.n_elements})")
    if len(set(ground)) != len(ground):
        raise InvalidGroundError("ground set repeats an element")
    if table.unit in ground:
        raise InvalidGroundError("ground set may not contain the unit")
    if set(poset.minimal_elements(ground)) != set(ground):
        raise InvalidGroundError("ground set is not an antichain under left division")
    return tuple(sorted(ground))


def enumerate_towers(table, poset: DivPoset | None = None,
                     ground: Sequence[int] | None = None) -> TowerForest:
    """Breadth-first tower enumeration over the table's full degree range."""
    poset = poset or table.poset()
    if ground is None:
        # default ground: the atoms; empty only for a trivial table, where
        # the forest is the bare root and the skew series is 1
        ground = table.atoms()
        if not ground:
            return TowerForest((), (Tower(()),), ((),))
    ground = _validate_ground(table, poset, ground)
    d_min = _min_positive_degree(table)
    towers: list[Tower] = [Tower(ground)]
    children: list[list[int]] = [[]]
    cursor = 0
    while cursor < len(towers):
        tower = towers[cursor]
        candidates = [
            eid for eid in tower.top
            if key_add(table.key_kind, table.degree(eid), d_min) <= table.cutoff
        ]
        for stage, mask in poset.iter_supported_subsets(candidates, min_size=2):
            top = poset.minimal_in_mask(mask)
            child = Tower(ground, tower.stages + (stage,), tower.tops + (tuple(top),))
            children[cursor].append(len(towers))
            towers.append(child)
            children.append([])
        cursor += 1
    return TowerForest(ground, tuple(towers), tuple(tuple(c) for c in children))


def skew_growth(table, forest: TowerForest | None = None) -> Series:
    """1 plus the signed degree sum over all tower tops, truncated at the
    table cutoff.  The towers are *forest*'s, by default those over the
    atoms; a forest over another ground gives that ground's series."""
    if forest is None:
        forest = enumerate_towers(table)
    kind = table.key_kind
    terms: dict = {key_zero(kind): 1}
    for tower in forest:
        sign = tower.sign
        for eid in tower.top:
            degree = table.degree(eid)
            total = terms.get(degree, 0) + sign
            if total:
                terms[degree] = total
            else:
                del terms[degree]
    return Series(kind, table.cutoff, dict(sorted(terms.items())))


# ---------------------------------------------------------------- exports

def forest_to_json(forest: TowerForest, table) -> dict:
    kind = table.key_kind
    return {
        "ground": [table.label(eid) for eid in forest.ground],
        "towers": [
            {
                "stages": [[table.label(e) for e in stage] for stage in tower.stages],
                "top": [table.label(e) for e in tower.top],
                "top_degrees": [key_to_json(kind, table.degree(e)) for e in tower.top],
                "sign": tower.sign,
                "height": tower.height,
            }
            for tower in forest.towers
        ],
    }


def forest_to_dot(forest: TowerForest, table) -> str:
    def node_label(tower: Tower) -> str:
        top = ", ".join(table.label(e) for e in tower.top)
        sign = "+1" if tower.sign > 0 else "-1"
        return f"h={tower.height} sign={sign} top={{{top}}}"

    lines = ["digraph towers {", "  node [shape=box];"]
    for i, tower in enumerate(forest.towers):
        escaped = node_label(tower).replace('"', '\\"')
        lines.append(f'  t{i} [label="{escaped}"];')
    for i, kids in enumerate(forest.children):
        for j in kids:
            lines.append(f"  t{i} -> t{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
