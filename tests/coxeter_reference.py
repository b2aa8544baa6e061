"""Artin monoids, and trace monoids among them, from a Coxeter matrix, as
presentation text, and the skew-growth series they must have.

A Coxeter matrix on k generators gives each pair i < j an order m_ij of 2
or more, or None for infinity.  The Artin monoid has one letter of degree 1
per generator and, for each finite m_ij, the braid relation
x_i x_j x_i ... = x_j x_i x_j ..., both sides of length m_ij; an infinite
order gives no relation.  With every order 2 or infinite it is the trace
monoid of the graph of the commuting pairs.

Its skew-growth series is
N = sum over the subsets J with W_J finite of (-1)^|J| t^(deg Delta_J), the
degree of the fundamental element Delta_J being the number of reflections
of the parabolic subgroup W_J (K. Saito, Proc. Japan Acad. 85 (2009);
E. Brieskorn and K. Saito, and P. Deligne, Invent. Math. 17 (1972)).  For
a trace monoid it is the signed clique polynomial of the commutation graph
(P. Cartier and D. Foata, 1969).  Whether W_J is finite, and its number of
reflections, are read off its Coxeter graph by the classification of the
finite irreducible Coxeter groups.
"""
import itertools
import string

INFINITY = None


def artin_text(orders: dict[tuple[int, int], int | None], rank: int) -> str:
    """The presentation of the Artin monoid with the Coxeter matrix whose
    entry at i < j is ``orders[i, j]`` (2 when absent), letters a, b, c, ..."""
    names = string.ascii_lowercase[:rank]
    lines = [f"gen {x} : 1" for x in names]
    for i, j in itertools.combinations(range(rank), 2):
        m = orders.get((i, j), 2)
        if m is not INFINITY:
            lines.append(f"rel {_alternating(names[i], names[j], m)} = "
                         f"{_alternating(names[j], names[i], m)}")
    return "\n".join(lines) + "\n"


def _alternating(x: str, y: str, length: int) -> str:
    return " ".join((x, y)[k % 2] for k in range(length))


def skew_growth_oracle(orders, rank: int, cutoff: int) -> dict[int, int]:
    """The nonzero terms of N up to *cutoff*, keyed by degree."""
    terms: dict[int, int] = {}
    for size in range(rank + 1):
        for subset in itertools.combinations(range(rank), size):
            degree = reflections(orders, subset)
            if degree is not None and degree <= cutoff:
                terms[degree] = terms.get(degree, 0) + (-1) ** size
    return {n: c for n, c in terms.items() if c}


def reflections(orders, subset) -> int | None:
    """The number of reflections of W_J for J = *subset*, or None when W_J
    is infinite: the sum over the components of J's Coxeter graph, whose
    edges are the pairs of order 3 or more."""
    edges = {pair: m for pair in itertools.combinations(subset, 2)
             if (m := orders.get(pair, 2)) is INFINITY or m >= 3}
    total, seen = 0, set()
    for start in subset:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in subset:
                if j not in component and tuple(sorted((i, j))) in edges:
                    component.add(j)
                    stack.append(j)
        seen |= component
        count = _irreducible_reflections(
            len(component), {pair: m for pair, m in edges.items() if pair[0] in component})
        if count is None:
            return None
        total += count
    return total


# the arm lengths, shortest first, of E_6, E_7 and E_8, the finite branched
# trees other than D_n
_EXCEPTIONAL = {(1, 2, 2): 36, (1, 2, 3): 63, (1, 2, 4): 120}


def _irreducible_reflections(n: int, edges: dict) -> int | None:
    """The number of reflections of the connected Coxeter graph on *n*
    nodes with *edges* (pair -> order), or None for an infinite group."""
    if n == 1:
        return 1
    if INFINITY in edges.values() or len(edges) != n - 1:  # a cycle, or an infinite order
        return None
    if n == 2:
        return next(iter(edges.values()))  # I2(m)
    degree = {}
    for i, j in edges:
        degree[i], degree[j] = degree.get(i, 0) + 1, degree.get(j, 0) + 1
    heavy = [(pair, m) for pair, m in edges.items() if m > 3]
    branches = [i for i, d in degree.items() if d > 2]
    if not branches and not heavy:
        return n * (n + 1) // 2  # A_n
    if branches:
        if heavy or len(branches) > 1 or degree[branches[0]] > 3:
            return None
        arms = tuple(sorted(_arm(edges, branches[0], j) for j in _neighbours(edges, branches[0])))
        return n * (n - 1) if arms[:2] == (1, 1) else _EXCEPTIONAL.get(arms)  # D_n or E_n
    if len(heavy) > 1:
        return None
    (pair, m), = heavy
    at_end = any(degree[i] == 1 for i in pair)
    if m == 4 and at_end:
        return n * n  # B_n
    if m == 4 and n == 4:
        return 24  # F_4, its heavy edge in the middle
    if m == 5 and at_end and n in (3, 4):
        return {3: 15, 4: 60}[n]  # H_3, H_4
    return None


def _neighbours(edges, i):
    return [j for pair in edges if i in pair for j in pair if j != i]


def _arm(edges, branch, first) -> int:
    """The number of nodes on the arm of *branch* that starts at *first*."""
    length, previous, node = 1, branch, first
    while True:
        following = [j for j in _neighbours(edges, node) if j != previous]
        if not following:
            return length
        length, previous, node = length + 1, node, following[0]
