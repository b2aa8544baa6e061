"""Numerical semigroups <n_1, ..., n_k> in (Z>=0, +), degree the integer
itself, as presentation text, and the series they must have.

For coprime a and b the semigroup is presented by two letters of degrees a
and b, commuting, with the one further relation a^b = b^a: every
factorization of an integer n as i*a + j*b is the least one (j < a) moved
by whole swaps of b letters a for a letters b.  It is commutative and
cancellative, and it factors non-uniquely (a*b = b*a in two ways), so its
minimal common multiples are not all unique.  Its growth series P is the
indicator of the semigroup.  It is a complete intersection, so its
skew-growth series N, the inverse of P, is (1 - t^a)(1 - t^b)/(1 - t^(ab))
(J. C. Rosales and P. A. Garcia-Sanchez, *Numerical Semigroups*, Springer
2009).

With k >= 3 generators there is no such closed form, and no short list of
relations that is easy to check by eye, so :func:`semigroup_text` writes a
presentation that is right up to a cutoff by brute force: every pair of
letters commutes, and every factorization of each degree up to the cutoff
is identified with the first.  N is then checked against
:func:`indicator_inverse`, the inverse of P by a sieve.
"""
import itertools
import string

# <3, 4, 5> at every cutoff: the commutations and the three relations of a
# minimal presentation
THREE_FOUR_FIVE = """\
gen a : 3
gen b : 4
gen c : 5
rel a b = b a
rel a c = c a
rel b c = c b
rel b b = a c
rel c c = a a b
rel a a a = b c
"""


def two_generator_text(a: int, b: int) -> str:
    """The presentation of <a, b>, whose letters a and b have degrees a
    and b."""
    return (f"gen a : {a}\ngen b : {b}\n"
            f"rel a b = b a\n"
            f"rel {' '.join('a' * b)} = {' '.join('b' * a)}\n")


def indicator(a: int, b: int, cutoff: int) -> dict[int, int]:
    """1 at every member of <a, b> up to *cutoff*."""
    return {n: 1 for n in range(cutoff + 1)
            if any((n - j * b) % a == 0 for j in range(n // b + 1))}


def complete_intersection_inverse(a: int, b: int, cutoff: int) -> dict[int, int]:
    """(1 - t^a)(1 - t^b) times the sum of t^(k*a*b) over k >= 0, up to
    *cutoff*, zeros dropped."""
    terms: dict[int, int] = {}
    for shift in range(0, cutoff + 1, a * b):
        for n, c in ((0, 1), (a, -1), (b, -1), (a + b, 1)):
            if shift + n <= cutoff:
                terms[shift + n] = terms.get(shift + n, 0) + c
    return {n: c for n, c in terms.items() if c}


def factorizations(gens, n: int) -> list[tuple[int, ...]]:
    """The exponent vectors e with sum(e_i * gens[i]) == n, the largest
    power of the first generator first."""
    *rest, last = gens
    out = []
    for head in itertools.product(*(range(n // g, -1, -1) for g in rest)):
        left = n - sum(e * g for e, g in zip(head, rest))
        if left >= 0 and left % last == 0:
            out.append((*head, left // last))
    return out


def semigroup_text(gens, cutoff: int) -> str:
    """A presentation of <gens> that is right up to *cutoff*: one letter
    per generator, named a, b, c, ..., of its degree, every commutation,
    and for each degree up to *cutoff* every factorization set equal to
    the first."""
    names = string.ascii_lowercase[:len(gens)]
    lines = [f"gen {x} : {g}" for x, g in zip(names, gens)]
    lines += [f"rel {x} {y} = {y} {x}" for x, y in itertools.combinations(names, 2)]

    def word(exponents):
        return " ".join(x for x, e in zip(names, exponents) for _ in range(e))

    for n in range(cutoff + 1):
        found = factorizations(gens, n)
        lines += [f"rel {word(found[0])} = {word(other)}" for other in found[1:]]
    return "\n".join(lines) + "\n"


def members(gens, cutoff: int) -> dict[int, int]:
    """1 at every member of <gens> up to *cutoff*, by a sieve from 0."""
    member = [True] + [False] * cutoff
    for n in range(1, cutoff + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return {n: 1 for n in range(cutoff + 1) if member[n]}


def indicator_inverse(gens, cutoff: int) -> dict[int, int]:
    """The nonzero terms up to *cutoff* of the inverse g of the indicator
    of <gens> as a power series: g(0) = 1 and, for n > 0, g(n) is minus the
    sum of g(d) over the d < n with n - d a member.  Each g(d), final when
    the loop reaches d, is pushed to every d + s, s a non-zero member."""
    steps = [s for s in members(gens, cutoff) if s]
    inverse = [1] + [0] * cutoff
    for d, value in enumerate(inverse):  # later values fill as it runs
        if value:
            for s in steps:
                if d + s > cutoff:
                    break
                inverse[d + s] -= value
    return {n: value for n, value in enumerate(inverse) if value}
