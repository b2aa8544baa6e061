"""Numerical semigroups <a, b> in (Z>=0, +), degree the integer itself, as
presentation text, and the two series they must have.

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
