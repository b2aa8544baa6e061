"""The arithmetical congruence monoid {1} u {n = 1 mod M} under
multiplication, as an element table, and the Dirichlet inverse of its
indicator: the oracle its skew-growth series must equal.

For M = 4 this is Hilbert's monoid.  It is cancellative and commutative but
factors non-uniquely (441 = 9*49 = 21*21), so its minimal common multiples
need not be unique and its towers rise above height 1, which no builtin
gives on multiplicative keys.  Its growth series P is the indicator of the
monoid, so its skew-growth series N, which the inversion formula makes the
inverse of P, is the Dirichlet inverse of that indicator (P. Baginski and
S. T. Chapman, "Arithmetical congruence monoids: a survey", 2013).  M = 1
gives the positive integers, and N the Moebius function.
"""
from skewgrowth.dirichlet import Grid, KeyKind
from skewgrowth.models import ElementTable


class CongruenceTable(ElementTable):
    """The members n <= cutoff of {1} u {n = 1 mod M}, n at id (n - 1) // M,
    with n itself as its degree.  The letters are the atoms, the members
    with no factorization into two non-unit members, found by a least-atom
    sieve: each atom, ascending, marks its multiples by members that no
    smaller atom has marked.  Each element splits as its least atom times
    the rest, and the right maps are the left maps."""

    def __init__(self, modulus: int, cutoff: int):
        self.modulus = modulus
        members = range(1, cutoff + 1, modulus)
        least = [0] * len(members)  # an element's least atom; 0 for the unit and atoms
        atoms = []
        for eid, n in enumerate(members[1:], 1):
            if not least[eid]:
                atoms.append(n)
                for m in members[1:(cutoff // n - 1) // modulus + 1]:
                    if not least[(n * m - 1) // modulus]:
                        least[(n * m - 1) // modulus] = n
        letter = {a: i for i, a in enumerate(atoms)}
        firsts, tails = [0] * len(members), [0] * len(members)
        for eid, n in enumerate(members[1:], 1):
            a = least[eid] or n
            firsts[eid], tails[eid] = letter[a], (n // a - 1) // modulus
        super().__init__(Grid(KeyKind.MULTINT, cutoff), list(members),
                         {n: (eid,) for eid, n in enumerate(members)},
                         [[(a * n - 1) // modulus for n in members[:(cutoff // a - 1) // modulus + 1]]
                          for a in atoms],
                         firsts, tails)

    def right_maps(self) -> list[list[int]]:
        """The left maps: multiplication commutes."""
        return self.left_maps()

    def element_id(self, n: int) -> int | None:
        if 1 <= n <= self.cutoff and (n - 1) % self.modulus == 0:
            return (n - 1) // self.modulus
        return None

    def label(self, eid: int) -> str:
        return str(self.grid_degrees[eid])

    def parse_label(self, text: str) -> int | None:
        return self.element_id(int(text))


def indicator_inverse(modulus: int, cutoff: int) -> dict[int, int]:
    """The nonzero values up to *cutoff* of the Dirichlet inverse g of the
    indicator of {1} u {n = 1 mod M}: g(1) = 1 and, for n > 1, g(n) is
    minus the sum of g(d) over the members d < n whose cofactor n / d is a
    member.  Each g(d), final when the loop reaches d, is pushed to its
    multiples."""
    inverse = dict.fromkeys(range(1, cutoff + 1, modulus), 0)
    inverse[1] = 1
    for d, value in inverse.items():  # later values fill as it runs
        if value:
            for m in range(1 + modulus, cutoff // d + 1, modulus):
                inverse[d * m] -= value
    return {n: value for n, value in inverse.items() if value}
