"""Canonical names for projective lattices and the coset reduction calculus.

A projective lattice commensurable with the distinguished one corresponds to
a unique upper-triangular coset representative [[M, b], [0, 1]] with M a
positive rational and b a rational in [0, 1); the pair (M, b) is the
lattice's name.  A name is stored as the named tuple (a, s, d) of the
primitive integral form [[a, s], [0, d]] of that representative, so
M = a/d and b = s/d; it hashes as that tuple but orders by (M, b).  This
module implements the reduction of an arbitrary positive-determinant matrix
to its name, the right group action on names, hyperdistance, and every
reader of text, a matrix's too.  All of it is integer arithmetic:
``parse_rational`` reads a rational as the pair (p, q) with q > 0, and
``clear_denominators`` is the one place such pairs become integers.
"""

from collections import namedtuple
from math import gcd, lcm

from .exact import ProjectiveMatrix, hermite


class LatticeName(namedtuple("LatticeName", "a s d")):
    """The name (M, b) = (a/d, s/d) as its Hermite triple (a, s, d).

    [[a, s], [0, d]] is the primitive integral form of [[M, b], [0, 1]]:
    a, d > 0, 0 <= s < d and gcd(a, s, d) == 1.  Names order by (M, b).
    """

    __slots__ = ()

    def __init__(self, a, s, d):
        if not (a > 0 and 0 <= s < d) or gcd(a, s, d) != 1:
            raise ValueError("(%s, %s, %s) is not a primitive Hermite triple" % (a, s, d))

    # all four, as a tuple has its own: total_ordering adds none, and > would order by (a, s, d)
    def __lt__(self, other: "LatticeName") -> bool:
        if not isinstance(other, LatticeName):
            return NotImplemented
        return (self.a * other.d, self.s * other.d) < (other.a * self.d, other.s * self.d)

    def __gt__(self, other: "LatticeName") -> bool:
        return other < self if isinstance(other, LatticeName) else NotImplemented

    def __le__(self, other: "LatticeName") -> bool:
        return not other < self if isinstance(other, LatticeName) else NotImplemented

    def __ge__(self, other: "LatticeName") -> bool:
        return not self < other if isinstance(other, LatticeName) else NotImplemented

    def matrix(self) -> ProjectiveMatrix:
        return ProjectiveMatrix(self.a, self.s, 0, self.d)

    def __str__(self) -> str:
        return name_text(*self)

    @classmethod
    def parse(cls, text: str) -> "LatticeName":
        parts = text.strip().split(",")
        if len(parts) != 2:
            raise ValueError("bad lattice name %r (expected M,b)" % text)
        return _name_of_pairs(parse_rational(parts[0]), parse_rational(parts[1]))


L1 = LatticeName(1, 0, 1)


def _ratio_text(p: int, q: int) -> str:
    # p/q for q > 0, printed as its Fraction prints
    g = gcd(p, q)
    return "%d" % (p // g) if g == q else "%d/%d" % (p // g, q // g)


def name_text(a: int, s: int, d: int) -> str:
    """The printed name ``M,b`` of the Hermite triple (a, s, d), from integers."""
    return "%s,%s" % (_ratio_text(a, d), _ratio_text(s, d))


def _name_of_pairs(m: tuple[int, int], b: tuple[int, int]) -> LatticeName:
    # M = p/q and b = p'/q' with q, q' > 0, checked and cleared to (a, s, d)
    if m[0] <= 0:
        raise ValueError("lattice name needs M > 0, got %s" % _ratio_text(*m))
    if not 0 <= b[0] < b[1]:
        raise ValueError("lattice name needs 0 <= b < 1, got %s" % _ratio_text(*b))
    a, s, _, d = clear_denominators((m, b, (0, 1), (1, 1)))
    return LatticeName(a, s, d)


def reduce_matrix(g: ProjectiveMatrix) -> LatticeName:
    """Reduce a coset of the modular group to its canonical name.

    Kills the lower-left entry with a determinant-one integral row
    operation built from a modular inverse and translates the upper-right
    entry into [0, d).  Unimodular row operations keep the content at one,
    so the result is already primitive.
    """
    return LatticeName(*hermite(g))


def act(name: LatticeName, g: ProjectiveMatrix) -> LatticeName:
    """Right action of PGL2+(Q) on lattice names."""
    return reduce_matrix(name.matrix() * g)


def hyperdistance(x: LatticeName, y: LatticeName) -> int:
    """Projective determinant of the transition matrix between two names."""
    return (y.matrix() * x.matrix().inv()).pdet()


def clear_denominators(pairs) -> tuple[int, ...]:
    """The rationals p/q of ``pairs`` (q > 0) scaled to integers with content 1.

    The scale is the positive one that clears every denominator and then
    divides out the gcd of the results; not every p may be zero.
    """
    den = lcm(*(q for _, q in pairs))
    ints = [p * (den // q) for p, q in pairs]
    content = gcd(*ints)
    if content == 0:
        raise ValueError("zero matrix has no primitive representative")
    return tuple(x // content for x in ints)


def parse_rational(token: str) -> tuple[int, int]:
    """Read ``p`` or ``p/q`` (decimal digits, ``p`` signed) as the pair (p, q), q > 0."""
    # whitespace is str.isspace and a digit str.isdecimal; int alone would also read "_"
    p, slash, q = token.strip().partition("/")
    if not (p[1:] if p[:1] in "+-" else p).isdecimal() or slash and not (q.isdecimal() and int(q)):
        raise ValueError("bad rational literal %r" % token)
    return int(p), int(q) if slash else 1


def parse_matrix(text: str) -> ProjectiveMatrix:
    """Parse ``[[a,b],[c,d]]`` with entries written as ``p/q`` or integers."""
    s = text.strip().replace(" ", "")
    rows = [row.split(",") for row in s[2:-2].split("],[")]
    if not (s.startswith("[[") and s.endswith("]]")) or [len(row) for row in rows] != [2, 2]:
        raise ValueError("bad matrix literal %r" % text)
    return ProjectiveMatrix(*clear_denominators([parse_rational(p) for row in rows for p in row]))
