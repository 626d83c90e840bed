"""Canonical names for projective lattices and the coset reduction calculus.

A projective lattice commensurable with the distinguished one corresponds to
a unique upper-triangular coset representative [[M, b], [0, 1]] with M a
positive rational and b a rational in [0, 1); the pair (M, b) is the
lattice's name.  A name is stored as the named tuple (a, s, d) of the
primitive integral form [[a, s], [0, d]] of that representative, so
M = a/d and b = s/d; it hashes as that tuple but orders by (M, b).  This
module implements the reduction of an arbitrary positive-determinant matrix
to its name, the right group action on names and hyperdistance.  All of it
is integer arithmetic, and so are reading and printing a name: M and b are
read as integer pairs (p, q).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .exact import ProjectiveMatrix, clear_denominators, parse_rational


class LatticeName(namedtuple("LatticeName", "a s d")):
    """The name (M, b) = (a/d, s/d) as its Hermite triple (a, s, d).

    [[a, s], [0, d]] is the primitive integral form of [[M, b], [0, 1]]:
    a, d > 0, 0 <= s < d and gcd(a, s, d) == 1.  Names order by (M, b).
    """

    __slots__ = ()

    def __init__(self, a, s, d):
        if not (a > 0 and 0 <= s < d) or gcd(a, s, d) != 1:
            raise ValueError("(%s, %s, %s) is not a primitive Hermite triple" % (a, s, d))

    # a tuple's own comparisons would order by (a, s, d), so all four are here
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
        return ProjectiveMatrix.from_ints(self.a, self.s, 0, self.d)

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


def lattice(m, b=0) -> LatticeName:
    """The name of rational M > 0 and 0 <= b < 1 (ints or ``Fraction``s)."""
    return _name_of_pairs((m.numerator, m.denominator), (b.numerator, b.denominator))


def reduce_matrix(g: ProjectiveMatrix) -> LatticeName:
    """Reduce a coset of the modular group to its canonical name.

    Kills the lower-left entry with a determinant-one integral row
    operation built from a modular inverse and translates the upper-right
    entry into [0, d).  Unimodular row operations keep the content at one,
    so the result is already primitive.
    """
    a, b, c, d = g.entries()
    # d ends positive with no sign fix: the stored a is positive when c == 0,
    # and otherwise the new lower-right entry s*b + t*d is pdet/g0
    if c != 0:
        # (s, t) coprime with s*a + t*c == 0; complete to det-1 [[m,n],[s,t]]
        g0 = gcd(a, c)
        s, t = -c // g0, a // g0
        m = pow(t, -1, abs(s))
        n = (m * t - 1) // s
        a, b, d = m * a + n * c, m * b + n * d, s * b + t * d
    return LatticeName(a, b % d, d)


def act(name: LatticeName, g: ProjectiveMatrix) -> LatticeName:
    """Right action of PGL2+(Q) on lattice names."""
    return reduce_matrix(name.matrix() * g)


def hyperdistance(x: LatticeName, y: LatticeName) -> int:
    """Projective determinant of the transition matrix between two names."""
    return (y.matrix() * x.matrix().inv()).pdet()
