"""Canonical names for projective lattices and the coset reduction calculus.

A projective lattice commensurable with the distinguished one corresponds to
a unique upper-triangular coset representative [[M, b], [0, 1]] with M a
positive rational and b a rational in [0, 1); the pair (M, b) is the
lattice's name.  A name is stored as the named tuple (a, s, d) of the
primitive integral form [[a, s], [0, d]] of that representative, so
M = a/d and b = s/d; it hashes as that tuple but orders by (M, b).  This
module implements the reduction of an arbitrary positive-determinant matrix
to its name, the right group action on names, hyperdistance, and the dual
(reverse) naming by lower-triangular representatives.  Reduction, action
and hyperdistance are integer arithmetic, and so is printing a name;
``fractions.Fraction`` appears only where a name is built from or read as
the pair (M, b), and in the reverse names.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .exact import ProjectiveMatrix, parse_rational, primitive_rep


class LatticeName(namedtuple("LatticeName", "a s d")):
    """The name (M, b) = (a/d, s/d) as its Hermite triple (a, s, d).

    [[a, s], [0, d]] is the primitive integral form of [[M, b], [0, 1]]:
    a, d > 0, 0 <= s < d and gcd(a, s, d) == 1.  Names order by (M, b).
    """

    __slots__ = ()

    def __init__(self, a, s, d):
        if not (a > 0 and 0 <= s < d) or gcd(a, s, d) != 1:
            raise ValueError("(%s, %s, %s) is not a primitive Hermite triple" % (a, s, d))

    @property
    def m(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.s, self.d)

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
        return lattice(parse_rational(parts[0]), parse_rational(parts[1]))


class ReverseName(namedtuple("ReverseName", "b m")):
    """The dual pair (b, M), naming by lower-triangular [[1, 0], [b, M]]."""

    __slots__ = ()

    def __new__(cls, b, m):
        b, m = Fraction(b), Fraction(m)
        if m <= 0:
            raise ValueError("reverse name needs M > 0, got %s" % m)
        if not (0 <= b < 1):
            raise ValueError("reverse name needs 0 <= b < 1, got %s" % b)
        return super().__new__(cls, b, m)

    def matrix(self) -> ProjectiveMatrix:
        return ProjectiveMatrix.from_entries(1, 0, self.b, self.m)


L1 = LatticeName(1, 0, 1)


def _ratio_text(p: int, q: int) -> str:
    # p/q for q > 0, printed as its Fraction prints
    g = gcd(p, q)
    return "%d" % (p // g) if g == q else "%d/%d" % (p // g, q // g)


def name_text(a: int, s: int, d: int) -> str:
    """The printed name ``M,b`` of the Hermite triple (a, s, d), from integers."""
    return "%s,%s" % (_ratio_text(a, d), _ratio_text(s, d))


def lattice(m, b=0) -> LatticeName:
    """The name of rational M > 0 and 0 <= b < 1."""
    m, b = Fraction(m), Fraction(b)
    if m <= 0:
        raise ValueError("lattice name needs M > 0, got %s" % m)
    if not (0 <= b < 1):
        raise ValueError("lattice name needs 0 <= b < 1, got %s" % b)
    a, s, _, d = primitive_rep((m, b, 0, 1))
    return LatticeName(a, s, d)


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


def reverse_name(name: LatticeName) -> ReverseName:
    """The lower-triangular name of the same projective lattice.

    (M, 0) maps to (0, 1/M); (M, f/g) in lowest terms maps to
    (f'/g, 1/(g^2 M)) where f f' == 1 (mod g) and 0 < f' < g.
    """
    if name.b == 0:
        return ReverseName(Fraction(0), 1 / name.m)
    f, g = name.b.numerator, name.b.denominator
    fp = pow(f, -1, g)
    return ReverseName(Fraction(fp, g), 1 / (g * g * name.m))


def name_of(rev: ReverseName) -> LatticeName:
    """Inverse of :func:`reverse_name`."""
    if rev.b == 0:
        return lattice(1 / rev.m)
    fp, g = rev.b.numerator, rev.b.denominator
    f = pow(fp, -1, g)
    return lattice(1 / (g * g * rev.m), Fraction(f, g))
