"""Exact 2x2 matrix arithmetic up to positive scaling.

There is no floating point anywhere in this module.  A ``ProjectiveMatrix``
is a nonzero 2x2 matrix with positive determinant, considered up to scaling
by nonzero rationals.  It is stored as its unique primitive integral
representative (content 1, first nonzero entry positive), a named tuple
(a, b, c, d) that is compared and hashed as a tuple.  Products and inverses
are integer arithmetic through the one normaliser ``from_ints``.  A
rational is read as an integer pair (p, q) with q > 0, and
``clear_denominators`` is the one place such pairs become integers.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd, lcm
from typing import Iterable

_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


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


def primitive_rep(entries: Iterable) -> tuple[int, int, int, int]:
    """Scale a nonzero rational 2x2 matrix to its primitive integral form.

    Returns the unique positive-rational multiple of the input that is
    integral with content 1 (gcd of absolute entries equal to 1).  This is
    total on nonzero matrices, including those with zero entries.  The
    entries are ints or ``Fraction``s, read through their ``numerator``
    and ``denominator``.
    """
    a, b, c, d = entries
    return clear_denominators([(x.numerator, x.denominator) for x in (a, b, c, d)])


class ProjectiveMatrix(namedtuple("ProjectiveMatrix", "a b c d")):
    """A rational 2x2 matrix with positive determinant, up to scaling.

    The stored tuple ``(a, b, c, d)`` is the primitive integral
    representative, sign-fixed so that the first nonzero entry in reading
    order is positive.  ``pdet`` (the determinant of this representative)
    is then a positive integer, invariant under rational scaling of the
    input.
    """

    __slots__ = ()

    @classmethod
    def from_ints(cls, a: int, b: int, c: int, d: int) -> "ProjectiveMatrix":
        """The class of an integer matrix: content divided out, sign fixed."""
        if a * d - b * c <= 0:
            raise ValueError(
                "matrix does not have positive determinant: [[%d,%d],[%d,%d]]" % (a, b, c, d)
            )
        # a positive determinant rules out a == b == 0, so a or b leads
        content = gcd(a, b, c, d)
        if a < 0 or (a == 0 and b < 0):
            content = -content
        return cls(a // content, b // content, c // content, d // content)

    @classmethod
    def from_entries(cls, a, b, c, d) -> "ProjectiveMatrix":
        """The class of a rational matrix, through ``primitive_rep``."""
        return cls.from_ints(*primitive_rep((a, b, c, d)))

    def entries(self) -> tuple[int, int, int, int]:
        return self

    def pdet(self) -> int:
        """The rational projective determinant (a positive integer)."""
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return ProjectiveMatrix.from_ints(
            a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        )

    def inv(self) -> "ProjectiveMatrix":
        # adjugate; projectively this is the inverse since det > 0
        a, b, c, d = self.entries()
        return ProjectiveMatrix.from_ints(d, -b, -c, a)

    def is_identity(self) -> bool:
        return self == (1, 0, 0, 1)

    def __str__(self) -> str:
        return "[[%d,%d],[%d,%d]]" % self.entries()


def pdet(m) -> int:
    """Projective determinant of a matrix given in any accepted form."""
    if not isinstance(m, ProjectiveMatrix):
        m = ProjectiveMatrix.from_entries(*m)
    return m.pdet()


# Standard elements ----------------------------------------------------------

IDENTITY = ProjectiveMatrix.from_ints(1, 0, 0, 1)
S = ProjectiveMatrix.from_ints(0, -1, 1, 0)
T = ProjectiveMatrix.from_ints(1, 1, 0, 1)


# Text serialization ---------------------------------------------------------


def parse_rational(token: str) -> tuple[int, int]:
    """Read ``p`` or ``p/q`` (decimal digits, ``p`` signed) as the pair (p, q), q > 0."""
    match = _RATIONAL.fullmatch(token)
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ValueError("bad rational literal %r" % token)
    return int(match[1]), int(match[2] or 1)


def parse_matrix(text: str) -> ProjectiveMatrix:
    """Parse ``[[a,b],[c,d]]`` with entries written as ``p/q`` or integers."""
    s = text.strip().replace(" ", "")
    if not (s.startswith("[[") and s.endswith("]]")):
        raise ValueError("bad matrix literal %r" % text)
    body = s[2:-2]
    rows = body.split("],[")
    if len(rows) != 2:
        raise ValueError("bad matrix literal %r" % text)
    entries = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError("bad matrix literal %r" % text)
        entries.extend(parse_rational(p) for p in parts)
    return ProjectiveMatrix.from_ints(*clear_denominators(entries))
