"""Exact 2x2 matrix arithmetic up to positive scaling.

There is no floating point anywhere in this module.  A ``ProjectiveMatrix``
is a nonzero 2x2 matrix with positive determinant, considered up to scaling
by nonzero rationals.  It is stored as its unique primitive integral
representative (content 1, first nonzero entry positive), which the one
constructor ``ProjectiveMatrix(a, b, c, d)`` computes from any integers: a
named tuple (a, b, c, d) that is compared and hashed as a tuple.
``hermite`` reduces a matrix to the Hermite triple of its coset of the
modular group.  This module reads no text: rationals enter through the
readers of ``lattice``.
"""

from collections import namedtuple
from math import gcd


class ProjectiveMatrix(namedtuple("ProjectiveMatrix", "a b c d")):
    """A rational 2x2 matrix with positive determinant, up to scaling.

    The stored tuple ``(a, b, c, d)`` is the primitive integral
    representative, sign-fixed so that the first nonzero entry in reading
    order is positive.  ``pdet`` (the determinant of this representative)
    is then a positive integer, invariant under rational scaling of the
    input.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "ProjectiveMatrix":
        """The class of an integer matrix: content divided out, sign fixed."""
        if a * d - b * c <= 0:
            raise ValueError(
                "matrix does not have positive determinant: [[%d,%d],[%d,%d]]" % (a, b, c, d)
            )
        # a positive determinant rules out a == b == 0, so a or b leads
        content = gcd(a, b, c, d)
        if a < 0 or (a == 0 and b < 0):
            content = -content
        return tuple.__new__(cls, (a // content, b // content, c // content, d // content))

    def pdet(self) -> int:
        """The rational projective determinant (a positive integer)."""
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        a, b, c, d = self
        e, f, g, h = other
        return ProjectiveMatrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "ProjectiveMatrix":
        # adjugate; projectively this is the inverse since det > 0
        a, b, c, d = self
        return ProjectiveMatrix(d, -b, -c, a)

    def __str__(self) -> str:
        return "[[%d,%d],[%d,%d]]" % self


def hermite(g: ProjectiveMatrix) -> tuple[int, int, int]:
    """The Hermite triple (a, s, d) of SL2(Z) g: [[a, s], [0, d]] primitive with 0 <= s < d."""
    a, b, c, d = g
    # d ends positive with no sign fix: the stored a is positive when c == 0,
    # and otherwise the new lower-right entry s*b + t*d is pdet/g0
    if c != 0:
        # (s, t) coprime with s*a + t*c == 0; complete to det-1 [[m,n],[s,t]]
        g0 = gcd(a, c)
        s, t = -c // g0, a // g0
        m = pow(t, -1, abs(s))
        n = (m * t - 1) // s
        a, b, d = m * a + n * c, m * b + n * d, s * b + t * d
    return a, b % d, d


# Standard elements ----------------------------------------------------------

IDENTITY = ProjectiveMatrix(1, 0, 0, 1)
