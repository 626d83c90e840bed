"""Cusps and widths via translation orbits on lattice sets.

Cusps of a finite-index subgroup of a one-cusp ambient group correspond to
the orbits of the ambient translation stabilizer on the ambient orbit of
lattices; the width of a cusp is the size of its orbit times the ambient
width at infinity.  Everything is computed inside the name calculus, with
no projective-line arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .exact import translation
from .groupsys import GroupDescriptor, member
from .lattice import L1, LatticeName
from .tree import gamma0_index, hypercircle


class CuspReport(namedtuple("CuspReport", "group cusps width_at_infinity")):
    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.cusps)

    @property
    def total_width(self) -> Fraction:
        return sum((w for _, w in self.cusps), Fraction(0))

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "width_at_infinity": str(self.width_at_infinity),
            "cusps": [
                {"orbit": [str(x) for x in orbit], "width": str(w)} for orbit, w in self.cusps
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CuspReport":
        cusps = tuple(
            (tuple(LatticeName.parse(x) for x in entry["orbit"]), Fraction(entry["width"]))
            for entry in data["cusps"]
        )
        return cls(
            GroupDescriptor.from_json(data["group"]),
            cusps,
            Fraction(data["width_at_infinity"]),
        )


def width_at_infinity(desc: GroupDescriptor) -> Fraction:
    """Least positive translation amount whose shear lies in the group."""
    h = desc.h
    for k in range(1, h * desc.n + 1):
        if member(translation(Fraction(k, h)), desc):
            return Fraction(k, h)
    raise AssertionError("no translation found in %s" % desc.display)


def translation_orbits(points, amount) -> list[tuple[LatticeName, ...]]:
    """Orbits of the shear by a rational ``amount`` on a finite lattice set.

    The shear by k/h moves the Hermite triple (a, s, d) to the name of
    [[a, s], [0, d]] * [[h, k], [0, h]]: (a*h, a*k + s*h, d*h) over its
    gcd, the middle entry taken mod the last.
    """
    k, h = amount.numerator, amount.denominator
    seen = set()
    orbits = []
    for start in sorted(points):
        if start in seen:
            continue
        orbit = []
        cur = start
        while not orbit or cur != start:
            orbit.append(cur)
            a, s, d = cur.a * h, cur.a * k + cur.s * h, cur.d * h
            g = gcd(a, s, d)
            cur = LatticeName(a // g, s // g % (d // g), d // g)
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def cusps_of_gamma0(n: int) -> CuspReport:
    """Cusps and widths of the level-n group, by unit-shear orbits.

    The ambient group is the modular group (width one at infinity) acting
    on the hyperradius-n circle about L1; the stabilizer of L_n is the
    level-n group, so each orbit is one cusp of width equal to its size.
    """
    if n < 1:
        raise ValueError("level must be positive")
    orbits = translation_orbits(hypercircle(L1, n).members, Fraction(1))
    cusps = tuple((orbit, Fraction(len(orbit))) for orbit in orbits)
    report = CuspReport(GroupDescriptor.gamma0(n), cusps, Fraction(1))
    if report.total_width != gamma0_index(n):
        raise AssertionError("cusp widths of level %d do not sum to the index" % n)
    return report
