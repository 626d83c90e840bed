"""Cusps and widths of the level groups, in closed form.

Cusps of a finite-index subgroup of a one-cusp ambient group correspond to
the orbits of the ambient translation stabilizer on the ambient orbit of
lattices; the width of a cusp is the size of its orbit times the ambient
width at infinity.  For the level-n group the orbits of the unit shear on
the hyperradius-n circle about L1 have a closed form, one family per
divisor of n, so no orbit is walked and no member is built unless printed.
"""

from collections import namedtuple
from math import gcd

from .arith import divisors, hypercircle_size
from .lattice import LatticeName, name_text


class CuspReport(namedtuple("CuspReport", "level cusps")):
    """The cusps of the level group as (representative, width) pairs.

    The representative (a, r, d) is the least name of the cusp's orbit
    under the unit shear, which is (a, r + k*a mod d, d) for k < width in
    walk order; the JSON lists it, printed straight from the integers.
    ``to_json`` gives the cusps and each orbit as generators for ``print_json``.
    """

    __slots__ = ()

    @property
    def total_width(self) -> int:
        return sum(w for _, w in self.cusps)

    def to_json(self) -> dict:
        # the group's record is written only here, so only the JSON loads descriptors
        from .descriptors import GroupDescriptor

        return {
            "group": GroupDescriptor.gamma0(self.level).to_json(),
            "width_at_infinity": "1",
            "cusps": ({"orbit": _orbit(a, r, d, w), "width": str(w)} for (a, r, d), w in self.cusps),
        }


def _orbit(a: int, r: int, d: int, width: int):
    # its own scope binds (a, r, d): the writer takes cusps ahead of their orbits
    return (name_text(a, (r + k * a) % d, d) for k in range(width))


def gamma0_cusps(n: int) -> tuple[tuple[LatticeName, int], ...]:
    """Each cusp of the level-n group as (representative, width), in name order.

    For a divisor a of n, with d = n/a and g = gcd(a, d), the hypercircle
    members (a, s, d) fall into the unit-shear orbits s = r mod g, one for
    each r < g prime to g, each of d/g members: the shear moves (a, s, d)
    to (a, s + a mod d, d), and a generates gZ mod d.  Names order by a/d
    first, so increasing a and r list the representatives in name order.
    """
    out = []
    for a in divisors(n):
        d = n // a
        g = gcd(a, d)
        out.extend((LatticeName(a, r, d), d // g) for r in range(g) if gcd(r, g) == 1)
    return tuple(out)


def cusps_of_gamma0(n: int) -> CuspReport:
    """Cusps and widths of the level-n group, by unit-shear orbits.

    The ambient group is the modular group (width one at infinity) acting
    on the hyperradius-n circle about L1; the stabilizer of L_n is the
    level-n group, so each orbit is one cusp of width equal to its size.
    The circle's budget holds, since the JSON form lists every member.
    """
    if n < 1:
        raise ValueError("level must be positive")
    index = hypercircle_size(n)
    report = CuspReport(n, gamma0_cusps(n))
    if report.total_width != index:
        raise AssertionError("cusp widths of level %d do not sum to the index" % n)
    return report
