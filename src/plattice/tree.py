"""p-adic trees over the lattice-name calculus.

Lattices at p-power hyperdistance from the distinguished lattice form a
(p+1)-regular tree with edges at hyperdistance p.  This module generates
hypercircles (spheres of given hyperradius) about any centre in name order,
one member at a time, computes the projection of an arbitrary lattice onto
each p-adic tree and the thread between two lattices, both as lattice sums
in closed form, and tests the cell property.  The index formula that
counts a hypercircle is in ``arith``.
"""

from itertools import chain, combinations
from math import gcd

from .arith import divisors, factorize, hypercircle_size, is_prime
from .exact import ProjectiveMatrix
from .lattice import L1, LatticeName, act, hyperdistance, reduce_matrix


class HyperCircle:
    """The ``size`` members at hyperdistance ``radius`` from ``center``, in name
    order on each iteration; more than HYPERCIRCLE_BOUND is refused when made."""

    __slots__ = ("center", "radius", "size")

    def __init__(self, center: LatticeName, radius: int):
        self.size = hypercircle_size(radius)
        self.center = center
        self.radius = radius

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        # at L1 the members are the Hermite triples (a, s, d) with a*d == n
        # and gcd(a, s, d) == 1; M = n/d**2 falls as d grows.  The right
        # action of the centre [[A, S], [0, D]] sends one to the reduced
        # [[a*A, a*S + s*D], [0, d*D]]: M scales by A/D, so running d down
        # still lists the blocks in order, and in a block b rises with s
        # from off = a*S mod d*D, wrapping once at s0 = ceil((d*D - off)/D)
        A, S, D = self.center
        n = self.radius
        for d in reversed(divisors(n)):
            a = n // d
            g0 = gcd(a, d)
            top, bottom = a * A, d * D
            off = a * S % bottom
            s0 = (bottom - off + D - 1) // D
            content = gcd(top, bottom)
            for s in chain(range(s0, d), range(s0)):
                if gcd(g0, s) == 1:
                    b = (off + s * D) % bottom
                    g = gcd(content, b)
                    yield LatticeName(top // g, b // g, bottom // g)

    @property
    def members(self) -> tuple[LatticeName, ...]:
        return tuple(self)


def hypercircle(center: LatticeName, radius: int) -> HyperCircle:
    """All lattices at hyperdistance exactly ``radius`` from ``center``.

    Iterating the circle generates its members sorted by name, straight
    from the integers.
    """
    return HyperCircle(center, radius)


def padic_projection(name: LatticeName, p: int) -> LatticeName:
    """The unique tree representative of a lattice's p-adic class.

    The member of ``thread(L1, name)`` at hyperdistance p^k from L1, k the
    p-valuation of delta(L1, name): it keeps the p-localization and
    trivializes every other one.  The two defining properties are
    re-checked before returning.
    """
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    n = hyperdistance(L1, name)
    q = gcd(n, p ** n.bit_length())  # the p-part of n: p**bit_length > n
    proj = _lattice_sum(name, q)
    if hyperdistance(L1, proj) != q:
        raise AssertionError("projection of %s left the %d-adic tree" % (name, p))
    if hyperdistance(proj, name) % p == 0:
        raise AssertionError("projection of %s is not %d-adically equivalent" % (name, p))
    return proj


def _lattice_sum(name: LatticeName, e: int) -> LatticeName:
    """The sum of the lattice behind ``name`` and e times L1.

    The name's rows span a sublattice of L1 with cyclic quotient of order
    N = delta(L1, name); for e | N the sum has index e in L1, so it is the
    lattice between the two at hyperdistance e from L1.  With x = gcd(a, e)
    and u the inverse of a/x mod e/x, the sum is spanned by the rows
    (x, u*s) and (0, z) with z = gcd(d, e, e*s/x).
    """
    a, s, d = name
    x = gcd(a, e)
    u = pow(a // x, -1, e // x)
    return reduce_matrix(ProjectiveMatrix(x, u * s, 0, gcd(d, e, e * s // x)))


def thread(left: LatticeName, right: LatticeName) -> tuple[LatticeName, ...]:
    """All L with delta(left, L) * delta(L, right) == delta(left, right), sorted.

    Translated so that ``left`` is L1, ``right`` becomes a lattice ``far``
    in L1 with cyclic quotient of order N = delta(left, right); the thread
    holds one lattice per divisor e of N, the sum ``far + e*L1`` translated
    back, each re-checked against the equation with delta(left, L) == e.
    """
    g = left.matrix()
    far = act(right, g.inv())
    total = hyperdistance(left, right)
    members = []
    for e in divisors(total):
        x = act(_lattice_sum(far, e), g)
        if hyperdistance(left, x) != e or hyperdistance(x, right) != total // e:
            raise AssertionError("%s is not between %s and %s" % (x, left, right))
        members.append(x)
    return tuple(sorted(members))


def is_cell(names) -> bool:
    """Whether a finite lattice set projects to a point or an edge in every tree.

    It is a point in each tree whose prime divides no pairwise hyperdistance,
    and never in the others (p | delta(x, y) gives p | delta(pi_p x, pi_p y)):
    there it must be two projections at hyperdistance p, an edge.
    """
    names = sorted(set(names))
    if not names:
        raise ValueError("cell test needs a nonempty set")
    primes = {p for x, y in combinations(names, 2) for p in factorize(hyperdistance(x, y))}
    for p in sorted(primes):
        proj = sorted(set(padic_projection(x, p) for x in names))
        if len(proj) != 2 or hyperdistance(proj[0], proj[1]) != p:
            return False
    return True


def hypercircle_dot(circle: HyperCircle):
    """DOT rendering of the members of the circle, with no edges, line by line.

    An edge would join two members at prime hyperdistance, and no two
    members are.  The hyperdistance is the product of p**d_p over the
    primes p, with d_p the distance between the two lattices in the p-adic
    tree.  Both members lie at distance v_p(radius) from the centre in
    that tree, and a tree is bipartite, so d_p is even: the hyperdistance
    between two members of one hypercircle is a perfect square.
    """
    yield "graph hypercircle {\n"
    yield '  node [shape=box, fontname="monospace"];\n'
    for i, name in enumerate(circle):
        yield '  n%d [label="%s"];\n' % (i, name)
    yield "}\n"
