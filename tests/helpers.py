"""Reference code that only the tests use: element orders, lattice-set
actions and whole subgroup lattices of finite quotients, the two
instantiated characters, cusp counts, balls of the p-adic trees, graph
edges by group name and the dense eta-series recurrence."""

import operator
from fractions import Fraction

from plattice.cusps import translation_orbits, width_at_infinity
from plattice.exact import ProjectiveMatrix, translation
from plattice.frames import FrameShape, IntegerPowerSeries
from plattice.groupsys import (
    FiniteQuotient,
    GroupDescriptor,
    _action_perm,
    _kernel_action_set,
    _perm_order,
    _perm_sign,
    finite_quotient,
)
from plattice.lattice import L1, LatticeName, hyperdistance
from plattice.tree import hypercircle, is_prime


def cyclic(q: FiniteQuotient, i: int) -> list[int]:
    """The powers of coset ``i``, from the identity to the last one before it recurs."""
    out, j = [0], i
    while j != 0:
        out.append(j)
        j = q.mult[j][i]
    return out


def element_order(q: FiniteQuotient, i: int) -> int:
    return len(cyclic(q, i))


def order_profile(q: FiniteQuotient) -> dict[int, int]:
    """Element order -> number of cosets of that order.

    With the lattice-set actions this is how the tests recognise the
    quotient structures of the paper: A4 at level 9, the dihedral group of
    order 8 at level 8.
    """
    out: dict[int, int] = {}
    for i in range(q.order):
        o = element_order(q, i)
        out[o] = out.get(o, 0) + 1
    return out


def quotient_actions(q: FiniteQuotient, points) -> tuple:
    """How each representative permutes ``points``; None where it moves the set off itself."""
    return tuple(_action_perm(rep, points) for rep in q.reps)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = tuple(range(len(p)))
    for _ in range(k):
        out = compose(out, p)
    return out


class Character:
    """The order-h character whose kernel is the canonical index-h subgroup."""

    def __init__(self, quotient: FiniteQuotient, points, order: int, x_perm: tuple[int, ...]):
        self.quotient = quotient
        self.points = points
        self.order = order
        self._x_perm = x_perm

    def value(self, g: ProjectiveMatrix) -> int:
        perm = _action_perm(g, self.points)
        if perm is None:
            raise ValueError("element does not act on the character's lattice set")
        if self.order == 2:
            return _perm_sign(perm)
        # g lies in the coset (x^-j) * kernel exactly when x^j g acts with
        # order <= 2; the generator x itself has value 2 under the character
        for j in range(3):
            if _perm_order(compose(power(self._x_perm, j), perm)) <= 2:
                return j
        raise AssertionError("permutation is not in the order-12 image")


def character_lambda(case: int) -> Character:
    """The two instantiated characters, for overall levels 9 and 8."""
    if case == 9:
        points = _kernel_action_set(3, 3)
        q = finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9))
        return Character(q, points, 3, _action_perm(translation(Fraction(1, 3)), points))
    if case == 8:
        points = _kernel_action_set(2, 4)
        q = finite_quotient(GroupDescriptor(2, 4, frozenset({2})), GroupDescriptor.gamma0(8))
        return Character(q, points, 2, ())
    raise ValueError("character construction defined only for N=9, N=8")


def cusp_count(ambient: GroupDescriptor, orbit) -> int:
    """Number of cusps of a point stabilizer, from one ambient lattice orbit."""
    return len(translation_orbits(orbit, width_at_infinity(ambient)))


def closure(q: FiniteQuotient, seed) -> frozenset[int]:
    """The subgroup of ``q`` generated by the cosets in ``seed``."""
    out = {0} | set(seed)
    frontier = list(out)
    while frontier:
        i = frontier.pop()
        for j in list(out):
            for k in (q.mult[i][j], q.mult[j][i]):
                if k not in out:
                    out.add(k)
                    frontier.append(k)
    return frozenset(out)


def all_subgroups(q: FiniteQuotient) -> set[frozenset[int]]:
    """Every subgroup; the reference the exponent-two search is tested against."""
    cyclics = {frozenset(cyclic(q, i)) for i in range(q.order)}
    trivial = frozenset([0])
    subs = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for c in cyclics:
            if c <= h:
                continue
            ext = closure(q, h | c)
            if ext not in subs:
                subs.add(ext)
                frontier.append(ext)
    return subs


def tree_ball_edges(p: int, max_power: int) -> tuple[list[LatticeName], list[tuple[LatticeName, LatticeName]]]:
    """Nodes within hyperdistance p**max_power of L1 and the edges among them."""
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    nodes = [L1]
    for k in range(1, max_power + 1):
        nodes.extend(hypercircle(L1, p**k))
    edges = []
    for i, x in enumerate(nodes):
        for y in nodes[i + 1 :]:
            if hyperdistance(x, y) == p:
                edges.append((x, y))
    return nodes, edges


def edge_displays(graph) -> set[tuple[str, str]]:
    """The edges of a ``LabeledGraph`` as sorted pairs of group names."""
    return {
        tuple(sorted((graph.vertices[a].group.display, graph.vertices[b].group.display)))
        for a, b in graph.edges
    }


def dense_eta_series(fs: FrameShape, order: int) -> IntegerPowerSeries:
    """The eta-quotient series by the plain Euler-transform recurrence.

    Each m sums over every earlier term, O(order**2) big-integer products;
    the blocked engine of ``eta_quotient_series`` is tested against it.
    """
    leading = -fs.degree // 24
    top = order - leading
    c = [0] * (top + 1)
    for a, alpha in fs.parts:
        for d in range(a, top + 1, a):
            c[d] += alpha
        for d in range(2 * a, top + 1, 2 * a):
            c[d] -= alpha
    b = [0] * (top + 1)
    for d in range(1, top + 1):
        if c[d]:
            for k in range(d, top + 1, d):
                b[k] += d * c[d]
    f = [1]
    for m in range(1, top + 1):
        # f holds f_0 .. f_(m-1), so reversed(f) pairs f_(m-k) with b_k
        f.append(-sum(map(operator.mul, b[1 : m + 1], reversed(f))) // m)
    return IntegerPowerSeries(leading, tuple(f))
