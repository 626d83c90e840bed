"""Reference code that only the tests use: whole subgroup lattices, balls
of the p-adic trees and graph edges by group name."""

from plattice.groupsys import FiniteQuotient
from plattice.lattice import L1, LatticeName, hyperdistance
from plattice.tree import hypercircle, is_prime


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
    cyclics = {frozenset(q._cyclic(i)) for i in range(q.order)}
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
