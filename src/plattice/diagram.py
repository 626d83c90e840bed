"""Vertex invariants for the nine groups and the graph they determine.

Each vertex group n|h+e has its invariants read off its name: the
envelope level (the least level whose group it contains and normalizes)
is its intersection level, the scale is h, the core drops the labels, and
the valency is one more than the number of involutions the labels need.
The normalizer quotient at the envelope level checks them, and the
faithfulness bit is an index on the quotient at its least even multiple.
A degree- and weight-constrained search then recovers the unique graph on
the nine vertices: the extended E8 diagram.
"""

from collections import namedtuple
from itertools import combinations
from math import lcm

from .descriptors import NODE_GROUPS, GroupDescriptor, node_index
from .groupsys import _member_cosets, normalizer_quotient


class VertexData(
    namedtuple("VertexData", "group envelope scale core level normalized_level valency faithful")
):
    __slots__ = ()

    def to_json(self) -> dict:
        out = self._asdict()
        out["group"] = self.group.to_json()
        out["core"] = self.core.to_json()
        return out


def _pair_orbit(desc: GroupDescriptor) -> int:
    """Size of the orbit of {L1, L2} under the group (see ``vertex_data``)."""
    wide = lcm(desc.intersection_level(), 2)
    q = normalizer_quotient(wide)
    meet = _member_cosets(q, desc) & _member_cosets(q, GroupDescriptor.gamma0_plus(2))
    orbit, rest = divmod(desc.index_over(wide), len(meet))
    if rest:
        raise AssertionError("pair orbit of %s is not a whole number" % desc.display)
    return orbit


def vertex_data(desc: GroupDescriptor) -> VertexData:
    """The invariants of a vertex group, read off its name and checked on
    the normalizer quotient Q(K) at its envelope level K.

    The vertex is faithful when the pair {L1, L2} has at most two images
    under the group G.  The pair's stabilizer is 2+, and its meet with G
    normalizes the level-L group, L = lcm(K, 2).  So the orbit, the index
    of that meet in G, is [G : level L] over the number of cosets of Q(L)
    in both G and 2+; a fraction is an internal error.
    """
    node_index(desc)
    # the envelope level is the intersection level, the scale is h, and the
    # core drops the adjoined involutions; on the normalizer quotient the
    # core must be where the group meets its scaled base group
    n, a = desc.intersection_level(), desc.h
    core = GroupDescriptor(desc.h, desc.n, (), desc.character)
    q = normalizer_quotient(n)
    mine = _member_cosets(q, desc)
    core_set = _member_cosets(q, core)
    if core_set != _member_cosets(q, GroupDescriptor(a, n // a)) & mine:
        raise AssertionError("core of %s is not its meet with the scaled base group" % desc.display)
    # the labels and the identity are the cosets of the core
    if len(mine) != len(core_set) * (len(desc.plus) + 1):
        raise AssertionError("quotient by the core has the wrong order for %s" % desc.display)
    for i in mine:
        if q.mult[i][i] not in core_set:
            raise AssertionError("core quotient has exponent above two for %s" % desc.display)
    valency = (len(desc.plus) + 1).bit_length()
    faithful = _pair_orbit(desc) <= 2
    return VertexData(desc, n, a, core, n, n // a, valency, faithful)


# graph reconstruction ---------------------------------------------------------


class LabeledGraph(namedtuple("LabeledGraph", "vertices edges")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "edges": sorted(sorted(e) for e in self.edges),
        }


def graph_solutions(data) -> list[frozenset[tuple[int, int]]]:
    """All simple graphs meeting the degree, weight-balance, and parity rules.

    Vertex degrees must equal the valencies; twice each vertex's
    normalized level must equal the sum over its neighbors'; and faithful
    vertices may only touch non-faithful ones.
    """
    data = tuple(data)
    count = len(data)
    degrees = [v.valency for v in data]
    weights = [v.normalized_level for v in data]
    faithful = [v.faithful for v in data]
    solutions: list[frozenset[tuple[int, int]]] = []
    edges: list[tuple[int, int]] = []
    adjacency: list[list[int]] = [[] for _ in range(count)]

    def place(i: int) -> None:
        # vertex i takes its missing edges to later vertices with room left
        if i == count:
            solutions.append(frozenset(edges))
            return
        need = degrees[i] - len(adjacency[i])
        candidates = [
            j
            for j in range(i + 1, count)
            if len(adjacency[j]) < degrees[j]
            and not (faithful[i] and faithful[j])
        ]
        have = sum(weights[j] for j in adjacency[i])
        for picked in combinations(candidates, need):
            if 2 * weights[i] != have + sum(weights[j] for j in picked):
                continue
            for j in picked:
                edges.append((i, j))
                adjacency[i].append(j)
                adjacency[j].append(i)
            place(i + 1)
            for j in picked:
                edges.pop()
                adjacency[i].pop()
                adjacency[j].pop()

    place(0)
    return solutions


def build_graph(data) -> LabeledGraph:
    """The unique constrained graph; raises if the count differs from one."""
    data = tuple(data)
    solutions = graph_solutions(data)
    if len(solutions) != 1:
        raise ValueError("expected a unique graph, found %d solutions" % len(solutions))
    return LabeledGraph(data, solutions[0])


def node_vertex_data() -> tuple[VertexData, ...]:
    return tuple(vertex_data(desc) for desc in NODE_GROUPS)


def emit_dot(graph: LabeledGraph) -> str:
    """Deterministic DOT output; the weight-one vertex is doubly circled."""
    lines = ["graph diagram {", '  node [shape=circle, fontname="monospace"];']
    for i, v in enumerate(graph.vertices):
        shape = ', shape=doublecircle' if v.normalized_level == 1 else ""
        lines.append('  n%d [label="%s"%s];' % (i, v.group.display, shape))
    for a, b in sorted(sorted(e) for e in graph.edges):
        lines.append("  n%d -- n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"
