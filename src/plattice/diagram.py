"""Vertex invariants for the nine groups and the graph they determine.

Each group gets an envelope level (the least level whose group it contains
and normalizes), a scale factor, a core subgroup (the group with its
adjoined involutions removed, read off its name), a congruence level, a
normalized level, a valency, and a faithfulness bit.  A degree- and
weight-constrained backtracking search then recovers the unique graph on
the nine vertices: the extended E8 diagram.  The groups' generating sets
are built here too.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .arith import divisors, gamma0_index
from .descriptors import NODE_GROUPS, GroupDescriptor, congruence_level, normalizer_of_gamma0
from .exact import IDENTITY, S, T, ProjectiveMatrix
from .groupsys import _member_cosets, member, normalizer_quotient, quotient_generators
from .lattice import L1, LatticeName, act

ENVELOPE_SEARCH_BOUND = 64


@lru_cache(maxsize=None)
def schreier_generators(n: int) -> tuple[ProjectiveMatrix, ...]:
    """Generators of the level-n congruence group from the coset action.

    Takes the spanning-tree transversal of the action of the two standard
    modular-group generators on the hyperradius-n circle (cosets correspond
    to the lattices there, based at L_n) and returns the Schreier elements.
    """
    if n < 1:
        raise ValueError("level must be positive")
    base = LatticeName(n, 0, 1)
    transversal: dict[LatticeName, ProjectiveMatrix] = {base: IDENTITY}
    frontier = [base]
    gens = [S, T, T.inv()]
    while frontier:
        cur = frontier.pop(0)
        for g in gens:
            nxt = act(cur, g)
            if nxt not in transversal:
                transversal[nxt] = transversal[cur] * g
                frontier.append(nxt)
    if len(transversal) != gamma0_index(n):
        raise AssertionError("coset transversal of level %d has the wrong size" % n)
    out = []
    seen = set()
    for point, rep in transversal.items():
        for g in (S, T):
            elem = rep * g * transversal[act(point, g)].inv()
            if not elem.is_identity() and elem not in seen:
                seen.add(elem)
                out.append(elem)
    desc = GroupDescriptor.gamma0(n)
    if not all(member(x, desc) for x in out):
        raise AssertionError("a Schreier generator left the level-%d group" % n)
    return tuple(out)


def group_generators(desc: GroupDescriptor) -> list[ProjectiveMatrix]:
    """A finite generating set for the described group."""
    base = desc.n * desc.h if desc.h > 1 else desc.n
    return list(schreier_generators(base)) + quotient_generators(desc)


@lru_cache(maxsize=None)
def envelope_level(desc: GroupDescriptor) -> int:
    """Least N whose level group the group contains and normalizes.

    The group contains the level-N group exactly when its modular-group
    intersection does, that is when K = ``intersection_level()`` divides N;
    so only the multiples of K up to ``ENVELOPE_SEARCH_BOUND`` are tried,
    against the normalizer of each.
    """
    gens = group_generators(desc)
    k = desc.intersection_level()
    for n in range(k, ENVELOPE_SEARCH_BOUND + 1, k):
        envelope = normalizer_of_gamma0(n)
        if all(member(g, envelope) for g in gens):
            return n
    raise ValueError("no envelope level below %d for %s" % (ENVELOPE_SEARCH_BOUND, desc))


@lru_cache(maxsize=None)
def scale_factor(desc: GroupDescriptor) -> int:
    """Largest divisor a of 24 with a^2 | N whose scaled base group meets
    the group in index a."""
    n = envelope_level(desc)
    q = normalizer_quotient(n)
    mine = _member_cosets(q, desc)
    for a in sorted(divisors(24), reverse=True):
        if n % (a * a):
            continue
        scaled = _member_cosets(q, GroupDescriptor(a, n // a))
        met = scaled & mine
        if len(scaled) == len(met) * a:
            return a
    raise AssertionError("no scale factor found for %s" % desc.display)


class VertexData(
    namedtuple("VertexData", "group envelope scale core level normalized_level valency faithful")
):
    __slots__ = ()

    def to_json(self) -> dict:
        out = self._asdict()
        out["group"] = self.group.to_json()
        out["core"] = self.core.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "VertexData":
        fields = {name: data[name] for name in cls._fields}
        fields["group"] = GroupDescriptor.from_json(data["group"])
        fields["core"] = GroupDescriptor.from_json(data["core"])
        return cls(**fields)


PAIR_BASE = frozenset({L1, LatticeName(2, 0, 1)})
PAIR_ORBIT_BOUND = 64


def pair_orbit_size(desc: GroupDescriptor) -> int:
    """Size of the orbit of the unordered pair {L1, L2} under the group."""
    gens = group_generators(desc)
    seen = {PAIR_BASE}
    frontier = [PAIR_BASE]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = frozenset(act(x, g) for x in cur)
            if nxt not in seen:
                if len(seen) >= PAIR_ORBIT_BOUND:
                    raise AssertionError("pair orbit exceeded bound for %s" % desc.display)
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def is_faithful(desc: GroupDescriptor) -> bool:
    """Nearness to the joint two-lattice stabilizer, as an orbit bound.

    The stabilizer of the unordered pair {L1, L2} meets the group in index
    equal to the pair-orbit size, so the intersection index bound of two
    becomes an orbit-size bound.
    """
    return pair_orbit_size(desc) <= 2


@lru_cache(maxsize=None)
def vertex_data(desc: GroupDescriptor) -> VertexData:
    n = envelope_level(desc)
    a = scale_factor(desc)
    # the core drops the adjoined involutions; on the normalizer quotient it
    # must be where the group meets its scaled base group
    core = GroupDescriptor(desc.h, desc.n, (), desc.character)
    level = congruence_level(desc)
    if level % a:
        raise AssertionError("level %d not divisible by scale %d for %s" % (level, a, desc))
    q = normalizer_quotient(n)
    mine = _member_cosets(q, desc)
    core_set = _member_cosets(q, core)
    if core_set != _member_cosets(q, GroupDescriptor(a, n // a)) & mine:
        raise AssertionError("core of %s is not its meet with the scaled base group" % desc.display)
    ratio = len(mine) // len(core_set)
    m = ratio.bit_length() - 1
    if 2**m != ratio:
        raise AssertionError("quotient by the core is not a two-group for %s" % desc.display)
    for i in mine:
        if q.mult[i][i] not in core_set:
            raise AssertionError("core quotient has exponent above two for %s" % desc.display)
    return VertexData(desc, n, a, core, level, level // a, m + 1, is_faithful(desc))


# graph reconstruction ---------------------------------------------------------


class LabeledGraph(namedtuple("LabeledGraph", "vertices edges")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "edges": sorted(sorted(e) for e in self.edges),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabeledGraph":
        return cls(
            tuple(VertexData.from_json(v) for v in data["vertices"]),
            frozenset(tuple(e) for e in data["edges"]),
        )


def graph_solutions(data, enforce_faithful: bool = True) -> list[frozenset[tuple[int, int]]]:
    """All simple graphs meeting the degree, weight-balance, and parity rules.

    Vertex degrees must equal the valencies; twice each vertex's
    normalized level must equal the sum over its neighbors'; and, when
    enforced, faithful vertices may only touch non-faithful ones.
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
        if need < 0:
            return
        candidates = [
            j
            for j in range(i + 1, count)
            if len(adjacency[j]) < degrees[j]
            and not (enforce_faithful and faithful[i] and faithful[j])
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


def build_graph(data, enforce_faithful: bool = True) -> LabeledGraph:
    """The unique constrained graph; raises if the count differs from one."""
    data = tuple(data)
    solutions = graph_solutions(data, enforce_faithful)
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
