"""Reference code that only the tests use: the modular generators S and T,
matrices and names built from rationals the way the command line reads
them, the rational reader by a regular expression, the upper and lower
translations and the dilation, series
coefficients, a name's pair (M, b) as Fractions and the dual (reverse)
names, element orders, lattice-set actions and whole subgroup lattices of
finite quotients, the lattice-set rule for kernel membership, characters
spread from generator values, the two instantiated characters, shear
orbits, cusp counts and the cusp report they give, a payload's printed
JSON read back, the readers of the JSON records (no command reads JSON),
the hypercircle by
the group action and a sort, balls of the p-adic trees, graph edges by
group name, graph neighbours, the Frame-shape predictions of the vertex
invariants, the dense eta-series recurrence and McKay's graph of the
binary icosahedral group over Q(sqrt 5), which derives the diagram again;
and the searches that worked out what a name now fixes: the width at
infinity by a shear scan, the envelope level by normalizer membership, the
scale by comparing scaled base groups, the valency by the order of the
quotient by the core, the doubled group by the envelope level and the
scale, the core by naming a quotient subgroup, a subgroup's name by a
search through every descriptor of its level, the parameter pairs the
classify sweep walked before it walked the levels, the classify skip by the
two closed-form orders at a level, the faithfulness bit by walking
the orbit of the pair {L1, L2}, the backtracking graph solver, and the
Schreier generators of the level groups with the invariance check in
floating point over every generator: eta by its 200-term product, the eta
quotient at a point and its images, the oracle of the exact verdict."""

import io
import json
import math
import operator
import re
from collections import namedtuple
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm

from plattice.classify import EXPONENT_TWO_ORDER, name_subgroup
from plattice.cusps import CuspReport
from plattice.exact import IDENTITY, ProjectiveMatrix
from plattice.frames import FrameShape, IntegerPowerSeries
from plattice.descriptors import (
    GroupDescriptor,
    all_labels,
    normalizer_of_gamma0,
    unsupported_kernel,
    width_at_infinity,
)
from plattice.diagram import LabeledGraph, VertexData
from plattice.groupsys import (
    FiniteQuotient,
    _member_cosets,
    finite_quotient,
    member,
    normalizer_quotient,
    quotient_generators,
)
from plattice.lattice import L1, LatticeName, act, hyperdistance, parse_matrix
from plattice.output import print_json
from plattice.arith import divisors, gamma0_index, hypercircle_size, is_prime
from plattice.tree import hypercircle, thread


S = ProjectiveMatrix(0, -1, 1, 0)
T = ProjectiveMatrix(1, 1, 0, 1)


def rational_matrix(a, b, c, d) -> ProjectiveMatrix:
    """The class of [[a, b], [c, d]] for ints or ``Fraction``s, read from its text."""
    return parse_matrix("[[%s,%s],[%s,%s]]" % (a, b, c, d))


# the grammar of ``lattice.parse_rational``, which reads it with str methods
RATIONAL_PATTERN = r"\s*([+-]?\d+)(?:/(\d+))?\s*"


def regex_rational(token: str) -> tuple[int, int]:
    """``parse_rational`` by the regular expression: the pair (p, q), q > 0, or ValueError."""
    match = re.fullmatch(RATIONAL_PATTERN, token)
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ValueError("bad rational literal %r" % token)
    return int(match[1]), int(match[2] or 1)


def lattice(m, b=0) -> LatticeName:
    """The name of rational M > 0 and 0 <= b < 1 (ints or ``Fraction``s), read from its text."""
    return LatticeName.parse("%s,%s" % (m, b))


def translation(amount) -> ProjectiveMatrix:
    """Upper-triangular unipotent [[1, A], [0, 1]] for rational A."""
    return rational_matrix(1, amount, 0, 1)


def lower_translation(amount) -> ProjectiveMatrix:
    """Lower-triangular unipotent [[1, 0], [n, 1]]."""
    return rational_matrix(1, 0, amount, 1)


def dilation(m) -> ProjectiveMatrix:
    """Diagonal [[M, 0], [0, 1]] for a positive rational M."""
    if m <= 0:
        raise ValueError("dilation requires a positive rational, got %s" % m)
    return rational_matrix(m, 0, 0, 1)


def coefficient(series: IntegerPowerSeries, exponent: int) -> int:
    """The coefficient of q**exponent: 0 below the leading term, a
    ValueError beyond the truncation."""
    i = exponent - series.leading
    if i < 0:
        return 0
    if i >= len(series.coeffs):
        raise ValueError("coefficient of q^%d is beyond the truncation" % exponent)
    return series.coeffs[i]


def name_m(name: LatticeName) -> Fraction:
    """The M = a/d of the name (a, s, d)."""
    return Fraction(name.a, name.d)


def name_b(name: LatticeName) -> Fraction:
    """The b = s/d of the name (a, s, d)."""
    return Fraction(name.s, name.d)


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
        return rational_matrix(1, 0, self.b, self.m)


def reverse_name(name: LatticeName) -> ReverseName:
    """The lower-triangular name of the same projective lattice.

    (M, 0) maps to (0, 1/M); (M, f/g) in lowest terms maps to
    (f'/g, 1/(g^2 M)) where f f' == 1 (mod g) and 0 < f' < g.
    """
    m, b = name_m(name), name_b(name)
    if b == 0:
        return ReverseName(Fraction(0), 1 / m)
    f, g = b.numerator, b.denominator
    fp = pow(f, -1, g)
    return ReverseName(Fraction(fp, g), 1 / (g * g * m))


def name_of(rev: ReverseName) -> LatticeName:
    """Inverse of :func:`reverse_name`."""
    if rev.b == 0:
        return lattice(1 / rev.m)
    fp, g = rev.b.numerator, rev.b.denominator
    f = pow(fp, -1, g)
    return lattice(1 / (g * g * rev.m), Fraction(f, g))


def max_part(fs: FrameShape) -> int:
    """The largest part of a Frame shape, predicted to be the normalized level."""
    return max(a for a, _ in fs.parts)


def predicted_valency(fs: FrameShape) -> int:
    """One more than the number of negative exponents, predicted to be the valency."""
    return sum(1 for _, alpha in fs.parts if alpha < 0) + 1


def neighbors(graph, i: int) -> list[int]:
    """The vertices joined to vertex ``i`` of a ``LabeledGraph``, in order."""
    out = []
    for a, b in graph.edges:
        if a == i:
            out.append(b)
        elif b == i:
            out.append(a)
    return sorted(out)


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


def kernel_action_set(h: int, n: int) -> tuple[LatticeName, ...]:
    """Finite lattice set whose action cuts out the index-h kernel.

    For h = 3 the order-3 character is trivial exactly on the elements
    acting with order at most 2 on the four lattices around L_3.  For
    h = 2 it is the sign of the action on the hyperradius-2 circles about
    the two stabilized lattices, with the fixed spine between them removed
    (path reversal contributes spine transpositions that would otherwise
    flip the sign of the Atkin-Lehner coset).
    """
    if h == 3:
        return hypercircle(LatticeName(3, 0, 1), 3).members
    l2, ln = LatticeName(2, 0, 1), LatticeName(n, 0, 1)
    members = set(hypercircle(l2, 2)) | set(hypercircle(ln, 2))
    spine = set(thread(l2, ln))
    return tuple(sorted(members - spine))


def action_perm(g: ProjectiveMatrix, points: tuple[LatticeName, ...]):
    """How ``g`` permutes ``points``; None where it moves the set off itself."""
    index = {x: i for i, x in enumerate(points)}
    out = []
    for x in points:
        y = act(x, g)
        if y not in index:
            return None
        out.append(index[y])
    return tuple(out)


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    lengths = []
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return lengths


def perm_order(perm: tuple[int, ...]) -> int:
    return lcm(*cycle_lengths(perm))


def perm_sign(perm: tuple[int, ...]) -> int:
    return sum(length - 1 for length in cycle_lengths(perm)) & 1


def kernel_condition(g: ProjectiveMatrix, desc: GroupDescriptor) -> bool:
    """The lattice-set rule for the character part of kernel membership;
    ``groupsys.member`` reads the character off the full quotient instead."""
    perm = action_perm(g, kernel_action_set(desc.h, desc.n))
    if perm is None:
        return False
    if desc.h == 3:
        return perm_order(perm) <= 2
    return perm_sign(perm) == 0


def character_values(q: FiniteQuotient, values) -> list[int] | None:
    """The map to Z/h, h = ``q.big.h``, taking ``values`` on the generators
    ``quotient_generators(q.big)``, on every coset; None when no
    homomorphism takes those values."""
    h = q.big.h
    columns = [(q.coset_of(gen), v) for gen, v in zip(quotient_generators(q.big), values)]
    out = {0: 0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for c, v in columns:
            j, w = q.mult[i][c], (out[i] + v) % h
            if j not in out:
                out[j] = w
                frontier.append(j)
            elif out[j] != w:
                return None
    return [out[i] for i in range(q.order)]


def quotient_actions(q: FiniteQuotient, points) -> tuple:
    """How each representative permutes ``points``; None where it moves the set off itself."""
    return tuple(action_perm(rep, points) for rep in q.reps)


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
        perm = action_perm(g, self.points)
        if perm is None:
            raise ValueError("element does not act on the character's lattice set")
        if self.order == 2:
            return perm_sign(perm)
        # g lies in the coset (x^-j) * kernel exactly when x^j g acts with
        # order <= 2; the generator x itself has value 2 under the character
        for j in range(3):
            if perm_order(compose(power(self._x_perm, j), perm)) <= 2:
                return j
        raise AssertionError("permutation is not in the order-12 image")


def character_lambda(case: int) -> Character:
    """The two instantiated characters, for overall levels 9 and 8."""
    if case == 9:
        points = kernel_action_set(3, 3)
        q = finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9))
        return Character(q, points, 3, action_perm(translation(Fraction(1, 3)), points))
    if case == 8:
        points = kernel_action_set(2, 4)
        q = finite_quotient(GroupDescriptor(2, 4, frozenset({2})), GroupDescriptor.gamma0(8))
        return Character(q, points, 2, ())
    raise ValueError("character construction defined only for N=9, N=8")


def translation_orbits(points, amount) -> list[tuple[LatticeName, ...]]:
    """Orbits of the shear by a rational ``amount`` on a finite lattice set.

    The shear by k/h moves the Hermite triple (a, s, d) to the name of
    [[a, s], [0, d]] * [[h, k], [0, h]]: (a*h, a*k + s*h, d*h) over its
    gcd, the middle entry taken mod the last.  Each orbit starts at its
    least name, and the orbits come in the order of those names.
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


def orbit_cusp_outputs(n: int) -> tuple[str, dict]:
    """The text and JSON of ``plattice cusps n``, from the unit-shear orbits
    walked on the whole hypercircle, as the command printed them before the
    closed form."""
    orbits = translation_orbits(hypercircle(L1, n).members, Fraction(1))
    lines = ["representative\twidth"]
    lines += ["%s\t%d" % (orbit[0], len(orbit)) for orbit in orbits]
    lines.append("cusps: %d  total width: %d" % (len(orbits), sum(map(len, orbits))))
    payload = {
        "group": GroupDescriptor.gamma0(n).to_json(),
        "width_at_infinity": "1",
        "cusps": [{"orbit": [str(x) for x in orbit], "width": str(len(orbit))} for orbit in orbits],
    }
    return "\n".join(lines) + "\n", payload


def printed_json(payload):
    """``payload`` as ``print_json`` prints it, read back: each iterator in
    it, consumed once by the printing, comes back as a list."""
    out = io.StringIO()
    with redirect_stdout(out):
        print_json(payload)
    return json.loads(out.getvalue())


def descriptor_from_json(data: dict) -> GroupDescriptor:
    """The descriptor of a ``GroupDescriptor.to_json`` record."""
    return GroupDescriptor(*(data[name] for name in GroupDescriptor._fields))


def vertex_data_from_json(data: dict) -> VertexData:
    """The vertex of a ``VertexData.to_json`` record."""
    fields = {name: data[name] for name in VertexData._fields}
    fields["group"] = descriptor_from_json(data["group"])
    fields["core"] = descriptor_from_json(data["core"])
    return VertexData(**fields)


def graph_from_json(data: dict) -> LabeledGraph:
    """The graph of a ``LabeledGraph.to_json`` record."""
    return LabeledGraph(
        tuple(vertex_data_from_json(v) for v in data["vertices"]),
        frozenset(tuple(e) for e in data["edges"]),
    )


def cusp_report_from_json(data: dict) -> CuspReport:
    """The report of a ``CuspReport.to_json`` record: each orbit's first
    name is its representative."""
    cusps = tuple((LatticeName.parse(entry["orbit"][0]), int(entry["width"])) for entry in data["cusps"])
    return CuspReport(data["group"]["n"], cusps)


def cusp_count(ambient: GroupDescriptor, orbit) -> int:
    """Number of cusps of a point stabilizer, from one ambient lattice orbit."""
    return len(translation_orbits(orbit, Fraction(*width_at_infinity(ambient))))


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


def acted_hypercircle(center: LatticeName, n: int) -> tuple[LatticeName, ...]:
    """The hypercircle as ``tree.hypercircle`` built it before it generated
    each centre's members in name order: the Hermite triples at L1 in name
    order, each moved by the centre's action, then sorted by name."""
    hypercircle_size(n)
    members = []
    for d in reversed(divisors(n)):
        a = n // d
        g0 = gcd(a, d)
        members.extend(LatticeName(a, b, d) for b in range(d) if gcd(g0, b) == 1)
    if center != L1:
        g = center.matrix()
        for i, x in enumerate(members):
            members[i] = act(x, g)
        members.sort()
    return tuple(members)


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


# McKay's correspondence (McKay 1980, "Graphs, singularities, and finite
# groups"): the binary icosahedral group 2I in SU(2) has order 120, and its
# McKay graph joins the irreducibles rho and sigma when sigma occurs in
# V (x) rho, V the natural 2-dimensional representation.  Its characters
# take values in Q(sqrt 5); x + y*sqrt(5) is the pair (x, y) of Fractions.
McKayGraph = namedtuple("McKayGraph", "characters edges")
BINARY_ICOSAHEDRAL_ORDER = 120


def q5_conjugate(u):
    """The Galois conjugate sqrt(5) -> -sqrt(5) of x + y*sqrt(5)."""
    return (u[0], -u[1])


def _q5_sum(terms):
    # the sum of k * u * v over the triples (k, u, v), k an integer
    x = y = Fraction(0)
    for k, (a, b), (c, d) in terms:
        x += k * (a * c + 5 * b * d)
        y += k * (a * d + b * c)
    return (x, y)


def _quaternion_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        _q5_sum(((1, a1, a2), (-1, b1, b2), (-1, c1, c2), (-1, d1, d2))),
        _q5_sum(((1, a1, b2), (1, b1, a2), (1, c1, d2), (-1, d1, c2))),
        _q5_sum(((1, a1, c2), (-1, b1, d2), (1, c1, a2), (1, d1, b2))),
        _q5_sum(((1, a1, d2), (1, b1, c2), (-1, c1, b2), (1, d1, a2))),
    )


def binary_icosahedral_group() -> frozenset:
    """2I as unit quaternions over Q(sqrt 5), generated by (1+i+j+k)/2 and
    (i + phi^-1 j + phi k)/2 with phi = (1+sqrt 5)/2.

    The closure stops at 120 elements: a wrong sign in the product makes
    it infinite, so passing 120 is an AssertionError.
    """
    zero, half = (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0))
    phi_half, phi_inverse_half = (Fraction(1, 4), Fraction(1, 4)), (Fraction(-1, 4), Fraction(1, 4))
    generators = ((half, half, half, half), (zero, half, phi_inverse_half, phi_half))
    one = ((Fraction(1), Fraction(0)), zero, zero, zero)
    group, frontier = {one}, [one]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                x = _quaternion_product(g, s)
                if x not in group:
                    group.add(x)
                    new.append(x)
                    if len(group) > BINARY_ICOSAHEDRAL_ORDER:
                        raise AssertionError("the closure of 2I passed 120 elements")
        frontier = new
    return frozenset(group)


@lru_cache(maxsize=None)
def mckay_graph() -> McKayGraph:
    """The irreducible characters of 2I and its McKay graph.

    A class of 2I is its real part r, and V takes the value 2r on it.  Each
    character is a dict from r to its value, so chi[(1, 0)] is its
    dimension and chi[(-1, 0)] its value on -1.  From the trivial one the
    walk takes V (x) chi for each known chi less its known constituents,
    kept when its norm is 1, and the Galois conjugate of each known chi,
    until nothing new appears.  The edges are the index pairs (i, j), i < j,
    with chi_j in V (x) chi_i.
    """
    sizes = {}
    for g in binary_icosahedral_group():
        sizes[g[0]] = sizes.get(g[0], 0) + 1

    def inner(chi, psi) -> int:
        # every character of 2I is real, so no complex conjugate enters
        x, y = _q5_sum((sizes[r], chi[r], psi[r]) for r in sizes)
        x /= BINARY_ICOSAHEDRAL_ORDER
        if y or x.denominator != 1:
            raise AssertionError("inner product %s + %s*sqrt(5) is not an integer" % (x, y))
        return int(x)

    def tensor_v(chi):
        return {r: _q5_sum(((2, r, chi[r]),)) for r in sizes}

    characters = [dict.fromkeys(sizes, (Fraction(1), Fraction(0)))]
    grown = True
    while grown:
        grown = False
        for chi in list(characters):
            rest = tensor_v(chi)
            for known in characters:
                k = inner(rest, known)
                rest = {r: (rest[r][0] - k * known[r][0], rest[r][1] - k * known[r][1]) for r in sizes}
            for candidate in (rest, {r: q5_conjugate(v) for r, v in chi.items()}):
                if candidate not in characters and inner(candidate, candidate) == 1 and candidate[(1, 0)][0] > 0:
                    characters.append(candidate)
                    grown = True
    edges = set()
    for i, chi in enumerate(characters):
        for j, psi in enumerate(characters):
            k = inner(tensor_v(chi), psi)
            if k not in (0, 1) or (k and i == j):
                raise AssertionError("V (x) chi_%d holds chi_%d %d times" % (i, j, k))
            if k and i < j:
                edges.add((i, j))
    return McKayGraph(tuple(characters), frozenset(edges))


def mckay_edge_displays(vertices) -> set[tuple[str, str]]:
    """The McKay graph's edges as sorted pairs of group names.

    Each irreducible is named by the one vertex whose normalized level,
    faithfulness and valency are its dimension, chi(-1) == -dim and its
    degree in the McKay graph; no edge of the diagram is read.
    """
    characters, edges = mckay_graph()
    names = []
    for i, chi in enumerate(characters):
        dim, degree = chi[(1, 0)][0], sum(i in e for e in edges)
        keys = (dim, chi[(-1, 0)][0] == -dim, degree)
        match = [v.group.display for v in vertices if (v.normalized_level, v.faithful, v.valency) == keys]
        if len(match) != 1:
            raise AssertionError("irreducible %d of 2I names %d vertices" % (i, len(match)))
        names += match
    return {tuple(sorted((names[a], names[b]))) for a, b in edges}


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


# The searches the closed forms replaced, kept as their oracles.


def scanned_width_at_infinity(desc: GroupDescriptor) -> tuple[int, int]:
    """Least positive k/h, as (k, h) in lowest terms, whose shear lies in
    the group: each k = 1 ... h*n tested by membership."""
    h = desc.h
    for k in range(1, h * desc.n + 1):
        if member(ProjectiveMatrix(h, k, 0, h), desc):
            g = gcd(k, h)
            return k // g, h // g
    raise AssertionError("no translation found in %s" % desc.display)


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
    walk = [base]
    gens = [S, T, T.inv()]
    head = 0
    while head < len(walk):
        cur = walk[head]
        for g in gens:
            nxt = act(cur, g)
            if nxt not in transversal:
                transversal[nxt] = transversal[cur] * g
                walk.append(nxt)
        head += 1
    if len(transversal) != gamma0_index(n):
        raise AssertionError("coset transversal of level %d has the wrong size" % n)
    out = []
    seen = set()
    for point, rep in transversal.items():
        for g in (S, T):
            elem = rep * g * transversal[act(point, g)].inv()
            if elem != IDENTITY and elem not in seen:
                seen.add(elem)
                out.append(elem)
    desc = GroupDescriptor.gamma0(n)
    if not all(member(x, desc) for x in out):
        raise AssertionError("a Schreier generator left the level-%d group" % n)
    return tuple(out)


def group_generators(desc: GroupDescriptor) -> list[ProjectiveMatrix]:
    """A finite generating set for the described group."""
    return list(schreier_generators(desc.n * desc.h)) + quotient_generators(desc)


def eta_value(tau: complex) -> complex:
    """Dedekind eta at a point of the upper half-plane.

    Reduces the argument with the shift and inversion transformations
    until its imaginary part is at least 0.8, then multiplies the first
    200 factors of the q-product.
    """
    import cmath

    if tau.imag <= 0:
        raise ValueError("eta needs a point of the upper half-plane")
    factor = complex(1)
    while True:
        shift = round(tau.real)
        if shift:
            tau -= shift
            factor *= cmath.exp(1j * math.pi * shift / 12)
        if tau.imag >= 0.8:
            break
        tau = -1 / tau
        factor *= cmath.sqrt(-1j * tau)
    q24 = cmath.exp(2j * math.pi * tau / 24)
    q = q24**24
    prod = complex(1)
    qn = q
    for _ in range(200):
        prod *= 1 - qn
        qn *= q
    return factor * q24 * prod


def eta_quotient_value(fs: FrameShape, tau: complex) -> complex:
    return math.prod(eta_value(d * tau) ** r for d, r in fs.eta_exponents)


def mobius(g: ProjectiveMatrix, tau: complex) -> complex:
    a, b, c, d = g
    return (a * tau + b) / (c * tau + d)


def float_invariant_under(fs: FrameShape, g: ProjectiveMatrix, tau: complex, tol: float = 1e-6) -> bool:
    """Whether the eta quotient takes the same value at tau and g(tau)."""
    if tau.imag <= 0:
        raise ValueError("invariance check needs a point of the upper half-plane")
    base = eta_quotient_value(fs, tau)
    moved = eta_quotient_value(fs, mobius(g, tau))
    return abs(moved - base) <= tol * (1 + abs(base))


def float_invariance_check(fs: FrameShape, desc: GroupDescriptor, tau=0.1 + 0.8j, tol=1e-6) -> bool:
    """The invariance check in floating point alone: the eta quotient at
    tau against its value at every generator's image, the Schreier
    generators of the level group included."""
    return all(float_invariant_under(fs, g, tau, tol) for g in group_generators(desc))


ENVELOPE_SEARCH_BOUND = 64


@lru_cache(maxsize=None)
def searched_envelope_level(desc: GroupDescriptor) -> int:
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
def searched_scale_factor(desc: GroupDescriptor) -> int:
    """Largest divisor a of 24 with a^2 | N whose scaled base group meets
    the group in index a."""
    n = searched_envelope_level(desc)
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


def _core_cosets(desc: GroupDescriptor) -> tuple[FiniteQuotient, frozenset[int], frozenset[int]]:
    """The normalizer quotient at the searched envelope level, the group's
    cosets there, and their meet with the scaled base group's."""
    n = searched_envelope_level(desc)
    a = searched_scale_factor(desc)
    q = normalizer_quotient(n)
    mine = _member_cosets(q, desc)
    return q, mine, _member_cosets(q, GroupDescriptor(a, n // a)) & mine


def searched_valency(desc: GroupDescriptor) -> int:
    """One more than m, where the group's quotient by its meet with the
    scaled base group has order 2**m."""
    _, mine, met = _core_cosets(desc)
    ratio = len(mine) // len(met)
    m = ratio.bit_length() - 1
    if 2**m != ratio:
        raise AssertionError("quotient by the core is not a two-group for %s" % desc.display)
    return m + 1


def searched_double_group(desc: GroupDescriptor) -> GroupDescriptor:
    """The doubled group from the envelope level n and the scale a: the
    labels double over level n/a**2, and the base group is (a, 2n/a)."""
    a = searched_scale_factor(desc)
    n = searched_envelope_level(desc)
    # a label e over level m = n/a**2 doubles when 2e is still an exact
    # divisor of 2m, that is when 2e and 2m/2e are coprime
    m = n // (a * a)
    labels = frozenset(2 * e if gcd(2 * e, m // e) == 1 else e for e in desc.plus)
    if a == 1:
        return GroupDescriptor(1, 2 * n, labels)
    return GroupDescriptor.kernel(a, 2 * n // a, labels)


def named_core_group(desc: GroupDescriptor) -> GroupDescriptor:
    """The group met with its scaled base group on the normalizer quotient
    at its envelope level, named by ``name_subgroup``."""
    q, _, met = _core_cosets(desc)
    return name_subgroup(q, met)


@lru_cache(maxsize=None)
def descriptor_catalog(level: int) -> tuple[GroupDescriptor, ...]:
    """Every descriptor denoting a group containing the level group.

    The label sets are those the constructor accepts: the closed subsets
    of the labels over n/h."""
    out = []
    for n2 in divisors(level):
        for h2 in divisors(gcd(n2, 24)):
            label_pool = sorted(all_labels(n2 // h2))
            for labels in chain.from_iterable(combinations(label_pool, r) for r in range(len(label_pool) + 1)):
                try:
                    out.append(GroupDescriptor(h2, n2, labels))
                except ValueError:
                    continue
                if unsupported_kernel(h2, n2, labels) is None and level % (n2 * h2) == 0:
                    out.append(GroupDescriptor(h2, n2, labels, h2))
    return tuple(out)


def index_over_modular_part(desc: GroupDescriptor) -> int:
    """Index of the group over its modular-group intersection, in closed form.

    A closed label set of size k adjoins k cosets, and the scaled base
    group sits over its integral part with index given by a ratio of the
    index formula; kernels divide the whole count by h.  Written out apart
    from ``GroupDescriptor.index_over``, so the search below checks it.
    """
    labels = len(desc.plus) + 1
    if desc.character:
        base = gamma0_index(desc.n * desc.h) // gamma0_index(desc.n // desc.h)
        return base * labels // desc.h
    base = gamma0_index(desc.n) // gamma0_index(desc.n // desc.h)
    return base * labels


def searched_subgroup_names(q: FiniteQuotient, subgroup: frozenset[int]) -> list[GroupDescriptor]:
    """The catalog descriptors of the level, in catalog order, that accept
    exactly the subgroup's cosets and agree on both index invariants, the
    index of the modular intersection and the index over it: the search
    ``name_subgroup`` made before it read the labels off the cosets and
    checked the one index over the level group."""
    level = q.small.n
    modular_part = sum(1 for i in subgroup if q.reps[i].pdet() == 1)
    target_in = gamma0_index(level) // modular_part
    target_over = len(subgroup) // modular_part
    return [
        desc
        for desc in descriptor_catalog(level)
        if gamma0_index(desc.intersection_level()) == target_in
        and index_over_modular_part(desc) == target_over
        and _member_cosets(q, desc) == subgroup
    ]


def normalizer_quotient_orders(n: int) -> tuple[int, int]:
    """Orders of the normalizer quotient at level n and of its modular part.

    With h the normalizer's parameter and m = n/h**2, the base group of the
    normalizer sits over the level-n group with index psi(n)/psi(m), and
    each exact divisor of m labels one Atkin-Lehner coset.  The modular
    part is the image of the level-n/h group.
    """
    h = normalizer_of_gamma0(n).h
    m = n // (h * h)
    total = gamma0_index(n)
    return total // gamma0_index(m) * (len(all_labels(m)) + 1), total // gamma0_index(n // h)


def candidate_pairs(index_bound: int) -> list[tuple[int, int]]:
    """The (n, h) the classify sweep walked before it walked the levels:
    the level-n index within bound, and h | gcd(n, 24) with neither 4h nor
    9h dividing n, in increasing n.  Each pair is (h, n) of the normalizer
    of level n*h, so no level repeats; left out are the levels that 256 or
    81 divides, where the divisors of 24 cap h (level 256 is (32, 8))."""
    out = []
    for n in range(1, index_bound + 1):  # the index always exceeds n
        if gamma0_index(n) > index_bound:
            continue
        for h in divisors(gcd(n, 24)):
            if n % (4 * h) and n % (9 * h):
                out.append((n, h))
    return out


def may_pass_by_orders(level: int, index_bound: int, ratio_bound: int) -> bool:
    """``classify.may_pass`` from the two orders at the level, with 2**omega(m)
    recovered by dividing |Q| back by psi(level)/psi(m)."""
    order, h = normalizer_quotient_orders(level)  # the modular part has order h
    total = gamma0_index(level)
    if total > index_bound * gcd(2, h) or total > ratio_bound * (order & -order):
        return False
    atkin_lehner = order * gamma0_index(level // (h * h)) // total  # 2**omega(m)
    return total <= ratio_bound * EXPONENT_TWO_ORDER[h] * atkin_lehner


PAIR_BASE = frozenset({L1, LatticeName(2, 0, 1)})
PAIR_ORBIT_BOUND = 64


def walked_pair_orbit_size(desc: GroupDescriptor) -> int:
    """Size of the orbit of the unordered pair {L1, L2} under the group,
    walked under its Schreier generators."""
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


def backtracking_graph_solutions(data, enforce_faithful: bool = True) -> list[frozenset[tuple[int, int]]]:
    """The graph solver before ``itertools.combinations``: each vertex picks
    its edges to later vertices by a hand-written recursion."""
    data = tuple(data)
    count = len(data)
    degrees = [v.valency for v in data]
    weights = [v.normalized_level for v in data]
    faithful = [v.faithful for v in data]
    solutions: list[frozenset[tuple[int, int]]] = []
    edges: list[tuple[int, int]] = []
    adjacency: list[list[int]] = [[] for _ in range(count)]

    def place(i: int) -> None:
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

        def choose(picked: int, start: int) -> None:
            if picked == need:
                if 2 * weights[i] != sum(weights[j] for j in adjacency[i]):
                    return
                place(i + 1)
                return
            for idx in range(start, len(candidates)):
                j = candidates[idx]
                if len(adjacency[j]) >= degrees[j]:
                    continue
                edges.append((i, j))
                adjacency[i].append(j)
                adjacency[j].append(i)
                choose(picked + 1, idx + 1)
                edges.pop()
                adjacency[i].pop()
                adjacency[j].pop()

        choose(0, 0)

    place(0)
    return solutions
