import hashlib
import io
import json
import random
import re
import time
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from plattice import cli, diagram
from plattice.diagram import (
    NODE_GROUPS,
    VertexData,
    _pair_orbit,
    build_graph,
    emit_dot,
    graph_solutions,
    node_vertex_data,
    vertex_data,
)
from plattice.descriptors import GroupDescriptor, normalizer_of_gamma0
from plattice.doubling import double_group
from plattice.frames import frame_shape
from plattice.groupsys import _member_cosets, member, normalizer_quotient
from plattice.lattice import L1, act

from . import helpers
from .helpers import (
    backtracking_graph_solutions,
    binary_icosahedral_group,
    edge_displays,
    graph_from_json,
    group_generators,
    lattice,
    mckay_graph,
    named_core_group,
    neighbors,
    q5_conjugate,
    searched_envelope_level,
    searched_scale_factor,
    searched_valency,
    schreier_generators,
    vertex_data_from_json,
    walked_pair_orbit_size,
)
from .test_groupsys import CATALOG_48, outcome

E8_EDGES = {
    ("1", "2+"),
    ("2+", "3+"),
    ("3+", "4+"),
    ("4+", "5+"),
    ("5+", "6+"),
    ("3|3", "6+"),
    ("4|2+", "6+"),
    ("2", "4|2+"),
}


def scanned_envelope_level(desc: GroupDescriptor, bound: int = 64) -> int:
    """The envelope search before it stepped by the intersection level:
    test every level up to the bound for containment by its Schreier
    generators, then normality."""
    gens = group_generators(desc)
    for n in range(1, bound + 1):
        if not all(member(g, desc) for g in schreier_generators(n)):
            continue
        if all(member(g, normalizer_of_gamma0(n)) for g in gens):
            return n
    raise ValueError("no envelope level below %d for %s" % (bound, desc))


class TestEnvelopeLevel:
    def test_modular_group(self):
        assert vertex_data(GroupDescriptor.gamma0(1)).envelope == 1

    def test_level_two_group_minimal(self):
        assert vertex_data(GroupDescriptor.gamma0(2)).envelope == 2

    def test_doubled_kernel(self):
        assert vertex_data(GroupDescriptor.kernel(2, 4, {2})).envelope == 8

    def test_all_nine(self):
        assert [v.envelope for v in node_vertex_data()] == [1, 2, 3, 4, 5, 6, 9, 8, 2]

    def test_containment_is_divisibility_of_the_intersection_level(self):
        # the Schreier-generator scan the search used: the group contains
        # the level-n group exactly when its intersection level divides n
        for desc in CATALOG_48:
            k = desc.intersection_level()
            for n in range(1, 49):
                assert all(member(g, desc) for g in schreier_generators(n)) == (n % k == 0)

    def test_closed_form_matches_search(self):
        # the oracle, which steps by the intersection level, against the
        # scan over every level; off the nine the envelope is not always
        # the intersection level, so the oracle is checked on the catalog
        for desc in CATALOG_48:
            assert outcome(searched_envelope_level, desc) == outcome(scanned_envelope_level, desc)

    def test_search_stops_at_its_bound(self):
        # the level-67 group is its own envelope, past the oracle's bound
        assert outcome(searched_envelope_level, GroupDescriptor.gamma0(67)) == (
            "ValueError: no envelope level below 64 for 67"
        )


class TestScaleFactor:
    def test_three_kernel(self):
        assert vertex_data(GroupDescriptor.kernel(3, 3)).scale == 3

    def test_plus_four_is_one(self):
        assert vertex_data(GroupDescriptor.gamma0_plus(4)).scale == 1

    def test_plus_two_is_one(self):
        assert vertex_data(GroupDescriptor.gamma0_plus(2)).scale == 1

    def test_table_row(self):
        assert [v.scale for v in node_vertex_data()] == [1, 1, 1, 1, 1, 1, 3, 2, 1]

    def test_scale_is_envelope_h_except_plus_four(self):
        # the searched scale agrees with the square-divisor bound of the
        # searched envelope level everywhere but the label-four group,
        # where it drops to one
        for d in NODE_GROUPS:
            expected = 1 if d == GroupDescriptor.gamma0_plus(4) else normalizer_of_gamma0(
                searched_envelope_level(d)
            ).h
            assert searched_scale_factor(d) == expected


class TestCoreGroup:
    def test_plus_six(self):
        assert vertex_data(GroupDescriptor.gamma0_plus(6)).core == GroupDescriptor.gamma0(6)

    def test_three_kernel_is_its_own_core(self):
        desc = GroupDescriptor.kernel(3, 3)
        assert vertex_data(desc).core == desc

    def test_modular_group(self):
        assert vertex_data(GroupDescriptor.gamma0(1)).core == GroupDescriptor.gamma0(1)

    def test_table_row(self):
        expected = [
            GroupDescriptor.gamma0(1),
            GroupDescriptor.gamma0(2),
            GroupDescriptor.gamma0(3),
            GroupDescriptor.gamma0(4),
            GroupDescriptor.gamma0(5),
            GroupDescriptor.gamma0(6),
            GroupDescriptor.kernel(3, 3),
            GroupDescriptor.kernel(2, 4),
            GroupDescriptor.gamma0(2),
        ]
        assert [vertex_data(d).core for d in NODE_GROUPS] == expected

    def test_name_rule_matches_the_named_meet(self):
        for d in NODE_GROUPS:
            assert vertex_data(d).core == named_core_group(d)


class TestVertexData:
    def test_name_rules_match_the_searches(self):
        for d in NODE_GROUPS:
            v = vertex_data(d)
            assert (v.envelope, v.scale, v.valency) == (
                searched_envelope_level(d),
                searched_scale_factor(d),
                searched_valency(d),
            )

    @pytest.mark.parametrize("name", ["7+", "4", "6", "4|2", "8|2+"])
    def test_refuses_a_group_off_the_nine(self, name):
        # descriptors.node_index writes the refusal once for all three
        message = "^%s is not one of the nine vertex groups$" % re.escape(name)
        for read in (vertex_data, double_group, frame_shape):
            with pytest.raises(ValueError, match=message):
                read(GroupDescriptor.parse(name))

    def test_tables_reproduced(self):
        data = node_vertex_data()
        assert [v.scale for v in data] == [1, 1, 1, 1, 1, 1, 3, 2, 1]
        assert [v.normalized_level for v in data] == [1, 2, 3, 4, 5, 6, 3, 4, 2]
        assert [v.valency for v in data] == [1, 2, 2, 2, 2, 3, 1, 2, 1]

    def test_level_factors(self):
        for v in node_vertex_data():
            assert v.level == v.scale * v.normalized_level

    def test_level_divides_envelope(self):
        # the group contains the envelope-level group, so its intersection
        # level, the congruence level, divides the envelope
        for v in node_vertex_data():
            assert v.envelope % v.level == 0

    def test_faithful_subset(self):
        faithful = {v.group.display for v in node_vertex_data() if v.faithful}
        assert faithful == {"2+", "4+", "6+", "2"}

    def test_json_round_trips(self):
        # through JSON text, as the diagram command prints it
        graph = build_graph(node_vertex_data())
        assert graph_from_json(json.loads(json.dumps(graph.to_json()))) == graph
        for v in graph.vertices:
            assert vertex_data_from_json(json.loads(json.dumps(v.to_json()))) == v

    def test_valency_sum(self):
        assert sum(v.valency for v in node_vertex_data()) == 16

    def test_pair_orbit_examples(self):
        assert walked_pair_orbit_size(GroupDescriptor.gamma0(2)) == 1
        assert walked_pair_orbit_size(GroupDescriptor.gamma0_plus(2)) == 1
        assert walked_pair_orbit_size(GroupDescriptor.gamma0_plus(4)) == 2
        assert walked_pair_orbit_size(GroupDescriptor.gamma0(1)) == 3
        assert walked_pair_orbit_size(GroupDescriptor.kernel(3, 3)) > 2
        assert not vertex_data(GroupDescriptor.kernel(3, 3)).faithful

    def test_pair_orbit_index_matches_the_walk(self):
        orbits = []
        for d in NODE_GROUPS:
            k = d.intersection_level()
            assert d.index_over(k) == len(_member_cosets(normalizer_quotient(k), d))
            orbit = walked_pair_orbit_size(d)
            assert _pair_orbit(d) == orbit
            assert vertex_data(d).faithful == (orbit <= 2)
            orbits.append(orbit)
        assert orbits == [3, 1, 6, 2, 6, 2, 12, 4, 1]

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_diagram_builds_no_schreier_generators(self, fmt):
        # the vertex table needs no generating set, and the invariance check
        # decides the level group exactly, so the Schreier walk is gone from
        # the package and the command still prints the benchmark's recorded bytes
        assert not hasattr(diagram, "schreier_generators")
        assert not hasattr(diagram, "group_generators")
        recorded = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
        digests = json.loads(recorded.read_text())
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["diagram", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests["diagram --format " + fmt]


class TestStabilizedThread:
    def test_plus_four_stabilizes_its_thread(self):
        # cross-check for the one spelled-out case: the group with label
        # four stabilizes {L1, L2, L4}, and its pointwise fixer there is
        # the core group
        trio = {L1, lattice(2), lattice(4)}
        desc = GroupDescriptor.gamma0_plus(4)
        for g in group_generators(desc):
            assert {act(x, g) for x in trio} == trio
        from plattice.groupsys import normalizer_quotient

        q = normalizer_quotient(4)
        fixing = [
            i
            for i, rep in enumerate(q.reps)
            if member(rep, desc) and all(act(x, rep) == x for x in trio)
        ]
        assert fixing == [0]  # the core group's single coset


class TestBuildGraph:
    def test_unique_and_correct(self):
        data = node_vertex_data()
        start = time.perf_counter()
        graph = build_graph(data)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert edge_displays(graph) == E8_EDGES
        assert len(graph.edges) == 8

    def test_balance_holds_on_result(self):
        graph = build_graph(node_vertex_data())
        for i, v in enumerate(graph.vertices):
            neighbor_sum = sum(graph.vertices[j].normalized_level for j in neighbors(graph, i))
            assert 2 * v.normalized_level == neighbor_sum

    def test_triangle_toy(self):
        # three degree-two vertices of equal weight balance as a cycle
        from plattice.diagram import VertexData

        def vert(n):
            return VertexData(
                GroupDescriptor.gamma0(n), n, 1, GroupDescriptor.gamma0(n), 1, 1, 2, False
            )

        graph = build_graph([vert(1), vert(2), vert(3)])
        assert graph.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_single_edge_cannot_balance(self):
        # no two-vertex graph satisfies the doubling law, whatever the weights
        from plattice.diagram import VertexData

        a = VertexData(GroupDescriptor.gamma0(1), 1, 1, GroupDescriptor.gamma0(1), 1, 1, 1, False)
        b = VertexData(GroupDescriptor.gamma0(2), 2, 1, GroupDescriptor.gamma0(2), 1, 1, 1, False)
        with pytest.raises(ValueError, match="0 solutions"):
            build_graph([a, b])

    def test_without_faithfulness_more_solutions(self):
        data = node_vertex_data()
        relaxed = graph_solutions([v._replace(faithful=False) for v in data])
        strict = graph_solutions(data)
        assert len(strict) == 1
        assert len(relaxed) >= 1
        assert strict[0] in relaxed

    def test_matches_the_backtracking_solver(self):
        # the nine, then seeded shuffles of them with random faithful bits:
        # the weights still balance, and the order decides which vertex
        # takes its edges first
        nine = node_vertex_data()
        rng = random.Random(9)
        lists = [nine]
        lists += [[v._replace(faithful=rng.random() < 0.3) for v in rng.sample(nine, 9)] for _ in range(40)]
        found = set()
        for data in lists:
            relaxed = [v._replace(faithful=False) for v in data]
            strict = graph_solutions(data)
            assert strict == backtracking_graph_solutions(data, True)
            assert graph_solutions(relaxed) == backtracking_graph_solutions(data, False)
            found.add(len(strict))
        # some shuffles keep the one graph, and some bits forbid it
        assert 1 in found and 0 in found

    def test_random_vertex_lists_match_the_backtracking_solver(self):
        # (weight, valency) lists of balanced graphs: cycles of equal
        # weights and the affine D4, D5 and E6 diagrams, shuffled together,
        # with random faithful bits and sometimes one entry changed
        components = [
            [(2, 4)] + [(1, 1)] * 4,
            [(2, 3)] * 2 + [(1, 1)] * 4,
            [(3, 3)] + [(2, 2)] * 3 + [(1, 1)] * 3,
        ]
        rng = random.Random(23)
        solved = several = 0
        for _ in range(600):
            specs = []
            while len(specs) < 4:
                if rng.random() < 0.5:
                    specs += [(rng.randint(1, 3), 2)] * rng.randint(3, 5)
                else:
                    specs += rng.choice(components)
            if rng.random() < 0.3:
                i = rng.randrange(len(specs))
                specs[i] = (specs[i][0] + rng.choice([-1, 1]), specs[i][1] + rng.choice([-1, 0, 1]))
            rng.shuffle(specs)
            one = GroupDescriptor.gamma0(1)
            data = [VertexData(one, 1, 1, one, 1, w, k, rng.random() < 0.2) for w, k in specs]
            strict = rng.random() < 0.5
            expected = backtracking_graph_solutions(data, strict)
            relaxed = [v._replace(faithful=False) for v in data]
            assert graph_solutions(data if strict else relaxed) == expected
            solved += bool(expected)
            several += len(expected) > 1
        # the lists are neither all unsolvable nor all uniquely solvable
        assert solved > 200 and several > 100

    def test_failure_is_loud(self):
        from plattice.diagram import VertexData

        a = VertexData(GroupDescriptor.gamma0(1), 1, 1, GroupDescriptor.gamma0(1), 1, 1, 1, False)
        b = VertexData(GroupDescriptor.gamma0(2), 2, 1, GroupDescriptor.gamma0(2), 2, 2, 1, False)
        with pytest.raises(ValueError, match="0 solutions"):
            build_graph([a, b])  # unequal weights cannot balance


class TestDot:
    def test_empty_graph_skeleton(self):
        from plattice.diagram import LabeledGraph

        text = emit_dot(LabeledGraph((), frozenset()))
        assert text.startswith("graph diagram {") and text.rstrip().endswith("}")

    def test_shape(self):
        text = emit_dot(build_graph(node_vertex_data()))
        assert text.count(" -- ") == 8
        assert '"3|3"' in text and '"4|2+"' in text
        assert "doublecircle" in text

    def test_deterministic(self):
        a = emit_dot(build_graph(node_vertex_data()))
        b = emit_dot(build_graph(node_vertex_data()))
        assert a == b


class TestMcKay:
    # McKay's correspondence derives the diagram a second way: the McKay
    # graph of the binary icosahedral group 2I, marked by the dimensions, is
    # the affine E8 diagram, and the rules of graph_solutions are facts about
    # it.  dim(V (x) rho) == 2 dim(rho) is the weight rule, and V (x) rho
    # flips the sign of rho(-1), so a faithful vertex touches none
    def test_the_closure_stops_at_120(self, monkeypatch):
        assert len(binary_icosahedral_group()) == 120
        monkeypatch.setattr(helpers, "BINARY_ICOSAHEDRAL_ORDER", 119)
        with pytest.raises(AssertionError, match="passed 120 elements"):
            binary_icosahedral_group()

    def test_nine_irreducibles(self):
        dims = sorted(chi[(1, 0)][0] for chi in mckay_graph().characters)
        assert dims == [1, 2, 2, 3, 3, 4, 4, 5, 6]
        assert sum(d * d for d in dims) == 120

    def test_one_isomorphism_onto_the_diagram(self):
        characters, edges = mckay_graph()
        graph = build_graph(node_vertex_data())
        levels = [v.normalized_level for v in graph.vertices]
        candidates = [[j for j, level in enumerate(levels) if level == chi[(1, 0)][0]] for chi in characters]
        target = {frozenset(e) for e in graph.edges}
        found = [
            image
            for image in product(*candidates)
            if len(set(image)) == 9 and {frozenset((image[a], image[b])) for a, b in edges} == target
        ]
        assert len(found) == 1
        (image,) = found
        displays = [graph.vertices[j].group.display for j in image]
        for i, chi in enumerate(characters):
            v, dim = graph.vertices[image[i]], chi[(1, 0)][0]
            assert v.valency == sum(i in e for e in edges), displays[i]
            assert v.faithful is (chi[(-1, 0)] == (-dim, 0)), displays[i]
            assert chi[(-1, 0)] in ((dim, 0), (-dim, 0))
        faithful = {displays[i] for i, chi in enumerate(characters) if chi[(-1, 0)][0] < 0}
        assert faithful == {"2+", "2", "4+", "6+"}
        # sqrt(5) -> -sqrt(5) swaps the four irrational characters in pairs
        conjugate = [characters.index({r: q5_conjugate(x) for r, x in chi.items()}) for chi in characters]
        swapped = {frozenset((displays[i], displays[j])) for i, j in enumerate(conjugate) if i != j}
        assert swapped == {frozenset(("2+", "2")), frozenset(("3+", "3|3"))}
