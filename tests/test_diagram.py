import json
import random
import time

import pytest

from plattice.diagram import (
    NODE_GROUPS,
    LabeledGraph,
    VertexData,
    build_graph,
    emit_dot,
    envelope_level,
    graph_solutions,
    group_generators,
    is_faithful,
    node_vertex_data,
    pair_orbit_size,
    scale_factor,
    schreier_generators,
    vertex_data,
)
from plattice.descriptors import GroupDescriptor, normalizer_of_gamma0
from plattice.groupsys import member
from plattice.lattice import L1, act, lattice

from .helpers import backtracking_graph_solutions, edge_displays, named_core_group, neighbors
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


def searched_envelope_level(desc: GroupDescriptor, bound: int = 64) -> int:
    """The envelope search before the closed form: test every level up to
    the bound for containment by its Schreier generators, then normality."""
    gens = group_generators(desc)
    for n in range(1, bound + 1):
        if not all(member(g, desc) for g in schreier_generators(n)):
            continue
        if all(member(g, normalizer_of_gamma0(n)) for g in gens):
            return n
    raise ValueError("no envelope level below %d for %s" % (bound, desc))


class TestEnvelopeLevel:
    def test_modular_group(self):
        assert envelope_level(GroupDescriptor.gamma0(1)) == 1

    def test_level_two_group_minimal(self):
        assert envelope_level(GroupDescriptor.gamma0(2)) == 2

    def test_doubled_kernel(self):
        assert envelope_level(GroupDescriptor.kernel(2, 4, {2})) == 8

    def test_all_nine(self):
        assert [envelope_level(d) for d in NODE_GROUPS] == [1, 2, 3, 4, 5, 6, 9, 8, 2]

    def test_containment_is_divisibility_of_the_intersection_level(self):
        # the Schreier-generator scan the search used: the group contains
        # the level-n group exactly when its intersection level divides n
        for desc in CATALOG_48:
            k = desc.intersection_level()
            for n in range(1, 49):
                assert all(member(g, desc) for g in schreier_generators(n)) == (n % k == 0)

    def test_closed_form_matches_search(self):
        for desc in CATALOG_48:
            assert outcome(envelope_level, desc) == outcome(searched_envelope_level, desc)

    def test_search_stops_at_its_bound(self):
        # the level-67 group is its own envelope, past ENVELOPE_SEARCH_BOUND
        assert outcome(envelope_level, GroupDescriptor.gamma0(67)) == (
            "ValueError: no envelope level below 64 for 67"
        )


class TestScaleFactor:
    def test_three_kernel(self):
        assert scale_factor(GroupDescriptor.kernel(3, 3)) == 3

    def test_plus_four_is_one(self):
        assert scale_factor(GroupDescriptor.gamma0_plus(4)) == 1

    def test_plus_two_is_one(self):
        assert scale_factor(GroupDescriptor.gamma0_plus(2)) == 1

    def test_table_row(self):
        assert [scale_factor(d) for d in NODE_GROUPS] == [1, 1, 1, 1, 1, 1, 3, 2, 1]

    def test_scale_is_envelope_h_except_plus_four(self):
        # the scale agrees with the square-divisor bound of the envelope
        # level everywhere but the label-four group, where it drops to one
        from plattice.descriptors import normalizer_of_gamma0

        for d in NODE_GROUPS:
            expected = 1 if d == GroupDescriptor.gamma0_plus(4) else normalizer_of_gamma0(
                envelope_level(d)
            ).h
            assert scale_factor(d) == expected


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
    def test_tables_reproduced(self):
        data = node_vertex_data()
        assert [v.scale for v in data] == [1, 1, 1, 1, 1, 1, 3, 2, 1]
        assert [v.normalized_level for v in data] == [1, 2, 3, 4, 5, 6, 3, 4, 2]
        assert [v.valency for v in data] == [1, 2, 2, 2, 2, 3, 1, 2, 1]

    def test_level_factors(self):
        for v in node_vertex_data():
            assert v.level == v.scale * v.normalized_level

    def test_level_divides_envelope(self):
        # justifies the divisor bound in the congruence-level search
        for v in node_vertex_data():
            assert v.envelope % v.level == 0

    def test_faithful_subset(self):
        faithful = {v.group.display for v in node_vertex_data() if v.faithful}
        assert faithful == {"2+", "4+", "6+", "2"}

    def test_json_round_trips(self):
        # through JSON text, as the diagram command prints it
        graph = build_graph(node_vertex_data())
        assert LabeledGraph.from_json(json.loads(json.dumps(graph.to_json()))) == graph
        for v in graph.vertices:
            assert VertexData.from_json(json.loads(json.dumps(v.to_json()))) == v

    def test_valency_sum(self):
        assert sum(v.valency for v in node_vertex_data()) == 16

    def test_pair_orbit_examples(self):
        assert pair_orbit_size(GroupDescriptor.gamma0(2)) == 1
        assert pair_orbit_size(GroupDescriptor.gamma0_plus(2)) == 1
        assert pair_orbit_size(GroupDescriptor.gamma0_plus(4)) == 2
        assert pair_orbit_size(GroupDescriptor.gamma0(1)) == 3
        assert not is_faithful(GroupDescriptor.kernel(3, 3))


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
        relaxed = graph_solutions(data, enforce_faithful=False)
        strict = graph_solutions(data, enforce_faithful=True)
        assert len(strict) == 1
        assert len(relaxed) >= 1
        assert strict[0] in relaxed

    def test_matches_the_backtracking_solver(self):
        data = node_vertex_data()
        for strict in (True, False):
            assert graph_solutions(data, strict) == backtracking_graph_solutions(data, strict)

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
            assert graph_solutions(data, strict) == expected
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
