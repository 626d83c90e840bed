"""Acceptance suite: every release criterion, one printed line per item.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from plattice.arith import gamma0_index
from plattice.classify import classify
from plattice.cusps import cusps_of_gamma0
from plattice.diagram import NODE_GROUPS, build_graph, node_vertex_data
from plattice.doubling import double_group, invariant_under
from plattice.frames import FRAME_SHAPES, eta_quotient_series, frame_shape, numeric_invariance_check
from plattice.descriptors import GroupDescriptor
from plattice.groupsys import finite_quotient
from plattice.lattice import L1, act, hyperdistance, reduce_matrix
from plattice.tree import hypercircle

from .helpers import (
    S,
    T,
    edge_displays,
    float_invariant_under,
    lattice,
    lower_translation,
    max_part,
    mckay_edge_displays,
    mckay_graph,
    name_of,
    order_profile,
    perm_sign,
    predicted_valency,
    quotient_actions,
    reverse_name,
)
from .test_exact import rand_pgl2q, rand_psl2z
from .test_frames import oracle_quotient

E8_GROUPS = {
    GroupDescriptor.gamma0(1),
    GroupDescriptor.gamma0(2),
    GroupDescriptor.gamma0_plus(2),
    GroupDescriptor.gamma0_plus(3),
    GroupDescriptor.gamma0_plus(4),
    GroupDescriptor.gamma0_plus(5),
    GroupDescriptor.gamma0_plus(6),
    GroupDescriptor.kernel(3, 3),
    GroupDescriptor.kernel(2, 4, {2}),
}

E8_EDGE_DISPLAYS = {
    ("1", "2+"),
    ("2+", "3+"),
    ("3+", "4+"),
    ("4+", "5+"),
    ("5+", "6+"),
    ("3|3", "6+"),
    ("4|2+", "6+"),
    ("2", "4|2+"),
}


def report(number: int, ok: bool, label: str) -> None:
    print("ACCEPTANCE %02d %s - %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, label


def test_01_classification_is_exact():
    start = time.perf_counter()
    result = classify()
    elapsed = time.perf_counter() - start
    ok = result == E8_GROUPS and elapsed < 10.0
    report(1, ok, "classification finds exactly the nine groups in %.2fs" % elapsed)


def test_02_scale_and_level_table():
    data = node_vertex_data()
    ok = [v.scale for v in data] == [1, 1, 1, 1, 1, 1, 3, 2, 1] and [
        v.normalized_level for v in data
    ] == [1, 2, 3, 4, 5, 6, 3, 4, 2]
    report(2, ok, "scale factors and normalized levels match the table")


def test_03_core_and_valency_table():
    data = node_vertex_data()
    expected_cores = [
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
    ok = [v.core for v in data] == expected_cores and [v.valency for v in data] == [
        1,
        2,
        2,
        2,
        2,
        3,
        1,
        2,
        1,
    ]
    report(3, ok, "core groups and valencies match the table")


def test_04_unique_graph_is_extended_e8():
    data = node_vertex_data()
    start = time.perf_counter()
    graph = build_graph(data)
    elapsed = time.perf_counter() - start
    # McKay's graph of the binary icosahedral group derives the edges again
    start = time.perf_counter()
    mckay_graph.cache_clear()
    derived = mckay_edge_displays(data)
    derive_s = time.perf_counter() - start
    ok = edge_displays(graph) == E8_EDGE_DISPLAYS == derived and elapsed < 1.0 and derive_s < 1.0
    report(4, ok, "unique constrained graph is the extended E8 diagram in %.3fs, McKay's in %.3fs" % (elapsed, derive_s))


def test_05_doubled_labels_and_frame_shapes():
    doubles = [double_group(d).display for d in NODE_GROUPS]
    shapes = [frame_shape(d).display for d in NODE_GROUPS]
    ok = doubles == ["2", "4+", "6+6", "8+", "10+10", "12+", "6|3", "8|2+", "4"] and shapes == [
        "1^24",
        "2^24 / 1^24",
        "3^12 / 1^12",
        "4^8 / 1^8",
        "5^6 / 1^6",
        "2^6 6^6 / 1^6 3^6",
        "3^8",
        "4^12 / 2^12",
        "1^8 2^8",
    ]
    report(5, ok, "doubled group labels and Frame shapes match the catalogs")


def test_06_frame_shape_invariants():
    data = node_vertex_data()
    ok = all(fs.degree == 24 for fs in FRAME_SHAPES)
    ok = ok and [max_part(fs) for fs in FRAME_SHAPES] == [v.normalized_level for v in data]
    ok = ok and [predicted_valency(fs) for fs in FRAME_SHAPES] == [v.valency for v in data]
    report(6, ok, "Frame-shape degree, max parts, and valency predictions agree")


def test_07_property_suite():
    rng = random.Random(20260808)
    ok = True
    for _ in range(1000):
        a = rand_pgl2q(rng)
        ok = ok and a.pdet() == a.inv().pdet()
    for _ in range(1000):
        x = reduce_matrix(rand_pgl2q(rng))
        y = reduce_matrix(rand_pgl2q(rng))
        ok = ok and hyperdistance(x, y) == hyperdistance(y, x)
    for _ in range(1000):
        x = reduce_matrix(rand_pgl2q(rng))
        y = reduce_matrix(rand_pgl2q(rng))
        g = rand_pgl2q(rng)
        ok = ok and hyperdistance(act(x, g), act(y, g)) == hyperdistance(x, y)
    for _ in range(1000):
        x = reduce_matrix(rand_pgl2q(rng))
        ok = ok and name_of(reverse_name(x)) == x
    for _ in range(1000):
        g = rand_pgl2q(rng)
        u = rand_psl2z(rng)
        ok = ok and reduce_matrix(u * g) == reduce_matrix(g)
    report(7, ok, "five fixed-seed property families, 1000 samples each, zero failures")


def test_08_hypercircle_oracle_equivalence():
    ok = all(len(hypercircle(L1, n)) == gamma0_index(n) for n in range(1, 61))
    expected_hc9 = {lattice(9)}
    expected_hc9 |= {lattice(1, Fraction(k, 3)) for k in (1, 2)}
    expected_hc9 |= {lattice(Fraction(1, 9), Fraction(k, 9)) for k in range(9)}
    ok = ok and set(hypercircle(L1, 9)) == expected_hc9
    expected_hc33 = {L1, lattice(9), lattice(1, Fraction(1, 3)), lattice(1, Fraction(2, 3))}
    ok = ok and set(hypercircle(lattice(3), 3)) == expected_hc33
    report(8, ok, "hypercircle sizes match the index formula; member lists exact")


def test_09_translation_transitivity():
    from math import gcd

    ok = True
    for m in range(1, 6):
        for n in range(1, 17):
            if gcd(m, n) != 1:
                continue
            circle = set(hypercircle(L1, n))
            seen = {min(circle)}
            frontier = list(seen)
            gens = [T, lower_translation(m)]
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = act(cur, g)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            ok = ok and seen == circle
    report(9, ok, "two shears act transitively on every coprime hypercircle")


def test_10_cusp_widths():
    ok = all(cusps_of_gamma0(n).total_width == gamma0_index(n) for n in range(1, 31))
    ok = ok and sorted(w for _, w in cusps_of_gamma0(9).cusps) == [1, 1, 1, 9]
    ok = ok and sorted(w for _, w in cusps_of_gamma0(4).cusps) == [1, 1, 4]
    report(10, ok, "cusp widths sum to the index; levels nine and four exact")


def test_11_quotient_structures():
    points9 = hypercircle(lattice(3), 3).members
    q9 = finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9))
    actions9 = quotient_actions(q9, points9)
    alt4 = q9.order == 12 and None not in actions9 and len(set(actions9)) == 12
    alt4 = alt4 and all(perm_sign(p) == 0 for p in actions9)
    alt4 = alt4 and order_profile(q9) == {1: 1, 2: 3, 3: 8}

    points8 = tuple(sorted(set(hypercircle(lattice(2), 2)) | set(hypercircle(lattice(4), 2))))
    q8 = finite_quotient(GroupDescriptor(2, 4, frozenset({2})), GroupDescriptor.gamma0(8))
    dihedral = q8.order == 8 and None not in quotient_actions(q8, points8)
    dihedral = dihedral and order_profile(q8) == {1: 1, 2: 5, 4: 2}

    points16 = hypercircle(lattice(4), 4).members
    q16 = finite_quotient(GroupDescriptor(4, 4), GroupDescriptor.gamma0(16))
    sym4 = q16.order == 24 and None not in quotient_actions(q16, points16)

    ok = alt4 and dihedral and sym4
    report(11, ok, "quotient orders 12 (alternating), 8 (dihedral), 24 verified")


def test_12_eta_series_and_invariance():
    series = eta_quotient_series(FRAME_SHAPES[0], 50)
    oracle = oracle_quotient(FRAME_SHAPES[0], 51)
    ok = series.leading == -1
    ok = ok and list(series.coeffs) == oracle[: len(series.coeffs)]
    ok = ok and series.coeffs[:4] == (1, -24, 276, -2048)
    for fs in FRAME_SHAPES:
        s = eta_quotient_series(fs, 50)
        ok = ok and s.leading == -1 and all(isinstance(c, int) for c in s.coeffs)
    for desc in NODE_GROUPS:
        ok = ok and numeric_invariance_check(frame_shape(desc), double_group(desc))
    ok = ok and invariant_under(FRAME_SHAPES[0], S) is False
    ok = ok and not float_invariant_under(FRAME_SHAPES[0], S, 0.1 + 0.8j, tol=1e-6)
    report(12, ok, "eta series match the oracle; invariance holds with negative control")
