import random
from itertools import combinations
from fractions import Fraction
from math import gcd, isqrt

import pytest

from plattice import arith, tree
from plattice.arith import divisors, factorize, gamma0_index
from plattice.exact import ProjectiveMatrix
from plattice.lattice import L1, LatticeName, act, hyperdistance, reduce_matrix
from plattice.tree import hypercircle, is_cell, padic_projection, thread
from .helpers import T, acted_hypercircle, lattice, lower_translation, tree_ball_edges
from .test_exact import rand_pgl2q


class TestIndexFormula:
    def test_one(self):
        assert gamma0_index(1) == 1

    def test_six(self):
        assert gamma0_index(6) == 12

    def test_eight(self):
        assert gamma0_index(8) == 12

    def test_matches_hypercircle_size(self):
        for n in range(1, 61):
            assert len(hypercircle(L1, n)) == gamma0_index(n)


class TestHypercircle:
    def test_radius_one_is_center(self):
        assert list(hypercircle(L1, 1)) == [L1]
        center = lattice(Fraction(1, 3), Fraction(2, 3))
        assert list(hypercircle(center, 1)) == [center]

    def test_hc9_member_list(self):
        # prime-power description: {L9} u {1,k/3} u {1/9, k/9}
        expected = {lattice(9)}
        expected |= {lattice(1, Fraction(k, 3)) for k in (1, 2)}
        expected |= {lattice(Fraction(1, 9), Fraction(k, 9)) for k in range(9)}
        assert set(hypercircle(L1, 9)) == expected
        assert len(hypercircle(L1, 9)) == 12

    def test_hc3_about_l3(self):
        expected = {L1, lattice(9), lattice(1, Fraction(1, 3)), lattice(1, Fraction(2, 3))}
        assert set(hypercircle(lattice(3), 3)) == expected

    def test_members_at_stated_distance(self):
        rng = random.Random(67)
        for _ in range(20):
            center = reduce_matrix(rand_pgl2q(rng))
            n = rng.randrange(1, 13)
            circle = hypercircle(center, n)
            assert all(hyperdistance(center, m) == n for m in circle)

    def test_deterministic_order(self):
        a = hypercircle(L1, 12).members
        b = hypercircle(L1, 12).members
        assert a == b == tuple(sorted(a))

    def test_members_match_the_acted_and_sorted_circle(self):
        # at 2,0, 1/2,1/2 and the seeded triples the moved triples can have
        # content above 1; composite radii give many blocks, most wrapped
        rng = random.Random(30)
        radii = [1, 4, 6, 12, 30, 64, 210, 360]
        centres = [L1, lattice(2), lattice(Fraction(1, 2), Fraction(1, 2))]
        centres += [lattice(Fraction(3, 4), Fraction(1, 4)), lattice(Fraction(12, 5), Fraction(3, 5))]
        pairs = [(center, n) for center in centres for n in radii]
        while len(pairs) < 520:
            if rng.random() < 0.5:
                center = reduce_matrix(rand_pgl2q(rng))
            else:
                d = rng.randrange(1, 361)
                center = lattice(Fraction(rng.randrange(1, 1002), d), Fraction(rng.randrange(d), d))
            pairs.append((center, rng.choice(radii + [rng.randrange(1, 400)])))
        for center, n in pairs:
            assert tuple(hypercircle(center, n)) == acted_hypercircle(center, n), (str(center), n)

    def test_no_member_is_acted_on_or_compared(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a member was acted on or compared")

        center = lattice(Fraction(2, 3), Fraction(1, 7))
        expected = acted_hypercircle(center, 360)
        monkeypatch.setattr(tree, "act", refuse)
        monkeypatch.setattr(LatticeName, "__lt__", refuse)
        assert tuple(hypercircle(center, 360)) == expected

    def test_len_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a member was enumerated")

        monkeypatch.setattr(tree.HyperCircle, "__iter__", refuse)
        monkeypatch.setattr(tree, "LatticeName", refuse)
        assert len(hypercircle(lattice(Fraction(2, 3), Fraction(1, 7)), 999983)) == 999984
        assert len(hypercircle(L1, 6)) == 12

    def test_len_reads_the_size_counted_when_made(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the size was counted again")

        circles = [hypercircle(L1, 6), tree.HyperCircle(lattice(Fraction(2, 3), Fraction(1, 7)), 999983)]
        assert all(type(c) is tree.HyperCircle for c in circles)
        monkeypatch.setattr(arith, "factorize", refuse)
        monkeypatch.setattr(tree, "factorize", refuse)
        monkeypatch.setattr(tree, "hypercircle_size", refuse)
        assert [len(c) for c in circles] == [c.size for c in circles] == [12, 999984]

    @pytest.mark.parametrize(
        "center",
        [L1, lattice(2), lattice(Fraction(1, 3), Fraction(2, 3)), lattice(6, Fraction(1, 2))],
        ids=str,
    )
    def test_members_are_a_square_hyperdistance_apart(self, center):
        # both members sit v_p(radius) steps from the centre in each p-adic
        # tree, which is bipartite; so no two are prime-hyperdistant, and the
        # DOT rendering of a hypercircle has no edges
        for radius in range(1, 61):
            members = hypercircle(center, radius).members
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    d = hyperdistance(x, y)
                    assert isqrt(d) ** 2 == d, (radius, str(x), str(y))


class TestProjection:
    def test_fixed_point(self):
        assert padic_projection(L1, 2) == L1

    def test_l6_projects_to_l2_and_l3(self):
        assert padic_projection(lattice(6), 2) == lattice(2)
        assert padic_projection(lattice(6), 3) == lattice(3)

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            padic_projection(L1, 6)

    def test_uniqueness_against_brute_force(self):
        rng = random.Random(71)
        for p in (2, 3, 5):
            ball = [L1]
            for k in range(1, 4):
                ball.extend(hypercircle(L1, p**k))
            for _ in range(25):
                while True:
                    name = reduce_matrix(rand_pgl2q(rng))
                    if hyperdistance(L1, name) <= 200:
                        break
                matches = [x for x in ball if hyperdistance(x, name) % p != 0]
                expected_in_ball = hyperdistance(L1, padic_projection(name, p)) <= p**3
                if expected_in_ball:
                    assert matches == [padic_projection(name, p)]
                else:
                    assert matches == []

    def test_projection_identity_on_tree_nodes(self):
        for member in hypercircle(L1, 8):
            assert padic_projection(member, 2) == member


class TestTreeShape:
    @pytest.mark.parametrize("p", [2, 3])
    def test_inner_degree_and_acyclicity(self, p):
        nodes, edges = tree_ball_edges(p, 4)
        assert len(edges) == len(nodes) - 1  # connected and acyclic
        degree = {n: 0 for n in nodes}
        for x, y in edges:
            degree[x] += 1
            degree[y] += 1
        inner = [L1]
        for k in range(1, 4):
            inner.extend(hypercircle(L1, p**k))
        for node in inner:
            assert degree[node] == p + 1


def searched_thread(left, right) -> tuple:
    """The thread as found before the closed form: the members of every
    divisor-radius hypercircle about ``left`` that satisfy its equation."""
    total = hyperdistance(left, right)
    members = []
    for d in range(1, total + 1):
        if total % d:
            continue
        for cand in hypercircle(left, d):
            if hyperdistance(cand, right) == total // d:
                members.append(cand)
    return tuple(sorted(set(members)))


def row_hnf(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of the integer row span of a stack of 2-vectors: the row
    reduction lattice sums were taken by before the closed form."""
    rows = [list(r) for r in rows if r != (0, 0)]
    # clear the first column down to one pivot by gcd steps
    while sum(1 for r in rows if r[0] != 0) > 1:
        rows.sort(key=lambda r: (r[0] == 0, abs(r[0])))
        pivot = rows[0]
        for r in rows[1:]:
            if r[0] != 0:
                q = r[0] // pivot[0]
                r[0] -= q * pivot[0]
                r[1] -= q * pivot[1]
        rows = [r for r in rows if r != [0, 0]]
    rows.sort(key=lambda r: (r[0] == 0, abs(r[0])))
    pivot = rows[0]
    if pivot[0] < 0:
        pivot = [-pivot[0], -pivot[1]]
    rest = [r[1] for r in rows[1:]]
    g = 0
    for x in rest:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("row span has rank < 2")
    return (tuple(pivot), (0, g))


def test_lattice_sum_closed_form_matches_row_reduction():
    # every name (a, s, d) with a*d <= 300 (the hypercircle of radius a*d
    # about L1) against every e dividing a*d: 504,867 pairs
    for n in range(1, 301):
        names = hypercircle(L1, n).members
        for e in divisors(n):
            for name in names:
                (x, y), (_, z) = row_hnf([(name.a, name.s), (0, name.d), (e, 0), (0, e)])
                expected = reduce_matrix(ProjectiveMatrix(x, y, 0, z))
                assert tree._lattice_sum(name, e) == expected, (name, e)


class TestThread:
    def test_point(self):
        assert list(thread(L1, L1)) == [L1]

    def test_l1_l4(self):
        assert set(thread(L1, lattice(4))) == {L1, lattice(2), lattice(4)}

    def test_l1_l6_square(self):
        assert set(thread(L1, lattice(6))) == {L1, lattice(2), lattice(3), lattice(6)}

    def test_is_the_tuple_of_its_members_in_name_order(self):
        t = thread(L1, lattice(12))
        assert type(t) is tuple
        assert all(type(x) is LatticeName for x in t)
        assert t == (L1, lattice(2), lattice(3), lattice(4), lattice(6), lattice(12))

    def test_multiplicativity_on_members(self):
        t = thread(L1, lattice(12))
        total = hyperdistance(L1, lattice(12))
        for m in t:
            assert hyperdistance(L1, m) * hyperdistance(m, lattice(12)) == total

    def test_lattice_sums_match_hypercircle_search(self):
        rng = random.Random(79)
        for i in range(120):
            left = L1 if i % 4 == 0 else reduce_matrix(rand_pgl2q(rng))
            n = rng.randint(1, 60) if i % 2 else rng.randint(1, 2000)
            d = rng.choice(divisors(n))
            while True:
                s = rng.randrange(d)
                if gcd(n // d, s, d) == 1:
                    break
            right = act(LatticeName(n // d, s, d), left.matrix())
            assert hyperdistance(left, right) == n
            found = thread(left, right)
            assert found == searched_thread(left, right)
            assert len(found) == len(divisors(n))

    def test_power_of_two_distance(self):
        t = thread(L1, lattice(2**40))
        assert t == tuple(lattice(2**k) for k in range(41))

    def test_distance_above_the_factorize_budget(self):
        with pytest.raises(ValueError, match="budget"):
            thread(L1, lattice(10**16))


class TestCell:
    def test_point_is_cell(self):
        assert is_cell([L1])

    def test_two_by_two_square(self):
        assert is_cell([L1, lattice(2), lattice(3), lattice(6)])

    def test_path_of_three_is_not(self):
        assert not is_cell([L1, lattice(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_cell([])

    def test_edge(self):
        assert is_cell([L1, lattice(2)])
        assert is_cell([lattice(2), lattice(6)])

    def test_a_prime_of_a_pairwise_hyperdistance_splits_the_projections(self):
        # p | delta(x, y) gives p | delta(pi_p x, pi_p y), so is_cell never
        # meets a prime at which the whole set projects to one point
        rng = random.Random(97)
        primes_seen = set()
        for _ in range(120):
            centre = reduce_matrix(rand_pgl2q(rng))
            near = [list(hypercircle(centre, rng.choice([2, 3, 4, 6, 12]))) for _ in range(2)]
            names = {centre, *(rng.choice(circle) for circle in near), reduce_matrix(rand_pgl2q(rng))}
            for x, y in combinations(sorted(names), 2):
                for p in factorize(hyperdistance(x, y)):
                    assert padic_projection(x, p) != padic_projection(y, p)
                    assert len({padic_projection(z, p) for z in names}) >= 2
                    primes_seen.add(p)
        assert {2, 3, 5, 7} <= primes_seen and len(primes_seen) > 10


class TestTransitivity:
    def test_translation_closure_single_orbit(self):
        # joint closure of T and the lower translation by M is transitive
        # on the hyperradius-N circle whenever gcd(M, N) == 1
        for m in range(1, 6):
            for n in range(1, 17):
                if gcd(m, n) != 1:
                    continue
                circle = set(hypercircle(L1, n))
                gens = [T, lower_translation(m)]
                seen = {min(circle)}
                frontier = list(seen)
                while frontier:
                    cur = frontier.pop()
                    for g in gens:
                        nxt = act(cur, g)
                        if nxt not in seen:
                            assert nxt in circle
                            seen.add(nxt)
                            frontier.append(nxt)
                assert seen == circle


class TestTriangleInequality:
    def test_log_delta_triangle(self):
        rng = random.Random(73)
        for _ in range(300):
            x = reduce_matrix(rand_pgl2q(rng))
            y = reduce_matrix(rand_pgl2q(rng))
            z = reduce_matrix(rand_pgl2q(rng))
            assert hyperdistance(x, z) <= hyperdistance(x, y) * hyperdistance(y, z)


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_divisors_match_the_linear_scan():
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    assert divisors(10**15) == sorted(2**i * 5**j for i in range(16) for j in range(16))
    with pytest.raises(ValueError, match="budget"):
        divisors(10**15 + 1)


class TestInputBudgets:
    def test_factorize_up_to_the_bound(self):
        assert arith.FACTORIZE_BOUND == 10**15
        assert factorize(10**15) == {2: 15, 5: 15}

    def test_factorize_refuses_above_the_bound(self):
        with pytest.raises(ValueError, match="budget"):
            factorize(10**15 + 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_factorize_refuses_below_one(self, n):
        with pytest.raises(ValueError, match="^cannot factorize %d$" % n):
            factorize(n)

    def test_hypercircle_refuses_above_the_bound(self):
        with pytest.raises(ValueError, match="1800000 members"):
            hypercircle(L1, 10**6)
        # 1000003 is prime: one member over the bound, where 11**6 would pass it
        with pytest.raises(ValueError, match="1000004 members"):
            hypercircle(L1, 1000003)

    def test_hypercircle_accepts_the_bound(self):
        # 499 and 1999 are prime: (499 + 1) * (1999 + 1) members, counted
        # without enumerating them
        assert len(hypercircle(L1, 499 * 1999)) == 10**6

    def test_hypercircle_bound_is_on_the_member_count(self, monkeypatch):
        # 9 and 10 have 12 and 18 members
        monkeypatch.setattr(arith, "HYPERCIRCLE_BOUND", 12)
        assert len(hypercircle(lattice(3), 9)) == 12
        with pytest.raises(ValueError, match="budget"):
            hypercircle(lattice(3), 10)

    def test_hypercircle_checks_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a member was enumerated")

        monkeypatch.setattr(tree.HyperCircle, "__iter__", refuse)
        monkeypatch.setattr(tree, "divisors", refuse)
        with pytest.raises(ValueError, match="budget"):
            hypercircle(L1, 2 * 10**6)

    def test_a_circle_is_refused_when_made(self, monkeypatch):
        # 2**20 has 1572864 members: the class refuses it as the function
        # does, before any member is listed
        def refuse(*args):
            raise AssertionError("a member was enumerated")

        monkeypatch.setattr(tree.HyperCircle, "__iter__", refuse)
        monkeypatch.setattr(tree, "divisors", refuse)
        with pytest.raises(ValueError, match="1572864 members"):
            tree.HyperCircle(L1, 2**20)
