import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from plattice.exact import IDENTITY, S, T, ProjectiveMatrix
from plattice.lattice import L1, LatticeName, act, hyperdistance, lattice, reduce_matrix
from plattice.tree import hypercircle
from .helpers import (
    ReverseName,
    dilation,
    lower_translation,
    name_b,
    name_m,
    name_of,
    reverse_name,
    translation,
)
from .test_exact import rand_pgl2q, rand_psl2z, rand_rational_token


def assert_comparisons_follow_sort(items):
    """<, <=, >, >=, min and max agree with the order ``sorted`` puts the
    distinct ``items`` in: a tuple subclass that defines only __lt__ keeps
    the tuple's lexicographic <=, > and >=."""
    ordered = sorted(items)
    rank = {x: i for i, x in enumerate(ordered)}
    assert len(rank) == len(items)
    for x in items:
        for y in items:
            i, j = rank[x], rank[y]
            assert (x < y, x <= y, x > y, x >= y) == (i < j, i <= j, i > j, i >= j), (x, y)
    assert min(items) == ordered[0] and max(items) == ordered[-1]


class TestReduce:
    def test_identity(self):
        assert reduce_matrix(IDENTITY) == L1

    def test_s_is_modular(self):
        assert reduce_matrix(S) == L1

    def test_fricke_level_four(self):
        w4 = ProjectiveMatrix.from_entries(0, -1, 4, 0)
        # row reduction by hand: [[0,-1],[4,0]] ~ [[4,0],[0,1]]
        assert reduce_matrix(w4) == lattice(4)

    def test_coset_invariance(self):
        rng = random.Random(23)
        for _ in range(1000):
            g = rand_pgl2q(rng)
            u = rand_psl2z(rng)
            assert reduce_matrix(u * g) == reduce_matrix(g)

    def test_round_trip_through_name(self):
        rng = random.Random(29)
        for _ in range(500):
            g = rand_pgl2q(rng)
            name = reduce_matrix(g)
            assert reduce_matrix(name.matrix()) == name


class TestAction:
    def test_t_fixes_distinguished(self):
        assert act(L1, T) == L1

    def test_dilation_moves_to_l2(self):
        assert act(L1, dilation(2)) == lattice(2)

    def test_third_translation_three_cycle(self):
        x = translation(Fraction(1, 3))
        a = act(L1, x)
        b = act(a, x)
        c = act(b, x)
        assert a == lattice(1, Fraction(1, 3))
        assert b == lattice(1, Fraction(2, 3))
        assert c == L1

    def test_right_action_axiom(self):
        rng = random.Random(31)
        for _ in range(400):
            g, h = rand_pgl2q(rng), rand_pgl2q(rng)
            name = reduce_matrix(rand_pgl2q(rng))
            assert act(act(name, g), h) == act(name, g * h)


class TestHyperdistance:
    def test_reflexive_is_one(self):
        rng = random.Random(37)
        for _ in range(100):
            name = reduce_matrix(rand_pgl2q(rng))
            assert hyperdistance(name, name) == 1

    def test_l1_to_l2(self):
        assert hyperdistance(L1, lattice(2)) == 2

    def test_l1_to_half_shift(self):
        assert hyperdistance(L1, lattice(1, Fraction(1, 2))) == 4

    def test_symmetry(self):
        rng = random.Random(41)
        for _ in range(1000):
            x = reduce_matrix(rand_pgl2q(rng))
            y = reduce_matrix(rand_pgl2q(rng))
            assert hyperdistance(x, y) == hyperdistance(y, x)

    def test_action_invariance(self):
        rng = random.Random(43)
        for _ in range(500):
            x = reduce_matrix(rand_pgl2q(rng))
            y = reduce_matrix(rand_pgl2q(rng))
            g = rand_pgl2q(rng)
            assert hyperdistance(act(x, g), act(y, g)) == hyperdistance(x, y)

    def test_one_iff_equal(self):
        rng = random.Random(47)
        for _ in range(300):
            x = reduce_matrix(rand_pgl2q(rng))
            y = reduce_matrix(rand_pgl2q(rng))
            assert (hyperdistance(x, y) == 1) == (x == y)


class TestReverseNames:
    def test_zero_shift(self):
        assert reverse_name(lattice(5)) == ReverseName(Fraction(0), Fraction(1, 5))

    def test_third_shift(self):
        assert reverse_name(lattice(1, Fraction(1, 3))) == ReverseName(
            Fraction(1, 3), Fraction(1, 9)
        )

    def test_deep_name(self):
        assert reverse_name(lattice(Fraction(1, 9), Fraction(2, 3))) == ReverseName(
            Fraction(2, 3), Fraction(1)
        )

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(1000):
            name = reduce_matrix(rand_pgl2q(rng))
            assert name_of(reverse_name(name)) == name

    def test_reverse_matrix_names_same_lattice(self):
        # the lower-triangular representative reduces back to the name
        rng = random.Random(59)
        for _ in range(500):
            name = reduce_matrix(rand_pgl2q(rng))
            assert reduce_matrix(reverse_name(name).matrix()) == name

    def test_lower_translation_acts_on_reverse_names(self):
        # reverse pair (b, A) gains A*M in its shift under [[1,0],[M,1]]
        rng = random.Random(61)
        for _ in range(300):
            name = reduce_matrix(rand_pgl2q(rng))
            rev = reverse_name(name)
            m = rng.randrange(1, 7)
            shifted = act(name, lower_translation(m))
            b2 = rev.b + rev.m * m
            expected = ReverseName(b2 - b2.__floor__(), rev.m)
            assert reverse_name(shifted) == expected


class TestReverseNamesOnPrimePowerCircles:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_members_transform_to_the_listed_families(self, p, n):
        # reverse names of the hyperradius p^n circle about L1, family by
        # family: (M, 0) pairs go to (0, 1/M); shifted names invert the
        # shift numerator modulo its denominator and land over 1/p^n or
        # p^(n-a)/p^a according to which side of the circle they sit on
        from plattice.tree import hypercircle
        from plattice.lattice import L1

        q = p**n
        for member in hypercircle(L1, q):
            rev = reverse_name(member)
            if name_b(member) == 0:
                assert rev == ReverseName(Fraction(0), 1 / name_m(member))
                continue
            k, pa = name_b(member).numerator, name_b(member).denominator
            kp = pow(k, -1, pa)
            a = 0
            while p**a != pa:
                a += 1
            if name_m(member) == Fraction(q, pa * pa):
                assert rev == ReverseName(Fraction(kp, pa), Fraction(1, q))
            else:
                assert name_m(member) == Fraction(1, q)
                assert rev == ReverseName(Fraction(kp, pa), Fraction(p ** (n - a), pa))

    def test_level_eight_reverse_list(self):
        # spelled out for p^n = 8: exactly the four listed families
        from plattice.tree import hypercircle
        from plattice.lattice import L1

        revs = {reverse_name(m) for m in hypercircle(L1, 8)}
        expected = {ReverseName(Fraction(0), Fraction(1, 8))}
        expected |= {
            ReverseName(Fraction(k, 2), Fraction(1, 8)) for k in (1,)
        }
        expected |= {
            ReverseName(Fraction(k, 4), Fraction(1, 8)) for k in (1, 3)
        }
        expected |= {
            ReverseName(Fraction(k, 8), Fraction(1, 8)) for k in (1, 3, 5, 7)
        }
        expected |= {
            ReverseName(Fraction(k, 4), Fraction(2, 4)) for k in (1, 3)
        }
        expected |= {
            ReverseName(Fraction(k, 2), Fraction(4, 2)) for k in (1,)
        }
        expected |= {ReverseName(Fraction(0), Fraction(8))}
        assert revs == expected


class TestNameValidation:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            lattice(Fraction(-1), Fraction(0))

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            lattice(Fraction(1), Fraction(3, 2))

    @pytest.mark.parametrize("triple", [(0, 0, 1), (1, 1, 1), (1, -1, 2), (2, 0, 2), (1, 0, 0)])
    def test_rejects_non_hermite_triple(self, triple):
        with pytest.raises(ValueError):
            LatticeName(*triple)

    def test_parse_agrees_with_fraction_oracle(self):
        # the names and the M <= 0 and b outside [0, 1) messages are those
        # of the pair read with Fraction
        rng = random.Random(73)
        for _ in range(2000):
            m_token, b_token = rand_rational_token(rng), rand_rational_token(rng)
            m, b = Fraction(m_token), Fraction(b_token)
            text = "%s,%s" % (m_token, b_token)
            if m <= 0:
                with pytest.raises(ValueError, match=r"^lattice name needs M > 0, got %s$" % m):
                    LatticeName.parse(text)
            elif not 0 <= b < 1:
                with pytest.raises(ValueError, match=r"^lattice name needs 0 <= b < 1, got %s$" % b):
                    LatticeName.parse(text)
            else:
                name = LatticeName.parse(text)
                assert (name_m(name), name_b(name)) == (m, b)
                assert name == lattice(m, b)

    def test_parse_and_str(self):
        name = lattice(Fraction(1, 9), Fraction(2, 9))
        assert LatticeName.parse(str(name)) == name
        assert str(name) == "1/9,2/9"


# fixed examples (derandomize) and no example database keep the suite
# deterministic from run to run
PROPERTY = settings(derandomize=True, deadline=None, database=None)

positive_rationals = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))
unit_rationals = st.integers(1, 10**4).flatmap(
    lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q))
)
modular_elements = st.lists(st.sampled_from([S, T, T.inv()]), max_size=30).map(
    lambda word: reduce(mul, word, IDENTITY)
)


def test_name_comparisons_order_by_pair():
    rng = random.Random(31)
    names = list({reduce_matrix(rand_pgl2q(rng)) for _ in range(200)} | set(hypercircle(L1, 12)))
    rng.shuffle(names)
    assert_comparisons_follow_sort(names)
    # the order is (M, b), which the triples' own order does not follow
    assert lattice(Fraction(1, 2)) < L1 and (1, 0, 2) > (1, 0, 1)


class TestIntegerNameProperties:
    @PROPERTY
    @given(positive_rationals, unit_rationals)
    def test_pair_reads_back(self, m, b):
        name = lattice(m, b)
        assert name_m(name) == m and name_b(name) == b

    @PROPERTY
    @given(st.lists(st.tuples(positive_rationals, unit_rationals), max_size=20))
    def test_names_sort_by_pair(self, pairs):
        assert sorted(lattice(m, b) for m, b in pairs) == [lattice(m, b) for m, b in sorted(pairs)]

    @PROPERTY
    @given(positive_rationals, unit_rationals)
    def test_parse_inverts_str(self, m, b):
        name = lattice(m, b)
        assert LatticeName.parse(str(name)) == name

    @PROPERTY
    @given(positive_rationals, unit_rationals)
    def test_reduce_recovers_name(self, m, b):
        name = lattice(m, b)
        assert reduce_matrix(name.matrix()) == name

    @PROPERTY
    @given(positive_rationals, unit_rationals, modular_elements)
    def test_reduce_ignores_modular_left_factor(self, m, b, u):
        name = lattice(m, b)
        assert reduce_matrix(u * name.matrix()) == name
