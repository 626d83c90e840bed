import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from plattice.exact import IDENTITY, ProjectiveMatrix, hermite
from plattice.lattice import LatticeName, clear_denominators, parse_matrix, reduce_matrix

from .helpers import S, T, dilation, lower_translation, rational_matrix, translation


def rand_psl2z(rng, length=12):
    """Random word in S, T as a ProjectiveMatrix with pdet 1."""
    m = IDENTITY
    for _ in range(rng.randrange(1, length)):
        m = m * rng.choice([S, T, T.inv()])
    return m


def rand_rational_token(rng):
    """A signed, spaced or unreduced ``p`` or ``p/q`` token."""
    p, q = rng.randrange(-30, 31), rng.randrange(1, 13)
    sign = "+" if p >= 0 and rng.random() < 0.3 else ""
    body = "%s%d" % (sign, p) if q == 1 and rng.random() < 0.5 else "%s%d/%d" % (sign, p, q)
    return " " * rng.randrange(2) + body + " " * rng.randrange(2)


def rand_pgl2q(rng, bound=9):
    while True:
        a, b, c, d = (rng.randrange(-bound, bound + 1) for _ in range(4))
        if a * d - b * c > 0:
            return ProjectiveMatrix(a, b, c, d)


def primitive(entries) -> tuple[int, ...]:
    """``clear_denominators`` of ints or ``Fraction``s, each read as its pair (p, q)."""
    return clear_denominators([x.as_integer_ratio() for x in entries])


class TestPrimitiveRep:
    def test_scalar_multiple_of_identity(self):
        assert primitive((2, 0, 0, 2)) == (1, 0, 0, 1)

    def test_clears_denominators(self):
        assert primitive((1, Fraction(1, 2), 0, 1)) == (2, 1, 0, 2)

    def test_divides_out_content(self):
        assert primitive((4, 6, 2, 8)) == (2, 3, 1, 4)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix has no primitive representative"):
            primitive((0, 0, 0, 0))

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(101)
        for _ in range(1000):
            m = rand_pgl2q(rng)
            q = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
            scaled = tuple(q * x for x in m)
            assert primitive(scaled) == primitive(m)
            assert primitive(primitive(scaled)) == primitive(scaled)


class TestConstructor:
    # ProjectiveMatrix(a, b, c, d) is the one constructor, so every matrix is
    # its primitive, sign-fixed representative and tuple equality and
    # hashing are projective equality
    def test_scaled_entries_give_one_matrix(self):
        rng = random.Random(53)
        checked = 0
        while checked < 400:
            entries = [rng.randint(-40, 40) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] <= 0:
                continue
            m = ProjectiveMatrix(*entries)
            assert gcd(*m) == 1 and next(x for x in m if x) > 0, (entries, m)
            for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
                scaled = ProjectiveMatrix(*(k * x for x in entries))
                assert scaled == m and hash(scaled) == hash(m), (entries, k)
                assert tuple(scaled) == tuple(m) and scaled.pdet() == m.pdet()
            checked += 1

    def test_scalar_matrices_are_the_identity(self):
        for k in (2, -1, -7):
            m = ProjectiveMatrix(k, 0, 0, k)
            assert m == IDENTITY and hash(m) == hash(IDENTITY) and m.pdet() == 1
            assert hermite(m) == (1, 0, 1)

    @pytest.mark.parametrize("entries", [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, -1), (1, 2, 2, 4)], ids=str)
    def test_non_positive_determinant_refused(self, entries):
        message = r"^matrix does not have positive determinant: \[\[%d,%d\],\[%d,%d\]\]$" % entries
        with pytest.raises(ValueError, match=message):
            ProjectiveMatrix(*entries)

    def test_copies_and_pickles_are_equal(self):
        for m in (IDENTITY, S, ProjectiveMatrix(-4, 6, -2, -8), rational_matrix(1, Fraction(1, 2), 0, 1)):
            for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                assert type(twin) is ProjectiveMatrix and twin == m and tuple(twin) == tuple(m)


class TestPdet:
    def test_identity(self):
        assert IDENTITY.pdet() == 1

    def test_diagonal(self):
        assert rational_matrix(2, 0, 0, 1).pdet() == 2

    def test_half_translation(self):
        assert rational_matrix(1, Fraction(1, 2), 0, 1).pdet() == 4

    def test_positive_integer_valued(self):
        rng = random.Random(7)
        for _ in range(1000):
            m = rand_pgl2q(rng)
            v = m.pdet()
            assert isinstance(v, int) and v > 0

    def test_invariant_under_modular_group(self):
        rng = random.Random(11)
        for _ in range(300):
            a = rand_pgl2q(rng)
            u = rand_psl2z(rng)
            assert (u * a).pdet() == a.pdet() == (a * u).pdet()

    def test_equals_pdet_of_inverse(self):
        rng = random.Random(13)
        for _ in range(1000):
            a = rand_pgl2q(rng)
            assert a.pdet() == a.inv().pdet()


class TestGroupLaw:
    def test_s_squared_is_identity(self):
        assert S * S == IDENTITY

    def test_diagonal_scaling_composes(self):
        assert dilation(2) * dilation(2) == dilation(4)

    def test_translation_exponents_add(self):
        assert translation(Fraction(1, 3)) * translation(Fraction(2, 3)) == T

    def test_inverse(self):
        rng = random.Random(17)
        for _ in range(300):
            a = rand_pgl2q(rng)
            assert a.inv() * a == IDENTITY
            assert a * a.inv() == IDENTITY

    def test_negative_determinant_rejected(self):
        with pytest.raises(ValueError):
            rational_matrix(1, 0, 0, -1)

    def test_lower_translation(self):
        assert tuple(lower_translation(3)) == (1, 0, 3, 1)


class TestHermite:
    def test_triple_is_in_the_coset(self):
        # independent of the row operation: g * adj([[a, s], [0, d]]) is a
        # rational multiple of an SL2(Z) matrix exactly when its determinant
        # is the square of its content (the benchmark's check of ``reduce``)
        rng = random.Random(500)
        checked = 0
        while checked < 500:
            entries = [rng.randint(-60, 60) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] <= 0 or gcd(*entries) != 1:
                continue
            g = ProjectiveMatrix(*entries)
            a, s, d = triple = hermite(g)
            assert a > 0 and 0 <= s < d and gcd(a, s, d) == 1, (g, triple)
            ga, gb, gc, gd = g
            product = (ga * d, gb * a - ga * s, gc * d, gd * a - gc * s)
            assert product[0] * product[3] - product[1] * product[2] == gcd(*product) ** 2, (g, triple)
            assert reduce_matrix(g) == LatticeName(*triple)
            checked += 1


class TestSerialization:
    def test_round_trip(self):
        m = rational_matrix(2, Fraction(1, 2), 0, 1)
        assert parse_matrix(str(m)) == m

    def test_parse_fractions(self):
        assert parse_matrix("[[1,1/2],[0,1]]") == ProjectiveMatrix(2, 1, 0, 2)

    def test_parse_agrees_with_fraction_oracle(self):
        # the oracle reads each token with Fraction and scales by Fraction
        # arithmetic; a determinant <= 0 (the zero matrix too) is an error
        rng = random.Random(71)
        for _ in range(2000):
            tokens = [rand_rational_token(rng) for _ in range(4)]
            text = "[[%s,%s],[%s,%s]]" % tuple(tokens)
            entries = [Fraction(t) for t in tokens]
            if entries[0] * entries[3] - entries[1] * entries[2] <= 0:
                with pytest.raises(ValueError):
                    parse_matrix(text)
                continue
            den = lcm(*(x.denominator for x in entries))
            ints = [int(x * den) for x in entries]
            content = gcd(*ints) * (-1 if ints[0] < 0 or ints[0] == 0 and ints[1] < 0 else 1)
            assert tuple(parse_matrix(text)) == tuple(x // content for x in ints)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_matrix("[1,2,3]")
        with pytest.raises(ValueError):
            parse_matrix("[[1,x],[0,1]]")
