import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from plattice.exact import (
    IDENTITY,
    S,
    T,
    ProjectiveMatrix,
    parse_matrix,
    pdet,
    primitive_rep,
)

from .helpers import dilation, lower_translation, translation


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
            return ProjectiveMatrix.from_entries(a, b, c, d)


class TestPrimitiveRep:
    def test_scalar_multiple_of_identity(self):
        assert primitive_rep((2, 0, 0, 2)) == (1, 0, 0, 1)

    def test_clears_denominators(self):
        assert primitive_rep((1, Fraction(1, 2), 0, 1)) == (2, 1, 0, 2)

    def test_divides_out_content(self):
        assert primitive_rep((4, 6, 2, 8)) == (2, 3, 1, 4)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix has no primitive representative"):
            primitive_rep((0, 0, 0, 0))

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(101)
        for _ in range(1000):
            m = rand_pgl2q(rng)
            q = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
            scaled = tuple(q * x for x in m.entries())
            assert primitive_rep(scaled) == primitive_rep(m.entries())
            assert primitive_rep(primitive_rep(scaled)) == primitive_rep(scaled)


class TestPdet:
    def test_identity(self):
        assert IDENTITY.pdet() == 1

    def test_diagonal(self):
        assert pdet((2, 0, 0, 1)) == 2

    def test_half_translation(self):
        assert pdet((1, Fraction(1, 2), 0, 1)) == 4

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
            ProjectiveMatrix.from_entries(1, 0, 0, -1)

    def test_lower_translation(self):
        assert lower_translation(3).entries() == (1, 0, 3, 1)


class TestSerialization:
    def test_round_trip(self):
        m = ProjectiveMatrix.from_entries(2, Fraction(1, 2), 0, 1)
        assert parse_matrix(str(m)) == m

    def test_parse_fractions(self):
        assert parse_matrix("[[1,1/2],[0,1]]") == ProjectiveMatrix.from_entries(
            1, Fraction(1, 2), 0, 1
        )

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
            assert parse_matrix(text).entries() == tuple(x // content for x in ints)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_matrix("[1,2,3]")
        with pytest.raises(ValueError):
            parse_matrix("[[1,x],[0,1]]")
