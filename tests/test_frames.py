import random
import re
import tracemalloc

import pytest

from plattice import frames
from plattice.diagram import NODE_GROUPS, node_vertex_data
from plattice.exact import S, T, ProjectiveMatrix
from plattice.doubling import double_coset_label, double_group, eta_quotient_value, eta_value, invariant_under, mobius
from plattice.frames import (
    FRAME_SHAPES,
    SERIES_TERM_BUDGET,
    VERTEX_SHAPES,
    FrameShape,
    IntegerPowerSeries,
    eta_quotient_series,
    frame_shape,
    numeric_invariance_check,
)
from plattice.descriptors import GroupDescriptor, width_at_infinity
from plattice.groupsys import member, quotient_generators

from .helpers import coefficient, dense_eta_series, max_part, predicted_valency, searched_double_group

DOUBLED_DISPLAYS = ["2", "4+", "6+6", "8+", "10+10", "12+", "6|3", "8|2+", "4"]


def mul(p, q, order):
    """Product of two power series truncated at q^order."""
    out = [0] * (order + 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q[: order + 1 - i]):
                out[i + j] += a * b
    return out


def euler(step, order):
    """The product of (1 - q^(step*m)) over m >= 1, by direct multiplication."""
    p = [1] + [0] * order
    m = 1
    while step * m <= order:
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[step * m] = -1
        p = mul(p, factor, order)
        m += 1
    return p


def oracle_quotient(fs, order):
    """Independent brute-force expansion by direct polynomial products."""

    def inv(p):
        out = [0] * (order + 1)
        out[0] = 1
        for k in range(1, order + 1):
            out[k] = -sum(p[i] * out[k - i] for i in range(1, k + 1))
        return out

    acc = [1] + [0] * order
    for a, alpha in fs.parts:
        up, down = euler(a, order), euler(2 * a, order)
        for _ in range(abs(alpha)):
            if alpha > 0:
                acc = mul(acc, up, order)
                acc = mul(acc, inv(down), order)
            else:
                acc = mul(acc, inv(up), order)
                acc = mul(acc, down, order)
    return acc


def random_shape(rng):
    """A degree-24 shape with a negative exponent and a part above 2."""
    while True:
        bases = sorted(rng.sample(range(1, 13), rng.randint(2, 4)))
        fs = FrameShape(tuple((a, rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])) for a in bases))
        if fs.degree == 24 and min(alpha for _, alpha in fs.parts) < 0 and max_part(fs) > 2:
            return fs


def two_part_shape(rng):
    """A degree-24 shape of two parts with bases and exponents up to 12."""
    while True:
        a, b = rng.sample(range(1, 13), 2)
        alpha = rng.choice([e for e in range(-12, 13) if e])
        rest = 24 - a * alpha
        if rest and rest % b == 0 and abs(rest // b) <= 12:
            return FrameShape(tuple(sorted([(a, alpha), (b, rest // b)])))


class TestDoubling:
    def test_trivial_label(self):
        assert double_coset_label(1, 5) == (1, 10)

    def test_fricke_of_two(self):
        assert double_coset_label(2, 2) == (4, 4)

    def test_odd_label_even_cofactor(self):
        assert double_coset_label(3, 6) == (3, 12)

    def test_odd_fricke_doubles(self):
        assert double_coset_label(3, 3) == (6, 6)
        assert double_coset_label(5, 5) == (10, 10)

    def test_rejects_inexact(self):
        with pytest.raises(ValueError):
            double_coset_label(2, 4)

    def test_all_nine_groups(self):
        assert [double_group(d).display for d in NODE_GROUPS] == DOUBLED_DISPLAYS

    def test_rejects_outsiders(self):
        with pytest.raises(ValueError):
            double_group(GroupDescriptor.gamma0(7))

    def test_name_rule_matches_the_envelope_and_scale_route(self):
        for d in NODE_GROUPS:
            assert double_group(d) == searched_double_group(d)

    def test_doubles_are_arithmetic_with_width_one(self):
        for d in NODE_GROUPS:
            sd = double_group(d)
            for g in quotient_generators(sd):
                assert member(g, sd)
            assert width_at_infinity(sd) == (1, 1)


class TestFrameShapes:
    def test_catalog_displays(self):
        assert [fs.display for fs in FRAME_SHAPES] == [
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

    def test_lookup_by_group(self):
        assert frame_shape(GroupDescriptor.gamma0(1)).display == "1^24"
        assert frame_shape(GroupDescriptor.gamma0_plus(6)).display == "2^6 6^6 / 1^6 3^6"
        assert frame_shape(GroupDescriptor.gamma0(2)).display == "1^8 2^8"

    def test_degree_24(self):
        for fs in FRAME_SHAPES:
            assert fs.degree == 24

    def test_parse_round_trip(self):
        for fs in FRAME_SHAPES:
            assert FrameShape.parse(fs.display) == fs

    def test_invariants_examples(self):
        for text, expected in [
            ("1^24", (24, 1, 1)),
            ("2^6 6^6 / 1^6 3^6", (24, 6, 3)),
            ("4^12 / 2^12", (24, 4, 2)),
        ]:
            fs = FrameShape.parse(text)
            assert (fs.degree, max_part(fs), predicted_valency(fs)) == expected

    def test_max_parts_equal_normalized_levels(self):
        data = node_vertex_data()
        for v, fs in zip(data, FRAME_SHAPES):
            assert max_part(fs) == v.normalized_level

    def test_predicted_valency_matches(self):
        data = node_vertex_data()
        for v, fs in zip(data, FRAME_SHAPES):
            assert predicted_valency(fs) == v.valency

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameShape(((2, 1), (2, 3)))
        with pytest.raises(ValueError):
            FrameShape(((1, 0),))

    def test_catalog_names_are_the_vertex_displays(self):
        assert [name for name, _ in VERTEX_SHAPES] == [d.display for d in NODE_GROUPS]
        assert tuple(shape for _, shape in VERTEX_SHAPES) == FRAME_SHAPES

    @pytest.mark.parametrize("name", [name for name, _ in VERTEX_SHAPES])
    def test_lookup_by_parsed_name_is_the_catalog_shape(self, name):
        assert frame_shape(GroupDescriptor.parse(name)) == dict(VERTEX_SHAPES)[name]

    @pytest.mark.parametrize("text", ["", "   ", "/", " / ", "1^24 / 1^24", "1^0", "2^0"])
    def test_text_without_parts_rejected(self, text):
        # exponents that cancel leave no parts either
        with pytest.raises(ValueError, match="has no parts"):
            FrameShape.parse(text)

    @pytest.mark.parametrize("text", ["1^", "24^", "1^24 2^"])
    def test_a_caret_without_an_exponent_is_rejected(self, text):
        # these were read as the exponent 1
        with pytest.raises(ValueError, match="^%s$" % re.escape("bad Frame shape %r" % text)):
            FrameShape.parse(text)


class TestSeries:
    def test_frozen_leading_coefficients(self):
        series = eta_quotient_series(FRAME_SHAPES[0], 10)
        assert series.leading == -1
        assert series.coeffs[:4] == (1, -24, 276, -2048)

    def test_matches_independent_oracle_to_fifty(self):
        for fs in FRAME_SHAPES:
            series = eta_quotient_series(fs, 50)
            oracle = oracle_quotient(fs, 51)
            assert series.leading == -1
            assert list(series.coeffs) == oracle[: len(series.coeffs)]

    def test_all_integer_and_pole_order_one(self):
        for fs in FRAME_SHAPES:
            series = eta_quotient_series(fs, 50)
            assert series.leading == -1
            assert series.coeffs[0] == 1
            assert all(isinstance(c, int) for c in series.coeffs)

    def test_matches_independent_oracle_beyond_fifty(self):
        fs = random_shape(random.Random(2008))
        series = eta_quotient_series(fs, 120)
        leading = -fs.degree // 24
        assert series.leading == leading
        assert list(series.coeffs) == oracle_quotient(fs, 120 - leading)

    def test_quotient_times_denominator_is_numerator(self):
        # every factor goes to the side where its exponent is positive, so
        # the check needs products only, no series inverse
        for fs in FRAME_SHAPES + (random_shape(random.Random(24)),):
            series = eta_quotient_series(fs, 30)
            order = len(series.coeffs) - 1
            num = [1] + [0] * order
            den = [1] + [0] * order
            for a, alpha in fs.parts:
                top, bottom = (a, 2 * a) if alpha > 0 else (2 * a, a)
                for _ in range(abs(alpha)):
                    num = mul(num, euler(top, order), order)
                    den = mul(den, euler(bottom, order), order)
            assert mul(list(series.coeffs), den, order) == num

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError, match="fractional"):
            eta_quotient_series(FrameShape.parse("1^1"), 10)

    def test_order_below_leading_exponent_rejected(self):
        with pytest.raises(ValueError, match="below the leading exponent"):
            eta_quotient_series(FrameShape.parse("1^-48"), 1)

    def test_coefficient_accessor(self):
        series = eta_quotient_series(FRAME_SHAPES[0], 5)
        assert coefficient(series, -1) == 1
        assert coefficient(series, -3) == 0
        assert coefficient(series, 0) == -24
        with pytest.raises(ValueError):
            coefficient(series, series.order + 1)

    def test_str_form(self):
        series = eta_quotient_series(FRAME_SHAPES[0], 1)
        assert str(series).startswith("q^-1 - 24 + 276 q")

    def test_text_pieces_join_to_the_str(self):
        rng = random.Random(4242)
        shapes = list(FRAME_SHAPES) + [random_shape(rng) for _ in range(10)] + [two_part_shape(rng) for _ in range(10)]
        for fs in shapes:
            for order in (1, 7, rng.randint(8, 300)):
                series = eta_quotient_series(fs, order)
                assert "".join(series.text()) == str(series), (fs, order)
        assert str(IntegerPowerSeries(0, (0, 0))) == "".join(IntegerPowerSeries(0, (0, 0)).text()) == "0"


class TestBlockedEngine:
    # the dense recurrence of tests/helpers.py is the reference; orders
    # around the block edges reach every part of the packing and decoding
    @pytest.mark.parametrize(
        "order",
        [1, 2, frames._BLOCK - 1, frames._BLOCK, frames._BLOCK + 1, 2 * frames._BLOCK + 1, 5 * frames._BLOCK + 3, 1000],
    )
    def test_catalog_matches_dense_recurrence(self, order):
        for fs in FRAME_SHAPES:
            assert eta_quotient_series(fs, order) == dense_eta_series(fs, order)

    def test_random_shapes_match_dense_recurrence(self):
        rng = random.Random(1985)
        for i in range(40):
            fs = random_shape(rng) if i % 2 else two_part_shape(rng)
            order = rng.randint(1, 700)
            assert eta_quotient_series(fs, order) == dense_eta_series(fs, order), (fs, order)

    @pytest.mark.parametrize("text", ["1^24 2^12", "1^48", "2^12 / 1^24", "1^-24"])
    def test_other_degrees_match_dense_recurrence(self, text):
        fs = FrameShape.parse(text)
        for order in (1, 300):
            assert eta_quotient_series(fs, order) == dense_eta_series(fs, order)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_tiny_blocks_match_dense_recurrence(self, monkeypatch, block):
        monkeypatch.setattr(frames, "_BLOCK", block)
        for fs in FRAME_SHAPES:
            assert eta_quotient_series(fs, 60) == dense_eta_series(fs, 60)

    def test_a_wrong_decode_is_an_internal_error(self, monkeypatch):
        # one unit more in the last term of the first block moves the sum
        # at q^127 by b_1 = 24, which 128 does not divide
        monkeypatch.setattr(frames, "_BLOCK", 128)
        slots = frames._slots

        def off_by_one(values, width):
            if len(values) == frames._BLOCK:  # a block's terms, not b
                values = values[:-1] + [values[-1] + 1]
            return slots(values, width)

        monkeypatch.setattr(frames, "_slots", off_by_one)
        with pytest.raises(AssertionError, match="128 does not divide the q\\^127 sum of 1\\^24"):
            eta_quotient_series(FRAME_SHAPES[0], 200)

    @pytest.mark.parametrize("text, s", [("3^8", 3), ("4^12 / 2^12", 2)])
    def test_dilated_catalog_shapes_match_dense_recurrence(self, text, s):
        # every base a multiple of s: the series in q^s, spread out; the
        # orders cross the first two block edges of the reduced series
        fs = FrameShape.parse(text)
        for edge in (frames._BLOCK, 2 * frames._BLOCK):
            for order in range(s * edge - s - 2, s * edge + s + 1):
                assert eta_quotient_series(fs, order) == dense_eta_series(fs, order), order

    def test_seeded_dilated_shapes_match_dense_recurrence(self):
        rng = random.Random(1729)
        for i in range(16):
            s = rng.randint(2, 5)
            base = random_shape(rng) if i % 2 else two_part_shape(rng)
            fs = FrameShape(tuple((s * a, alpha) for a, alpha in base.parts))
            order = rng.choice([rng.randint(1, 700), s * frames._BLOCK + rng.randint(-s - 2, s)])
            assert eta_quotient_series(fs, order) == dense_eta_series(fs, order), (fs, order)

    def test_a_wrong_decode_of_a_dilated_shape_names_the_true_exponent(self, monkeypatch):
        # 3^8 is a series in q^3: one unit more in the last term of the first
        # block moves the sum of the 128th reduced term, q^383, by b_1 = 8
        monkeypatch.setattr(frames, "_BLOCK", 128)
        slots = frames._slots

        def off_by_one(values, width):
            if len(values) == frames._BLOCK:
                values = values[:-1] + [values[-1] + 1]
            return slots(values, width)

        monkeypatch.setattr(frames, "_slots", off_by_one)
        with pytest.raises(AssertionError, match="128 does not divide the q\\^383 sum of 3\\^8"):
            eta_quotient_series(FrameShape.parse("3^8"), 400)

    def test_one_block_product_at_a_time(self):
        # each full-length temporary of a block is let go before the next is
        # made; holding them all took 729 KiB here
        tracemalloc.start()
        try:
            eta_quotient_series(FrameShape.parse("1^24"), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * 1024

    @pytest.mark.parametrize(
        "text, order",
        [("1^24", SERIES_TERM_BUDGET), ("1^%d" % (24 * SERIES_TERM_BUDGET), 1)],
        ids=["order", "pole"],
    )
    def test_terms_above_the_budget_rejected(self, text, order):
        # a pole of high order costs as many terms as a high order does
        with pytest.raises(ValueError, match="terms after q\\^-\\d+, above the budget of %d" % SERIES_TERM_BUDGET):
            eta_quotient_series(FrameShape.parse(text), order)


class TestNumericCheck:
    def test_translation_always_invariant(self):
        assert invariant_under(FRAME_SHAPES[0], T, 0.1 + 0.8j)

    def test_all_nine_invariant(self):
        for d in NODE_GROUPS:
            assert numeric_invariance_check(frame_shape(d), double_group(d))

    def test_negative_control(self):
        assert not invariant_under(FRAME_SHAPES[0], S, 0.1 + 0.8j)

    def test_fricke_of_two_scales_instead(self):
        # eta(t)^24/eta(2t)^24 is not itself invariant under the level-two
        # involution; the involution sends it to 4096 over itself
        w2 = ProjectiveMatrix.from_entries(0, -1, 2, 0)
        tau = 0.1 + 0.8j
        f0 = eta_quotient_value(FRAME_SHAPES[0], tau)
        f1 = eta_quotient_value(FRAME_SHAPES[0], mobius(w2, tau))
        assert abs(f1 - 4096 / f0) < 1e-6 * (1 + abs(f1))
        assert not invariant_under(FRAME_SHAPES[0], w2, tau)

    def test_upper_half_plane_required(self):
        with pytest.raises(ValueError):
            eta_value(0.3 - 1j)
        with pytest.raises(ValueError):
            invariant_under(FRAME_SHAPES[0], T, 0.5 - 0.5j)

    def test_eta_against_fixed_point(self):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4))
        import math

        expected = math.gamma(0.25) / (2 * math.pi**0.75)
        assert abs(eta_value(1j) - expected) < 1e-12
