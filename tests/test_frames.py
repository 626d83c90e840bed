import cmath
import collections
import itertools
import math
import random
import re
import runpy
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from plattice import frames
from plattice.diagram import NODE_GROUPS, node_vertex_data
from plattice.exact import ProjectiveMatrix
from plattice.doubling import double_group, eta_multiplier, invariant_under, invariant_under_gamma0
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

from .helpers import (
    S,
    T,
    coefficient,
    dense_eta_series,
    descriptor_catalog,
    eta_quotient_value,
    eta_value,
    float_invariance_check,
    float_invariant_under,
    group_generators,
    max_part,
    mobius,
    predicted_valency,
    schreier_generators,
    searched_double_group,
)

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


def doubled_exponents(parts) -> dict:
    """The nonzero exponents r_d of the doubled eta quotient of the parts,
    read at each d: r_d = alpha_d - alpha_(d/2), where a missing part has
    alpha 0 and d/2 counts only for even d."""
    alpha = dict(parts)
    r = {d: alpha.get(d, 0) - (0 if d % 2 else alpha.get(d // 2, 0)) for d in {*alpha, *(2 * a for a in alpha)}}
    return {d: e for d, e in r.items() if e}


class TestDoubling:
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

    def test_no_parts_is_refused(self):
        # the empty product would expand to the series 1 and pass every
        # invariance test; parse refuses such text with its own message
        with pytest.raises(ValueError, match="at least one part"):
            FrameShape(())

    def test_eta_exponents_examples(self):
        # in 1^8 2^8 the -8 at twice the part 1 cancels the part 2
        assert FrameShape.parse("1^8 2^8").eta_exponents == ((1, 8), (4, -8))
        assert FrameShape.parse("2^6 6^6 / 1^6 3^6").eta_exponents == (
            (1, -6),
            (2, 12),
            (3, -6),
            (4, -6),
            (6, 12),
            (12, -6),
        )

    def test_eta_exponents_match_the_rule_read_at_each_d(self):
        for fs in INVARIANCE_SHAPES:
            assert fs.eta_exponents == tuple(sorted(doubled_exponents(fs.parts).items()))

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


def broken_ligozat_conditions(parts, level: int) -> set:
    """Which conditions of Ligozat's criterion the doubled eta quotient of
    the parts breaks at the level: every base divides it, the translation
    and Fricke sums are 0 mod 24, and the product is a square."""
    r = doubled_exponents(parts)
    s = math.prod(d ** abs(e) for d, e in r.items())
    broken = {
        "divides": any(level % d for d in r),
        "translation": sum(d * e for d, e in r.items()) % 24 != 0,
        # level / d as a fraction, for a base that does not divide the level
        "fricke": sum(Fraction(level, d) * e for d, e in r.items()) % 24 != 0,
        "square": math.isqrt(s) ** 2 != s,
    }
    return {name for name, fails in broken.items() if fails}


# the nine catalog shapes and 60 shapes drawn as the benchmark's eta-series
# workload draws them, read through runpy so the benchmark's files are only read
_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))
_DRAW = random.Random(7)
INVARIANCE_SHAPES = list(FRAME_SHAPES) + [
    FrameShape(tuple(_WORKLOADS["random_frame_shape"](_DRAW))) for _ in range(60)
]
DOUBLED_GROUPS = [double_group(d) for d in NODE_GROUPS]


class TestNumericCheck:
    def test_translation_always_invariant(self):
        assert float_invariant_under(FRAME_SHAPES[0], T, 0.1 + 0.8j)

    def test_all_nine_invariant(self):
        for d in NODE_GROUPS:
            assert numeric_invariance_check(frame_shape(d), double_group(d))

    def test_negative_control(self):
        assert not float_invariant_under(FRAME_SHAPES[0], S, 0.1 + 0.8j)

    def test_each_doubled_group_is_the_largest_that_fixes_its_quotient(self):
        # a group containing D contains D's base level group, so the catalog
        # at that level lists every descriptor that could; inclusion is read
        # on generators, since cosets inside the normalizer miss the rest
        fixing_counts = []
        for d in NODE_GROUPS:
            doubled, shape = double_group(d), frame_shape(d)
            fixing = [g for g in descriptor_catalog(doubled.n * doubled.h) if numeric_invariance_check(shape, g)]
            maximal = [
                g for g in fixing if not any(b != g and all(member(x, b) for x in group_generators(g)) for b in fixing)
            ]
            assert maximal == [doubled], d
            fixing_counts.append(len(fixing))
        assert fixing_counts == [1, 2, 2, 2, 2, 5, 3, 4, 1]

    def test_fricke_of_two_scales_instead(self):
        # eta(t)^24/eta(2t)^24 is not itself invariant under the level-two
        # involution; the involution sends it to 4096 over itself
        w2 = ProjectiveMatrix(0, -1, 2, 0)
        tau = 0.1 + 0.8j
        f0 = eta_quotient_value(FRAME_SHAPES[0], tau)
        f1 = eta_quotient_value(FRAME_SHAPES[0], mobius(w2, tau))
        assert abs(f1 - 4096 / f0) < 1e-6 * (1 + abs(f1))
        assert not float_invariant_under(FRAME_SHAPES[0], w2, tau)

    def test_verdict_matches_the_float_oracle(self):
        # the nine catalog shapes and 60 of the benchmark's random shapes,
        # each against the nine doubled groups: 621 pairs, 14 invariant
        pairs = [(fs, g) for fs in INVARIANCE_SHAPES for g in DOUBLED_GROUPS]
        verdicts = [numeric_invariance_check(fs, g) for fs, g in pairs]
        assert verdicts == [float_invariance_check(fs, g) for fs, g in pairs]
        assert (len(verdicts), sum(verdicts)) == (621, 14)

    def test_level_group_criterion_matches_the_schreier_oracle(self):
        for fs in INVARIANCE_SHAPES:
            for g in DOUBLED_GROUPS:
                level = g.n * g.h
                oracle = all(float_invariant_under(fs, x, 0.1 + 0.8j) for x in schreier_generators(level))
                assert invariant_under_gamma0(fs, level) == oracle

    @pytest.mark.parametrize("condition", ["divides", "translation", "fricke"])
    def test_each_condition_is_necessary(self, condition):
        # a two-part shape and a level up to 18 that break this condition of
        # Ligozat's criterion alone: the criterion says no, and so do the
        # Schreier generators of the level group in floating point
        rng = random.Random(1975)
        while True:
            parts = sorted(zip(rng.sample(range(1, 10), 2), rng.sample([e for e in range(-12, 13) if e], 2)))
            level = rng.randrange(1, 19)
            if broken_ligozat_conditions(parts, level) == {condition}:
                break
        fs = FrameShape(tuple(parts))
        assert not invariant_under_gamma0(fs, level)
        assert not all(float_invariant_under(fs, x, 0.1 + 0.8j) for x in schreier_generators(level))

    def test_square_condition_is_necessary_from_level_32(self):
        # no two-part shape breaks the square condition alone at a level up
        # to 18; eta(2t)^3 / (eta(t)^2 eta(4t)), the doubled 2 / 1^2, is
        # the first at level 32: its s = 2^3 * 4 gives the character (2/d)
        for level in range(1, 19):
            for a in range(1, 10):
                for b in range(a + 1, 10):
                    if level % (2 * a) or level % (2 * b):
                        continue  # r at 2b is never 0, and r at 2a is 0 only when 2a = b
                    for exps in itertools.product([e for e in range(-12, 13) if e], repeat=2):
                        assert broken_ligozat_conditions(list(zip((a, b), exps)), level) != {"square"}
        fs = FrameShape(((1, -2), (2, 1)))
        assert broken_ligozat_conditions(fs.parts, 32) == {"square"}
        assert not invariant_under_gamma0(fs, 32)
        assert not all(float_invariant_under(fs, x, 0.1 + 0.8j) for x in schreier_generators(32))

    def test_upper_half_plane_required(self):
        with pytest.raises(ValueError):
            eta_value(0.3 - 1j)
        with pytest.raises(ValueError):
            float_invariant_under(FRAME_SHAPES[0], T, 0.5 - 0.5j)

    def test_eta_against_fixed_point(self):
        # eta(i) = Gamma(1/4) / (2 pi^(3/4))
        import math

        expected = math.gamma(0.25) / (2 * math.pi**0.75)
        assert abs(eta_value(1j) - expected) < 1e-12


class TestExactVerdict:
    def test_multiplier_matches_the_float_oracle(self):
        # eta(g tau) = e^(pi i m/12) (c tau + d)^(1/2) eta(tau) on 3000
        # seeded elements of SL2(Z) with c <= 60 and |d| <= 80
        rng = random.Random(1970)
        worst = 0.0
        for _ in range(3000):
            c, d = rng.randint(1, 60), rng.randint(-80, 80)
            while math.gcd(c, d) != 1:
                c, d = rng.randint(1, 60), rng.randint(-80, 80)
            k = rng.randint(-3, 3)
            a = pow(d, -1, c) + k * c
            b = (a * d - 1) // c
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
            moved = eta_value((a * tau + b) / (c * tau + d))
            m = eta_multiplier(a, b, c, d)
            assert 0 <= m < 24
            expected = cmath.exp(1j * math.pi * m / 12) * cmath.sqrt(c * tau + d) * eta_value(tau)
            worst = max(worst, abs(moved - expected) / abs(moved))
        assert worst < 1e-9
        # and the translations, eta(tau + b) = e^(pi i b/12) eta(tau)
        assert [eta_multiplier(1, b, 0, 1) for b in range(-30, 30)] == [b % 24 for b in range(-30, 30)]

    def test_the_thirteen_generators_are_invariant(self):
        # the generators over the level group of the nine doubled groups,
        # five of them not Atkin-Lehner involutions
        verdicts = [
            invariant_under(frame_shape(d), g) for d in NODE_GROUPS for g in quotient_generators(double_group(d))
        ]
        assert verdicts == [True] * 13

    @pytest.mark.parametrize(
        "entries, verdict",
        [((1, 1, 0, 1), True), ((0, -1, 1, 0), False), ((0, -1, 2, 0), False), ((2, 1, 0, 2), None)],
        ids=["T", "S", "W2", "shear"],
    )
    def test_cases_on_1_24(self, entries, verdict):
        # eta(t)^24 / eta(2t)^24 under T, S, the level-two involution (which
        # sends it to 4096 over itself) and a shear the multiplier cannot decide
        assert invariant_under(FRAME_SHAPES[0], ProjectiveMatrix(*entries)) is verdict

    def test_an_undecided_generator_is_not_shown_invariant(self):
        # 1^24 passes Ligozat's criterion at level 4, but the full group 2|2
        # adds the shear [[2,1],[0,2]], which is undecided: the check says
        # False, as floats did
        desc = GroupDescriptor(2, 2)
        assert invariant_under_gamma0(FRAME_SHAPES[0], 4)
        assert ProjectiveMatrix(2, 1, 0, 2) in quotient_generators(desc)
        assert numeric_invariance_check(FRAME_SHAPES[0], desc) is False
        assert float_invariance_check(FRAME_SHAPES[0], desc) is False

    def test_an_undecided_factor_can_still_be_an_eta_quotient(self):
        # why None is no answer: eta((t + 1)/2), whose z = 2 misses y = 1, is
        # e^(pi i/24) eta(t)^3 / (eta(t/2) eta(2t))
        for tau in (0.1 + 0.8j, -0.3 + 0.5j, 0.45 + 1.2j):
            found = eta_value((tau + 1) / 2)
            expected = cmath.exp(1j * math.pi / 24) * eta_value(tau) ** 3 / (eta_value(tau / 2) * eta_value(2 * tau))
            assert abs(found - expected) <= 1e-9 * abs(expected)

    @pytest.mark.parametrize(
        "text, entries, error",
        [("2^24 / 1^24", (0, 1, -160, 0), ZeroDivisionError), ("9^3 / 1^3", (0, 1, -1152, 0), OverflowError)],
    )
    def test_decided_where_the_float_oracle_fails(self, text, entries, error):
        # these images of 0.1 + 0.8i lie so near the real line that eta
        # underflows and its negative powers fail in floating point
        fs, g = FrameShape.parse(text), ProjectiveMatrix(*entries)
        with pytest.raises(error):
            float_invariant_under(fs, g, 0.1 + 0.8j)
        assert invariant_under(fs, g) is False

    def test_verdict_agrees_with_the_float_oracle_on_the_catalog(self):
        # every generator over the level group of the catalog descriptors up
        # to level 24, with the nine shapes, 2^16 / 1^8 and 200 of the
        # benchmark's random shapes, wherever Ligozat's criterion holds: the
        # float check agrees wherever the exact verdict decides, says False
        # wherever it does not, and fails only where the verdict is False
        rng = random.Random(7)
        shapes = list(FRAME_SHAPES) + [FrameShape.parse("2^16 / 1^8")]
        shapes += [FrameShape(tuple(_WORKLOADS["random_frame_shape"](rng))) for _ in range(200)]
        counts = collections.Counter()
        for desc in sorted({d for level in range(1, 25) for d in descriptor_catalog(level)}):
            gens = quotient_generators(desc)
            for fs in shapes:
                if not invariant_under_gamma0(fs, desc.n * desc.h):
                    continue
                for g in gens:
                    verdict = invariant_under(fs, g)
                    try:
                        oracle = float_invariant_under(fs, g, 0.1 + 0.8j)
                    except (ZeroDivisionError, OverflowError):
                        assert verdict is False, (fs, g)
                        counts["raised"] += 1
                        continue
                    assert oracle == bool(verdict), (fs, g, verdict)
                    counts[verdict] += 1
        assert counts == {True: 899, False: 2106, None: 2533, "raised": 2}
