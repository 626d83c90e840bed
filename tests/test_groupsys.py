import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import pytest

from plattice.arith import divisors, factorize, gamma0_index
from plattice.exact import IDENTITY, ProjectiveMatrix
from plattice.lattice import L1, LatticeName, act, reduce_matrix
from plattice import descriptors, groupsys, tree
from plattice.descriptors import (
    GroupDescriptor,
    all_labels,
    normalizer_of_gamma0,
)
from plattice.groupsys import (
    _coset_key,
    _member_cosets,
    al_coset_representative,
    conjugated_al_representative,
    finite_quotient,
    member,
    normalizer_quotient,
    quotient_generators,
)
from plattice.tree import hypercircle
from .helpers import (
    S,
    T,
    action_perm,
    all_subgroups,
    candidate_pairs,
    character_lambda,
    character_values,
    descriptor_catalog,
    descriptor_from_json,
    group_generators,
    kernel_action_set,
    kernel_condition,
    lattice,
    lower_translation,
    order_profile,
    perm_sign,
    quotient_actions,
    schreier_generators,
    translation,
)
from .test_exact import rand_pgl2q, rand_psl2z
from .test_lattice import assert_comparisons_follow_sort

G1 = GroupDescriptor.gamma0(1)
FULL_24 = GroupDescriptor(2, 4, frozenset({2}))
KERNEL_24 = GroupDescriptor.kernel(2, 4, {2})
KERNEL_33 = GroupDescriptor.kernel(3, 3)

# every descriptor of a group containing a level group of level at most 48
CATALOG_48 = sorted({d for level in range(1, 49) for d in descriptor_catalog(level)})


# The image search in PSL2(Z/m) that decided congruence levels before the
# closed form; kept here as the oracle the closed form is tested against.


def psl2_order(m: int) -> int:
    """Order of the modular group reduced mod m."""
    if m == 1:
        return 1
    out = m**3
    for p in factorize(m):
        out = out // (p * p) * (p * p - 1)
    return out if m == 2 else out // 2


def _psl2_key(a, b, c, d, m):
    first = (a % m, b % m, c % m, d % m)
    second = ((-a) % m, (-b) % m, (-c) % m, (-d) % m)
    return min(first, second)


def _image_subgroup_order(generators, m: int) -> int:
    if m == 1:
        return 1
    elems = {_psl2_key(1, 0, 0, 1, m)}
    frontier = list(elems)
    gens = [tuple(g) for g in generators]
    while frontier:
        a, b, c, d = frontier.pop()
        for e, f, g2, h2 in gens:
            key = _psl2_key(a * e + b * g2, a * f + b * h2, c * e + d * g2, c * f + d * h2, m)
            if key not in elems:
                elems.add(key)
                frontier.append(key)
    return len(elems)


@lru_cache(maxsize=None)
def contains_principal_congruence(k: int, m: int) -> bool:
    """Whether the level-m principal congruence group sits inside level-k one."""
    gens = schreier_generators(k)
    image = _image_subgroup_order(gens, m)
    return psl2_order(m) == image * gamma0_index(k)


def searched_congruence_level(desc: GroupDescriptor) -> int:
    """The least divisor M of 4*n*h passing the image search."""
    k = desc.intersection_level()
    bound = 4 * desc.n * desc.h
    for m in range(1, bound + 1):
        if bound % m == 0 and contains_principal_congruence(k, m):
            return m
    raise ValueError("no congruence level of %s divides %d" % (desc, bound))


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupDescriptor(2, 3)  # h must divide n
        with pytest.raises(ValueError):
            GroupDescriptor(1, 4, frozenset({2}))  # 2 not exact in 4
        with pytest.raises(ValueError):
            GroupDescriptor(2, 4, character=3)
        with pytest.raises(ValueError):
            GroupDescriptor(2, 6, character=2)  # kernel not implemented
        # labels are checked one at a time, with the refusal of the label set
        for labels in ({2}, {1}, {0}, {-3}, {4, 6}):
            with pytest.raises(ValueError, match=r"labels \[.*\] are not exact divisors of 12$"):
                GroupDescriptor(1, 12, labels)
        with pytest.raises(ValueError, match=r"^3\|3 does not contain the level-3 group$"):
            KERNEL_33.index_over(3)  # the kernel's intersection level is 9

    def test_display_names(self):
        assert GroupDescriptor.gamma0(2).display == "2"
        assert GroupDescriptor.gamma0_plus(2).display == "2+"
        assert GroupDescriptor.gamma0_plus(6).display == "6+"
        assert GroupDescriptor(1, 6, frozenset({6})).display == "6+6"
        assert KERNEL_33.display == "3|3"
        assert KERNEL_24.display == "4|2+"
        assert GroupDescriptor.kernel(2, 8, {4}).display == "8|2+"

    def test_parse_round_trip(self):
        for name in ["1", "2", "2+", "3+", "6+", "6+6", "10+10", "3|3", "4|2+", "8|2+", "6|3"]:
            assert GroupDescriptor.parse(name).display == name

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            GroupDescriptor.parse("foo")

    def test_json_round_trip(self):
        for desc in [G1, FULL_24, KERNEL_24, GroupDescriptor.gamma0_plus(6)]:
            assert descriptor_from_json(desc.to_json()) == desc

    def test_json_round_trip_over_the_catalog(self):
        for desc in CATALOG_48:
            assert descriptor_from_json(json.loads(json.dumps(desc.to_json()))) == desc

    def test_sort_is_total(self):
        # the kernel sorts after the full group (None against int raised
        # TypeError), and label sets that are not subsets sort by their labels
        assert sorted([KERNEL_24, FULL_24]) == [FULL_24, KERNEL_24]
        six2, six3 = GroupDescriptor(1, 6, {2}), GroupDescriptor(1, 6, {3})
        assert sorted([six3, six2]) == sorted([six2, six3]) == [six2, six3]
        assert six2 < six3 and not six3 < six2 and six3 > six2

    def test_sort_agrees_with_field_order_where_that_decides(self):
        # the order of the fields (h, n, plus, character), with frozensets
        # compared as subsets, wherever it decides a pair
        decided = 0
        for a in CATALOG_48[::3]:
            for b in CATALOG_48[::3]:
                try:
                    before = (a.h, a.n, a.plus, a.character) < (b.h, b.n, b.plus, b.character)
                except TypeError:
                    continue
                if before:
                    decided += 1
                    assert a < b and not b < a
        assert decided > 5000

    def test_comparisons_follow_sort(self):
        catalog = list(CATALOG_48)
        random.Random(48).shuffle(catalog)
        assert_comparisons_follow_sort(catalog)

    def test_labelled_order_three_kernel_is_refused(self):
        # 6|3+ has no order-3 character to take the kernel of
        # (TestKernelCharacter.test_six_three_plus_has_no_order_three_character)
        message = r"kernel subgroup not implemented for \(h, n\) = \(3, 6\) with labels \[2\]"
        with pytest.raises(ValueError, match=message):
            GroupDescriptor.kernel(3, 6, {2})
        with pytest.raises(ValueError, match=message):
            GroupDescriptor.parse("6|3+")
        assert GroupDescriptor.kernel(3, 6).display == "6|3"
        kernels = [d for level in (18, 36) for d in descriptor_catalog(level) if d.character]
        assert GroupDescriptor.kernel(3, 6) in kernels
        assert all(d.plus == frozenset() for d in kernels if d.h == 3)

    def test_label_closure_rule(self):
        # the refusal names every missing label, not the first pair tried
        assert outcome(GroupDescriptor, 1, 6, {2, 3}) == "ValueError: label set [2, 3] is not closed: it lacks [6]"
        assert outcome(GroupDescriptor, 1, 30, {2, 3, 5}) == (
            "ValueError: label set [2, 3, 5] is not closed: it lacks [6, 10, 15]"
        )
        assert outcome(GroupDescriptor, 1, 30, {6, 10}) == "ValueError: label set [6, 10] is not closed: it lacks [15]"
        assert GroupDescriptor(1, 6, {2, 3, 6}).plus == {2, 3, 6}
        assert GroupDescriptor(1, 6).plus == frozenset()

    def test_label_closure_is_symmetric_difference_of_prime_sets(self):
        # an independent picture over F_2: a label over m is the set of primes
        # it holds, e*f/gcd(e, f)**2 holds their symmetric difference and 1
        # holds none, so a label set with 1 is closed exactly when its prime
        # sets are closed under symmetric difference
        for m in range(1, 211):
            power = factorize(m)
            label_of = {frozenset(factorize(e)): e for e in all_labels(m)}
            assert all(e == prod(p ** power[p] for p in primes) for primes, e in label_of.items())
            for r in range(5):
                for combo in combinations(sorted(label_of.values()), r):
                    sets = {frozenset(factorize(e)) for e in combo} | {frozenset()}
                    lacking = sorted({label_of[a ^ b] for a in sets for b in sets if a ^ b not in sets})
                    expected = "ValueError: label set %s is not closed: it lacks %s" % (list(combo), lacking)
                    got = outcome(GroupDescriptor, 1, m, combo)
                    assert got == expected if lacking else got.plus == frozenset(combo), (m, combo)


class TestMember:
    def test_t_in_every_gamma0(self):
        for n in range(1, 20):
            assert member(T, GroupDescriptor.gamma0(n))

    def test_fricke_in_plus_four(self):
        w4 = ProjectiveMatrix(0, -1, 4, 0)
        assert member(w4, GroupDescriptor.gamma0_plus(4))
        assert not member(w4, GroupDescriptor.gamma0(4))

    def test_half_translation_not_in_kernel(self):
        assert not member(translation(Fraction(1, 2)), KERNEL_24)
        assert member(translation(Fraction(1, 2)), FULL_24)

    def test_kernel_generators_are_members(self):
        x = translation(Fraction(1, 3))
        y = lower_translation(3)
        assert member(y * x, KERNEL_33)
        assert member(x.inv() * y * x.inv(), KERNEL_33)
        assert not member(x, KERNEL_33)
        assert not member(y, KERNEL_33)

    def test_w8_in_doubled_kernel(self):
        w8 = conjugated_al_representative(2, 2, 2)
        assert member(w8, KERNEL_24)

    def test_base_vs_scaled(self):
        half = translation(Fraction(1, 2))
        assert member(half, GroupDescriptor(2, 4))
        assert not member(half, GroupDescriptor.gamma0(4))

    def test_modular_group_membership_random(self):
        rng = random.Random(83)
        for _ in range(200):
            u = rand_psl2z(rng)
            assert member(u, G1)

    def test_gamma0_membership_pattern(self):
        rng = random.Random(89)
        desc = GroupDescriptor.gamma0(6)
        for _ in range(200):
            u = rand_psl2z(rng)
            assert member(u, desc) == (u.c % 6 == 0)


class TestAtkinLehner:
    def test_trivial_label(self):
        assert al_coset_representative(5, 1) == IDENTITY

    def test_fricke(self):
        assert al_coset_representative(6, 6) == ProjectiveMatrix(0, -1, 6, 0)

    def test_defining_equation_level_six(self):
        w = al_coset_representative(6, 2)
        a, b, c, d = w
        assert w.pdet() == 2
        assert a % 2 == 0 and d % 2 == 0 and c % 6 == 0
        assert (a // 2) * (d // 2) * 4 - b * c == 2

    def test_rejects_non_exact(self):
        with pytest.raises(ValueError, match="exact divisor"):
            al_coset_representative(4, 2)

    def test_conjugation_matches_the_product_form(self):
        # the one construction of the conjugated representative is the product
        # g_h^-1 * rep * g_h with g_h = [[h, 0], [0, 1]]
        triples = 0
        for h in divisors(24):
            gh = ProjectiveMatrix(h, 0, 0, 1)
            for m in range(1, 400):
                for e in [1, *all_labels(m)]:
                    expected = gh.inv() * al_coset_representative(m, e) * gh
                    assert conjugated_al_representative(h, m, e) == expected
                    triples += 1
        assert triples == 14136

    def test_coset_product_rule(self):
        # the product of labels e and f lands in the coset e*f/gcd^2
        for n in range(2, 31):
            labels = [1, *all_labels(n)]
            plus = GroupDescriptor.gamma0_plus(n)
            for e in labels:
                for f in labels:
                    g = gcd(e, f)
                    target = e * f // (g * g)
                    prod = al_coset_representative(n, e) * al_coset_representative(n, f)
                    assert member(prod, plus)
                    if target == 1:
                        assert member(prod, GroupDescriptor.gamma0(n))
                    else:
                        assert member(prod, GroupDescriptor(1, n, frozenset({target})))
                        assert not member(prod, GroupDescriptor.gamma0(n))


class TestNormalizer:
    def test_level_one(self):
        assert normalizer_of_gamma0(1) == GroupDescriptor(1, 1)

    def test_level_eight(self):
        assert normalizer_of_gamma0(8) == GroupDescriptor(2, 4, frozenset({2}))

    def test_level_nine(self):
        assert normalizer_of_gamma0(9) == GroupDescriptor(3, 3)

    def test_squarefree_is_plus(self):
        assert normalizer_of_gamma0(6) == GroupDescriptor.gamma0_plus(6)

    def test_h_is_the_largest_divisor_of_24_whose_square_divides_the_level(self):
        # the normalizer reads h from the divisors of 24 written out; every
        # one of them is some level's h
        found = {n: normalizer_of_gamma0(n).h for n in range(1, 20001)}
        assert found == {n: max(d for d in divisors(24) if n % (d * d) == 0) for n in found}
        assert set(found.values()) == set(divisors(24))

    def test_normalizes_numerically(self):
        # conjugation by normalizer generators preserves membership
        rng = random.Random(97)
        for n in (4, 6, 8, 9, 12):
            desc = GroupDescriptor.gamma0(n)
            for gen in quotient_generators(normalizer_of_gamma0(n)):
                for _ in range(25):
                    u = rand_psl2z(rng)
                    if member(u, desc):
                        assert member(gen * u * gen.inv(), desc)


class TestSchreier:
    def test_level_one_gives_standard_generators(self):
        assert set(schreier_generators(1)) == {S, T}

    def test_level_two_closure_has_three_cosets(self):
        gens = schreier_generators(2)
        assert all(member(g, GroupDescriptor.gamma0(2)) for g in gens)
        assert T in gens
        assert any(g.c != 0 and g.c % 2 == 0 for g in gens)
        seen = {lattice(2)}
        frontier = [lattice(2)]
        while frontier:
            cur = frontier.pop()
            for g in [S, T]:
                nxt = act(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == 3

    @pytest.mark.parametrize("n", range(1, 31))
    def test_congruence_image_has_right_index(self, n):
        assert contains_principal_congruence(n, n)

    def test_generated_image_index_matches(self, subtests=None):
        for n in (4, 6):
            assert contains_principal_congruence(n, n)
            assert not contains_principal_congruence(n, 2)


class TestFiniteQuotient:
    def test_trivial_quotient(self):
        # the modular group has no generators modulo itself
        q = finite_quotient(G1, G1)
        assert q.order == 1

    def test_alt4_on_hypercircle(self):
        points = hypercircle(lattice(3), 3).members
        q = finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9))
        actions = quotient_actions(q, points)
        assert q.order == 12
        assert len(set(actions)) == 12
        assert all(perm_sign(p) == 0 for p in actions)
        assert order_profile(q) == {1: 1, 2: 3, 3: 8}

    def test_dihedral_eight(self):
        points = tuple(sorted(set(hypercircle(lattice(2), 2)) | set(hypercircle(lattice(4), 2))))
        q = finite_quotient(FULL_24, GroupDescriptor.gamma0(8))
        assert q.order == 8
        assert None not in quotient_actions(q, points)
        assert order_profile(q) == {1: 1, 2: 5, 4: 2}

    def test_sym4_at_sixteen(self):
        points = hypercircle(lattice(4), 4).members
        q = finite_quotient(GroupDescriptor(4, 4), GroupDescriptor.gamma0(16))
        assert q.order == 24
        assert None not in quotient_actions(q, points)
        assert order_profile(q) == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_scaled_identity_is_the_identity_coset(self):
        assert normalizer_quotient(4).coset_of(ProjectiveMatrix(2, 0, 0, 2)) == 0

    def test_group_axioms_on_table(self):
        q = normalizer_quotient(8)
        assert q.order == 8
        for i in range(q.order):
            assert q.mult[0][i] == i == q.mult[i][0]
            # the right inverse read off the row is also a left inverse
            assert q.mult[q.mult[i].index(0)][i] == 0

    def test_bound_trips(self, monkeypatch):
        # the level-9 quotient has 12 cosets, known before the walk: above the
        # bound it is refused with no coset computed, and at the bound it is built
        keys = []
        monkeypatch.setattr(groupsys, "_coset_key", lambda g, n: keys.append(g))
        monkeypatch.setattr(groupsys, "QUOTIENT_ELEMENT_BOUND", 11)
        with pytest.raises(ValueError, match=r"^quotient of 3\|3 has 12 cosets: above the budget of 11$"):
            finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9))
        assert keys == []
        monkeypatch.undo()
        monkeypatch.setattr(groupsys, "QUOTIENT_ELEMENT_BOUND", 12)
        assert finite_quotient(GroupDescriptor(3, 3), GroupDescriptor.gamma0(9)).order == 12

    def test_a_large_quotient_is_refused_before_the_walk(self, monkeypatch):
        big = GroupDescriptor(24, 120120, all_labels(5005))
        monkeypatch.setattr(groupsys, "_coset_key", None)
        with pytest.raises(ValueError, match="has 18432 cosets: above the budget of 10000"):
            finite_quotient(big, GroupDescriptor.gamma0(24 * 120120))

    @pytest.mark.parametrize(
        "big, small",
        [
            (GroupDescriptor.gamma0_plus(2), GroupDescriptor(2, 4)),
            (GroupDescriptor.gamma0_plus(2), GroupDescriptor.gamma0_plus(2)),
            (GroupDescriptor.gamma0_plus(2), KERNEL_33),
            # plain level groups, but not the one under the base level: the
            # generators would reach only part of the quotient
            (G1, GroupDescriptor.gamma0(2)),
            (GroupDescriptor.gamma0_plus(2), GroupDescriptor.gamma0(4)),
        ],
        ids=["small0", "small1", "small2", "level2-over-1", "level4-over-2+"],
    )
    def test_small_must_be_plain_level_group(self, big, small):
        with pytest.raises(ValueError, match="plain level group"):
            finite_quotient(big, small)

    @pytest.mark.parametrize("h", [5, 7])
    def test_non_normal_small_group_rejected(self, h):
        # h does not divide 24, so the level-h*h group is not normal in the
        # (h, h) group and some row of the composed table repeats a coset
        with pytest.raises(ValueError, match="not closed under multiplication"):
            finite_quotient(GroupDescriptor(h, h), GroupDescriptor.gamma0(h * h))

    @pytest.mark.parametrize(
        "build, points",
        [
            (lambda: normalizer_quotient(36), ()),
            (lambda: normalizer_quotient(64), ()),
            (lambda: character_lambda(8).quotient, kernel_action_set(2, 4)),
            (lambda: character_lambda(9).quotient, kernel_action_set(3, 3)),
        ],
        ids=["level36", "level64", "lambda8", "lambda9"],
    )
    def test_composed_table_and_actions_match_direct_products(self, build, points):
        q = build()
        direct = tuple(
            tuple(q._keys[_coset_key(a * b, q.small.n)] for b in q.reps) for a in q.reps
        )
        assert q.mult == direct
        # the level group fixes the points, so each product acts as the
        # representative of its coset in the table
        actions = quotient_actions(q, points)
        assert None not in actions
        for i, a in enumerate(q.reps):
            for j, b in enumerate(q.reps):
                assert action_perm(a * b, points) == actions[q.mult[i][j]]

    def test_table_takes_one_coset_key_per_walk_step(self, monkeypatch):
        calls = []

        def counting_key(g, n):
            calls.append(n)
            return _coset_key(g, n)

        monkeypatch.setattr(groupsys, "_coset_key", counting_key)
        q = finite_quotient(normalizer_of_gamma0(64), GroupDescriptor.gamma0(64))
        assert q.order == 96
        assert len(calls) == 1 + q.order * len(quotient_generators(q.big))

    def test_coset_key_is_the_action_on_the_name_of_the_level(self):
        # the key's second name is [[n, 0], [0, 1]] g reduced, which act
        # computes through the name (n, 0); at the level of every parameter
        # pair to index bound 40, and at 1152
        levels = sorted({n * h for n, h in candidate_pairs(40)} | {64, 144, 1152})
        rng = random.Random(1152)
        for _ in range(300):
            g = rand_pgl2q(rng, 50)
            for n in levels:
                assert _coset_key(g, n) == (reduce_matrix(g), act(LatticeName(n, 0, 1), g)), (g, n)

    def test_width_cosets_are_the_fractional_shears(self):
        q = normalizer_quotient(64)
        assert q.big.h == 8
        expected = tuple(q.coset_of(translation(Fraction(k, 8))) for k in range(1, 8))
        assert q.width_cosets == expected
        assert len(set(expected)) == 7 and 0 not in expected
        assert normalizer_quotient(5).width_cosets == ()

    def test_subgroup_enumeration_dihedral(self):
        q = normalizer_quotient(8)
        subs = all_subgroups(q)
        assert len(subs) == 10  # dihedral of order 8

    def test_normalizer_quotient_sizes(self):
        # index of the level group in its normalizer: psi(N)/psi(n/h) base
        # cosets times one factor of two per Atkin-Lehner label
        for n, expected in [(4, 6), (9, 12), (16, 24), (8, 8), (12, 12), (36, 72)]:
            q = normalizer_quotient(n)
            h = q.big.h
            base = gamma0_index(n) // gamma0_index(n // (h * h))
            assert q.order == expected == base * 2 ** len(q.big.plus)

    def test_closed_form_orders_match_the_built_quotients(self):
        for n in range(1, 201):
            q = normalizer_quotient(n)
            modular = sum(1 for rep in q.reps if rep.pdet() == 1)
            assert (q.big.index_over(n), modular) == (q.order, q.big.h), n

    def test_index_over_the_level_counts_the_built_cosets(self):
        # each catalog group over its own level n*h, which every normalizer
        # quotient there holds whole
        for d in CATALOG_48:
            level = d.n * d.h
            assert d.index_over(level) == len(_member_cosets(normalizer_quotient(level), d)), d
        assert len(CATALOG_48) == 395

    def test_catalog_quotients_have_their_closed_form_orders(self):
        # each catalog group over its own level n*h, kernels included
        for d in CATALOG_48:
            level = d.n * d.h
            assert finite_quotient(d, GroupDescriptor.gamma0(level)).order == d.index_over(level), d

    def test_order_mismatch_is_an_internal_error(self, monkeypatch):
        # the level-8 quotient has 8 cosets: one order too few is caught when
        # the walk finds the eighth, one too many when the walk ends
        index_over = GroupDescriptor.index_over
        monkeypatch.setattr(GroupDescriptor, "index_over", lambda desc, level: index_over(desc, level) - 1)
        with pytest.raises(AssertionError, match=r"^quotient of 4\|2\+ has more than 7 cosets$"):
            normalizer_quotient.__wrapped__(8)
        monkeypatch.setattr(GroupDescriptor, "index_over", lambda desc, level: index_over(desc, level) + 1)
        with pytest.raises(AssertionError, match=r"^quotient of 4\|2\+ has 8 cosets, not 9$"):
            normalizer_quotient.__wrapped__(8)


class TestCharacter:
    def test_lambda_nine_values(self):
        lam = character_lambda(9)
        x = translation(Fraction(1, 3))
        y = lower_translation(3)
        assert lam.value(IDENTITY) == 0
        assert lam.value(y) != 0
        assert lam.value(y * x) == 0
        assert lam.value(x) == (-lam.value(y)) % 3

    def test_lambda_eight_values(self):
        lam = character_lambda(8)
        assert lam.value(IDENTITY) == 0
        assert lam.value(translation(Fraction(1, 2))) == 1
        assert lam.value(lower_translation(4)) == 1
        assert lam.value(lower_translation(4) * translation(Fraction(1, 2))) == 0
        w8 = conjugated_al_representative(2, 2, 2)
        assert lam.value(w8) == 0

    def test_other_levels_rejected(self):
        with pytest.raises(ValueError, match="N=9, N=8"):
            character_lambda(12)

    def test_lambda_is_homomorphism(self):
        lam = character_lambda(9)
        gens = [translation(Fraction(1, 3)), lower_translation(3)]
        rng = random.Random(101)
        words = []
        for _ in range(20):
            w = IDENTITY
            for _ in range(rng.randrange(1, 6)):
                w = w * rng.choice(gens)
            words.append(w)
        for a in words[:10]:
            for b in words[10:]:
                assert lam.value(a * b) == (lam.value(a) + lam.value(b)) % 3


# the full groups of the six kernels the catalog forms, as (h, n, labels)
KERNEL_FAMILIES = [(2, 4, ()), (2, 4, (2,)), (2, 8, ()), (2, 8, (4,)), (3, 3, ()), (3, 6, ())]


class TestKernelCharacter:
    @pytest.mark.parametrize("h, n, labels", KERNEL_FAMILIES)
    def test_kernel_cosets_match_the_lattice_set_rule(self, h, n, labels):
        q, kernel = groupsys._kernel_cosets(h, n, frozenset(labels))
        desc = GroupDescriptor.kernel(h, n, labels)
        assert q.big == GroupDescriptor(h, n, frozenset(labels))
        assert kernel == frozenset(i for i, rep in enumerate(q.reps) if kernel_condition(rep, desc))
        assert len(kernel) * h == q.order
        assert quotient_generators(desc) == [q.reps[i] for i in sorted(kernel) if i]

    @pytest.mark.parametrize("h, n, labels", KERNEL_FAMILIES)
    def test_member_agrees_with_the_lattice_set_rule_on_random_words(self, h, n, labels):
        full = GroupDescriptor(h, n, frozenset(labels))
        desc = GroupDescriptor.kernel(h, n, labels)
        gens = group_generators(full)
        gens += [g.inv() for g in gens]
        rng = random.Random(1979 + 100 * h + n + len(labels))
        words = []
        for _ in range(300):
            w = IDENTITY
            for _ in range(rng.randrange(1, 9)):
                w = w * rng.choice(gens)
            words.append(w)
        words += [rand_psl2z(rng) for _ in range(100)]
        inside = 0
        for w in words:
            expected = member(w, full) and kernel_condition(w, desc)
            assert member(w, desc) == expected, w
            inside += expected
        # both answers occur among the words
        assert 0 < inside < len(words)

    def test_member_on_catalog_kernels_acts_on_no_lattice_sets(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a lattice set was built")

        monkeypatch.setattr(tree, "hypercircle", refuse)
        monkeypatch.setattr(tree, "thread", refuse)
        groupsys._kernel_cosets.cache_clear()
        kernels = [d for d in CATALOG_48 if d.character]
        assert {(d.h, d.n, tuple(sorted(d.plus))) for d in kernels} == set(KERNEL_FAMILIES)
        for desc in kernels:
            full = GroupDescriptor(desc.h, desc.n, desc.plus)
            q = finite_quotient(full, GroupDescriptor.gamma0(desc.n * desc.h))
            found = sum(member(rep, desc) for rep in q.reps)
            assert found * desc.h == q.order

    def test_a_label_takes_zero_on_its_representative_not_on_its_coset(self):
        # both matrices lie in the label-4 coset of the full group of 8|2+,
        # and differ by the shear [[1, 1/2], [0, 1]], on which the character
        # is 1: the kernel depends on which matrix the label's 0 is put on
        w = conjugated_al_representative(2, 4, 4)
        shifted = ProjectiveMatrix(8, -1, 16, 0)
        assert w == ProjectiveMatrix(0, 1, -16, 0)
        assert shifted == translation(Fraction(1, 2)) * w
        assert member(w, GroupDescriptor(2, 8, {4})) and member(shifted, GroupDescriptor(2, 8, {4}))
        assert member(w, GroupDescriptor.kernel(2, 8, {4}))
        assert not member(shifted, GroupDescriptor.kernel(2, 8, {4}))

    def test_disagreeing_generator_values_are_refused(self, monkeypatch):
        # y*x lies in the kernel of 3|3, so y cannot take the value 0 with x at 1
        monkeypatch.setitem(descriptors.KERNEL_CHARACTER_VALUES, (3, 3), 0)
        with pytest.raises(AssertionError, match="character of 3\\|3 disagrees at coset"):
            groupsys._kernel_cosets.__wrapped__(3, 3, frozenset())

    def test_six_three_plus_has_no_order_three_character(self):
        q = finite_quotient(GroupDescriptor(3, 6, frozenset({2})), GroupDescriptor.gamma0(18))
        assert q.order == 24
        assert quotient_generators(q.big) == [
            ProjectiveMatrix(3, 1, 0, 3),
            ProjectiveMatrix(1, 0, 6, 1),
            ProjectiveMatrix(0, 1, -18, 0),
        ]
        # with the shear at 1, none of the nine choices on the other two
        # generators is a homomorphism onto Z/3
        assert [character_values(q, (1, a, b)) for a in range(3) for b in range(3)] == [None] * 9
        # without the Atkin-Lehner coset, the table's value is one
        q, kernel = groupsys._kernel_cosets(3, 6, frozenset())
        values = character_values(q, (1, descriptors.KERNEL_CHARACTER_VALUES[3, 6]))
        assert frozenset(i for i, v in enumerate(values) if v == 0) == kernel


class TestActionKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_kernel_of_hypercircle_action_is_principal(self, n):
        rng = random.Random(103 + n)
        circle = hypercircle(L1, n).members
        for _ in range(60):
            u = rand_psl2z(rng)
            fixes_all = all(act(x, u) == x for x in circle)
            a, b, c, d = u
            is_principal = (
                b % n == 0 and c % n == 0 and (a % n == d % n) and (a % n) in (1 % n, n - 1)
            )
            assert fixes_all == is_principal


class TestCongruenceLevel:
    # the congruence level is the intersection level, which `level` prints
    def test_modular_group(self):
        assert G1.intersection_level() == 1

    def test_plus_two(self):
        assert GroupDescriptor.gamma0_plus(2).intersection_level() == 2

    def test_kernel_three_three(self):
        assert KERNEL_33.intersection_level() == 9

    def test_kernel_two_four(self):
        assert KERNEL_24.intersection_level() == 8

    def test_gamma0_levels(self):
        for n in (2, 3, 4, 5, 6):
            assert GroupDescriptor.gamma0(n).intersection_level() == n

    def test_closed_form_matches_image_search(self):
        for desc in CATALOG_48:
            assert desc.intersection_level() == searched_congruence_level(desc)


class TestGroupGenerators:
    def test_all_members(self):
        for desc in [
            G1,
            GroupDescriptor.gamma0(2),
            GroupDescriptor.gamma0_plus(6),
            KERNEL_33,
            KERNEL_24,
            GroupDescriptor.kernel(3, 6),
            GroupDescriptor.kernel(2, 8, {4}),
        ]:
            for g in group_generators(desc):
                assert member(g, desc)
