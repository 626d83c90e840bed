import time
from fractions import Fraction

import pytest

from plattice.classify import (
    Candidate,
    candidate_levels,
    check_conditions,
    classify,
    classify_hits,
    descriptor_catalog,
    elementary_two_subgroups,
    name_subgroup,
)
from plattice.exact import lower_translation, translation
from plattice.groupsys import GroupDescriptor, member, normalizer_quotient

E8_DISPLAYS = {"1", "2", "2+", "3+", "4+", "5+", "6+", "3|3", "4|2+"}

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


class TestCandidateLevels:
    def test_n_list(self):
        assert sorted({n for n, _ in candidate_levels()}) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11]

    def test_two_two_admissible(self):
        assert (2, 2) in candidate_levels()

    def test_four_three_not_admissible(self):
        assert (4, 3) not in candidate_levels()

    def test_four_one_not_admissible(self):
        # h = 1 is not maximal for n = 4 since 4 | n
        assert (4, 1) not in candidate_levels()

    def test_scaled_case_pairs_present(self):
        pairs = set(candidate_levels())
        assert {(4, 2), (4, 4), (6, 1), (6, 2), (6, 3), (9, 3), (8, 4), (8, 8)} <= pairs


class TestCaseDiagramIndices:
    def test_quotient_orders_match_case_diagrams(self):
        # the index products in the three worked cases
        assert normalizer_quotient(4).order == 6
        assert normalizer_quotient(9).order == 12
        assert normalizer_quotient(16).order == 24


class TestSubgroupSearch:
    def test_exponent_two_search_matches_full_lattice(self):
        # only exponent-two subgroups can pass, so the sweep searches those
        # alone; the full lattice is the reference at every small quotient
        checked = 0
        for n, h in candidate_levels():
            q = normalizer_quotient(n * h)
            if q.order > 32:
                continue
            reference = {
                sub for sub in q.all_subgroups() if all(q.mult[i][i] == 0 for i in sub)
            }
            assert elementary_two_subgroups(q) == reference, (n, h)
            checked += 1
        assert checked == 15


class TestConditions:
    def test_trivial_subgroup_at_level_one(self):
        q = normalizer_quotient(1)
        report = check_conditions(Candidate(1, 1, q, frozenset([0])))
        assert report.passed
        assert report.index_in_modular == 1

    def test_full_normalizer_at_eight_fails_width(self):
        q = normalizer_quotient(8)
        full = frozenset(range(q.order))
        report = check_conditions(Candidate(4, 2, q, full))
        assert not report.width_one

    def test_cyclic_order_four_fails_exponent(self):
        q = normalizer_quotient(8)
        gen = next(i for i in range(q.order) if q.element_order(i) == 4)
        sub = frozenset(q._cyclic(gen))
        report = check_conditions(Candidate(4, 2, q, sub))
        assert not report.exponent_two

    def test_subgroup_validation(self):
        q = normalizer_quotient(8)
        bad = next(i for i in range(q.order) if q.element_order(i) == 4)
        with pytest.raises(ValueError):
            Candidate(4, 2, q, frozenset([0, bad]))


class TestClassify:
    def test_exactly_the_nine_groups(self):
        start = time.perf_counter()
        result = classify()
        elapsed = time.perf_counter() - start
        assert result == E8_GROUPS
        assert {d.display for d in result} == E8_DISPLAYS
        assert elapsed < 10.0

    def test_raw_hits_exceed_nine(self):
        hits = classify_hits()
        assert len(hits) > 9
        assert len({h.descriptor for h in hits}) == 9

    def test_level_two_group_found_twice(self):
        hits = classify_hits()
        levels = {h.candidate.level for h in hits if h.descriptor == GroupDescriptor.gamma0(2)}
        assert levels == {2, 4}

    def test_restricted_to_n_one(self):
        hits = [h for h in classify_hits() if h.candidate.n == 1]
        assert [h.descriptor for h in hits] == [GroupDescriptor.gamma0(1)]

    def test_relaxed_width_is_strict_superset(self):
        relaxed = classify(relax_width=True)
        assert relaxed > E8_GROUPS
        assert GroupDescriptor(2, 4) in relaxed

    def test_scaled_level_six_groups_fail_exponent_not_only_width(self):
        # the two groups adjacent to the sweep that the case analysis kills
        # by width also fail the exponent condition: the product of the two
        # generating shears has order three modulo the level-12 group
        xy = translation(Fraction(1, 2)) * lower_translation(6)
        sq = xy * xy
        cube = sq * xy
        gamma12 = GroupDescriptor.gamma0(12)
        assert not member(sq, gamma12)
        assert member(cube, gamma12)
        relaxed = classify(relax_width=True)
        assert GroupDescriptor(2, 6, frozenset({3})) not in relaxed
        assert GroupDescriptor(3, 6, frozenset({2})) not in relaxed


class TestNaming:
    def test_catalog_contains_expected_entries(self):
        cat = descriptor_catalog(8)
        assert GroupDescriptor.kernel(2, 4, {2}) in cat
        assert GroupDescriptor.gamma0(8) in cat
        assert GroupDescriptor(2, 4, frozenset({2})) in cat

    def test_membership_separates_descriptor_from_subgroup(self):
        # bidirectional check: the named descriptor accepts exactly the
        # subgroup's representatives
        for hit in classify_hits():
            q = hit.candidate.quotient
            accepted = frozenset(
                i for i, rep in enumerate(q.reps) if member(rep, hit.descriptor)
            )
            assert accepted == hit.candidate.subgroup

    def test_unique_names(self):
        q = normalizer_quotient(4)
        sub = frozenset([0])
        assert name_subgroup(q, sub) == GroupDescriptor.gamma0(4)
