import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from plattice.arith import divisors
from plattice.classify import (
    EXPONENT_TWO_ORDER,
    Candidate,
    Hit,
    candidate_levels,
    check_conditions,
    classify,
    classify_hits,
    descriptor_catalog,
    elementary_two_subgroups,
    may_pass,
    name_subgroup,
)
from plattice.descriptors import (
    GroupDescriptor,
    exact_divisors,
    normalizer_of_gamma0,
    normalizer_quotient_orders,
)
from plattice.groupsys import member, normalizer_quotient

from .helpers import all_subgroups, cyclic, element_order, lower_translation, translation
from .test_api import fresh_python
from .test_groupsys import outcome

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
                sub for sub in all_subgroups(q) if all(q.mult[i][i] == 0 for i in sub)
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
        gen = next(i for i in range(q.order) if element_order(q, i) == 4)
        sub = frozenset(cyclic(q, gen))
        report = check_conditions(Candidate(4, 2, q, sub))
        assert not report.exponent_two

    def test_subgroup_validation(self):
        q = normalizer_quotient(8)
        bad = next(i for i in range(q.order) if element_order(q, i) == 4)
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

    def test_catalog_is_built_once_per_named_level(self, capsys):
        # naming built the whole catalog of the level again for every hit
        from plattice import cli

        descriptor_catalog.cache_clear()
        assert cli.main(["classify", "--index-bound", "17", "--ratio-bound", "4"]) == 0
        capsys.readouterr()
        hits = classify_hits(17, 4)
        assert (len(hits), len({hit.candidate.level for hit in hits})) == (12, 9)
        assert descriptor_catalog.cache_info().misses == 9

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


# the pruned sweep against the sweep that builds every level ------------------


@lru_cache(maxsize=None)
def level_candidates(n: int, h: int) -> list:
    q = normalizer_quotient(n * h)
    subs = sorted(elementary_two_subgroups(q), key=lambda s: (len(s), sorted(s)))
    return [Candidate(n, h, q, sub) for sub in subs]


def unpruned_hits(index_bound: int, ratio_bound: int, relax_width: bool) -> list:
    """The reference sweep: every candidate level is built and screened."""
    hits = []
    for n, h in candidate_levels(index_bound):
        for cand in level_candidates(n, h):
            report = check_conditions(cand, index_bound, ratio_bound, relax_width)
            if report.passed:
                hits.append(Hit(cand, report, name_subgroup(cand.quotient, cand.subgroup)))
    return hits


class TestPrune:
    @pytest.mark.parametrize("relax_width", [False, True], ids=["strict", "relaxed"])
    def test_pruned_sweep_matches_the_unpruned_one(self, relax_width):
        # equal hit lists, or the same error (ratio bounds 6 and up meet the
        # naming gap at level 9 or 8), over the whole grid
        compared = 0
        for index_bound in range(1, 61):
            for ratio_bound in range(1, 13):
                args = (index_bound, ratio_bound, relax_width)
                assert outcome(classify_hits, *args) == outcome(unpruned_hits, *args), args
                compared += 1
        assert compared == 720

    def test_pruned_levels_hold_no_passing_subgroup(self):
        # the grid above stops at the naming error for ratio bounds of 6 and
        # up, so the skipped levels behind it are checked here directly
        pruned = 0
        for n, h in candidate_levels(60):
            for index_bound, ratio_bound in [(60, 3), (60, 12), (24, 5), (12, 3)]:
                if may_pass(n * h, index_bound, ratio_bound):
                    continue
                pruned += 1
                for cand in level_candidates(n, h):
                    report = check_conditions(cand, index_bound, ratio_bound, relax_width=True)
                    assert not report.index_ok, (n, h, index_bound, ratio_bound)
        assert pruned > 100

    def test_levels_built_at_wide_bounds(self):
        # a weaker skip (dropping a two-part) gives the same hits; only the
        # count of levels built shows it
        for bounds, built, levels in [((40, 5), 11, 44), ((400, 3), 8, 433), ((1000, 12), 39, 1058)]:
            candidates = candidate_levels(bounds[0])
            assert len(candidates) == levels
            assert sum(may_pass(n * h, *bounds) for n, h in candidates) == built

    def test_index_bound_one_thousand_completes(self):
        # the unpruned sweep builds every one of the 1058 quotients here,
        # which took about a minute and 800 MB on a 2-vCPU host
        start = time.perf_counter()
        proc = fresh_python("-m", "plattice.cli", "classify", "--index-bound", "1000", timeout=20)
        assert time.perf_counter() - start < 20
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "total: 9"

    def test_index_bound_above_the_budget_exits_one(self):
        proc = fresh_python(
            "-m", "plattice.cli", "classify", "--index-bound", "100001", timeout=30, check=False
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: cannot sweep index bound 100001: above the budget of 10**5\n"


# the bounds behind the skip, against the enumerated quotients -------------


def largest_exponent_two_order(q) -> int:
    return max(len(sub) for sub in elementary_two_subgroups(q))


class TestSkipBounds:
    def test_modular_part_is_cyclic_of_order_h(self):
        # the first bound: at most gcd(2, h) modular cosets in an
        # exponent-two subgroup, because the modular part is cyclic
        for n in range(1, 501):
            q = normalizer_quotient.__wrapped__(n)  # uncached: 500 tables
            h = normalizer_of_gamma0(n).h
            modular = [i for i in range(q.order) if q.reps[i].pdet() == 1]
            assert len(modular) == normalizer_quotient_orders(n)[1] == h, n
            assert max(element_order(q, i) for i in modular) == h, n
            involutions = [i for i in modular if i and q.mult[i][i] == 0]
            assert len(involutions) + 1 == gcd(2, h), n

    def test_exponent_two_orders_at_the_square_levels(self):
        assert sorted(EXPONENT_TWO_ORDER) == divisors(24)
        for h, expected in EXPONENT_TWO_ORDER.items():
            assert largest_exponent_two_order(normalizer_quotient(h * h)) == expected, h

    def test_exponent_two_subgroups_within_the_second_bound(self):
        for n in range(1, 201):
            h = normalizer_of_gamma0(n).h
            atkin_lehner = len(exact_divisors(n // (h * h)))
            q = normalizer_quotient.__wrapped__(n)
            assert largest_exponent_two_order(q) <= atkin_lehner * EXPONENT_TWO_ORDER[h], n
