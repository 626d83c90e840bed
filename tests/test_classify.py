import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import pytest

from plattice.arith import divisors, gamma0_index
from plattice.classify import (
    EXPONENT_TWO_ORDER,
    INDEX_BOUND,
    LEVEL_BUDGET,
    RATIO_BOUND,
    Candidate,
    Hit,
    check_conditions,
    classify,
    classify_hits,
    elementary_two_subgroups,
    level_cap,
    may_pass,
    name_subgroup,
)
from plattice.descriptors import (
    GroupDescriptor,
    all_labels,
    normalizer_of_gamma0,
)
from plattice.groupsys import member, normalizer_quotient

from . import helpers
from .helpers import (
    all_subgroups,
    candidate_pairs,
    cyclic,
    descriptor_catalog,
    element_order,
    lower_translation,
    may_pass_by_orders,
    searched_subgroup_names,
    translation,
)
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


# the parameter pairs the sweep walked before it walked the levels, kept in
# the helpers as the reference for the levels the sweep builds
class TestCandidateLevels:
    def test_n_list(self):
        assert sorted({n for n, _ in candidate_pairs(INDEX_BOUND)}) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 11]

    def test_two_two_admissible(self):
        assert (2, 2) in candidate_pairs(INDEX_BOUND)

    def test_four_three_not_admissible(self):
        assert (4, 3) not in candidate_pairs(INDEX_BOUND)

    def test_four_one_not_admissible(self):
        # h = 1 is not maximal for n = 4 since 4 | n
        assert (4, 1) not in candidate_pairs(INDEX_BOUND)

    def test_scaled_case_pairs_present(self):
        pairs = set(candidate_pairs(INDEX_BOUND))
        assert {(4, 2), (4, 4), (6, 1), (6, 2), (6, 3), (9, 3), (8, 4), (8, 8)} <= pairs

    def test_pairs_are_normalizer_parameters_of_distinct_levels(self):
        pairs = candidate_pairs(LEVEL_BUDGET // 2)
        levels = [n * h for n, h in pairs]
        assert len(set(levels)) == len(levels)
        assert all(normalizer_of_gamma0(n * h)[:2] == (h, n) for n, h in pairs)
        # left out: the levels whose normalizer h is capped by the divisors of 24
        capped = {level for level in range(1, 20001) if level % 256 == 0 or level % 81 == 0}
        assert set(range(1, 20001)) - set(levels) == capped
        assert normalizer_of_gamma0(256)[:2] == (8, 32)


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
        for n, h in candidate_pairs(INDEX_BOUND):
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
        report = check_conditions(Candidate(q, frozenset([0])))
        assert report.passed
        assert report.index_in_modular == 1

    def test_full_normalizer_at_eight_fails_width(self):
        q = normalizer_quotient(8)
        full = frozenset(range(q.order))
        report = check_conditions(Candidate(q, full))
        assert not report.width_one

    def test_cyclic_order_four_fails_exponent(self):
        q = normalizer_quotient(8)
        gen = next(i for i in range(q.order) if element_order(q, i) == 4)
        sub = frozenset(cyclic(q, gen))
        report = check_conditions(Candidate(q, sub))
        assert not report.exponent_two

    def test_subgroup_validation(self):
        q = normalizer_quotient(8)
        bad = next(i for i in range(q.order) if element_order(q, i) == 4)
        with pytest.raises(ValueError):
            Candidate(q, frozenset([0, bad]))

    def test_the_empty_set_is_refused(self):
        # it passes the closure test vacuously, and its modular part is 0
        with pytest.raises(ValueError, match="subgroup does not contain the identity"):
            Candidate(normalizer_quotient(4), frozenset())

    def test_accepts_exactly_the_subgroups(self):
        # a product-closed set with the identity holds each inverse, a power
        # of its element, so only the brute-force reference reads inverses
        q = normalizer_quotient(8)
        subgroups = 0
        for bits in range(1 << q.order):
            subset = frozenset(i for i in range(q.order) if bits >> i & 1)
            closed = all(q.mult[i][j] in subset for i in subset for j in subset)
            is_subgroup = 0 in subset and closed and all(q.mult[i].index(0) in subset for i in subset)
            assert isinstance(outcome(Candidate, q, subset), Candidate) == is_subgroup, sorted(subset)
            subgroups += is_subgroup
        assert (q.order, subgroups) == (8, 10)


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

    def test_a_candidate_level_is_its_quotients(self):
        hits = classify_hits(40, 5, True)
        assert len(hits) > 9
        for hit in hits:
            q = hit.candidate.quotient
            assert hit.candidate.level == q.small.n == q.big.n * q.big.h

    def test_level_two_group_found_twice(self):
        hits = classify_hits()
        levels = {h.candidate.level for h in hits if h.descriptor == GroupDescriptor.gamma0(2)}
        assert levels == {2, 4}

    def test_restricted_to_n_one(self):
        hits = [h for h in classify_hits() if h.candidate.quotient.big.n == 1]
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


# the search with conditions dropped ---------------------------------------

W, E, R = "width one", "exponent two", "ratio bound"

# what joins the nine at the defaults when conditions are dropped, by
# descriptor: the full group 4|2 joins without width one and the kernel 4|2
# without the ratio bound, and without both width one and exponent two the
# full groups 3|3 and 4|2+ join, which share their display names with two of
# the nine.  A subgroup no descriptor names is given as (level, order).
DROPPED_JOINS = {
    (W,): {GroupDescriptor(2, 4)},
    (E,): {(4, 3), (8, 4)},
    (R,): {
        *(GroupDescriptor.gamma0(n) for n in (3, 4, 5, 6, 7, 8, 9, 11)),
        *(GroupDescriptor.gamma0_plus(n) for n in (7, 8, 9, 11)),
        *(GroupDescriptor(1, 6, {e}) for e in (2, 3, 6)),
        GroupDescriptor.kernel(2, 4),
        (8, 2),
        (9, 2),
    },
    (W, E): {
        GroupDescriptor(2, 2),
        GroupDescriptor(2, 4),
        GroupDescriptor(2, 4, {2}),
        GroupDescriptor(2, 6, {3}),
        GroupDescriptor(2, 8, {4}),
        GroupDescriptor(3, 3),
        GroupDescriptor(3, 6),
        GroupDescriptor(3, 6, {2}),
        GroupDescriptor(4, 4),
        GroupDescriptor(4, 8),
        (4, 3),
        (8, 4),
        (16, 12),
    },
}


def dropped_condition_search(dropped: tuple[str, ...]) -> set:
    """The groups the search at the defaults keeps with the named conditions
    dropped, over every level up to twice the index bound (``may_pass``
    assumes exponent two, so no level is skipped).  Without exponent two a
    subgroup may hold up to h modular cosets, so levels above 24 could pass
    as well; this is the search at the levels the sweep walks."""
    found = set()
    for level in range(1, 2 * INDEX_BOUND + 1):
        q = normalizer_quotient(level)
        # a ratio bound of psi(level) admits every subgroup
        ratio_bound = gamma0_index(level) if R in dropped else RATIO_BOUND
        for sub in all_subgroups(q) if E in dropped else elementary_two_subgroups(q):
            report = check_conditions(Candidate(q, sub), INDEX_BOUND, ratio_bound, W in dropped)
            if report.width_one and report.index_ok and (report.exponent_two or E in dropped):
                try:
                    found.add(name_subgroup(q, sub))
                except ValueError:
                    found.add((level, len(sub)))
    return found


class TestDroppedConditions:
    def test_with_every_condition_the_search_is_classify(self):
        assert dropped_condition_search(()) == classify() == E8_GROUPS

    @pytest.mark.parametrize("dropped", list(DROPPED_JOINS), ids=["-".join(d) for d in DROPPED_JOINS])
    def test_each_condition_excludes_something_and_none_of_the_nine_leaves(self, dropped):
        found = dropped_condition_search(dropped)
        assert E8_GROUPS <= found
        assert found - E8_GROUPS == DROPPED_JOINS[dropped]

    def test_the_four_cases_take_under_a_second(self):
        start = time.perf_counter()
        for dropped in DROPPED_JOINS:
            dropped_condition_search(dropped)
        assert time.perf_counter() - start < 1.0


# the bound map: the least index bound at which each group joins the
# answer, by ratio bound, with width one; each row adds to the one before
JOINS = {1: {GroupDescriptor.gamma0(1): 1}}
JOINS[2] = {**JOINS[1], GroupDescriptor.gamma0_plus(2): 3, GroupDescriptor.gamma0_plus(3): 4}
JOINS[3] = {
    **JOINS[2],
    GroupDescriptor.gamma0(2): 3,
    GroupDescriptor.gamma0_plus(4): 6,
    GroupDescriptor.gamma0_plus(5): 6,
    GroupDescriptor.gamma0_plus(6): 12,
    GroupDescriptor.kernel(3, 3): 12,
    GroupDescriptor.kernel(2, 4, {2}): 12,
}
JOINS[4] = {**JOINS[3], GroupDescriptor.gamma0(3): 4, GroupDescriptor.gamma0_plus(7): 8}
JOINS[5] = {**JOINS[4], GroupDescriptor.gamma0_plus(10): 18}


@lru_cache(maxsize=None)
def bound_map() -> dict:
    """``classify(i, r, w)`` for index bounds 1-40, ratio bounds 1-5 and both widths."""
    cells = product(range(1, 41), range(1, 6), (False, True))
    return {(i, r, w): classify(i, r, w) for i, r, w in cells}


class TestBoundMap:
    def test_the_answer_grows_with_both_bounds(self):
        cells = bound_map()
        for (i, r, w), found in cells.items():
            assert found <= cells.get((i + 1, r, w), found), (i, r, w)
            assert found <= cells.get((i, r + 1, w), found), (i, r, w)

    def test_relaxing_the_width_only_adds(self):
        cells = bound_map()
        for i, r in product(range(1, 41), range(1, 6)):
            assert cells[i, r, False] <= cells[i, r, True], (i, r)

    @pytest.mark.parametrize("ratio_bound", sorted(JOINS))
    def test_where_each_group_joins(self, ratio_bound):
        cells = bound_map()
        for index_bound in range(1, 41):
            expected = {d for d, join in JOINS[ratio_bound].items() if join <= index_bound}
            assert cells[index_bound, ratio_bound, False] == expected, index_bound

    @pytest.mark.parametrize("ratio_bound", sorted(JOINS))
    def test_index_bound_forty_is_every_index_bound(self, ratio_bound):
        # index bound 10**9 walks every level up to level_cap(r), and finds no more
        assert classify(10**9, ratio_bound) == bound_map()[40, ratio_bound, False]


class TestNaming:
    def test_catalog_contains_expected_entries(self):
        cat = descriptor_catalog(8)
        assert GroupDescriptor.kernel(2, 4, {2}) in cat
        assert GroupDescriptor.gamma0(8) in cat
        assert GroupDescriptor(2, 4, frozenset({2})) in cat

    def test_reading_the_labels_names_as_the_catalog_search(self):
        # every exponent-two subgroup at the level of every parameter pair
        # to index bound 40: the name, or the refusal with its text, is the
        # one the search through the level's whole catalog gives
        counts = {"named": 0, "unnamed": 0}
        for level in sorted({n * h for n, h in candidate_pairs(40)}):
            q = normalizer_quotient(level)
            for sub in elementary_two_subgroups(q):
                matches = searched_subgroup_names(q, sub)
                try:
                    assert [name_subgroup(q, sub)] == matches
                    counts["named"] += 1
                except ValueError as exc:
                    displays = [d.display for d in matches]
                    assert len(matches) != 1
                    assert str(exc) == "subgroup of the level-%d quotient matched %d descriptors: %s" % (
                        level, len(matches), displays
                    )
                    counts["unnamed"] += 1
        assert counts == {"named": 238, "unnamed": 591}

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
def level_candidates(level: int) -> list:
    q = normalizer_quotient(level)
    subs = sorted(elementary_two_subgroups(q), key=lambda s: (len(s), sorted(s)))
    return [Candidate(q, sub) for sub in subs]


def unpruned_hits(index_bound: int, ratio_bound: int, relax_width: bool) -> list:
    """The reference sweep: the level of every parameter pair is built and
    screened, in increasing level."""
    hits = []
    for level in sorted(n * h for n, h in candidate_pairs(index_bound)):
        for cand in level_candidates(level):
            report = check_conditions(cand, index_bound, ratio_bound, relax_width)
            if report.passed:
                hits.append(Hit(cand, report, name_subgroup(cand.quotient, cand.subgroup)))
    return hits


class TestPrune:
    @pytest.mark.parametrize("relax_width", [False, True], ids=["strict", "relaxed"])
    def test_pruned_sweep_matches_the_unpruned_one(self, relax_width):
        # equal hit lists, or the same error (ratio bounds 6 and up meet the
        # naming gap at level 8), over the whole grid
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
        for level in sorted(n * h for n, h in candidate_pairs(60)):
            for index_bound, ratio_bound in [(60, 3), (60, 12), (24, 5), (12, 3)]:
                if may_pass(level, index_bound, ratio_bound):
                    continue
                pruned += 1
                for cand in level_candidates(level):
                    report = check_conditions(cand, index_bound, ratio_bound, relax_width=True)
                    assert not report.index_ok, (level, index_bound, ratio_bound)
        assert pruned > 100

    def test_levels_built_at_wide_bounds(self):
        # a weaker skip (dropping a two-part) gives the same hits; only the
        # count of levels built, out of the 2*index_bound walked, shows it
        for bounds, built in [((40, 5), 11), ((400, 3), 8), ((1000, 12), 39)]:
            assert sum(may_pass(level, *bounds) for level in range(1, 2 * bounds[0] + 1)) == built

    @pytest.mark.parametrize("ratio_bound", [3, 5, 12, 47, 48])
    def test_the_sweep_builds_the_levels_that_may_pass(self, monkeypatch, ratio_bound):
        # each level's quotient is recorded and replaced by the level-1
        # quotient, so the sweep runs past the naming gap; the walk builds
        # the levels the parameter pairs built, and level 256, which they
        # left out, at ratio bound 48
        built = []

        def recording_quotient(level):
            built.append(level)
            return normalizer_quotient(1)

        monkeypatch.setattr(sys.modules["plattice.classify"], "normalizer_quotient", recording_quotient)
        classify_hits(1000, ratio_bound)
        assert built == [level for level in range(1, 2001) if may_pass(level, 1000, ratio_bound)]
        paired = {n * h for n, h in candidate_pairs(1000) if may_pass(n * h, 1000, ratio_bound)}
        assert set(built) == paired | ({256} if ratio_bound == 48 else set())

    def test_no_level_above_twice_the_index_bound_passes(self):
        # psi(N) >= N, and the first bound admits psi(N) up to twice the
        # index bound, so the sweep's range holds every level that passes
        assert all(gamma0_index(level) >= level for level in range(1, 1201))
        for index_bound in range(1, 301):
            for level in range(2 * index_bound + 1, 4 * index_bound + 1):
                assert not may_pass(level, index_bound, 10**9), (level, index_bound)

    def test_level_cap(self):
        caps = {1: 256, 2: 512, 3: 768, 4: 1024, 5: 2560, 12: 6144, 48: 49152, 195: 199680, 196: 200704}
        assert {r: level_cap(r) for r in caps} == caps

    def test_no_level_above_the_cap_passes(self):
        # whatever the index bound: the cap is read off the ratio bound alone
        for ratio_bound in range(1, 13):
            cap = level_cap(ratio_bound)
            for level in range(cap + 1, 2 * cap + 1):
                assert not may_pass(level, 10**9, ratio_bound), (level, ratio_bound)

    @pytest.mark.parametrize("index_bound", [12, 40, 385, 10**5])
    def test_the_nine_at_ratio_three_for_every_index_bound(self, index_bound):
        # no level above level_cap(3) = 768 passes, so from 384 on the walk is
        # the same
        assert classify(index_bound, 3) == classify()

    def test_the_first_bound_reads_h_off_the_level(self):
        # may_pass doubles the index bound before it builds the normalizer,
        # when 4 divides the level: exactly when h is even
        for level in range(1, 2 * 10**4 + 1):
            assert (level % 4 == 0) == (normalizer_of_gamma0(level).h % 2 == 0), level

    def test_levels_that_256_or_81_divides(self):
        # the levels the parameter pairs left out, where the divisors of 24
        # cap the normalizer's h: none passes at ratio bound 47, and only
        # level 256 at 48
        capped = [level for level in range(1, 2 * 10**5 + 1) if level % 256 == 0 or level % 81 == 0]
        assert not any(may_pass(level, 10**5, 47) for level in capped)
        assert [level for level in capped if may_pass(level, 10**5, 48)] == [256]

    def test_skip_agrees_with_the_orders_at_the_level(self, monkeypatch):
        # may_pass reads h, |Q| and 2**omega(m) off the normalizer; before,
        # it read |Q| and h by level and divided |Q| back by psi(N)/psi(m).
        # Both sides share one normalizer, one set of orders and the indices
        # per level across its four ratio bounds: about 11 s on a 2-vCPU
        # host, against 43 s with each computed at every call.
        psi = lru_cache(maxsize=4)(gamma0_index)
        one_level = lru_cache(maxsize=1)(normalizer_of_gamma0)
        for module in (sys.modules["plattice.classify"], sys.modules["plattice.descriptors"], helpers):
            monkeypatch.setattr(module, "gamma0_index", psi)
        for module in (sys.modules["plattice.classify"], helpers):
            monkeypatch.setattr(module, "normalizer_of_gamma0", one_level)
        orders = lru_cache(maxsize=1)(helpers.normalizer_quotient_orders)
        monkeypatch.setattr(helpers, "normalizer_quotient_orders", orders)
        passed = 0
        for level in range(1, 2 * 10**5 + 1):
            for ratio_bound in (3, 5, 47, 48):
                verdict = may_pass(level, 10**5, ratio_bound)
                assert verdict == may_pass_by_orders(level, 10**5, ratio_bound), (level, ratio_bound)
                passed += verdict
        assert passed == 370

    def test_index_bound_one_thousand_completes(self):
        # the unpruned sweep builds every one of the 1058 quotients here,
        # which took about a minute and 800 MB on a 2-vCPU host
        start = time.perf_counter()
        proc = fresh_python("-m", "plattice.cli", "classify", "--index-bound", "1000", timeout=20)
        assert time.perf_counter() - start < 20
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "total: 9"

    def test_index_bound_above_the_budget_exits_one(self):
        # min(2 * 100001, level_cap(196)) = 200002 levels
        proc = fresh_python(
            "-m", "plattice.cli", "classify", "--index-bound", "100001", "--ratio-bound", "196",
            timeout=30, check=False,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: cannot sweep 200002 levels: above the budget of 2*10**5\n"

    @pytest.mark.parametrize(
        "index_bound, ratio_bound", [(10**5, 196), (100001, 195), (100001, 196), (10**9, 196), (10**9, 3)]
    )
    def test_the_walk_is_refused_before_any_level(self, monkeypatch, index_bound, ratio_bound):
        # the walk is min(2 * index bound, level_cap(ratio bound)) levels,
        # refused above the budget before may_pass reads one of them
        calls = []
        monkeypatch.setattr(sys.modules["plattice.classify"], "may_pass", lambda *args: calls.append(args))
        last = min(2 * index_bound, level_cap(ratio_bound))
        if last > LEVEL_BUDGET:
            message = "cannot sweep %d levels: above the budget of 2*10**5" % last
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                classify_hits(index_bound, ratio_bound)
            assert calls == []
        else:
            assert classify_hits(index_bound, ratio_bound) == []
            assert len(calls) == last

    @pytest.mark.parametrize("bounds", [(0, 3), (-3, 3), (12, 0), (12, -1)])
    def test_non_positive_bounds_are_refused(self, bounds):
        # these swept nothing and printed "total: 0" with exit 0
        message = "bounds must be positive, got index %d and ratio %d" % bounds
        with pytest.raises(ValueError, match=message):
            classify_hits(*bounds)
        argv = ["classify", "--index-bound", str(bounds[0]), "--ratio-bound", str(bounds[1])]
        proc = fresh_python("-m", "plattice.cli", *argv, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: %s\n" % message)


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
            assert len(modular) == h, n
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
            atkin_lehner = len(all_labels(n // (h * h))) + 1
            q = normalizer_quotient.__wrapped__(n)
            assert largest_exponent_two_order(q) <= atkin_lehner * EXPONENT_TWO_ORDER[h], n
