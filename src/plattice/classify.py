"""The finite search that recovers the nine diagram-labeling groups.

Candidate parameter pairs (n, h) are those allowed by the index bound.  A
level n*h at which no exponent-two subgroup of the quotient can meet both
index bounds is skipped: ``may_pass`` bounds such subgroups in closed form
and proves the bounds.  At every other level the quotient of the
normalizer of the level group by that group is enumerated, its exponent-two
subgroups (the only ones that can pass) are screened against four
conditions (width one at infinity, exponent-two quotient, and two index
bounds), and every survivor is mapped back to a symbolic descriptor.  The
prose case analysis becomes assertions in the test suite, not control flow
here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import gcd

from .arith import divisors, gamma0_index
from .descriptors import (
    GroupDescriptor,
    exact_divisors,
    normalizer_quotient_orders,
    unclosed_label_product,
    unsupported_kernel,
)
from .groupsys import FiniteQuotient, _member_cosets, normalizer_quotient

INDEX_BOUND = 12
RATIO_BOUND = 3

# The sweep's cost grows linearly with the index bound through the candidate
# list (about 10 s at the budget on a 2-vCPU host), so larger bounds are
# refused before any work starts.
INDEX_BOUND_BUDGET = 10**5

# The order of the largest exponent-two subgroup of the level-h**2 quotient,
# for each divisor h of 24, found by enumerating its subgroups (checked in
# the tests); ``may_pass`` reads it.
EXPONENT_TWO_ORDER = {1: 1, 2: 2, 3: 4, 4: 4, 6: 8, 8: 4, 12: 16, 24: 16}


def candidate_levels(index_bound: int = INDEX_BOUND) -> list[tuple[int, int]]:
    """All (n, h) with the level-n index within bound and h admissible.

    h must divide gcd(n, 24) with neither 4h nor 9h dividing n (otherwise
    h would not be the maximal square divisor bound for n*h).  An index
    bound above INDEX_BOUND_BUDGET is a ValueError.
    """
    if index_bound > INDEX_BOUND_BUDGET:
        raise ValueError("cannot sweep index bound %d: above the budget of 10**5" % index_bound)
    out = []
    for n in range(1, index_bound + 1):  # the index always exceeds n
        if gamma0_index(n) > index_bound:
            continue
        for h in divisors(gcd(n, 24)):
            if n % (4 * h) and n % (9 * h):
                out.append((n, h))
    return out


_REPORT_FIELDS = "width_one exponent_two index_ok index_in_modular index_over_modular"


class ConditionReport(namedtuple("ConditionReport", _REPORT_FIELDS)):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.width_one and self.exponent_two and self.index_ok

    def to_json(self) -> dict:
        return self._asdict()


class Candidate(namedtuple("Candidate", "n h quotient subgroup")):
    __slots__ = ()

    @property
    def level(self) -> int:
        return self.n * self.h

    def __init__(self, n: int, h: int, quotient: FiniteQuotient, subgroup: frozenset[int]):
        mult = quotient.mult
        for i in subgroup:
            if quotient.inverse[i] not in subgroup:
                raise ValueError("subgroup is not inverse-closed")
            for j in subgroup:
                if mult[i][j] not in subgroup:
                    raise ValueError("subgroup is not multiplicatively closed")


def check_conditions(
    cand: Candidate,
    index_bound: int = INDEX_BOUND,
    ratio_bound: int = RATIO_BOUND,
    relax_width: bool = False,
) -> ConditionReport:
    """The four screening conditions; arithmeticity holds by construction."""
    q, sub = cand.quotient, cand.subgroup
    width_one = relax_width or all(c not in sub for c in q.width_cosets)
    exponent_two = all(q.mult[i][i] == 0 for i in sub)
    modular_part = sum(1 for i in sub if q.reps[i].pdet() == 1)
    total = gamma0_index(cand.level)
    if total % modular_part or len(sub) % modular_part:
        raise AssertionError("modular part of order %d does not divide the indices" % modular_part)
    index_in_modular = total // modular_part
    index_over_modular = len(sub) // modular_part
    index_ok = index_in_modular <= index_bound and total <= ratio_bound * len(sub)
    return ConditionReport(width_one, exponent_two, index_ok, index_in_modular, index_over_modular)


# naming discovered subgroups --------------------------------------------------


def _closed_label_sets(pool: list[int]) -> list[frozenset[int]]:
    out = []
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            if unclosed_label_product(combo) is None:
                out.append(frozenset(combo))
    return out


@lru_cache(maxsize=None)
def descriptor_catalog(level: int) -> tuple[GroupDescriptor, ...]:
    """Every descriptor denoting a group containing the level group."""
    out = []
    for n2 in divisors(level):
        for h2 in divisors(gcd(n2, 24)):
            label_pool = sorted(set(exact_divisors(n2 // h2)) - {1})
            for labels in _closed_label_sets(label_pool):
                out.append(GroupDescriptor(h2, n2, labels))
                if unsupported_kernel(h2, n2, labels) is None and level % (n2 * h2) == 0:
                    out.append(GroupDescriptor(h2, n2, labels, h2))
    return tuple(out)


def _index_over_modular_part(desc: GroupDescriptor) -> int:
    """Index of the group over its modular-group intersection, in closed form.

    A closed label set of size k adjoins k cosets, and the scaled base
    group sits over its integral part with index given by a ratio of the
    index formula; kernels divide the whole count by h.
    """
    labels = len(desc.plus) + 1
    if desc.character:
        base = gamma0_index(desc.n * desc.h) // gamma0_index(desc.n // desc.h)
        return base * labels // desc.h
    base = gamma0_index(desc.n) // gamma0_index(desc.n // desc.h)
    return base * labels


def name_subgroup(q: FiniteQuotient, subgroup: frozenset[int]) -> GroupDescriptor:
    """Match a quotient subgroup against the descriptor catalog.

    A descriptor matches when its membership predicate accepts exactly the
    subgroup's representatives and both of its index invariants agree with
    the measured ones.  Set equality makes the union of the subgroup's
    cosets a subgroup of the descriptor's group; the matching modular part
    and matching index over it then force the two groups equal, so at most
    one descriptor can survive.
    """
    level = q.small.n
    modular_part = sum(1 for i in subgroup if q.reps[i].pdet() == 1)
    target_in = gamma0_index(level) // modular_part
    target_over = len(subgroup) // modular_part
    matches = []
    for desc in descriptor_catalog(level):
        if gamma0_index(desc.intersection_level()) != target_in:
            continue
        if _index_over_modular_part(desc) != target_over:
            continue
        if _member_cosets(q, desc) == subgroup:
            matches.append(desc)
    if len(matches) != 1:
        raise ValueError(
            "subgroup of the level-%d quotient matched %d descriptors: %s"
            % (level, len(matches), [d.display for d in matches])
        )
    return matches[0]


# the sweep --------------------------------------------------------------------


def may_pass(level: int, index_bound: int, ratio_bound: int) -> bool:
    """Whether any exponent-two subgroup of the level's quotient Q can meet both index bounds.

    Only exponent-two subgroups can pass, and two facts bound them, with h
    the normalizer's parameter and m = level/h**2:

    - The modular part of Q, the cosets of determinant one, is cyclic of
      order h.  It is the image of the level-(level/h) group, and
      g -> (c/(level/h)) * d**-1 mod h maps that group onto Z/h with kernel
      the level group, because h divides level/h and every unit modulo a
      divisor of 24 squares to one.  So a subgroup meets it in at most
      gcd(2, h) cosets, and passes the index bound only if psi(level) is
      at most gcd(2, h) times that bound.
    - The cosets with no Atkin-Lehner factor, the base group over the level
      group, have index 2**omega(m) in Q with an elementary abelian
      quotient.  Conjugation by diag(h, 1) embeds them in the modular group
      modulo {b = c = 0 mod h}, which is the level-h**2 quotient
      (Conway-Norton 1979).  So a subgroup has at most
      2**omega(m) * EXPONENT_TWO_ORDER[h] elements, and at most the
      two-part of |Q|.

    ``check_conditions`` rejects every subgroup at a level where this is False.
    """
    order, h = normalizer_quotient_orders(level)  # the modular part has order h
    total = gamma0_index(level)
    if total > index_bound * gcd(2, h) or total > ratio_bound * (order & -order):
        return False
    atkin_lehner = order * gamma0_index(level // (h * h)) // total  # 2**omega(m)
    return total <= ratio_bound * EXPONENT_TWO_ORDER[h] * atkin_lehner


def elementary_two_subgroups(q: FiniteQuotient) -> set[frozenset[int]]:
    """Subgroups in which every element squares to the identity."""
    involutions = [i for i in range(1, q.order) if q.mult[i][i] == 0]
    trivial = frozenset([0])
    subs = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for t in involutions:
            if t in h or any(q.mult[t][x] != q.mult[x][t] for x in h):
                continue
            ext = frozenset(h | {q.mult[t][x] for x in h})
            if ext not in subs:
                subs.add(ext)
                frontier.append(ext)
    return subs


# a screened candidate that passed, with the descriptor naming its subgroup
Hit = namedtuple("Hit", "candidate report descriptor")


def classify_hits(
    index_bound: int = INDEX_BOUND,
    ratio_bound: int = RATIO_BOUND,
    relax_width: bool = False,
) -> list[Hit]:
    """Every (candidate, subgroup) pair passing the screening, with names."""
    hits = []
    for n, h in candidate_levels(index_bound):
        if not may_pass(n * h, index_bound, ratio_bound):
            continue
        q = normalizer_quotient(n * h)
        for sub in sorted(elementary_two_subgroups(q), key=lambda s: (len(s), sorted(s))):
            cand = Candidate(n, h, q, sub)
            report = check_conditions(cand, index_bound, ratio_bound, relax_width)
            if report.passed:
                hits.append(Hit(cand, report, name_subgroup(q, sub)))
    return hits


def classify(
    index_bound: int = INDEX_BOUND,
    ratio_bound: int = RATIO_BOUND,
    relax_width: bool = False,
) -> set[GroupDescriptor]:
    """The set of groups satisfying all four conditions, deduplicated."""
    return {hit.descriptor for hit in classify_hits(index_bound, ratio_bound, relax_width)}
