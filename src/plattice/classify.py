"""The finite search that recovers the nine diagram-labeling groups.

The sweep walks the levels N up to the lower of twice the index bound and
``level_cap(ratio_bound)``; no level above either passes ``may_pass``,
which bounds in closed form the exponent-two subgroups of a level's
quotient, the only ones that can pass, and skips a level where none can
meet both index bounds.  At every other level the quotient of the
normalizer of the level group by that group is enumerated, its
exponent-two subgroups are screened against four conditions (width one at
infinity, exponent-two quotient, and two index bounds), and every survivor
is mapped back to a symbolic descriptor.  The prose case analysis becomes
assertions in the test suite, not control flow here.
"""

from collections import namedtuple
from itertools import count
from math import gcd

from .arith import divisors, gamma0_index, is_prime
from .descriptors import GroupDescriptor, normalizer_of_gamma0
from .groupsys import FiniteQuotient, _conjugate_by_scale, _member_cosets, normalizer_quotient

INDEX_BOUND = 12
RATIO_BOUND = 3

# The most levels a sweep walks; ``may_pass`` alone takes 3.5-4 s over them on 2 vCPU.
LEVEL_BUDGET = 2 * 10**5

# The order of the largest exponent-two subgroup of the level-h**2 quotient,
# for each divisor h of 24, found by enumerating its subgroups (checked in
# the tests); ``may_pass`` reads it.
EXPONENT_TWO_ORDER = {1: 1, 2: 2, 3: 4, 4: 4, 6: 8, 8: 4, 12: 16, 24: 16}


_REPORT_FIELDS = "width_one exponent_two index_ok index_in_modular index_over_modular"


class ConditionReport(namedtuple("ConditionReport", _REPORT_FIELDS)):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.width_one and self.exponent_two and self.index_ok

    def to_json(self) -> dict:
        return self._asdict()


class Candidate(namedtuple("Candidate", "quotient subgroup")):
    __slots__ = ()

    @property
    def level(self) -> int:
        return self.quotient.small.n

    def __init__(self, quotient: FiniteQuotient, subgroup: frozenset[int]):
        if 0 not in subgroup:
            raise ValueError("subgroup does not contain the identity")
        # closed under the product, it holds each inverse, a power of its element
        if {quotient.mult[i][j] for i in subgroup for j in subgroup} - subgroup:
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


def name_subgroup(q: FiniteQuotient, subgroup: frozenset[int]) -> GroupDescriptor:
    """Name a quotient subgroup by the descriptor accepting exactly its cosets.

    For each n | level and h | gcd(n, 24) the labels are read off the
    cosets, once per h: their determinants after scaling by h, other than
    1.  A member has determinant 1 or a label there, constant on each coset
    of the level group since h divides the level, and a matching group
    holds the Atkin-Lehner coset of each label; so only the labels read can
    match, and a pair whose labels are not closed, or have no kernel, names
    nothing.  Each group tried, the base group and its index-h kernel
    where n*h divides the level, contains the level group.  If it accepts
    exactly the subgroup's cosets, they make up its part inside the
    normalizer; if its index over the level group is also the subgroup's
    order, that part is all of it.  So the group is the subgroup's union,
    and at most one descriptor survives.
    """
    level = q.small.n
    scaled_labels = {
        h: {_conjugate_by_scale(q.reps[i], h).pdet() for i in subgroup} - {1}
        for h in divisors(gcd(level, 24))
    }
    matches = []
    for n in divisors(level):
        for h in divisors(gcd(n, 24)):
            for character in (None, h) if level % (n * h) == 0 else (None,):
                try:
                    desc = GroupDescriptor(h, n, scaled_labels[h], character)
                except ValueError:
                    continue
                if desc.index_over(level) == len(subgroup) and _member_cosets(q, desc) == subgroup:
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
      at most gcd(2, h) times that bound.  h is even exactly when 4
      divides the level, so this bound is read before the normalizer is
      built, and as psi(level) >= level no level above twice the index
      bound passes: the sweep's range of levels is complete.
    - The cosets with no Atkin-Lehner factor, the base group over the level
      group, have index 2**omega(m) in Q with an elementary abelian
      quotient.  Conjugation by diag(h, 1) embeds them in the modular group
      modulo {b = c = 0 mod h}, which is the level-h**2 quotient
      (Conway-Norton 1979).  So a subgroup has at most
      2**omega(m) * EXPONENT_TWO_ORDER[h] elements, and at most the
      two-part of |Q|.

    ``check_conditions`` rejects every subgroup at a level where this is False.
    """
    total = gamma0_index(level)
    if total > index_bound * (2 if level % 4 == 0 else 1):
        return False
    normalizer = normalizer_of_gamma0(level)
    order = normalizer.index_over(level)
    if total > ratio_bound * (order & -order):
        return False
    atkin_lehner = len(normalizer.plus) + 1  # 2**omega(m)
    return total <= ratio_bound * EXPONENT_TWO_ORDER[normalizer.h] * atkin_lehner


def level_cap(ratio_bound: int) -> int:
    """16r * 2**k, with k the largest integer such that p_1 ... p_k <= 16r * 2**k.

    No level N above it passes ``may_pass`` at ratio bound r, whatever the
    index bound.  The last test there admits N only when psi(N) <= r * E *
    2**omega(m), where E = EXPONENT_TWO_ORDER[h] <= 16 and omega(m) <= omega(N)
    = j, and p_1 ... p_j <= N <= psi(N).  So p_1 ... p_j <= 16r * 2**j, and as
    p_1 ... p_j / 2**j does not decrease in j, j <= k and N <= 16r * 2**k.
    """
    cap, primorial = 16 * ratio_bound, 1
    for p in filter(is_prime, count(2)):
        if primorial * p > 2 * cap:
            return cap
        cap, primorial = 2 * cap, primorial * p


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
    if index_bound < 1 or ratio_bound < 1:
        raise ValueError("bounds must be positive, got index %d and ratio %d" % (index_bound, ratio_bound))
    last = min(2 * index_bound, level_cap(ratio_bound))
    if last > LEVEL_BUDGET:
        raise ValueError("cannot sweep %d levels: above the budget of 2*10**5" % last)
    hits = []
    for level in range(1, last + 1):
        if not may_pass(level, index_bound, ratio_bound):
            continue
        q = normalizer_quotient(level)
        for sub in sorted(elementary_two_subgroups(q), key=lambda s: (len(s), sorted(s))):
            cand = Candidate(q, sub)
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
