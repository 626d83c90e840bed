"""Exact membership, Atkin-Lehner cosets and finite quotients of described groups.

The groups are named by the descriptors of ``descriptors``; this module
computes with their matrices.  Membership is decided entry-wise on the
primitive representative after conjugating by the diagonal matrix with
ratio h, so everything stays in integer arithmetic.

A kernel n|h is decided on the quotient of its full group (no character)
by the level-n*h group, which its character factors through (Conway-Norton
1979, section 3): the character is 1 on the shear [[h, 1], [0, h]], a value
fixed per (h, n) on [[1, 0], [n, 1]] and 0 on each Atkin-Lehner
representative, and the kernel is the set of cosets where it is 0.

Finite quotients of a group by the plain level group under its base level
are materialized as coset representative lists with an exact
multiplication table.  Matrix products are taken only while the cosets are
enumerated breadth-first; the table is then composed from the generators'
permutations along the enumeration tree.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

from .descriptors import (
    KERNEL_CHARACTER_VALUES,
    GroupDescriptor,
    normalizer_of_gamma0,
    normalizer_quotient_orders,
)
from .exact import IDENTITY, ProjectiveMatrix
from .lattice import LatticeName, act, reduce_matrix

QUOTIENT_ELEMENT_BOUND = 10000


# membership -----------------------------------------------------------------


def _conjugate_by_scale(g: ProjectiveMatrix, h: int) -> ProjectiveMatrix:
    # h * (g_h g g_h^-1) stays integral
    a, b, c, d = g.entries()
    return ProjectiveMatrix.from_ints(h * a, h * h * b, c, h * d)


def member(g: ProjectiveMatrix, desc: GroupDescriptor) -> bool:
    """Exact membership of a projective matrix in the described group."""
    w = _conjugate_by_scale(g, desc.h)
    e = w.pdet()
    m = desc.n // desc.h
    a, b, c, d = w.entries()
    if e == 1:
        if c % m:
            return False
    elif e in desc.plus:
        if a % e or d % e or c % m:
            return False
    else:
        return False
    if desc.character is not None:
        q, kernel = _kernel_cosets(desc.h, desc.n, desc.plus)
        return q.coset_of(g) in kernel
    return True


def _member_cosets(q: FiniteQuotient, desc: GroupDescriptor) -> frozenset[int]:
    """Indices of the quotient's representatives that lie in the described group."""
    return frozenset(i for i, rep in enumerate(q.reps) if member(rep, desc))


# Atkin-Lehner cosets ---------------------------------------------------------


def al_coset_representative(n: int, e: int) -> ProjectiveMatrix:
    """A matrix in the Atkin-Lehner coset labeled e over level n.

    The defining shape is [[a*e, b], [c*n, d*e]] with a*d*e^2 - b*c*n == e,
    solved with an extended gcd; checked before returning.
    """
    if n % e or gcd(e, n // e) != 1:
        raise ValueError("%d is not an exact divisor of %d" % (e, n))
    if e == 1:
        return IDENTITY
    if e == n:
        rep = ProjectiveMatrix.from_ints(0, -1, n, 0)
    else:
        u = pow(e, -1, n // e)
        v = (u * e - 1) // (n // e)
        rep = ProjectiveMatrix.from_ints(e, v, n, u * e)
    a, b, c, d = rep.entries()
    if rep.pdet() != e or a % e or d % e or c % n:
        raise AssertionError("%s is not in the label-%d coset over level %d" % (rep, e, n))
    return rep


def conjugated_al_representative(desc_h: int, m: int, e: int) -> ProjectiveMatrix:
    """Representative of the label-e coset inside the (h, n) family, n = h*m."""
    rep = al_coset_representative(m, e)
    gh = ProjectiveMatrix.from_ints(desc_h, 0, 0, 1)
    return gh.inv() * rep * gh


# finite quotients -------------------------------------------------------------


class FiniteQuotient:
    """A finite group of coset representatives with exact multiplication."""

    def __init__(self, big, small, reps, mult, inverse, keys):
        self.big: GroupDescriptor = big
        self.small: GroupDescriptor = small
        self.reps: tuple[ProjectiveMatrix, ...] = reps
        self.mult: tuple[tuple[int, ...], ...] = mult
        self.inverse: tuple[int, ...] = inverse
        self._keys: dict = keys

    @property
    def order(self) -> int:
        return len(self.reps)

    def coset_of(self, g: ProjectiveMatrix) -> int:
        key = _coset_key(g, self.small.n)
        if key not in self._keys:
            raise ValueError("element is not in any enumerated coset")
        return self._keys[key]

    @cached_property
    def width_cosets(self) -> tuple[int, ...]:
        """Cosets of the shears [[1, k/h], [0, 1]], 0 < k < h, which break width one."""
        h = self.big.h
        return tuple(self.coset_of(ProjectiveMatrix.from_ints(h, k, 0, h)) for k in range(1, h))


def _coset_key(g: ProjectiveMatrix, n: int):
    return (reduce_matrix(g), act(LatticeName(n, 0, 1), g))


def finite_quotient(big: GroupDescriptor, small: GroupDescriptor) -> FiniteQuotient:
    """Cosets of the level group ``small`` in ``big`` by breadth-first closure.

    ``small`` must be the plain level group of ``big``'s base level n*h,
    because the walk's generators, ``quotient_generators(big)``, generate
    ``big`` only modulo that group.  Coset identity is decided by an exact
    invariant pair: the reduced matrix and the image of the level-n
    lattice, which together identify the right coset of ``g``.

    The breadth-first walk records how each generator permutes the cosets
    under right multiplication, and the generator and earlier
    representative each new representative is the product of.  Since
    ``reps[j] == reps[p] * generators[g]``, column ``j`` of the
    multiplication table is column ``p`` sent through generator ``g``'s
    permutation: the table is composed along the walk's tree, with no
    matrix arithmetic after the walk.  Every row and column of the table
    must then be a permutation of the cosets, which fails when ``small`` is
    not normal in ``big``.  A walk that passes ``QUOTIENT_ELEMENT_BOUND``
    cosets stops with a ValueError.
    """
    base = GroupDescriptor.gamma0(big.n * big.h)
    if small != base:
        raise ValueError(
            "quotients of %s are taken by the plain level group %s, not %s"
            % (big.display, base.display, small.display)
        )
    generators = quotient_generators(big)
    reps = [IDENTITY]
    keys = {_coset_key(IDENTITY, small.n): 0}
    parents = [None]
    # right[g][i] is the coset of reps[i] * generators[g]
    right = [[] for _ in generators]
    head = 0
    while head < len(reps):
        cur = reps[head]
        for g, gen in enumerate(generators):
            nxt = cur * gen
            key = _coset_key(nxt, small.n)
            k = keys.get(key)
            if k is None:
                if len(reps) >= QUOTIENT_ELEMENT_BOUND:
                    raise ValueError("quotient not finite within bound %d" % QUOTIENT_ELEMENT_BOUND)
                k = keys[key] = len(reps)
                reps.append(nxt)
                parents.append((head, g))
            right[g].append(k)
        head += 1
    order = len(reps)
    columns = [tuple(range(order))]
    for p, g in parents[1:]:
        columns.append(tuple(map(right[g].__getitem__, columns[p])))
    mult = tuple(zip(*columns))
    # entries all lie in range(order), so a line without repeats is a permutation
    if any(len(set(line)) != order for lines in (columns, mult) for line in lines):
        raise ValueError("quotient is not closed under multiplication")
    inverse = tuple(row.index(0) for row in mult)
    return FiniteQuotient(big, small, tuple(reps), mult, inverse, keys)


def quotient_generators(big: GroupDescriptor) -> list[ProjectiveMatrix]:
    """Generators of ``big`` modulo any normal congruence subgroup."""
    if big.character is not None:
        q, kernel = _kernel_cosets(big.h, big.n, big.plus)
        return [q.reps[i] for i in sorted(kernel) if i]
    gens = []
    if big.h > 1:
        gens.append(ProjectiveMatrix.from_ints(big.h, 1, 0, big.h))
        gens.append(ProjectiveMatrix.from_ints(1, 0, big.n, 1))
    gens.extend(
        conjugated_al_representative(big.h, big.n // big.h, e) for e in sorted(big.plus)
    )
    return gens


@lru_cache(maxsize=None)
def _kernel_cosets(h: int, n: int, labels: frozenset) -> tuple[FiniteQuotient, frozenset[int]]:
    """The full group's quotient by the level-n*h group, and the kernel's cosets in it.

    The character's values on the walk's generators spread over the table:
    in walk order every coset is an earlier one times a generator.  Every
    such product must agree with the values, and the kernel must have index h.
    """
    q = finite_quotient(GroupDescriptor(h, n, labels), GroupDescriptor.gamma0(n * h))
    values = [1, KERNEL_CHARACTER_VALUES[h, n]] + [0] * len(labels)
    columns = [(q.coset_of(gen), v) for gen, v in zip(quotient_generators(q.big), values)]
    out = [0] + [None] * (q.order - 1)
    for i in range(q.order):
        for c, v in columns:
            j, w = q.mult[i][c], (out[i] + v) % h
            if out[j] is None:
                out[j] = w
            elif out[j] != w:
                raise AssertionError("character of %s disagrees at coset %d" % (q.big.display, j))
    kernel = frozenset(i for i, v in enumerate(out) if v == 0)
    if len(kernel) * h != q.order:
        raise AssertionError(
            "kernel of (%d, %d, %s) has %d cosets in a quotient of order %d"
            % (h, n, sorted(labels), len(kernel), q.order)
        )
    return q, kernel


@lru_cache(maxsize=None)
def normalizer_quotient(n: int) -> FiniteQuotient:
    """The normalizer of the level-n group modulo that group."""
    q = finite_quotient(normalizer_of_gamma0(n), GroupDescriptor.gamma0(n))
    expected = normalizer_quotient_orders(n)[0]
    if q.order != expected:
        raise AssertionError(
            "normalizer quotient at level %d has %d cosets, not %d" % (n, q.order, expected)
        )
    return q
