"""Symbolic arithmetic-group descriptors: what follows from a name alone.

A descriptor, the named tuple (h, n, plus, character), covers the groups
needed here: the Hecke-type base group with parameters (h, n) (h = 1 gives
the classical level-n congruence group), adjoined Atkin-Lehner cosets
labeled by the exact divisors of n/h in ``plus``, and an optional index-h
kernel subgroup cut out by a character.  Parsing, display, ordering, the
normalizer of a level group with the orders of its quotient, the width at
infinity and the congruence level are all read off these four integers, so
this module builds no matrix; membership and the finite quotients are in
``groupsys``.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .arith import divisors, gamma0_index

# The (h, n) pairs whose canonical index-h kernel is implemented, each with
# its character's value (mod h) on [[1, 0], [n, 1]]; the doubled pairs
# (3, 6) and (2, 8) are the images of (3, 3) and (2, 4) under level doubling.
KERNEL_CHARACTER_VALUES = {(3, 3): 2, (2, 4): 1, (3, 6): 1, (2, 8): 1}


def exact_divisors(n: int) -> list[int]:
    """Divisors e of n with gcd(e, n/e) == 1; none for n < 1."""
    return [e for e in divisors(n) if gcd(e, n // e) == 1] if n >= 1 else []


def unclosed_label_product(labels) -> tuple[int, int, int] | None:
    """The first (e, f, e*f/gcd(e, f)**2) with the product neither 1 nor a
    label; adjoined cosets multiply by that rule, so None means a group."""
    for e in labels:
        for f in labels:
            prod = e * f // gcd(e, f) ** 2
            if prod != 1 and prod not in labels:
                return e, f, prod
    return None


def unsupported_kernel(h: int, n: int, labels) -> str | None:
    """Why the index-h kernel with these labels is not implemented; None if it is."""
    if (h, n) not in KERNEL_CHARACTER_VALUES:
        return "kernel subgroup not implemented for (h, n) = (%d, %d)" % (h, n)
    if h == 3 and labels:
        # there is no order-3 character to take the kernel of: with the shear
        # at 1, none of the nine choices of values on [[1, 0], [6, 1]] and on
        # the Atkin-Lehner representative [[0, 1], [-18, 0]] is a homomorphism
        # on 6|3+2 modulo the level-18 group (the tests try all nine)
        labels = sorted(labels)
        return "kernel subgroup not implemented for (h, n) = (3, %d) with labels %s" % (n, labels)
    return None


class GroupDescriptor(namedtuple("GroupDescriptor", "h n plus character")):
    """Symbolic name for a group between a congruence group and its normalizer."""

    __slots__ = ()

    def __new__(cls, h: int, n: int, plus=frozenset(), character: int | None = None):
        plus = frozenset(plus)
        if h < 1 or n < 1 or n % h:
            raise ValueError("descriptor needs h | n, got h=%d n=%d" % (h, n))
        ok = set(exact_divisors(n // h)) - {1}
        if not plus <= ok:
            raise ValueError("labels %s are not exact divisors of %d" % (sorted(plus), n // h))
        gap = unclosed_label_product(plus)
        if gap is not None:
            raise ValueError("label set %s is not closed: %d*%d gives %d" % (sorted(plus), *gap))
        if character is not None:
            if character != h:
                raise ValueError("only the index-h kernel is supported")
            reason = unsupported_kernel(h, n, plus)
            if reason is not None:
                raise ValueError(reason)
        return super().__new__(cls, h, n, plus, character)

    # constructors ---------------------------------------------------------

    @classmethod
    def gamma0(cls, n: int) -> "GroupDescriptor":
        return cls(1, n)

    @classmethod
    def gamma0_plus(cls, n: int, labels=None) -> "GroupDescriptor":
        if labels is None:
            labels = set(exact_divisors(n)) - {1}
        return cls(1, n, frozenset(labels))

    @classmethod
    def kernel(cls, h: int, n: int, labels=()) -> "GroupDescriptor":
        return cls(h, n, frozenset(labels), h)

    # presentation ---------------------------------------------------------

    @property
    def display(self) -> str:
        """Conway-Norton style name; the n|h form denotes the kernel group."""
        base = str(self.n) if self.h == 1 else "%d|%d" % (self.n, self.h)
        if not self.plus:
            return base
        full = set(exact_divisors(self.n // self.h)) - {1}
        if self.plus == full:
            return base + "+"
        return base + "+" + ",".join(str(e) for e in sorted(self.plus))

    def __str__(self) -> str:
        return self.display

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        """Parse names like ``6``, ``6+``, ``6+6``, ``3|3``, ``8|2+``."""
        base, plus, tail = text.strip().partition("+")
        kernel = "|" in base
        # only the integer conversions; the constructor gives its own reasons
        try:
            nn, hh = (int(x) for x in base.split("|")) if kernel else (int(base), 1)
            labels = frozenset(int(x) for x in tail.split(",")) if tail else frozenset()
        except ValueError as exc:
            raise ValueError("bad group name %r" % text) from exc
        if plus and not tail:  # a bare "+" adjoins every label
            labels = frozenset(exact_divisors(nn // hh if hh else 0)) - {1}
        return cls.kernel(hh, nn, labels) if kernel else cls(1, nn, labels)

    # structure ------------------------------------------------------------

    def intersection_level(self) -> int:
        """K with the group's modular-group intersection equal to level K."""
        return self.n * self.h if self.character else self.n

    def to_json(self) -> dict:
        out = self._asdict()
        out["plus"] = sorted(self.plus)
        out["display"] = self.display
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        return cls(*(data[name] for name in cls._fields))

    def _key(self) -> tuple:
        # a total order: the field order compares label sets as subsets
        return (self.h, self.n, len(self.plus), sorted(self.plus), self.character or 0)

    # a tuple's own comparisons would use the field order, so all four are here
    def __lt__(self, other: "GroupDescriptor") -> bool:
        if not isinstance(other, GroupDescriptor):
            return NotImplemented
        return self._key() < other._key()

    def __gt__(self, other: "GroupDescriptor") -> bool:
        return other < self if isinstance(other, GroupDescriptor) else NotImplemented

    def __le__(self, other: "GroupDescriptor") -> bool:
        return not other < self if isinstance(other, GroupDescriptor) else NotImplemented

    def __ge__(self, other: "GroupDescriptor") -> bool:
        return not self < other if isinstance(other, GroupDescriptor) else NotImplemented


# the nine vertex groups, in the order the invariant tables list them
NODE_GROUPS: tuple[GroupDescriptor, ...] = (
    GroupDescriptor.gamma0(1),
    GroupDescriptor.gamma0_plus(2),
    GroupDescriptor.gamma0_plus(3),
    GroupDescriptor.gamma0_plus(4),
    GroupDescriptor.gamma0_plus(5),
    GroupDescriptor.gamma0_plus(6),
    GroupDescriptor.kernel(3, 3),
    GroupDescriptor.kernel(2, 4, {2}),
    GroupDescriptor.gamma0(2),
)


# the normalizer ---------------------------------------------------------------


def normalizer_of_gamma0(n: int) -> GroupDescriptor:
    """Descriptor of the normalizer: h is the largest divisor of 24 with h^2 | n."""
    if n < 1:
        raise ValueError("level must be positive")
    h = max(d for d in divisors(24) if n % (d * d) == 0)
    m = n // h
    labels = frozenset(set(exact_divisors(m // h)) - {1})
    return GroupDescriptor(h, m, labels)


def normalizer_quotient_orders(n: int) -> tuple[int, int]:
    """Orders of the normalizer quotient at level n and of its modular part.

    With h the normalizer's parameter and m = n/h**2, the base group of the
    normalizer sits over the level-n group with index psi(n)/psi(m), and
    each exact divisor of m labels one Atkin-Lehner coset.  The modular
    part, the cosets of determinant one, is the image of the level-n/h
    group (Atkin-Lehner 1970; Conway-Norton 1979).
    """
    h = normalizer_of_gamma0(n).h
    m = n // (h * h)
    total = gamma0_index(n)
    return total // gamma0_index(m) * len(exact_divisors(m)), total // gamma0_index(n // h)


# width and congruence level ---------------------------------------------------


def width_at_infinity(desc: GroupDescriptor) -> tuple[int, int]:
    """Least positive k/h, as (k, h) in lowest terms, whose shear lies in the group.

    The shear [[1, 1/h], [0, 1]] lies in every base group with parameter h.
    A kernel's character is 1 (mod h) on it, so the kernel meets the shears
    in the integral ones (Conway-Norton 1979, section 3).
    """
    return (1, 1) if desc.character else (1, desc.h)


# congruence level -------------------------------------------------------------


def congruence_level(desc: GroupDescriptor, bound: int | None = None) -> int:
    """Least M with the principal congruence group of level M inside the group.

    Containment depends only on the modular-group intersection, the level-K
    group with K = ``intersection_level()``, and the level-M principal
    group lies in it exactly when K | M.  So the answer is K whenever K
    divides ``bound`` (default four times n*h, which K always divides);
    otherwise no divisor of ``bound`` qualifies, a ValueError.
    """
    k = desc.intersection_level()
    if bound is None:
        bound = 4 * desc.n * desc.h
    if bound <= 0 or bound % k:
        raise ValueError("no congruence level found below %d for %s" % (bound, desc))
    return k
