"""Symbolic arithmetic-group descriptors: what follows from a name alone.

A descriptor, the named tuple (h, n, plus, character), covers the groups
needed here: the Hecke-type base group with parameters (h, n) (h = 1 gives
the classical level-n congruence group), adjoined Atkin-Lehner cosets
labeled by the exact divisors of n/h in ``plus``, and an optional index-h
kernel subgroup cut out by a character.  Parsing, display, ordering, the
normalizer of a level group with the order of its quotient, the width at
infinity and the congruence level are all read off these four integers, so
this module builds no matrix; membership and the finite quotients are in
``groupsys``.
"""

from collections import namedtuple
from math import gcd

from .arith import divisors, gamma0_index

# The (h, n) pairs whose canonical index-h kernel is implemented, each with
# its character's value (mod h) on [[1, 0], [n, 1]]; the doubled pairs
# (3, 6) and (2, 8) are the images of (3, 3) and (2, 4) under level doubling.
KERNEL_CHARACTER_VALUES = {(3, 3): 2, (2, 4): 1, (3, 6): 1, (2, 8): 1}


def all_labels(m: int) -> frozenset[int]:
    """The labels over m: its divisors e > 1 with gcd(e, m/e) == 1; none for m < 1."""
    return frozenset(e for e in divisors(m) if e > 1 and gcd(e, m // e) == 1) if m >= 1 else frozenset()


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
        m = n // h
        if not all(e > 1 and m % e == 0 and gcd(e, m // e) == 1 for e in plus):
            raise ValueError("labels %s are not exact divisors of %d" % (sorted(plus), m))
        # the cosets of labels e and f multiply into that of e*f/gcd(e, f)**2
        lacking = {e * f // gcd(e, f) ** 2 for e in plus for f in plus} - plus - {1}
        if lacking:
            raise ValueError("label set %s is not closed: it lacks %s" % (sorted(plus), sorted(lacking)))
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
    def gamma0_plus(cls, n: int) -> "GroupDescriptor":
        return cls(1, n, all_labels(n))

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
        m = self.n // self.h  # the full label set holds m: m is factored only then
        if m in self.plus and self.plus == all_labels(m):
            return base + "+"
        return base + "+" + ",".join(str(e) for e in sorted(self.plus))

    def __str__(self) -> str:
        return self.display

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        """Parse names like ``6``, ``6+``, ``6+6``, ``3|3``, ``8|2+``."""
        if "_" in text:  # int would read it as a digit separator
            raise ValueError("bad group name %r" % text)
        base, plus, tail = text.strip().partition("+")
        kernel = "|" in base
        # only the integer conversions; the constructor gives its own reasons
        try:
            nn, hh = (int(x) for x in base.split("|")) if kernel else (int(base), 1)
            labels = frozenset(int(x) for x in tail.split(",")) if tail else frozenset()
        except ValueError as exc:
            raise ValueError("bad group name %r" % text) from exc
        if plus and not tail:  # a bare "+" adjoins every label
            labels = all_labels(nn // hh if hh else 0)
        return cls.kernel(hh, nn, labels) if kernel else cls(1, nn, labels)

    # structure ------------------------------------------------------------

    def intersection_level(self) -> int:
        """K with the group's modular-group intersection equal to level K.

        K is the congruence level: the principal congruence group of level
        M lies in the group exactly when it lies in that intersection, so
        exactly when K | M."""
        return self.n * self.h if self.character else self.n

    def index_over(self, level: int) -> int:
        """The index of the level group in the group, which must contain it.

        The base group sits over the level group with index
        psi(level)/psi(n/h), 1 and each label mark one Atkin-Lehner coset,
        and a kernel has index h in its full group (Atkin-Lehner 1970;
        Conway-Norton 1979).  The group contains the level group exactly
        when the intersection level divides the level."""
        if level % self.intersection_level():
            raise ValueError("%s does not contain the level-%d group" % (self.display, level))
        index = gamma0_index(level) // gamma0_index(self.n // self.h) * (len(self.plus) + 1)
        return index // self.h if self.character else index

    def to_json(self) -> dict:
        out = self._asdict()
        out["plus"] = sorted(self.plus)
        out["display"] = self.display
        return out

    def _key(self) -> tuple:
        # a total order: the field order compares label sets as subsets
        return (self.h, self.n, len(self.plus), sorted(self.plus), self.character or 0)

    # all four, as a tuple has its own: total_ordering adds none, and > would compare fields
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


def node_index(desc: GroupDescriptor) -> int:
    """The place of a vertex group in NODE_GROUPS; any other group is a ValueError."""
    if desc not in NODE_GROUPS:
        raise ValueError("%s is not one of the nine vertex groups" % desc.display)
    return NODE_GROUPS.index(desc)


# the normalizer ---------------------------------------------------------------


def normalizer_of_gamma0(n: int) -> GroupDescriptor:
    """Descriptor of the normalizer: h is the largest divisor of 24 with h^2 | n."""
    if n < 1:
        raise ValueError("level must be positive")
    h = max(d for d in (1, 2, 3, 4, 6, 8, 12, 24) if n % (d * d) == 0)
    return GroupDescriptor(h, n // h, all_labels(n // (h * h)))


# width at infinity ------------------------------------------------------------


def width_at_infinity(desc: GroupDescriptor) -> tuple[int, int]:
    """Least positive k/h, as (k, h) in lowest terms, whose shear lies in the group.

    The shear [[1, 1/h], [0, 1]] lies in every base group with parameter h.
    A kernel's character is 1 (mod h) on it, so the kernel meets the shears
    in the integral ones (Conway-Norton 1979, section 3).
    """
    return (1, 1) if desc.character else (1, desc.h)

