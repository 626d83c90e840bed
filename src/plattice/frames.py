"""Frame shapes, level-doubled groups, and eta-quotient principal moduli.

Each of the nine vertex groups doubles to another arithmetic group: the
core scales its level by two and every adjoined coset label doubles
exactly when doubling keeps it an exact divisor.  A catalog attaches to
each vertex a Frame shape (a formal product of integer parts encoding a
conjugacy class of the automorphism group of the Leech lattice); the
quotient of eta functions it determines is an exact integer Laurent
series with a simple pole in q, computed by the Euler transform of its
product formula, and a floating-point checker (the only floating point in
the package) verifies its invariance under the doubled group numerically.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from functools import lru_cache

from .exact import ProjectiveMatrix
from .groupsys import NODE_GROUPS, GroupDescriptor, group_generators

# group doubling ---------------------------------------------------------------


def double_coset_label(e: int, n: int) -> tuple[int, int]:
    """Where the label-e coset over level n goes when the level doubles.

    The label doubles exactly when 2e is still an exact divisor of 2n,
    which happens when n/e is odd; the trivial coset always stays trivial.
    """
    if n % e or math.gcd(e, n // e) != 1:
        raise ValueError("%d is not an exact divisor of %d" % (e, n))
    if e == 1:
        return (1, 2 * n)
    if (n // e) % 2:
        return (2 * e, 2 * n)
    return (e, 2 * n)


@lru_cache(maxsize=None)
def double_group(desc: GroupDescriptor) -> GroupDescriptor:
    """The level-doubled group attached to a vertex group."""
    # diagram, and with it classify, loads only when a group is doubled
    from .diagram import envelope_level, scale_factor

    if desc not in NODE_GROUPS:
        raise ValueError("%s is not one of the nine vertex groups" % desc.display)
    a = scale_factor(desc)
    n = envelope_level(desc)
    inner = n // (a * a)  # level over which the adjoined cosets live
    labels = frozenset(double_coset_label(e, inner)[0] for e in desc.plus)
    if a == 1:
        return GroupDescriptor(1, 2 * n, labels)
    return GroupDescriptor.kernel(a, 2 * n // a, labels)


# Frame shapes -----------------------------------------------------------------


class FrameShape(namedtuple("FrameShape", "parts")):
    """Formal product of integer parts with nonzero integer exponents."""

    __slots__ = ()

    def __init__(self, parts: tuple[tuple[int, int], ...]):
        last = 0
        for a, alpha in parts:
            if a <= last or alpha == 0:
                raise ValueError("parts must have increasing bases and nonzero exponents")
            last = a

    @property
    def degree(self) -> int:
        return sum(a * alpha for a, alpha in self.parts)

    @property
    def max_part(self) -> int:
        return max(a for a, _ in self.parts)

    @property
    def predicted_valency(self) -> int:
        return sum(1 for _, alpha in self.parts if alpha < 0) + 1

    @property
    def display(self) -> str:
        num = " ".join("%d^%d" % (a, alpha) for a, alpha in self.parts if alpha > 0)
        den = " ".join("%d^%d" % (a, -alpha) for a, alpha in self.parts if alpha < 0)
        return "%s / %s" % (num, den) if den else num

    def __str__(self) -> str:
        return self.display

    @classmethod
    def parse(cls, text: str) -> "FrameShape":
        num, _, den = text.partition("/")

        def side(chunk, sign):
            out = {}
            for token in chunk.split():
                base, _, exp = token.partition("^")
                a = int(base)
                alpha = int(exp) if exp else 1
                out[a] = out.get(a, 0) + sign * alpha
            return out

        exps = side(num, 1)
        for a, alpha in side(den, 1).items():
            exps[a] = exps.get(a, 0) - alpha
        parts = tuple(sorted((a, alpha) for a, alpha in exps.items() if alpha))
        return cls(parts)


FRAME_SHAPES: tuple[FrameShape, ...] = tuple(
    FrameShape.parse(text)
    for text in (
        "1^24",
        "2^24 / 1^24",
        "3^12 / 1^12",
        "4^8 / 1^8",
        "5^6 / 1^6",
        "2^6 6^6 / 1^6 3^6",
        "3^8",
        "4^12 / 2^12",
        "1^8 2^8",
    )
)

for _fs in FRAME_SHAPES:
    if _fs.degree != 24:
        raise AssertionError("catalog shape %s has degree %d" % (_fs, _fs.degree))

_SHAPE_BY_GROUP = dict(zip(NODE_GROUPS, FRAME_SHAPES))


def frame_shape(desc: GroupDescriptor) -> FrameShape:
    if desc not in _SHAPE_BY_GROUP:
        raise ValueError("%s is not one of the nine vertex groups" % desc.display)
    return _SHAPE_BY_GROUP[desc]


# exact Laurent series ---------------------------------------------------------


class IntegerPowerSeries(namedtuple("IntegerPowerSeries", "leading coeffs")):
    """Laurent series with exact integer coefficients, truncated at ``order``.

    ``coeffs[i]`` is the coefficient of q**(leading + i); ``order`` is the
    largest exponent the series is valid to.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.leading + len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        i = exponent - self.leading
        if i < 0:
            return 0
        if i >= len(self.coeffs):
            raise ValueError("coefficient of q^%d is beyond the truncation" % exponent)
        return self.coeffs[i]

    def __str__(self) -> str:
        chunks = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.leading + i
            if e == 0:
                term = "%d" % abs(c)
            elif e == 1:
                term = "%d q" % abs(c) if abs(c) != 1 else "q"
            else:
                term = "%d q^%d" % (abs(c), e) if abs(c) != 1 else "q^%d" % e
            if not chunks:
                chunks.append(term if c > 0 else "-" + term)
            else:
                chunks.append(("+ " if c > 0 else "- ") + term)
        return " ".join(chunks) if chunks else "0"


def eta_quotient_series(fs: FrameShape, order: int = 50) -> IntegerPowerSeries:
    """Exact q-expansion of the eta quotient attached to a Frame shape.

    The quotient multiplies eta at each part against eta at twice the
    part, so the fractional exponents cancel into the integer -deg/24;
    a shape whose exponent does not cancel is rejected.  What is left is
    a product of powers (1 - q^d)^c_d, expanded by the Euler transform:
    with b_k the sum of d*c_d over the divisors d of k, the coefficients
    satisfy m*f_m = -(b_1 f_(m-1) + ... + b_m f_0), an exact division.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if fs.degree % 24:
        raise ValueError("fractional leading exponent for %s" % fs.display)
    leading = -fs.degree // 24
    top = order - leading
    if top < 0:
        raise ValueError("order %d is below the leading exponent %d" % (order, leading))
    c = [0] * (top + 1)
    for a, alpha in fs.parts:
        for d in range(a, top + 1, a):
            c[d] += alpha
        for d in range(2 * a, top + 1, 2 * a):
            c[d] -= alpha
    b = [0] * (top + 1)
    for d in range(1, top + 1):
        if c[d]:
            for k in range(d, top + 1, d):
                b[k] += d * c[d]
    f = [1]
    for m in range(1, top + 1):
        # f holds f_0 .. f_(m-1), so reversed(f) pairs f_(m-k) with b_k
        f.append(-sum(map(operator.mul, b[1 : m + 1], reversed(f))) // m)
    return IntegerPowerSeries(leading, tuple(f))


# numeric invariance (the only floating point in the package) -------------------


def eta_value(tau: complex, terms: int = 200) -> complex:
    """Dedekind eta at a point of the upper half-plane.

    Reduces the argument with the shift and inversion transformations
    until its imaginary part is at least 0.8, then multiplies the
    q-product directly.
    """
    if tau.imag <= 0:
        raise ValueError("eta needs a point of the upper half-plane")
    factor = complex(1)
    while True:
        shift = round(tau.real)
        if shift:
            tau -= shift
            factor *= cmath.exp(1j * math.pi * shift / 12)
        if tau.imag >= 0.8:
            break
        tau = -1 / tau
        factor *= cmath.sqrt(-1j * tau)
    q24 = cmath.exp(2j * math.pi * tau / 24)
    q = q24**24
    prod = complex(1)
    qn = q
    for _ in range(terms):
        prod *= 1 - qn
        qn *= q
    return factor * q24 * prod


def eta_quotient_value(fs: FrameShape, tau: complex) -> complex:
    out = complex(1)
    for a, alpha in fs.parts:
        out *= eta_value(a * tau) ** alpha
        out *= eta_value(2 * a * tau) ** (-alpha)
    return out


def mobius(g: ProjectiveMatrix, tau: complex) -> complex:
    a, b, c, d = g.entries()
    return (a * tau + b) / (c * tau + d)


def invariant_under(fs: FrameShape, g: ProjectiveMatrix, tau: complex, tol: float = 1e-6) -> bool:
    """Whether the eta quotient takes the same value at tau and g(tau)."""
    if tau.imag <= 0:
        raise ValueError("invariance check needs a point of the upper half-plane")
    base = eta_quotient_value(fs, tau)
    moved = eta_quotient_value(fs, mobius(g, tau))
    return abs(moved - base) <= tol * (1 + abs(base))


def numeric_invariance_check(
    fs: FrameShape,
    desc: GroupDescriptor,
    tau: complex = 0.1 + 0.8j,
    tol: float = 1e-6,
) -> bool:
    """Necessary-condition check: invariance under every group generator."""
    return all(invariant_under(fs, g, tau, tol) for g in group_generators(desc))
