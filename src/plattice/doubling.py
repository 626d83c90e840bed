"""Level-doubled groups, and the eta values of the numeric invariance check.

Each of the nine vertex groups doubles to another arithmetic group: the
core scales its level by two and every adjoined coset label doubles
exactly when doubling keeps it an exact divisor.  The eta quotient of a
vertex's Frame shape is checked for invariance under the doubled group in
floating point, the only floating point in the package.  Only ``super``
loads this module, and it loads descriptors only inside ``double_group``;
the annotations that name other modules' types are never evaluated.
"""

from __future__ import annotations

import math


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


def double_group(desc: GroupDescriptor) -> GroupDescriptor:
    """The level-doubled group attached to a vertex group, read off its name.

    The level n doubles, each label e, an exact divisor of n/h, doubles
    when it stays one, and h and the character stay as they are.
    """
    from .descriptors import NODE_GROUPS, GroupDescriptor

    if desc not in NODE_GROUPS:
        raise ValueError("%s is not one of the nine vertex groups" % desc.display)
    labels = {double_coset_label(e, desc.n // desc.h)[0] for e in desc.plus}
    return GroupDescriptor(desc.h, 2 * desc.n, labels, desc.character)


def eta_value(tau: complex, terms: int = 200) -> complex:
    """Dedekind eta at a point of the upper half-plane.

    Reduces the argument with the shift and inversion transformations
    until its imaginary part is at least 0.8, then multiplies the
    q-product directly.
    """
    import cmath

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
