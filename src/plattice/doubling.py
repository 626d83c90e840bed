"""Level-doubled groups, and the two halves of the invariance check.

Each of the nine vertex groups doubles to another arithmetic group: the
core scales its level by two and every adjoined coset label doubles
exactly when doubling keeps it an exact divisor.  The eta quotient of a
vertex's Frame shape is checked for invariance under the doubled group:
exactly, in integers, on its level group by Ligozat's criterion, and in
floating point, the only floating point in the package, on the group's
generators over that level group.  Only ``super`` loads this module, and
it loads descriptors only inside ``double_group``; the annotations that
name other modules' types are never evaluated.
"""

from __future__ import annotations

import math


def double_group(desc: GroupDescriptor) -> GroupDescriptor:
    """The level-doubled group attached to a vertex group, read off its name.

    The level n doubles, each label e, an exact divisor of n/h, doubles
    when it stays one, which is when (n/h)/e is odd, and h and the
    character stay as they are.
    """
    from .descriptors import NODE_GROUPS, GroupDescriptor

    if desc not in NODE_GROUPS:
        raise ValueError("%s is not one of the nine vertex groups" % desc.display)
    labels = {2 * e if (desc.n // desc.h // e) % 2 else e for e in desc.plus}
    return GroupDescriptor(desc.h, 2 * desc.n, labels, desc.character)


def invariant_under_gamma0(fs: FrameShape, level: int) -> bool:
    """Whether the eta quotient of fs is invariant under the level group.

    The quotient is the product of eta(d*tau)**r_d over the shape's
    ``eta_exponents``, so the r_d sum to zero.  By Ligozat's criterion
    (Ligozat 1975; Ono, *The Web of Modularity*, Thm 1.64) it is
    invariant when every d with r_d != 0 divides N = level, sum d*r_d and
    sum (N/d)*r_d are 0 mod 24, and prod d**|r_d| is a square.  Each
    condition is also necessary:

    - sum d*r_d = 0 mod 24 is invariance under T;
    - if some d does not divide N, take the largest: f|S has a q^(1/d)
      term with coefficient -r_d, which invariance under [[1,0],[N,1]]
      rules out (the other terms' exponents are multiples of 1/N or above 1/d);
    - once every d divides N, f|W_N sends d to N/d, so sum (N/d)*r_d = 0
      mod 24 is invariance under [[1,0],[N,1]];
    - f then transforms under the level group by the character
      d -> (s/d), s = prod d**r_d, which is trivial exactly when s is a square.
    """
    r = dict(fs.eta_exponents)
    if any(level % d for d in r):
        return False
    if sum(d * e for d, e in r.items()) % 24 or sum(level // d * e for d, e in r.items()) % 24:
        return False
    s = math.prod(d ** abs(e) for d, e in r.items())
    return math.isqrt(s) ** 2 == s


def eta_value(tau: complex) -> complex:
    """Dedekind eta at a point of the upper half-plane.

    Reduces the argument with the shift and inversion transformations
    until its imaginary part is at least 0.8, then multiplies the first
    200 factors of the q-product.
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
    for _ in range(200):
        prod *= 1 - qn
        qn *= q
    return factor * q24 * prod


def eta_quotient_value(fs: FrameShape, tau: complex) -> complex:
    return math.prod(eta_value(d * tau) ** r for d, r in fs.eta_exponents)


def mobius(g: ProjectiveMatrix, tau: complex) -> complex:
    a, b, c, d = g
    return (a * tau + b) / (c * tau + d)


def invariant_under(fs: FrameShape, g: ProjectiveMatrix, tau: complex, tol: float = 1e-6) -> bool:
    """Whether the eta quotient takes the same value at tau and g(tau)."""
    if tau.imag <= 0:
        raise ValueError("invariance check needs a point of the upper half-plane")
    base = eta_quotient_value(fs, tau)
    moved = eta_quotient_value(fs, mobius(g, tau))
    return abs(moved - base) <= tol * (1 + abs(base))
