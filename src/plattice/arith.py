"""Factorization, divisors, primality, the index of the level-n group and
the hypercircle size it counts, with their input budgets.  Nothing here
imports another plattice module, so no caller compiles matrix code for them.
"""

from __future__ import annotations

# Input budgets, checked before any work starts: trial division up to
# FACTORIZE_BOUND takes a few seconds at worst (a prime near the bound), and
# a hypercircle of HYPERCIRCLE_BOUND members under half a minute.
FACTORIZE_BOUND = 10**15
HYPERCIRCLE_BOUND = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for 1 <= n <= FACTORIZE_BOUND."""
    if n < 1:
        raise ValueError("cannot factorize %d" % n)
    if n > FACTORIZE_BOUND:
        raise ValueError("cannot factorize %d: above the budget of 10**15" % n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """The divisors of n in increasing order, from its factorization."""
    out = [1]
    for p, a in factorize(n).items():
        out = [d * p**k for d in out for k in range(a + 1)]
    return sorted(out)


def is_prime(p: int) -> bool:
    return p >= 2 and factorize(p) == {p: 1}


def gamma0_index(n: int) -> int:
    """Index of the joint stabilizer of L1 and L_n in the modular group.

    Multiplicative closed form: the product of (p+1)*p**(a-1) over the
    prime factorization of n; equals the size of the hyperradius-n
    hypercircle about L1.
    """
    if n < 1:
        raise ValueError("index is defined for n >= 1, got %d" % n)
    out = 1
    for p, a in factorize(n).items():
        out *= (p + 1) * p ** (a - 1)
    return out


def hypercircle_size(radius: int) -> int:
    """The member count gamma0_index(radius), refused above HYPERCIRCLE_BOUND."""
    if radius < 1:
        raise ValueError("hyperradius must be >= 1, got %d" % radius)
    size = gamma0_index(radius)
    if size > HYPERCIRCLE_BOUND:
        raise ValueError(
            "hypercircle of radius %d has %d members: above the budget of 10**6" % (radius, size)
        )
    return size
