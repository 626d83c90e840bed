"""Level-doubled groups, and the invariance check of their eta quotients.

Each of the nine vertex groups doubles to another arithmetic group: the
core scales its level by two and every adjoined coset label doubles
exactly when doubling keeps it an exact divisor.  The eta quotient of a
vertex's Frame shape is checked for invariance under the doubled group,
in integers throughout: on its level group by Ligozat's criterion, and on
the group's generators over that level group by the multiplier of eta.
Only ``super`` loads this module, and it loads descriptors only inside
``double_group``; the annotations that name other modules' types are
strings, so they import nothing.
"""

import math


def double_group(desc: "GroupDescriptor") -> "GroupDescriptor":
    """The level-doubled group attached to a vertex group, read off its name.

    The level n doubles, each label e, an exact divisor of n/h, doubles
    when it stays one, which is when (n/h)/e is odd, and h and the
    character stay as they are.
    """
    from .descriptors import GroupDescriptor, node_index

    node_index(desc)
    labels = {2 * e if (desc.n // desc.h // e) % 2 else e for e in desc.plus}
    return GroupDescriptor(desc.h, 2 * desc.n, labels, desc.character)


def invariant_under_gamma0(fs: "FrameShape", level: int) -> bool:
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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n), n odd and positive."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def eta_multiplier(a: int, b: int, c: int, d: int) -> int:
    """Petersson's multiplier of eta at [[a, b], [c, d]] in SL2(Z), c > 0 or
    a = d = 1, as the m mod 24 of eta(g tau) = e^(pi i m/12) (c tau + d)^(1/2)
    eta(tau), principal root (Knopp, *Modular Functions in Analytic Number
    Theory*, 1970, ch. 4, Thm 2).  A Jacobi symbol of -1 adds 12."""
    m = (a + d) * c - b * d * (c * c - 1)
    if c % 2:
        m, symbol = m - 3 * c, _jacobi(d, c)
    else:
        m, symbol = m + 3 * d - 3 - 3 * c * d, _jacobi(c, abs(d))
    return (m + 12 * (symbol < 0)) % 24


def invariant_under(fs: "FrameShape", g: "ProjectiveMatrix") -> bool | None:
    """Whether the eta quotient f of fs is invariant under g, or None when
    some z below does not divide its y.  With c >= 0, write diag(delta, 1) g
    = gamma [[x, y], [0, z]] for each (delta, r) of ``eta_exponents``, gamma
    in SL2(Z) and x, z > 0.  The r sum to 0, so the automorphy factors leave
    prod z^(-r/2), and when every z divides y, f|g is that times
    e^(pi i sum r (m + y/z)/12) prod eta((x/z) tau)^r, m gamma's multiplier.
    Eta quotients with other exponents differ in order at some cusp, so
    f|g = f exactly when the reduced x/z carry the (delta, r) and the sum
    is 0 mod 24.  prod z^r = 1 then follows from x z = delta det g, so it
    is not tested.  None is no answer: eta((tau + 1)/2) = e^(pi i/24)
    eta(tau)^3 / (eta(tau/2) eta(2 tau)), so a z that misses y can still give f.
    """
    a, b, c, d = g
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
    image, phase = {(delta, 1): -r for delta, r in fs.eta_exponents}, 0
    for delta, r in fs.eta_exponents:
        x = math.gcd(delta * a, c)
        p, q = delta * a // x, c // x
        # gamma = [[p, u], [q, v]], the identity when c = 0
        v = pow(p, -1, q) if q else 1
        u = (p * v - 1) // q if q else 0
        y, z = v * delta * b - u * d, p * d - q * delta * b
        if y % z:
            return None
        k = math.gcd(x, z)
        image[x // k, z // k] = image.get((x // k, z // k), 0) + r
        phase += r * (eta_multiplier(p, u, q, v) + y // z)
    return not any(image.values()) and phase % 24 == 0
