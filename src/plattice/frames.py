"""Frame shapes and their eta-quotient principal moduli.

A catalog attaches to each vertex group a Frame shape (a formal product of
integer parts encoding a conjugacy class of the automorphism group of the
Leech lattice); the quotient of eta functions it determines is an exact
integer Laurent series with a simple pole in q, computed by the Euler
transform of its product formula.  The doubled groups and both halves of
the invariance check, Ligozat's criterion on the level group and the
multiplier of eta at the other generators, are in ``doubling``, which only
``super`` loads.

The Euler transform runs in blocks of terms.  Each finished block reaches
every later term through one big-integer product (Kronecker substitution)
instead of one small product per pair of terms, and its slots are wide
enough by construction, not by estimate, because every number in the
product is known before it is formed.  Each coefficient is an exact
division whose remainder is checked, so a wrongly decoded slot ends in an
internal error, not a wrong series, unless its error is a multiple of
the term's index.
"""

import math
import operator
from collections import namedtuple

# descriptors loads only inside frame_shape, and doubling and groupsys, with
# exact and lattice, only inside the invariance check, so a Frame shape
# given as text loads none of them; the annotations that name their types
# are strings, so they import nothing

# Frame shapes -----------------------------------------------------------------


class FrameShape(namedtuple("FrameShape", "parts")):
    """Formal product of integer parts with nonzero integer exponents."""

    __slots__ = ()

    def __init__(self, parts: tuple[tuple[int, int], ...]):
        if not parts:
            raise ValueError("a Frame shape needs at least one part")
        last = 0
        for a, alpha in parts:
            if a <= last or alpha == 0:
                raise ValueError("parts must have increasing bases and nonzero exponents")
            last = a

    @property
    def degree(self) -> int:
        return sum(a * alpha for a, alpha in self.parts)

    @property
    def display(self) -> str:
        num = " ".join("%d^%d" % (a, alpha) for a, alpha in self.parts if alpha > 0)
        den = " ".join("%d^%d" % (a, -alpha) for a, alpha in self.parts if alpha < 0)
        return "%s / %s" % (num, den) if den else num

    def __str__(self) -> str:
        return self.display

    @property
    def eta_exponents(self) -> tuple[tuple[int, int], ...]:
        """The (d, r_d) with r_d != 0, in increasing d, of the doubled eta
        quotient, the product of eta(d*tau)**r_d: alpha at each part a and
        -alpha at 2a, summed.  Never empty: r at the least a is its alpha."""
        r: dict[int, int] = {}
        for a, alpha in self.parts:
            r[a] = r.get(a, 0) + alpha
            r[2 * a] = r.get(2 * a, 0) - alpha
        return tuple(sorted((d, e) for d, e in r.items() if e))

    @classmethod
    def parse(cls, text: str) -> "FrameShape":
        if "_" in text:  # int would read it as a digit separator
            raise ValueError("bad Frame shape %r" % text)
        num, _, den = text.partition("/")
        exps: dict[int, int] = {}
        for chunk, sign in ((num, 1), (den, -1)):
            for token in chunk.split():
                base, caret, exp = token.partition("^")
                try:
                    a = int(base)
                    alpha = int(exp) if caret else 1
                except ValueError as exc:
                    raise ValueError("bad Frame shape %r" % text) from exc
                exps[a] = exps.get(a, 0) + sign * alpha
        parts = tuple(sorted((a, alpha) for a, alpha in exps.items() if alpha))
        if not parts:
            raise ValueError("Frame shape %r has no parts" % text)
        if parts[0][0] < 1:
            raise ValueError("bad Frame shape %r: base %d is below 1" % (text, parts[0][0]))
        return cls(parts)


# the catalog: each vertex group's display name with its shape, in vertex
# order, so a vertex name finds its shape without loading descriptors
VERTEX_SHAPES: tuple[tuple[str, FrameShape], ...] = tuple(
    (name, FrameShape.parse(text))
    for name, text in (
        ("1", "1^24"),
        ("2+", "2^24 / 1^24"),
        ("3+", "3^12 / 1^12"),
        ("4+", "4^8 / 1^8"),
        ("5+", "5^6 / 1^6"),
        ("6+", "2^6 6^6 / 1^6 3^6"),
        ("3|3", "3^8"),
        ("4|2+", "4^12 / 2^12"),
        ("2", "1^8 2^8"),
    )
)
FRAME_SHAPES: tuple[FrameShape, ...] = tuple(shape for _, shape in VERTEX_SHAPES)


def frame_shape(desc: "GroupDescriptor") -> FrameShape:
    """The catalog shape of a vertex group."""
    from .descriptors import node_index

    return FRAME_SHAPES[node_index(desc)]


# exact Laurent series ---------------------------------------------------------

# terms per block of the series engine: 128 was fastest over orders 650-2000
_BLOCK = 128

# the most terms after the leading one a series is expanded to, checked
# before any work starts.  It bounds order - leading, not the order alone,
# because a shape of degree 24k has a pole of order k.  The slowest catalog
# shapes, 1^24 and 2^24 / 1^24, take 3.9 s and 4.7 s at the budget on a
# 2-vCPU host (median of 3 cold runs), 5-6 times their time at half the order.
SERIES_TERM_BUDGET = 12000


class IntegerPowerSeries(namedtuple("IntegerPowerSeries", "leading coeffs")):
    """Laurent series with exact integer coefficients, truncated at ``order``.

    ``coeffs[i]`` is the coefficient of q**(leading + i); ``order`` is the
    largest exponent the series is valid to.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.leading + len(self.coeffs) - 1

    def text(self):
        """The printed series in pieces, term by term: ``str`` joins them."""
        signs = ("", "-")  # before the first term, then between terms
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
            yield signs[c < 0] + term
            signs = (" + ", " - ")
        if not signs[0]:
            yield "0"

    def __str__(self) -> str:
        return "".join(self.text())


def eta_quotient_series(fs: FrameShape, order: int = 50) -> IntegerPowerSeries:
    """Exact q-expansion of the eta quotient attached to a Frame shape.

    The quotient is the product of eta(d*tau)**r_d over the shape's
    ``eta_exponents``, so the fractional exponents sum to the integer
    -deg/24; a shape whose exponent is not an integer is rejected.  What
    is left is a product of powers (1 - q^j)^c_j, c_j the sum of the r_d
    over the d dividing j, expanded by the Euler transform: with b_k the
    sum of j*c_j over the divisors j of k, the coefficients satisfy
    m*f_m = -(b_1 f_(m-1) + ... + b_m f_0), an exact division (checked:
    a remainder is an internal error).

    The terms are found in blocks of ``_BLOCK``.  Inside a block the sum
    runs over the block's own earlier terms; ``pending[m]`` holds the
    rest, the part from all finished blocks.  A finished block adds its
    part to every later m at once, by one integer product (Kronecker
    substitution): the block's terms and b are written into fixed-width
    byte slots, the positive and the negative parts apart, and slot t of
    the product is the convolution term t.  The slot width is exact, not
    estimated: each convolution term is a sum of at most ``_BLOCK``
    products |f_i|*|b_k| of numbers already known, so it is below
    2**(bits(max|f|) + bits(max|b|) + bits(_BLOCK)), and a slot two bits
    wider holds it with its sign.  Adding half a slot to every slot makes
    all of them non-negative, so they part without borrows.  b is packed
    once at its own width and widened for each block by byte copies, so
    each product is only as wide as its block needs.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if fs.degree % 24:
        raise ValueError("fractional leading exponent for %s" % fs.display)
    leading = -fs.degree // 24
    top = order - leading
    if top < 0:
        raise ValueError("order %d is below the leading exponent %d" % (order, leading))
    if top > SERIES_TERM_BUDGET:
        raise ValueError(
            "cannot expand to order %d: %d terms after q^%d, above the budget of %d"
            % (order, top, leading, SERIES_TERM_BUDGET)
        )
    # when every d is a multiple of s the product is a series in q^s:
    # expand it in q^s to top // s terms, about s**2 less work, and spread it
    exps = fs.eta_exponents
    s = math.gcd(*(d for d, _ in exps))
    n = top // s
    c = [0] * (n + 1)
    for d, r in exps:
        for k in range(d // s, n + 1, d // s):
            c[k] += r
    b = [0] * (n + 1)
    for d in range(1, n + 1):
        if c[d]:
            for k in range(d, n + 1, d):
                b[k] += d * c[d]
    del c
    block = _BLOCK
    b_bits = max(map(abs, b)).bit_length()
    narrow = max(1, (b_bits + 7) // 8)
    b_pos, b_neg = _slots(b, narrow)
    f = []
    pending = [0] * (n + 1)
    for j0 in range(0, n + 1, block):
        j1 = min(j0 + block, n + 1)
        run = [1] if j0 == 0 else []
        for m in range(max(j0, 1), j1):
            # run holds f_j0 .. f_(m-1), so reversed(run) pairs f_(m-k) with b_k
            total = pending[m] + sum(map(operator.mul, b[1 : m - j0 + 1], reversed(run)))
            pending[m] = 0
            fm, rem = divmod(-total, m)
            if rem:
                raise AssertionError("%d does not divide the q^%d sum of %s" % (m, m * s + leading, fs.display))
            run.append(fm)
        f += run
        if j1 > n:
            break
        width = (max(map(abs, run)).bit_length() + b_bits + block.bit_length() + 2 + 7) // 8
        slots = n - j0 + 1  # b_0 .. b_(n-j0) reach every later m
        size = width * slots
        # widen b's narrow slots to this block's width, one byte column at a
        # time, into one signed integer: the negative part, then the positive
        # part less it.  Each full-length temporary is let go before the next
        # one is made
        wide, out = 0, bytearray(size)
        for part in (b_neg, b_pos):
            for j in range(narrow):
                out[j::width] = part[j : slots * narrow : narrow]
            wide = int.from_bytes(out, "little") - wide
        del out
        run_pos, run_neg = _slots(run, width)
        product = (int.from_bytes(run_pos, "little") - int.from_bytes(run_neg, "little")) * wide
        del wide
        # adding half a slot to every slot makes each one non-negative, so no
        # slot borrows from the next; the mask drops the slots above n
        half = 1 << (8 * width - 1)
        product += int.from_bytes(half.to_bytes(width, "little") * slots, "little")
        terms = (product & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        del product
        for t in range(j1 - j0, slots):
            pending[j0 + t] += int.from_bytes(terms[t * width : (t + 1) * width], "little") - half
        del terms
    if s > 1:
        f, spread = [0] * (top + 1), f
        f[::s] = spread
    return IntegerPowerSeries(leading, tuple(f))


def _slots(values: list[int], width: int) -> tuple[bytes, bytes]:
    """The positive and the negative parts of values, width little-endian bytes each."""
    pos = b"".join((v if v > 0 else 0).to_bytes(width, "little") for v in values)
    neg = b"".join((-v if v < 0 else 0).to_bytes(width, "little") for v in values)
    return pos, neg


def numeric_invariance_check(fs: FrameShape, desc: "GroupDescriptor") -> bool:
    """Invariance of the eta quotient under the group, in integers: Ligozat's criterion
    on its level group, the level-n*h group, and the eta multiplier on its generators
    over it.  An undecided generator gives False: not shown invariant, not a proof."""
    from .doubling import invariant_under, invariant_under_gamma0
    from .groupsys import quotient_generators

    return invariant_under_gamma0(fs, desc.n * desc.h) and all(
        invariant_under(fs, g) for g in quotient_generators(desc)
    )
