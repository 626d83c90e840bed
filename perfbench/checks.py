"""Output checkers: each op's stdout against an oracle that shares no code
with the program.

A checker takes the op and the decoded stdout and returns ``None`` when
the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from operator import mul

from workloads import CATALOG_SHAPES, ETA_ORDERS, NINE_GROUPS, Op, canonical_fixed, parse_shape

# The catalog shapes recur in every block, so their series are computed once
# to the highest order the stream draws; random shapes only to the order asked.
CATALOG_PARTS = {tuple(parse_shape(text)) for text in CATALOG_SHAPES}


class Oracles:
    """Per-run state of the checkers: the digest table and series caches."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self._series: dict[tuple, list[int]] = {}

    def unit_series(self, parts, length: int) -> list[int]:
        key = tuple(map(tuple, parts))
        if key not in CATALOG_PARTS:
            return euler_transform(parts, length)
        cached = self._series.get(key)
        if cached is None or len(cached) < length:
            cached = euler_transform(parts, max(length, ETA_ORDERS[1] + 2))
            self._series[key] = cached
        return cached[:length]

    def check(self, op: Op, stdout: str) -> str | None:
        try:
            return CHECKERS[op.kind](self, op, stdout)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return "unparseable output (%s: %s)" % (type(exc).__name__, exc)


def digest_key(argv: list[str]) -> str:
    return " ".join(canonical_fixed(argv))


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


# names and hyperdistance --------------------------------------------------------


def parse_name(text: str) -> tuple[Fraction, Fraction]:
    m, b = text.strip().split(",")
    m, b = Fraction(m), Fraction(b)
    if m <= 0 or not 0 <= b < 1:
        raise ValueError("%r is not a canonical name" % text)
    return m, b


def primitive(entries) -> list[int]:
    """The primitive integral multiple (content 1) of a rational 2x2 matrix."""
    entries = [Fraction(x) for x in entries]
    lcm = 1
    for x in entries:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in entries]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def hyperdistance(x, y) -> int:
    """Determinant of the primitive form of Y adj(X), X and Y the name matrices."""
    (m1, b1), (m2, b2) = x, y
    a, b, c, d = primitive((m2, b2 * m1 - m2 * b1, 0, m1))
    return abs(a * d - b * c)


# integer oracles ------------------------------------------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:  # deterministic below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def prime_factors(n: int) -> dict[int, int]:
    """Factorization by Miller-Rabin and Pollard's rho."""
    out: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m)
        stack += [d, m // d]
    return out


def level_index(n: int) -> int:
    """n times the product of (1 + 1/p) over the primes dividing n."""
    out = n
    for p in prime_factors(n):
        out = out // p * (p + 1)
    return out


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for e in prime_factors(n).values())


def cusp_count(n: int) -> int:
    """Sum over d | n of phi(gcd(d, n/d))."""
    def phi(m):
        return math.prod((p - 1) * p ** (e - 1) for p, e in prime_factors(m).items())

    return sum(phi(math.gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)


# eta quotients --------------------------------------------------------------------


def euler_transform(parts, length: int) -> list[int]:
    """First ``length`` coefficients of prod over parts (a, alpha) of
    (E(a) / E(2a))**alpha, with E(k) the product of (1 - q**(k m)), m >= 1.

    Writing the product as prod_k (1 - q**k)**e_k, the logarithmic
    derivative gives n f_n = -sum_{j<=n} b_j f_{n-j} with
    b_j = sum_{k | j} k e_k; the division by n is exact.
    """
    c = [0] * length
    for a, alpha in parts:
        for base, sign in ((a, 1), (2 * a, -1)):
            if base < length:
                c[base] += sign * alpha
    e = [0] * length
    for d in range(1, length):
        if c[d]:
            for k in range(d, length, d):
                e[k] += c[d]
    b = [0] * length
    for k in range(1, length):
        if e[k]:
            for j in range(k, length, k):
                b[j] += k * e[k]
    f = [1] + [0] * (length - 1)
    for n in range(1, length):
        total = sum(map(mul, b[1 : n + 1], reversed(f[:n])))
        if total % n:
            raise ArithmeticError("inexact Euler-transform step at %d" % n)
        f[n] = -total // n
    return f


def parse_series(text: str) -> dict[int, int]:
    """Exponent -> coefficient from the program's printed Laurent series."""
    toks = text.split()
    out: dict[int, int] = {}
    i = 0
    while i < len(toks):
        sign, tok = 1, toks[i]
        if i:
            if tok not in ("+", "-"):
                raise ValueError("expected a sign at %r" % tok)
            sign = -1 if tok == "-" else 1
            i += 1
            tok = toks[i]
        elif tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff, exp = 1, 0
        if tok[0].isdigit():
            coeff = int(tok)
            i += 1
            tok = toks[i] if i < len(toks) and toks[i].startswith("q") else ""
            if not tok:
                out[0] = sign * coeff
                continue
        if tok == "q":
            exp = 1
        elif tok.startswith("q^"):
            exp = int(tok[2:])
        else:
            raise ValueError("bad term %r" % tok)
        i += 1
        if exp in out:
            raise ValueError("exponent %d printed twice" % exp)
        out[exp] = sign * coeff
    return out


def check_eta(oracles: Oracles, op: Op, stdout: str) -> str | None:
    parts, order = op.params["parts"], op.params["order"]
    degree = sum(a * alpha for a, alpha in parts)
    leading = -degree // 24
    want = oracles.unit_series(parts, order - leading + 1)
    got = parse_series(stdout.strip())
    for exp in got:
        if not leading <= exp <= order:
            return "term q^%d outside [%d, %d]" % (exp, leading, order)
    for i, coeff in enumerate(want):
        if got.get(leading + i, 0) != coeff:
            return "coefficient of q^%d is %d, oracle gives %d" % (
                leading + i, got.get(leading + i, 0), coeff)
    return None


# classify -------------------------------------------------------------------------

CLASSIFY_LINE = re.compile(
    r"^(\S+)\s+levels=([\d,]+) width_one=(True|False) exponent_two=(True|False)"
    r" index=(\d+) over=(\d+)$"
)


def classify_rows(stdout: str, as_json: bool) -> list[tuple[str, bool, bool, int, int]]:
    if as_json:
        rows = []
        for entry in json.loads(stdout):
            cond = entry["conditions"]
            if not cond["index_ok"]:
                raise ValueError("%s reported with index_ok false" % entry["group"]["display"])
            rows.append((entry["group"]["display"], cond["width_one"], cond["exponent_two"],
                         cond["index_in_modular"], cond["index_over_modular"]))
        return rows
    lines = stdout.rstrip("\n").split("\n")
    total = re.fullmatch(r"total: (\d+)", lines[-1])
    if not total:
        raise ValueError("missing total line")
    rows = []
    for line in lines[:-1]:
        m = CLASSIFY_LINE.match(line)
        if not m:
            raise ValueError("bad line %r" % line)
        rows.append((m[1], m[3] == "True", m[4] == "True", int(m[5]), int(m[6])))
    if int(total[1]) != len(rows):
        raise ValueError("total %s but %d lines" % (total[1], len(rows)))
    return rows


def check_classify(oracles: Oracles, op: Op, stdout: str) -> str | None:
    p = op.params
    rows = classify_rows(stdout, p["json"])
    names = [r[0] for r in rows]
    if len(set(names)) != len(names):
        return "a group is listed twice"
    for name, width_one, exponent_two, index, over in rows:
        if not (width_one or p["relax_width"]):
            return "%s fails width one" % name
        if not exponent_two:
            return "%s fails exponent two" % name
        if index > p["index_bound"]:
            return "%s has index %d over bound %d" % (name, index, p["index_bound"])
        if index > p["ratio_bound"] * over:
            return "%s has index %d over %d x %d" % (name, index, p["ratio_bound"], over)
    if p["index_bound"] >= 12 and p["ratio_bound"] >= 3:
        missing = [g for g in NINE_GROUPS if g not in names]
        if missing:
            return "missing groups %s" % ", ".join(missing)
    return None


# calculus-mix ---------------------------------------------------------------------


def _fmt(op: Op) -> str:
    argv = op.argv
    if "--json" in argv:
        return "json"
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def _name_list(op: Op, stdout: str) -> list[str]:
    if _fmt(op) == "json":
        return json.loads(stdout)["members"]
    return stdout.split("\n")[:-1] if stdout.endswith("\n") else stdout.split("\n")


def check_reduce(oracles: Oracles, op: Op, stdout: str) -> str | None:
    m, b = parse_name(stdout)
    s = op.params["matrix"].strip()[2:-2].replace("],[", ",")
    ga, gb, gc, gd = (Fraction(x) for x in s.split(","))
    # same coset of the modular group iff g * adj(name matrix) is, up to
    # scaling, an integral matrix of determinant one
    a, bb, c, d = primitive((ga, -ga * b + gb * m, gc, -gc * b + gd * m))
    if a * d - bb * c != 1:
        return "%s is not in the coset of %s" % (stdout.strip(), op.params["matrix"])
    return None


def check_hyperdistance(oracles: Oracles, op: Op, stdout: str) -> str | None:
    want = hyperdistance(parse_name(op.params["left"]), parse_name(op.params["right"]))
    return None if int(stdout) == want else "got %s, oracle gives %d" % (stdout.strip(), want)


def check_hypercircle(oracles: Oracles, op: Op, stdout: str) -> str | None:
    center, radius = parse_name(op.params["center"]), op.params["radius"]
    if _fmt(op) == "dot":
        members = re.findall(r'^  n\d+ \[label="([^"]+)"\];$', stdout, re.M)
    else:
        members = _name_list(op, stdout)
    want = level_index(radius)
    if len(members) != want or len(set(members)) != want:
        return "%d members (%d distinct), index is %d" % (len(members), len(set(members)), want)
    for text in members:
        dist = hyperdistance(center, parse_name(text))
        if dist != radius:
            return "%s is at hyperdistance %d, not %d" % (text, dist, radius)
    return None


def check_thread(oracles: Oracles, op: Op, stdout: str) -> str | None:
    left, right = parse_name(op.params["left"]), parse_name(op.params["right"])
    total = op.params["distance"]
    members = [parse_name(x) for x in _name_list(op, stdout)]
    want = divisor_count(total)
    if len(members) != want or len(set(members)) != want:
        return "%d members, the distance %d has %d divisors" % (len(members), total, want)
    if left not in members or right not in members:
        return "an endpoint is missing"
    for x in members:
        if hyperdistance(left, x) * hyperdistance(x, right) != total:
            return "%s,%s is not between the endpoints" % x
    return None


def check_cell(oracles: Oracles, op: Op, stdout: str) -> str | None:
    got = json.loads(stdout)["cell"] if _fmt(op) == "json" else {"true": True, "false": False}[stdout.strip()]
    names = [parse_name(x) for x in op.params["names"]]
    # two names project to a point or an edge in the p-tree exactly when
    # p**2 does not divide their hyperdistance
    want = len(names) == 1 or all(e == 1 for e in prime_factors(hyperdistance(*names)).values())
    return None if got == want else "got %s, expected %s" % (got, want)


def check_project(oracles: Oracles, op: Op, stdout: str) -> str | None:
    p = op.params["prime"]
    proj, name = parse_name(stdout), parse_name(op.params["name"])
    from_l1 = hyperdistance((Fraction(1), Fraction(0)), proj)
    if set(prime_factors(from_l1)) - {p}:
        return "%s is off the %d-adic tree" % (stdout.strip(), p)
    if hyperdistance(proj, name) % p == 0:
        return "%s is not %d-adically equivalent" % (stdout.strip(), p)
    return None


def check_index(oracles: Oracles, op: Op, stdout: str) -> str | None:
    want = level_index(op.params["n"])
    return None if int(stdout) == want else "got %s, formula gives %d" % (stdout.strip(), want)


def check_cusps(oracles: Oracles, op: Op, stdout: str) -> str | None:
    n = op.params["n"]
    if _fmt(op) == "json":
        widths = [Fraction(c["width"]) for c in json.loads(stdout)["cusps"]]
    else:
        lines = stdout.rstrip("\n").split("\n")
        if lines[0] != "representative\twidth":
            return "missing header"
        widths = [Fraction(line.split("\t")[1]) for line in lines[1:-1]]
        m = re.fullmatch(r"cusps: (\d+)  total width: (\S+)", lines[-1])
        if not m or int(m[1]) != len(widths) or Fraction(m[2]) != sum(widths):
            return "summary line disagrees with the table"
    if sum(widths) != level_index(n):
        return "widths sum to %s, index is %d" % (sum(widths), level_index(n))
    if len(widths) != cusp_count(n):
        return "%d cusps, formula gives %d" % (len(widths), cusp_count(n))
    return None


def check_fixed(oracles: Oracles, op: Op, stdout: str) -> str | None:
    want = oracles.digests.get(digest_key(op.argv))
    if want is None:
        return "no recorded digest for %s" % digest_key(op.argv)
    return None if stdout_digest(stdout) == want else "stdout differs from the recorded digest"


CHECKERS = {
    "classify": check_classify,
    "eta": check_eta,
    "reduce": check_reduce,
    "hyperdistance": check_hyperdistance,
    "hypercircle": check_hypercircle,
    "thread": check_thread,
    "cell": check_cell,
    "project": check_project,
    "index": check_index,
    "cusps": check_cusps,
    "fixed": check_fixed,
}
