"""Seeded op streams for the benchmark's three workloads.

Each op is the argv of one cold ``python -m plattice.cli`` process plus
what its checker needs.  Inputs come from a ``random.Random`` seeded with
the workload name and the seed, never from program code, so a seed gives the same ops at every commit.

Streams come in blocks, and a run counts whole blocks only.  Every block
holds the same mix of cheap and costly ops; the seed chooses parameters
within strata of their ranges and the order of ops inside the block.  So
the counted ops of a run cost about the same for every seed, which keeps
per-run figures steady.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("classify-sweep", "eta-series", "calculus-mix")

# Ops per stream: far more than any run of at most a minute completes.
STREAM_LENGTH = 600

# Nominal wall time of one block, checking time included, at the seed commit
# on a 2-vCPU Xeon host.  A plain run measures round(seconds / BLOCK_SECONDS)
# whole blocks, so the counted work, and with it the rank the tail rule
# picks, is the same in every run.
BLOCK_SECONDS = {"classify-sweep": 17.5, "eta-series": 11.0, "calculus-mix": 4.0}

FORMATS = ("text", "json", "dot")

# The nine groups the classification must find, in display form, and the
# Frame shapes the catalog attaches to them, in the same order.
NINE_GROUPS = ("1", "2+", "3+", "4+", "5+", "6+", "3|3", "4|2+", "2")
CATALOG_SHAPES = (
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

# Descriptor names for `groups` and `level`; the nine plus a few neighbours.
GROUP_NAMES = NINE_GROUPS + ("6", "6+2", "6+3", "10+", "12+", "6|3", "8|2+", "9+")
MEMBER_MATRICES = ("[[1,0],[6,1]]", "[[1,1],[0,1]]", "[[0,-1],[2,0]]", "[[3,1],[6,3]]")
SUPER_FLAGS = (("--frame-shapes",), ("--check-invariance",), ("--series", "10"), ("--series", "20"))

# classify: one wide-regime op opens every block of this many ops.  Two
# blocks make ten ops, so the tail rule reports the slower wide op.
CLASSIFY_BLOCK = 5
DEFAULT_INDEX_BOUNDS = (12, 23)  # level-144 quotient not reached
WIDE_INDEX_BOUNDS = (24, 40)  # level-144 quotient (order 288) built
# Ratio bounds 6 to 8 exit 1 at the seed commit (naming gap for the
# level-9 quotient), so they are left out of the measured stream.
RATIO_BOUNDS = (3, 4, 5)

ETA_ORDERS = (50, 2000)
ETA_BLOCK = 12  # nine catalog shapes and three random shapes per block
# Share of its log-order stratum an order may move from the stratum's
# centre.  Cost grows as the square of the order, so wider draws make the
# few costly ops of a run, and with them its tail, differ from seed to seed.
ETA_JITTER = 0.3
ETA_TOP_STRATA = 4

HYPERCIRCLE_MAX = 5000
DOT_RADIUS_MAX = 60  # DOT output joins every pair of members
THREAD_MAX = 5000
CUSPS_MAX = 5000
INDEX_MAX = 10**14
SIZE_STRATA = 8
# Share of its stratum a size may move from the stratum's centre; the
# largest sizes of a run set its peak memory and its tail.
SIZE_JITTER = 0.3


@dataclass
class Op:
    """One cold process: its CLI argv and the facts its checker needs."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    block: int = 0


def ops_for(workload: str, seed: int, count: int = STREAM_LENGTH) -> list[Op]:
    """Whole blocks of the workload's stream, at least ``count`` ops."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    blocks = {"classify-sweep": _classify_sweep, "eta-series": _eta_series,
              "calculus-mix": _calculus_mix}[workload](rng)
    ops: list[Op] = []
    for index, block in enumerate(blocks):
        for op in block:
            op.block = index
        ops.extend(block)
        if len(ops) >= count:
            return ops


def blocks_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _strata(rng: random.Random, k: int) -> list[float]:
    """k draws from [0, 1), one in each of k equal strata, in seeded order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(i + rng.random()) / k for i in order]


def _centred_strata(rng: random.Random, k: int, jitter: float) -> list[float]:
    """k draws near the centres of k equal strata of [0, 1), in seeded order."""
    return [(i + 0.5 + jitter * (rng.random() - 0.5)) / k for i in _shuffled(rng, range(k))]


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _format_args(rng: random.Random) -> list[str]:
    fmt = rng.choice(FORMATS)
    if fmt == "json" and rng.random() < 0.5:
        return ["--json"]
    return ["--format", fmt]


# classify-sweep ---------------------------------------------------------------


def _classify_sweep(rng: random.Random):
    while True:
        # one wide op, then default ops with bounds spread over their range;
        # every ratio bound and both values of each flag in every block
        lo, hi = DEFAULT_INDEX_BOUNDS
        bounds = [rng.randint(*WIDE_INDEX_BOUNDS)]
        bounds += [lo + int(u * (hi - lo + 1)) for u in _strata(rng, CLASSIFY_BLOCK - 1)]
        extra = CLASSIFY_BLOCK - len(RATIO_BOUNDS)
        ratios = _shuffled(rng, list(RATIO_BOUNDS) + [rng.choice(RATIO_BOUNDS) for _ in range(extra)])
        relaxes = _shuffled(rng, [i % 2 == 0 for i in range(CLASSIFY_BLOCK - 1)] + [rng.random() < 0.5])
        jsons = _shuffled(rng, [i % 2 == 0 for i in range(CLASSIFY_BLOCK - 1)] + [rng.random() < 0.5])
        yield [_classify_op(bound, ratio, relax, as_json, "wide" if i == 0 else "default")
               for i, (bound, ratio, relax, as_json)
               in enumerate(zip(bounds, ratios, relaxes, jsons))]


def _classify_op(bound: int, ratio: int, relax: bool, as_json: bool, regime: str) -> Op:
    argv = ["classify", "--index-bound", str(bound), "--ratio-bound", str(ratio)]
    if relax:
        argv.append("--relax-width")
    if as_json:
        argv.append("--json")
    params = {"index_bound": bound, "ratio_bound": ratio, "relax_width": relax,
              "json": as_json, "regime": regime}
    return Op("classify", argv, params)


# eta-series -------------------------------------------------------------------


def random_frame_shape(rng: random.Random) -> list[tuple[int, int]]:
    """Two parts with bases up to 12, exponents up to 12 in size, and
    degree sum(a * alpha) == 24, like most catalog shapes."""
    while True:
        a, b = rng.sample(range(1, 13), 2)
        alpha = rng.choice([e for e in range(-12, 13) if e])
        rest = 24 - a * alpha
        if rest and rest % b == 0 and abs(rest // b) <= 12:
            return sorted([(a, alpha), (b, rest // b)])


def shape_text(parts) -> str:
    num = " ".join("%d^%d" % (a, e) for a, e in parts if e > 0)
    den = " ".join("%d^%d" % (a, -e) for a, e in parts if e < 0)
    return "%s / %s" % (num, den) if den else num


def parse_shape(text: str) -> list[tuple[int, int]]:
    num, _, den = text.partition("/")
    out: dict[int, int] = {}
    for chunk, sign in ((num, 1), (den, -1)):
        for token in chunk.split():
            base, _, exp = token.partition("^")
            out[int(base)] = out.get(int(base), 0) + sign * (int(exp) if exp else 1)
    return sorted((a, e) for a, e in out.items() if e)


def eta_block_plan(block: int) -> list[tuple[int, int]]:
    """(shape slot, order stratum) pairs of one block; the same for every seed.

    Slots 0-8 are the catalog shapes, 9-11 random shapes.  The random
    shapes take the lowest strata, where start-up sets the cost, so their
    drawn exponents never set a run's median or tail.  The top
    ETA_TOP_STRATA strata go to catalog shapes in rotation and the other
    catalog shapes rotate over the middle strata: which shape meets which
    order varies from block to block but not from seed to seed.
    """
    n_catalog, n_random = len(CATALOG_SHAPES), ETA_BLOCK - len(CATALOG_SHAPES)
    top = [(block * ETA_TOP_STRATA + j) % n_catalog for j in range(ETA_TOP_STRATA)]
    middle = [i for i in range(n_catalog) if i not in top]
    high = ETA_BLOCK - ETA_TOP_STRATA
    plan = [(slot, high + j) for j, slot in enumerate(top)]
    plan += [(slot, n_random + (2 * k + block) % len(middle)) for k, slot in enumerate(middle)]
    plan += [(n_catalog + k, (k + block) % n_random) for k in range(n_random)]
    return plan


def _eta_series(rng: random.Random):
    lo, hi = ETA_ORDERS
    block = 0
    while True:
        plan = eta_block_plan(block)
        block += 1
        ops = []
        for index, stratum in _shuffled(rng, plan):
            u = (stratum + 0.5 + ETA_JITTER * (rng.random() - 0.5)) / ETA_BLOCK
            order = _log_uniform(lo, hi, u)
            if index < len(CATALOG_SHAPES):
                parts = parse_shape(CATALOG_SHAPES[index])
                arg = NINE_GROUPS[index] if rng.random() < 0.5 else CATALOG_SHAPES[index]
            else:
                parts = random_frame_shape(rng)
                arg = shape_text(parts)
            argv = ["eta", arg, "--order", str(order)]
            ops.append(Op("eta", argv, {"parts": parts, "order": order}))
        yield ops


# calculus-mix -----------------------------------------------------------------


def _random_name(rng: random.Random, max_den: int = 12, max_num: int = 40) -> tuple[str, str]:
    """A lattice name (M, b) as two rational literals, 0 <= b < 1."""
    m_den = rng.randint(1, max_den)
    m = "%d/%d" % (rng.randint(1, max_num), m_den) if m_den > 1 else str(rng.randint(1, max_num))
    b_den = rng.randint(1, max_den)
    b = "%d/%d" % (rng.randrange(b_den), b_den) if b_den > 1 else "0"
    return m, b


def _name_at_distance(rng: random.Random, n: int) -> str:
    """A name at hyperdistance n from 1,0: upper Hermite form a*d == n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    while True:
        d = rng.choice(divisors)
        a = n // d
        b = rng.randrange(d)
        if math.gcd(math.gcd(a, b), d) == 1:
            return "%d/%d,%d/%d" % (a, d, b, d)


def _random_matrix(rng: random.Random) -> str:
    """A matrix literal of positive determinant, sometimes with one p/q entry."""
    while True:
        entries = [Fraction(rng.randint(-30, 30)) for _ in range(4)]
        if rng.random() < 0.3:
            entries[rng.randrange(4)] /= rng.randint(2, 6)
        a, b, c, d = entries
        if a * d - b * c > 0:
            return "[[%s,%s],[%s,%s]]" % tuple(entries)


def _calc_op(kind: str, rng: random.Random, u: float) -> Op:
    """One op of ``kind``; ``u`` in [0, 1) places its size in its range."""
    fmt = _format_args(rng)
    if kind == "reduce":
        matrix = _random_matrix(rng)
        return Op("reduce", ["reduce", matrix] + fmt, {"matrix": matrix})
    if kind == "hyperdistance":
        left, right = ",".join(_random_name(rng)), ",".join(_random_name(rng))
        return Op("hyperdistance", ["hyperdistance", left, right] + fmt,
                  {"left": left, "right": right})
    if kind in ("hypercircle", "hypercircle-dot"):
        dot = kind == "hypercircle-dot"
        if dot:
            fmt = ["--format", "dot"]
        elif fmt == ["--format", "dot"]:
            fmt = ["--format", "text"]
        radius = _log_uniform(1, DOT_RADIUS_MAX if dot else HYPERCIRCLE_MAX, u)
        center = ",".join(_random_name(rng, 6, 12))
        return Op("hypercircle", ["hypercircle", center, str(radius)] + fmt,
                  {"center": center, "radius": radius})
    if kind == "thread":
        n = _log_uniform(1, THREAD_MAX, u)
        right = _name_at_distance(rng, n)
        return Op("thread", ["thread", "1,0", right] + fmt,
                  {"left": "1,0", "right": right, "distance": n})
    if kind == "cell":
        names = [",".join(_random_name(rng, 6, 12)) for _ in range(rng.choice((1, 2, 2, 2)))]
        return Op("cell", ["cell"] + names + fmt, {"names": names})
    if kind == "project":
        name = ",".join(_random_name(rng))
        prime = rng.choice((2, 3, 5, 7, 11, 13))
        return Op("project", ["project", name, str(prime)] + fmt, {"name": name, "prime": prime})
    if kind == "index":
        n = _log_uniform(1, INDEX_MAX, u)
        return Op("index", ["index", str(n)] + fmt, {"n": n})
    if kind == "cusps":
        n = _log_uniform(1, CUSPS_MAX, u)
        return Op("cusps", ["cusps", str(n)] + fmt, {"n": n})
    if kind == "groups":
        name = rng.choice(GROUP_NAMES)
        return Op("fixed", ["groups", name] + fmt)
    if kind == "groups-member":
        name = rng.choice(GROUP_NAMES)
        return Op("fixed", ["groups", name, "--member", rng.choice(MEMBER_MATRICES)] + fmt)
    if kind == "level":
        return Op("fixed", ["level", rng.choice(GROUP_NAMES)] + fmt)
    if kind == "diagram":
        return Op("fixed", ["diagram"] + fmt)
    if kind == "super":
        return Op("fixed", ["super"] + list(rng.choice(SUPER_FLAGS)) + fmt)
    raise ValueError(kind)


CALCULUS_KINDS = (
    "reduce", "hyperdistance", "hypercircle", "hypercircle-dot", "thread", "cell", "project", "index",
    "cusps", "groups", "groups-member", "level", "diagram", "super",
)


def _calculus_mix(rng: random.Random):
    # each block holds every kind once; each kind's size parameter meets
    # every one of SIZE_STRATA strata once per SIZE_STRATA blocks
    sizes: dict[str, list[float]] = {kind: [] for kind in CALCULUS_KINDS}
    while True:
        ops = []
        for kind in _shuffled(rng, CALCULUS_KINDS):
            if not sizes[kind]:
                sizes[kind] = _centred_strata(rng, SIZE_STRATA, SIZE_JITTER)
            ops.append(_calc_op(kind, rng, sizes[kind].pop()))
        yield ops


def fixed_argvs() -> list[list[str]]:
    """Every argv the `fixed` ops can draw; their stdout digests are recorded."""
    out = []
    for fmt in (["--format", f] for f in FORMATS):
        for name in GROUP_NAMES:
            out.append(["groups", name] + fmt)
            out.append(["level", name] + fmt)
            for matrix in MEMBER_MATRICES:
                out.append(["groups", name, "--member", matrix] + fmt)
        out.append(["diagram"] + fmt)
        for flags in SUPER_FLAGS:
            out.append(["super"] + list(flags) + fmt)
    return out


def canonical_fixed(argv: list[str]) -> list[str]:
    """``--json`` prints exactly what ``--format json`` prints."""
    return [x for x in argv if x != "--json"] + (["--format", "json"] if "--json" in argv else [])
