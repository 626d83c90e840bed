"""The benchmark's own tests; they start no plattice process.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    Oracles,
    check_classify,
    check_cusps,
    check_eta,
    euler_transform,
    level_index,
    parse_series,
    prime_factors,
)
from run import tail_latency, tail_rank  # noqa: E402
from workloads import NINE_GROUPS, WORKLOADS, Op, ops_for  # noqa: E402


def series_text(leading: int, coeffs: list[int]) -> str:
    """The program's print format for a Laurent series."""
    chunks = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        e, a = leading + i, abs(c)
        if e == 0:
            term = "%d" % a
        elif e == 1:
            term = "%d q" % a if a != 1 else "q"
        else:
            term = "%d q^%d" % (a, e) if a != 1 else "q^%d" % e
        if not chunks:
            chunks.append(term if c > 0 else "-" + term)
        else:
            chunks.append(("+ " if c > 0 else "- ") + term)
    return " ".join(chunks) + "\n"


CLASSIFY_ROWS = [("1", 1, 1), ("2+", 3, 2), ("3+", 4, 2), ("4+", 6, 2), ("5+", 6, 2),
                 ("6+", 12, 4), ("3|3", 12, 4), ("4|2+", 12, 4), ("2", 3, 1)]


def classify_text(rows) -> str:
    lines = ["%-6s levels=%d width_one=True exponent_two=True index=%d over=%d"
             % (name, index, index, over) for name, index, over in rows]
    return "\n".join(lines + ["total: %d" % len(rows)]) + "\n"


class StreamTests(unittest.TestCase):
    def test_seed_gives_same_argvs(self):
        for workload in WORKLOADS:
            first = [op.argv for op in ops_for(workload, 7)]
            again = [op.argv for op in ops_for(workload, 7)]
            other = [op.argv for op in ops_for(workload, 8)]
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)

    def test_random_shapes_have_degree_24(self):
        for op in ops_for("eta-series", 3, 120):
            self.assertEqual(sum(a * e for a, e in op.params["parts"]), 24)


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.oracles = Oracles({})

    def test_oracle_matches_known_expansion(self):
        # (eta(t) / eta(2t))**24 = 1/q - 24 + 276 q - 2048 q^2 + 11202 q^3 - ...
        self.assertEqual(euler_transform([(1, 24)], 5), [1, -24, 276, -2048, 11202])

    def test_eta_rejects_one_flipped_coefficient(self):
        op = Op("eta", ["eta", "3^8", "--order", "30"], {"parts": [(3, 8)], "order": 30})
        coeffs = euler_transform([(3, 8)], 32)
        self.assertIsNone(check_eta(self.oracles, op, series_text(-1, coeffs)))
        self.assertEqual(parse_series(series_text(-1, coeffs).strip())[-1], 1)
        flipped = list(coeffs)
        flipped[17] += 1
        self.assertIsNotNone(check_eta(self.oracles, op, series_text(-1, flipped)))
        # 3^8 has terms only at q^(3k-1); the one at q^29 is the last printed
        self.assertIsNotNone(check_eta(self.oracles, op, series_text(-1, coeffs[:30])))

    def test_classify_rejects_missing_group(self):
        params = {"index_bound": 12, "ratio_bound": 3, "relax_width": False, "json": False}
        op = Op("classify", ["classify"], params)
        self.assertIsNone(check_classify(self.oracles, op, classify_text(CLASSIFY_ROWS)))
        self.assertIn("missing", check_classify(self.oracles, op, classify_text(CLASSIFY_ROWS[1:])))
        over_bound = CLASSIFY_ROWS + [("7+", 16, 8)]
        self.assertIn("over bound", check_classify(self.oracles, op, classify_text(over_bound)))
        self.assertSetEqual({r[0] for r in CLASSIFY_ROWS}, set(NINE_GROUPS))

    def test_cusps_rejects_wrong_width(self):
        op = Op("cusps", ["cusps", "6", "--format", "text"], {"n": 6})
        good = "representative\twidth\n1,0\t1\n1/2,0\t3\n2,0\t2\n6,0\t6\ncusps: 4  total width: 12\n"
        self.assertIsNone(check_cusps(self.oracles, op, good))
        wrong = good.replace("6,0\t6", "6,0\t5").replace("width: 12", "width: 11")
        self.assertIsNotNone(check_cusps(self.oracles, op, wrong))
        inconsistent = good.replace("6,0\t6", "6,0\t5")
        self.assertIsNotNone(check_cusps(self.oracles, op, inconsistent))

    def test_integer_oracles(self):
        self.assertEqual(level_index(8), 12)
        self.assertEqual(level_index(5040), 5040 * 3 * 4 * 6 * 8 // (2 * 3 * 5 * 7))
        self.assertEqual(prime_factors(99999999999973 * 3), {3: 1, 99999999999973: 1})


class TailTests(unittest.TestCase):
    def test_tail_rank_at_small_counts(self):
        self.assertIsNone(tail_rank(1))
        self.assertIsNone(tail_rank(10))
        self.assertEqual(tail_rank(11), 0)
        self.assertEqual(tail_rank(12), 1)
        self.assertEqual(tail_rank(100), 89)

    def test_tail_has_ten_samples_beyond(self):
        for n in range(11, 60):
            values = [float(i) for i in range(n)]
            tail, label = tail_latency(values)
            self.assertEqual(sum(1 for v in values if v > tail), 10)
            self.assertIn("of %d ops" % n, label)

    def test_too_few_samples_report_the_maximum(self):
        tail, label = tail_latency([3.0, 1.0, 2.0])
        self.assertEqual(tail, 3.0)
        self.assertIn("too few", label)


if __name__ == "__main__":
    unittest.main()
