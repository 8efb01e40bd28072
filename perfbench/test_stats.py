"""Tests for the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_nominal_kept_with_ten_beyond(self):
        # 1000 samples: p99 leaves exactly ten beyond.
        self.assertEqual(stats.beyond(1000, 0.99), 10)
        self.assertEqual(stats.supported_percentile(1000, 0.99), 0.99)

    def test_lowered_until_ten_beyond(self):
        # 999 samples: p99 leaves nine beyond, so the rule steps down.
        self.assertEqual(stats.beyond(999, 0.99), 9)
        q = stats.supported_percentile(999, 0.99)
        self.assertLess(q, 0.99)
        self.assertGreaterEqual(stats.beyond(999, q), 10)
        self.assertLess(stats.beyond(999, round(q + 0.001, 3)), 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.supported_percentile(15, 0.99))
        self.assertIsNone(stats.supported_percentile(0, 0.9))
        self.assertEqual(stats.tail([1.0] * 12, 0.99), (None, None))

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        q, v = stats.tail(values, 0.9)
        self.assertEqual((q, v), (0.9, 90))
        self.assertEqual(sum(1 for x in values if x > v), 10)


class LowPercentileRule(unittest.TestCase):
    def test_nominal_kept_with_ten_at_or_below(self):
        values = list(range(1, 101))  # 1..100: p10 has exactly ten at or below
        self.assertEqual(stats.supported_low_percentile(100, 0.1), 0.1)
        self.assertEqual(stats.low(values, 0.1), (0.1, 10))

    def test_raised_until_ten_at_or_below(self):
        # 40 samples: p10 would rest on four, so the rule moves up to p25.
        q = stats.supported_low_percentile(40, 0.1)
        self.assertEqual(q, 0.25)
        self.assertEqual(stats.low(list(range(1, 41)), 0.1), (0.25, 10))
        # 99 samples: ten at or below needs q >= 10/99, rounded up to 0.102.
        q = stats.supported_low_percentile(99, 0.1)
        self.assertEqual(q, 0.102)
        self.assertGreaterEqual(math.ceil(q * 99), 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.supported_low_percentile(19, 0.1))
        self.assertIsNone(stats.supported_low_percentile(0, 0.1))
        self.assertEqual(stats.low([1.0] * 12, 0.1), (None, None))

    def test_slow_spell_moves_the_median_not_the_low_percentile(self):
        fast = [10.0 + 0.01 * i for i in range(100)]
        quiet = fast + fast
        busy = fast + [16.0 + 0.01 * i for i in range(100)] + [16.0] * 20
        self.assertGreater(statistics.median(busy), 15.0)
        self.assertLess(statistics.median(quiet), 11.0)
        self.assertLess(abs(stats.low(busy, 0.1)[1] - stats.low(quiet, 0.1)[1]), 0.2)


def readings(steal_per_s, hz=400):
    """One /proc/stat reading every 0.1 s: `hz` jiffies a second in total,
    steal_per_s[k] of them stolen during second k."""
    out, steal, total = [(0.0, 0, 0)], 0, 0
    for k, share in enumerate(steal_per_s):
        for j in range(1, 11):
            steal += share * hz / 10
            total += hz / 10
            out.append((k + j / 10, steal, total))
    return out


class QuietOperations(unittest.TestCase):
    def test_steal_around_brackets_the_window(self):
        r = readings([0.0, 0.0, 0.2, 0.0])
        self.assertEqual(stats.steal_around(r, 0.5), 0.0)
        self.assertAlmostEqual(stats.steal_around(r, 2.5), 0.2)
        self.assertAlmostEqual(stats.steal_around(r, 2.0), 0.1)
        self.assertIsNone(stats.steal_around(r[:1], 0.5))

    def test_stolen_seconds_dropped(self):
        # Ten operations a second for 4 s; second 2 lost 20% to steal and its
        # operations ran slow.
        r = readings([0.0, 0.0, 0.2, 0.0])
        ends = [k / 10 + 0.05 for k in range(40)]
        values = [30.0 if 2.1 <= e <= 2.9 else 10.0 for e in ends]
        quiet = stats.quiet_values(values, ends, r)
        self.assertEqual(set(quiet), {10.0})
        # Operations within half a second of the stolen one go too: 0-1.5 s
        # and 3.5-4 s remain.
        self.assertEqual(len(quiet), 20)

    def test_quietest_share_when_every_second_is_stolen(self):
        r = readings([0.05, 0.30, 0.10, 0.30])
        ends = [k / 10 + 0.05 for k in range(40)]
        values = list(range(40))
        quiet = stats.quiet_values(values, ends, r)
        self.assertEqual(len(quiet), 10)
        self.assertTrue(all(v < 10 for v in quiet[:5]))

    def test_without_readings_every_value_is_kept(self):
        self.assertEqual(stats.quiet_values([3.0, 1.0], [0.1, 0.2], []), [3.0, 1.0])
        self.assertEqual(stats.quiet_values([3.0, 1.0], [], readings([0.5])), [3.0, 1.0])


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0, 12.0, 12.0, 12.0, 12.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class PairWins(unittest.TestCase):
    def test_clear_gain(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [8.0, 8.1, 7.9, 8.2, 8.0, 8.1, 7.8, 8.0, 8.1, 8.0]
        r = stats.pair_wins(parent, change, "lower")
        self.assertEqual(r["wins"], 10)
        self.assertTrue(r["gain"])

    def test_ties_count_for_neither(self):
        parent = [10.0] * 10
        change = [10.0] * 9 + [9.0]
        r = stats.pair_wins(parent, change, "lower")
        self.assertEqual((r["wins"], r["ties"]), (1, 9))
        self.assertFalse(r["gain"])

    def test_nine_of_ten_needed(self):
        parent = [100.0] * 10
        change = [120.0] * 8 + [90.0, 90.0]
        self.assertFalse(stats.pair_wins(parent, change, "higher")["gain"])
        change = [120.0] * 9 + [90.0]
        self.assertTrue(stats.pair_wins(parent, change, "higher")["gain"])

    def test_gap_must_exceed_parent_spread(self):
        # The change wins every pair, but by less than the parent's own spread.
        parent = [10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0]
        change = [p - 0.5 for p in parent]
        r = stats.pair_wins(parent, change, "lower")
        self.assertEqual(r["wins"], 10)
        self.assertFalse(r["gain"])

    def test_rejects_unpaired(self):
        with self.assertRaises(ValueError):
            stats.pair_wins([1.0, 2.0], [1.0], "lower")


def rung(lat_ms, duration_s=4.0, shed=0):
    n = len(lat_ms)
    due = [duration_s * (i + 0.5) / n for i in range(n)]
    return {"lat_ms": lat_ms, "due_s": due, "duration_s": duration_s,
            "scheduled": n + shed, "ok": n, "sent": n + shed}


class Backlog(unittest.TestCase):
    def test_steady_rung(self):
        lat = [5.0 + (i % 7) * 0.3 for i in range(400)]
        r = rung(lat)
        self.assertFalse(stats.backlog_growing(r["due_s"], r["lat_ms"], r["duration_s"]))

    def test_growing_queue(self):
        # Each request waits 0.5 ms longer than the one before: a queue that
        # never drains.
        lat = [5.0 + 0.5 * i for i in range(400)]
        r = rung(lat)
        self.assertTrue(stats.backlog_growing(r["due_s"], r["lat_ms"], r["duration_s"]))

    def test_one_burst_is_not_a_backlog(self):
        lat = [5.0] * 400
        for i in range(100, 120):
            lat[i] = 80.0
        r = rung(lat)
        self.assertFalse(stats.backlog_growing(r["due_s"], r["lat_ms"], r["duration_s"]))

    def test_too_few_requests(self):
        self.assertFalse(stats.backlog_growing([0.1, 3.9], [1.0, 100.0], 4.0))


class RungVerdict(unittest.TestCase):
    def test_passes_under_limit(self):
        v = stats.rung_verdict(rung([5.0] * 2000), limit_ms=50, nominal_q=0.99)
        self.assertTrue(v["passes"])
        self.assertEqual(v["q"], 0.99)

    def test_sheds_count_as_misses(self):
        # 2000 answered fast, 30 shed: more than 1% misses puts p99 on a miss.
        v = stats.rung_verdict(rung([5.0] * 2000, shed=30), limit_ms=50, nominal_q=0.99)
        self.assertTrue(math.isinf(v["tail_ms"]))
        self.assertFalse(v["passes"])

    def test_growing_backlog_fails(self):
        v = stats.rung_verdict(rung([1.0 + 0.02 * i for i in range(2000)]), limit_ms=1e9,
                               nominal_q=0.99)
        self.assertTrue(v["growing"])
        self.assertFalse(v["passes"])


if __name__ == "__main__":
    unittest.main()
