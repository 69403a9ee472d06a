"""Unit tests for the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_median_interpolates(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([1.0, 2.0, 3.0, 4.0]), 2.5)

    def test_tail_needs_ten_samples_beyond(self):
        # p99 of 999 samples leaves 9 beyond it: refused.
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(999)), 99)
        # 1000 samples leave exactly 10 beyond: allowed.
        self.assertAlmostEqual(stats.percentile(list(range(1000)), 99), 989.01)
        # p90 needs 100 samples.
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(list(range(99)), 90)
        stats.percentile(list(range(100)), 90)

    def test_samples_beyond_counts(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(1099, 99), 10)
        self.assertEqual(stats.samples_beyond(100, 90), 10)

    def test_failed_requests_sort_last(self):
        values = [1.0] * 990 + [math.inf] * 10
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertEqual(stats.percentile(values, 99.5, min_beyond=5),
                         math.inf)

    def test_best_windows_ignore_stalled_windows(self):
        times = [i * 1e-3 for i in range(6000)]  # six 1 s windows
        values = [1.0] * 6000
        for i in range(1000, 4000):  # stalls through three windows
            values[i] = 50.0
        whole = stats.percentile(values, 99)
        value, kept, windows = stats.best_windows_percentile(
            times, values, 99, 1.0, 0.5)
        self.assertEqual(whole, 50.0)
        self.assertEqual(value, 1.0)
        self.assertEqual((kept, windows), (3, 6))

    def test_best_windows_see_a_tail_in_more_windows_than_dropped(self):
        # A pause that hits 4% of the requests in four of six windows
        # leaves the best window clean but not the better half.
        times = [i * 1e-3 for i in range(6000)]
        values = [1.0] * 6000
        for w in range(4):
            for i in range(w * 1000, w * 1000 + 40):
                values[i] = 9.0
        best, kept, _ = stats.best_windows_percentile(
            times, values, 99, 1.0, 0.1)
        half, _, _ = stats.best_windows_percentile(times, values, 99, 1.0, 0.5)
        self.assertEqual((best, kept), (1.0, 1))
        self.assertGreater(half, 1.0)

    def test_best_windows_track_a_uniform_slowdown(self):
        times = [i * 1e-3 for i in range(5000)]
        base, _, _ = stats.best_windows_percentile(
            times, [1.0] * 5000, 99, 1.0, 0.1)
        slow, _, _ = stats.best_windows_percentile(
            times, [1.2] * 5000, 99, 1.0, 0.1)
        self.assertAlmostEqual(slow / base, 1.2)

    def test_best_windows_grow_until_the_tail_has_ten_beyond(self):
        # Ten 1 s windows of 300 samples: p99 needs 1000 pooled samples,
        # so four windows are kept although the fraction asks for one.
        times = [i / 300.0 for i in range(3000)]
        values = [float(i % 300) for i in range(3000)]
        _, kept, windows = stats.best_windows_percentile(
            times, values, 99, 1.0, 0.1, values, 50)
        self.assertEqual((kept, windows), (4, 10))

    def test_best_windows_need_a_full_window(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.best_windows_percentile([0.0] * 500, [1.0] * 500, 99,
                                          1.0, 0.1)

    def test_empty_is_refused(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])


class DueTimeLatencyTest(unittest.TestCase):
    def test_stalled_generator_is_charged_to_the_requests_it_delayed(self):
        # 1000 requests due every 1 ms; the server answers 1 ms after each
        # submit. The generator stalls for 50 ms before request 500 and
        # then sends the backlog at once.
        due = [i * 1e-3 for i in range(1000)]
        sent = list(due)
        for i in range(500, 550):
            sent[i] = 0.550
        seen = [s + 1e-3 for s in sent]
        lat = stats.due_latencies_ms(due, seen)
        late = stats.lateness_ms(due, sent)
        # Measured from submit every request took 1 ms; from its due time
        # request 500 waited the whole stall.
        self.assertAlmostEqual(lat[499], 1.0)
        self.assertAlmostEqual(lat[500], 51.0)
        self.assertAlmostEqual(lat[549], 2.0)
        self.assertGreater(stats.percentile(lat, 99), 10.0)
        self.assertAlmostEqual(max(late), 50.0)
        submit_lat = [(b - a) * 1e3 for a, b in zip(sent, seen)]
        self.assertAlmostEqual(stats.percentile(submit_lat, 99), 1.0)

    def test_unanswered_request_is_infinitely_late(self):
        self.assertEqual(stats.due_latencies_ms([0.0], [-1.0]), [math.inf])

    def test_outstanding_counts_due_but_unseen(self):
        due = [0.0, 0.1, 0.2]
        seen = [0.05, -1.0, 0.25]
        self.assertEqual(stats.outstanding_at(0.0, due, seen), 1)
        self.assertEqual(stats.outstanding_at(0.2, due, seen), 2)
        self.assertEqual(stats.outstanding_at(0.3, due, seen), 1)


    def test_served_throughput_skips_unanswered(self):
        self.assertAlmostEqual(
            stats.served_throughput([0.5, -1.0, 1.0, 2.0]), 1.5)
        self.assertEqual(stats.served_throughput([-1.0]), 0.0)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([10.0] * 5), 0.0)
        self.assertGreater(stats.quartile_spread([9.0, 10.0, 11.0, 12.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
