"""Unit tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(metrics.nearest_rank(samples, 0.5), 50)
        self.assertEqual(metrics.nearest_rank(samples, 0.95), 95)
        self.assertEqual(metrics.nearest_rank(samples, 1.0), 100)
        self.assertEqual(metrics.nearest_rank([7.0], 0.95), 7.0)

    def test_p95_needs_200_samples_for_10_beyond(self):
        self.assertEqual(metrics.samples_beyond(200, 0.95), 10)
        self.assertEqual(metrics.samples_beyond(199, 0.95), 9)
        # Rank 190 of 200: ten samples lie above it.
        self.assertEqual(metrics.nearest_rank([float(i) for i in range(200)], 0.95), 189.0)

    def test_p95_of_few_samples_is_the_maximum(self):
        self.assertEqual(metrics.nearest_rank([5.0, 1.0, 3.0], 0.95), 5.0)
        self.assertEqual(metrics.samples_beyond(3, 0.95), 0)

    def test_median(self):
        self.assertEqual(metrics.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(metrics.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])


class SelfTimeTest(unittest.TestCase):
    # Track 1: root [0, 100] > child [10, 30] > grandchild X [12, 17], and a
    # sibling X [40, 50]. Track 2 (another rank) runs [20, 90] in parallel.
    EVENTS = [
        ["root", "B", 1, 0.0, 0.0],
        ["child", "B", 1, 10.0, 0.0],
        ["grandchild", "X", 1, 12.0, 5.0],
        ["child", "E", 1, 30.0, 0.0],
        ["sibling", "X", 1, 40.0, 10.0],
        ["root", "E", 1, 100.0, 0.0],
        ["rank_work", "X", 2, 20.0, 70.0],
    ]

    def spans(self):
        return {s.name: s for s in metrics.spans_from_events(self.EVENTS)}

    def test_self_time_subtracts_direct_children_on_the_same_track(self):
        spans = self.spans()
        st = metrics.self_times(list(spans.values()))
        us = {name: round(st[s] * 1e6, 6) for name, s in spans.items()}
        self.assertEqual(us, {"root": 70.0, "child": 15.0, "grandchild": 5.0,
                              "sibling": 10.0, "rank_work": 70.0})

    def test_self_times_partition_the_root(self):
        spans = list(self.spans().values())
        st = metrics.self_times(spans)
        track1 = sum(v for s, v in st.items() if s.tid == 1)
        self.assertAlmostEqual(track1, 100e-6)

    def test_max_over_tracks(self):
        spans = list(self.spans().values())
        dur = {s: s.end - s.start for s in spans}
        self.assertAlmostEqual(
            metrics.max_over_tracks(spans, dur, ("sibling", "rank_work")), 70e-6)

    def test_unbalanced_trace_is_rejected(self):
        with self.assertRaises(ValueError):
            metrics.spans_from_events([["a", "B", 1, 0.0, 0.0], ["b", "E", 1, 1.0, 0.0]])
        with self.assertRaises(ValueError):
            metrics.spans_from_events([["a", "B", 1, 0.0, 0.0]])

    def test_union_length_counts_overlaps_once(self):
        self.assertEqual(metrics.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(metrics.union_length([]), 0.0)


def request(i, status="ok", converged=True, residual_ok=True, submit=0.0, done=1.0,
            key="k", digest="d"):
    return {"i": i, "status": status, "converged": converged, "residual_ok": residual_ok,
            "submit_s": submit, "done_s": done, "key": key, "digest": digest,
            "queue_us": 0.0, "setup_us": 0.0, "solve_us": 1.0, "total_us": 1.0}


class ClosedLoopTest(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        reqs = [request(0, submit=0.0, done=0.5),
                request(1, submit=0.5, done=1.5),
                request(2, status="rejected"),
                request(3, converged=False),
                request(4, residual_ok=False)]
        s = metrics.closed_loop(reqs, window_s=2.0)
        self.assertEqual(s["attempted"], 5)
        self.assertEqual(s["failed"], 3)
        self.assertEqual(s["completed"], 2)
        self.assertAlmostEqual(s["throughput_rps"], 1.0)
        self.assertEqual(s["latencies_ms"], [500.0, 1000.0])

    def test_digest_conflicts_per_key(self):
        reqs = [request(0, key="a", digest="x"), request(1, key="a", digest="x"),
                request(2, key="a", digest="y"), request(3, key="b", digest="y"),
                request(4, key="b", digest="z", status="error")]
        self.assertEqual(metrics.digest_conflicts(reqs), [2])

    def test_combined_digest_is_order_independent(self):
        a = metrics.combined_digest([("k1", "d1"), ("k2", "d2")])
        b = metrics.combined_digest([("k2", "d2"), ("k1", "d1")])
        self.assertEqual(a, b)
        self.assertNotEqual(a, metrics.combined_digest([("k1", "d1"), ("k2", "d3")]))

    def test_worker_busy_share_counts_a_batch_once(self):
        # Worker 7 serves a batch of two (shared dequeue at t=1 s, solves end
        # at 2 s and 3 s) and later one request from 5 s to 6 s, in a 10 s
        # window with two workers: busy 3 s of 20 s.
        traced = {
            "requests": [request(0), request(1), request(2)],
            "stats_before": {"completed": 0, "batches": 0, "cache_hits": 0, "cache_misses": 0,
                             "cache_disk_hits": 0, "cache_evictions": 0},
            "stats_after": {"completed": 3, "batches": 2, "cache_hits": 2, "cache_misses": 0,
                            "cache_disk_hits": 0, "cache_evictions": 0},
            "window_start_us": 0.0,
            "window_s": 10.0,
            "events": [
                ["queue r0", "X", 7, 0.0, 1e6], ["solve r0", "X", 7, 1e6, 1e6],
                ["queue r1", "X", 7, 0.5e6, 0.5e6], ["solve r1", "X", 7, 2e6, 1e6],
                ["queue r2", "X", 7, 4e6, 1e6], ["solve r2", "X", 7, 5e6, 1e6],
            ],
        }
        m = metrics.service_layers(traced, workers=2)
        self.assertAlmostEqual(m["service.worker_busy_frac"], 3.0 / 20.0)
        self.assertAlmostEqual(m["service.batch_size_mean"], 1.5)
        self.assertEqual(m["service.cache_hit_rate"], 1.0)
        self.assertEqual(m["core.filtering_s"], 0.0)  # no builds in the window


class ComputedBytesTest(unittest.TestCase):
    def test_csr_apply_bytes(self):
        # 10 rows, 30 nnz: 30 * 12 + 11 * 8 + 2 * 10 * 8
        self.assertEqual(metrics.csr_apply_bytes(10, 30), 360 + 88 + 160)


if __name__ == "__main__":
    unittest.main()
