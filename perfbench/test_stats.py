"""Tests of the benchmark's own statistics: the percentile and
sample-count rule, failure accounting, and the unattributed share of a
replayed call on hand-built span trees.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402


def span(sid, name, start, end, parent=None, request=0, **counts):
    s = {"id": sid, "name": name, "request": request, "start_ns": start,
         "end_ns": end}
    if parent is not None:
        s["parent"] = parent
    s.update(counts)
    return s


class PercentileRuleTest(unittest.TestCase):
    def test_nearest_rank_values(self):
        xs = list(range(100, 0, -1))  # 1..100, unsorted.
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        self.assertEqual(stats.percentile(xs, 0.99), 99)
        self.assertEqual(stats.percentile([7.5], 0.99), 7.5)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(0.99, 1000), 10)
        self.assertTrue(stats.supported(0.99, 1000))
        self.assertFalse(stats.supported(0.99, 999))
        self.assertTrue(stats.supported(0.9, 100))
        self.assertFalse(stats.supported(0.9, 99))
        self.assertTrue(stats.supported(0.5, 1))
        self.assertFalse(stats.supported(0.5, 0))

    def test_timing_falls_back_to_supported_percentile(self):
        t = stats.Timing(list(range(500)), 0.99)
        self.assertEqual(t.q_used, 0.95)
        self.assertFalse(t.supported)
        self.assertEqual(t.value, stats.percentile(list(range(500)), 0.95))
        self.assertEqual(t.label(), "p95 of n=500")

        t = stats.Timing(list(range(50)), 0.99)
        self.assertEqual(t.q_used, 0.5)

        t = stats.Timing(list(range(2000)), 0.99)
        self.assertTrue(t.supported)
        self.assertEqual(t.label(), "p99 of n=2000")

    def test_empty_sample(self):
        t = stats.Timing([], 0.5)
        self.assertIsNone(t.value)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_unsupported_tail_is_labelled_in_metrics(self):
        v = metrics._timing(list(range(500)), 0.99)
        self.assertEqual(v.note, "only p95 of n=500")


class FailRateTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.fail_rate(10, 0), 0.0)
        self.assertEqual(stats.fail_rate(12, 3), 0.25)

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_rate(5, 6)

    def phase(self, sa, sf, aa, af):
        return {"select_attempted": sa, "select_failed": sf,
                "append_attempted": aa, "append_failed": af}

    def test_operations_count_checks_and_phases(self):
        record = {"untraced": self.phase(100, 2, 10, 1),
                  "traced": self.phase(50, 1, 5, 0),
                  "checks": {"failed": 3}}
        # Untraced only: 110 attempted; 3 failed ops + 3 failed checks.
        self.assertEqual(metrics.operations(record, 0), (110, 6))
        # Traced runs report both phases.
        self.assertEqual(metrics.operations(record, 1), (165, 7))

    def test_failed_never_exceeds_attempted(self):
        record = {"untraced": self.phase(2, 2, 0, 0),
                  "traced": self.phase(0, 0, 0, 0),
                  "checks": {"failed": 5}}
        self.assertEqual(metrics.operations(record, 0), (2, 2))


SELECT = metrics.REPLAYED_SELECT


class UnattributedShareTest(unittest.TestCase):
    def replay(self, execute_ns, part_ns, parent=0, first_id=1, start=0):
        """A replayed request under `parent`: the real Select, then its
        stepwise re-execution (pin and plan before it, and per-conjunct
        spans that are not parts, are included to be ignored)."""
        spans = [span(first_id, "snapshot.pin", start, start + 5, parent),
                 span(first_id + 1, "query.plan", start + 5, start + 10,
                      parent)]
        t = start + 10
        spans.append(span(first_id + 2, "query.execute", t, t + execute_ns,
                          parent))
        t += execute_ns
        sid = first_id + 3
        for name, ns in part_ns:
            spans.append(span(sid, name, t, t + ns, parent))
            sid += 1
            t += ns
        return spans

    def test_fully_explained_select_is_zero(self):
        spans = [span(0, "request", 0, 1000)] + self.replay(
            400, [("index.eval", 150), ("boolean.reduce", 80),
                  ("kernels.cover_eval", 60), ("index.eval", 200),
                  ("kernels.and", 50)])
        # Reduce and cover eval redo index.eval's work: not counted.
        self.assertEqual(stats.unattributed_shares(spans, *SELECT), [0.0])

    def test_work_no_part_reexecutes_shows(self):
        # Select spends 500 ns; its conjuncts and AND account for 400 — a
        # layer Select runs that the replay does not re-run (e.g. the
        # final popcount) leaves 20% unattributed.
        spans = [span(0, "request", 0, 1000)] + self.replay(
            500, [("index.eval", 250), ("index.eval", 100),
                  ("kernels.and", 50)])
        self.assertEqual(stats.unattributed_shares(spans, *SELECT), [0.2])

    def test_slower_parts_clamp_at_zero(self):
        spans = [span(0, "request", 0, 1000)] + self.replay(
            100, [("index.eval", 150)])
        self.assertEqual(stats.unattributed_shares(spans, *SELECT), [0.0])

    def test_one_share_per_shard(self):
        # A cluster request: two shard spans, each holding its own replay.
        spans = [span(0, "request", 0, 2000), span(1, "shard", 0, 900, 0),
                 span(20, "shard", 900, 1800, 0),
                 span(40, "cluster.merge", 1800, 1900, 0)]
        spans += self.replay(400, [("index.eval", 300)], parent=1, first_id=2)
        spans += self.replay(200, [("index.eval", 200), ("kernels.and", 0)],
                             parent=20, first_id=21, start=900)
        self.assertEqual(stats.unattributed_shares(spans, *SELECT),
                         [0.25, 0.0])

    def test_cold_evaluation_is_explained_by_its_own_parts(self):
        whole, parts = metrics.REPLAYED["cold_scan"]
        spans = [span(0, "request", 0, 3000),
                 span(1, "index.eval", 0, 1000, 0),
                 span(2, "boolean.reduce", 1000, 1100, 0),
                 span(3, "engine.fetch", 1100, 1500, 0),
                 span(4, "engine.fetch", 1500, 1900, 0),
                 span(5, "kernels.cover_eval", 1900, 2000, 0)]
        self.assertEqual(stats.unattributed_shares(spans, whole, parts), [0.0])
        # Without the fetch spans the engine's 80% would be unattributed.
        no_fetch = [s for s in spans if s["name"] != "engine.fetch"]
        self.assertEqual(stats.unattributed_shares(no_fetch, whole, parts),
                         [0.8])

    def test_two_wholes_under_one_parent_is_an_error(self):
        spans = [span(0, "request", 0, 100),
                 span(1, "query.execute", 0, 10, 0),
                 span(2, "query.execute", 10, 20, 0)]
        with self.assertRaises(ValueError):
            stats.unattributed_shares(spans, *SELECT)


class ManifestTest(unittest.TestCase):
    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in metrics.MANIFEST["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_every_metric_has_a_path(self):
        self.assertEqual(set(metrics.PATH), set(metrics.UNIT))
        for name in metrics.BOUNDED:
            self.assertEqual(metrics.PATH[name][0], metrics.ALL)


class DeriveTest(unittest.TestCase):
    def record(self):
        phase = {"window_s": 2.0, "select_ms": [1.0, 2.0, 3.0, 4.0],
                 "select_attempted": 4, "select_failed": 0, "shed": 0,
                 "append_ms": [], "append_attempted": 0, "append_failed": 0,
                 "rows_appended": 0}
        return {"untraced": phase, "traced": dict(phase), "setup_s": [3, 1, 2],
                "rows": 100, "index_bytes": 250, "peak_heap_kb": 2048,
                "recovery_s": 0.0, "checks": {"failed": 0, "performed": 4}}

    def test_end_to_end_values(self):
        values = metrics.derive(self.record(), "cold_scan", 0)
        self.assertEqual(list(values), metrics.END_TO_END)
        self.assertEqual(values["select_p50_ms"].value, 2.0)
        self.assertEqual(values["select_qps"].value, 2.0)
        self.assertEqual(values["setup_s"].value, 2.0)
        self.assertEqual(values["index_bytes_per_row"].value, 2.5)
        self.assertEqual(values["peak_heap_mb"].value, 2.0)
        # Not on cold_scan's path: reads 0 instead of failing.
        self.assertEqual(values["append_p99_ms"].value, 0.0)

    def test_missing_samples_on_the_path_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.derive(self.record(), "star_ingest", 0)


if __name__ == "__main__":
    unittest.main()
