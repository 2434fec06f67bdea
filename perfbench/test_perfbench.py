"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py
"""

import json
import random
import unittest

import serve_client
import stats
import workloads


class Percentile(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertIsNone(stats.percentile(list(range(99)), 0.9))
        self.assertAlmostEqual(stats.percentile(list(range(100)), 0.9), 89.1)

    def test_p50_needs_20_samples(self):
        self.assertIsNone(stats.percentile([1.0] * 19, 0.5))
        self.assertEqual(stats.percentile(list(range(21)), 0.5), 10)

    def test_unsorted_input(self):
        xs = list(range(200))
        random.Random(3).shuffle(xs)
        self.assertAlmostEqual(stats.percentile(xs, 0.5), 99.5)


class Interpolate(unittest.TestCase):
    def test_between_and_beyond(self):
        pts = [(2.0, 30.0), (0.0, 10.0), (1.0, 20.0)]
        self.assertEqual(stats.interpolate(pts, 0.5), 15.0)
        self.assertEqual(stats.interpolate(pts, 1.75), 27.5)
        self.assertEqual(stats.interpolate(pts, -1.0), 10.0)
        self.assertEqual(stats.interpolate(pts, 9.0), 30.0)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start": start, "end": end}

    def test_nested(self):
        spans = [
            self.span(1, None, "op", 0.0, 10.0),
            self.span(2, 1, "a", 1.0, 4.0),
            self.span(3, 2, "b", 2.0, 3.0),
            self.span(4, 1, "c", 5.0, 9.0),
        ]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st[1], 3.0)  # 10 - (3 + 4)
        self.assertAlmostEqual(st[2], 2.0)  # 3 - 1; the grandchild is b's
        self.assertAlmostEqual(st[3], 1.0)
        self.assertAlmostEqual(st[4], 4.0)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_counted_once(self):
        # children on another domain may overlap each other
        spans = [
            self.span(1, None, "op", 0.0, 10.0),
            self.span(2, 1, "a", 1.0, 5.0),
            self.span(3, 1, "a", 3.0, 7.0),
        ]
        self.assertAlmostEqual(stats.self_times(spans)[1], 4.0)

    def test_child_clipped_to_parent(self):
        spans = [
            self.span(1, None, "op", 0.0, 2.0),
            self.span(2, 1, "a", 1.0, 3.0),
        ]
        self.assertAlmostEqual(stats.self_times(spans)[1], 1.0)

    def test_by_name(self):
        spans = [
            self.span(1, None, "op", 0.0, 4.0),
            self.span(2, 1, "a", 0.0, 1.0),
            self.span(3, None, "op", 4.0, 6.0),
            self.span(4, 3, "a", 4.0, 5.5),
        ]
        by = stats.self_time_by_name(spans)
        self.assertAlmostEqual(by["a"], 2.5)
        self.assertAlmostEqual(by["op"], 3.5)


def record(i, line, **over):
    """The record a correct serve gives job i."""
    rec = {"id": i, **serve_client.expected(line)}
    rec.update(over)
    return json.dumps(rec).encode()


class FakeServe:
    """Answers each sent line from a canned list of raw records, one per
    line, in order; None stands for EOF."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.sent = []

    def send(self, line):
        self.sent.append(line)

    def readline(self):
        return self.answers.pop(0) if self.answers else None


class ServeClient(unittest.TestCase):
    LINES = ["diff servo 100", "stats", "frobnicate 3", "diff isr-demo 200"]

    def test_expected_outcomes(self):
        self.assertEqual(serve_client.expected("diff servo many")["exit"], 2)
        self.assertEqual(serve_client.expected("diff servo 100 - x")["exit"], 2)
        self.assertEqual(serve_client.expected("diff isr-demo 200")["model"], "isr_demo")
        for line in serve_client.MALFORMED:
            self.assertEqual(serve_client.expected(line),
                             {"class": "bad_request", "exit": 2})

    def test_all_good(self):
        fake = FakeServe([record(i, l) for i, l in enumerate(self.LINES)])
        lat, _, failed = serve_client.drive(fake, self.LINES, 2)
        self.assertEqual((len(lat), failed), (4, 0))
        self.assertEqual(fake.sent, self.LINES)

    def test_out_of_order_ids_fail(self):
        recs = [record(i, l) for i, l in enumerate(self.LINES)]
        recs[0], recs[1] = recs[1], recs[0]
        _, _, failed = serve_client.drive(FakeServe(recs), self.LINES, 2)
        self.assertEqual(failed, 2)

    def test_wrong_outcome_fails(self):
        recs = [record(i, l) for i, l in enumerate(self.LINES)]
        recs[2] = record(2, self.LINES[2], exit=0)  # malformed line accepted
        recs[3] = record(3, self.LINES[3], divergence={"step": 7})
        _, _, failed = serve_client.drive(FakeServe(recs), self.LINES, 2)
        self.assertEqual(failed, 2)

    def test_missing_records_fail(self):
        recs = [record(0, self.LINES[0])]
        lat, _, failed = serve_client.drive(FakeServe(recs), self.LINES, 2)
        self.assertEqual((len(lat), failed), (1, 3))

    def test_first_id_offset(self):
        recs = [record(i + 5, l) for i, l in enumerate(self.LINES)]
        _, _, failed = serve_client.drive(FakeServe(recs), self.LINES, 2, first_id=5)
        self.assertEqual(failed, 0)

    def test_outstanding_bound_and_checkpoints(self):
        calls = []

        class Tracking(FakeServe):
            def readline(inner):
                calls.append(("read", len(inner.sent)))
                return FakeServe.readline(inner)

        lines = ["diff servo 100"] * 6
        fake = Tracking([record(i, l) for i, l in enumerate(lines)])
        lat, busy, _ = serve_client.drive(
            fake, lines, 2, on_checkpoint=lambda: calls.append("cp"),
            checkpoints={3})
        self.assertEqual((len(lat), len(busy)), (6, 6))
        reads = [c for c in calls if c != "cp"]
        # never more than two lines unanswered when a record is read
        for k, (_, sent) in enumerate(reads):
            self.assertLessEqual(sent - k, 2)
        # the checkpoint runs with nothing in flight, after record 2
        self.assertEqual(calls.index("cp"), 3)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            a = workloads.replay_lines(w, random.Random(7), 50)
            b = workloads.replay_lines(w, random.Random(7), 50)
            self.assertEqual(a, b)

    def test_replay_is_a_prefix_of_the_run(self):
        # the traced run replays the first ops the end-to-end run makes
        for w in workloads.WORKLOADS:
            short = workloads.replay_lines(w, random.Random(4), 10)
            long = workloads.replay_lines(w, random.Random(4), 60)
            self.assertEqual(short, long[:10])

    def test_scenarios_cycle_all_seven(self):
        s = workloads.scenarios(random.Random(1), 14)
        self.assertEqual(sorted(s[:7]), sorted(workloads.SCENARIOS))
        self.assertEqual(s[:7], s[7:])

    def test_serve_mix(self):
        lines = serve_client.job_lines(random.Random(1), 10000)
        share = lambda pred: sum(map(pred, lines)) / len(lines)
        self.assertAlmostEqual(share(lambda l: l == "stats"), 0.01, delta=0.005)
        self.assertAlmostEqual(
            share(lambda l: serve_client.expected(l)["exit"] == 2), 0.02, delta=0.007)

    def test_fixed_op_counts(self):
        self.assertEqual(workloads.op_count("faultsim-campaign", 1), workloads.MIN_OPS)
        self.assertEqual(workloads.op_count("serve-small", 15),
                         15 * workloads.RATE["serve-small"])


if __name__ == "__main__":
    unittest.main()
