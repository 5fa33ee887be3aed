"""Self-tests for the benchmark's generator, reference, tracer and speed probe.

    python3 bench/selftest.py

They tie the fold reference to the state-sum oracle on the generated query
vectors, and show that a deliberately corrupted output is counted as
failed, as verify's own negative control does for the suites.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import unittest
from collections import Counter
from itertools import islice
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import vtangle.cli  # noqa: E402
from vtangle import Envelope, bracket, build_basic, iter_vectors, parse_vector  # noqa: E402


def call(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = vtangle.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def first_rounds(workload, seed, n=2):
    return list(islice(workloads.rounds(workload, seed), n))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(first_rounds(workload, 7), first_rounds(workload, 7))
        self.assertNotEqual(first_rounds("query", 7), first_rounds("query", 8))
        self.assertNotEqual(first_rounds("verify", 7), first_rounds("verify", 8))

    def test_query_round_meets_every_command_and_crossing_count(self):
        (calls,) = first_rounds("query", 3, 1)
        seen = Counter()
        for argv in calls:
            self.assertEqual(argv[-2], "--")
            vec = parse_vector(argv[-1])  # validates
            seen[(tuple(argv[:-2]), build_basic(vec).n_classical)] += 1
        want = {(c, n): 1 for c in workloads.QUERY_COMMANDS for n in workloads.QUERY_CROSSINGS}
        self.assertEqual(dict(seen), want)


class ReferenceTest(unittest.TestCase):
    def test_fold_equals_state_sum_on_generated_query_vectors(self):
        for seed in (1, 2):
            for calls in first_rounds("query", seed):
                for argv in calls:
                    vec = parse_vector(argv[-1])
                    self.assertEqual(reference.fold_bracket(vec), bracket(build_basic(vec)), argv)

    def test_envelope_vectors_match_library_enumeration(self):
        mine = [str(v) for v in reference.envelope_vectors(3, 5)]
        self.assertEqual(mine, [str(v) for v in iter_vectors(Envelope(3, 5))])
        self.assertEqual(len(mine), 11132)


class CheckTest(unittest.TestCase):
    def test_real_query_outputs_pass(self):
        (calls,) = first_rounds("query", 5, 1)
        for argv in calls:
            outcome = reference.check_query(argv, *call(argv))
            self.assertEqual(outcome.failed, 0, outcome.problems)

    def test_corrupted_query_output_fails(self):
        argv = ["conductance", "--", "-2,3v,1"]
        rc, out, err = call(argv)
        self.assertEqual(reference.check_query(argv, rc, out, err).failed, 0)
        doc = json.loads(out)
        wrong_c = dict(doc, C="1/1 + 0/1*i")
        wrong_f = dict(doc, bracket=dict(doc["bracket"], f="0"))
        for bad_rc, bad_out, bad_err in ((rc, json.dumps(wrong_c), ""),
                                         (rc, json.dumps(wrong_f), ""),
                                         (3, "", ""), (None, out, ""), (3, "", out)):
            outcome = reference.check_query(argv, bad_rc, bad_out, bad_err)
            self.assertEqual((outcome.failed, outcome.refused), (1, 0))

    def test_degenerate_route_is_refused_not_failed(self):
        # README: recursion and continued fraction are degenerate on 0,1,2v.
        for argv in (["conductance", "--", "0,1,2v"],
                     ["conductance", "--path", "recursion", "--", "0,1,2v"],
                     ["conductance", "--path", "continued-fraction", "--", "0,1,2v"]):
            rc, out, err = call(argv)
            self.assertEqual(rc, 3)
            outcome = reference.check_query(argv, rc, out, err)
            self.assertEqual((outcome.failed, outcome.refused), (0, 1), outcome.problems)
        argv = ["conductance", "--", "0,1,2v"]
        rc, out, err = call(argv)
        doc = json.loads(err)
        wrong_agreeing = dict(doc, agreeing=dict(doc["agreeing"], C="7/1 + 0/1*i"))
        no_degenerate = dict(doc, degenerate={})
        for bad in (wrong_agreeing, no_degenerate):
            outcome = reference.check_query(argv, rc, out, json.dumps(bad))
            self.assertEqual((outcome.failed, outcome.refused), (1, 0))
        argv = ["conductance", "--path", "state-sum", "--", "0,1,2v"]
        refusal = json.dumps({"vector": "0,1,2v", "error": "x", "path": "state-sum"})
        self.assertEqual(reference.check_query(argv, 3, "", refusal).failed, 1)

    def test_no_reference_value_wants_a_refusal(self):
        # No valid vector of the 3,5 envelope lacks a value, so the reference
        # is made to have none here.
        vec = "2,3"
        conductance = ["conductance", "--", vec]
        bracket_call = ["bracket", "--", vec]
        with mock.patch.object(reference, "reference_conductance", return_value=(None, None)):
            self.assertEqual(reference.check_query(conductance, 3, "", "").failed, 0)
            self.assertEqual(reference.check_query(conductance, *call(conductance)).failed, 1)
            self.assertEqual(reference.check_query(bracket_call, *call(bracket_call)).failed, 0)
            self.assertEqual(reference.check_query(bracket_call, 3, "", "").failed, 1)

    def test_corrupted_enumerate_output_fails(self):
        expected = reference.envelope_reference(2, 1)
        rc, out, _ = call(["enumerate", "--envelope", "2,1", "--format", "json"])
        good = reference.check_enumerate(rc, out, expected)
        self.assertEqual((good.failed, good.ops), (0, len(expected)))
        doc = json.loads(out)
        records = doc["records"]
        wrong_value = dict(records[0], conductance="7/1 + 0/1*i")
        split_bucket = dict(records[1], bucket_id=10_000)
        for bad in ([wrong_value] + records[1:], records[:1] + [split_bucket] + records[2:],
                    records[1:]):
            outcome = reference.check_enumerate(rc, json.dumps(dict(doc, records=bad)), expected)
            self.assertGreater(outcome.failed, 0)
        finding = {"vector": records[0]["vector"], "kind": "no-value"}
        with_finding = dict(doc, summary=dict(doc["summary"], findings=[finding]))
        self.assertGreater(reference.check_enumerate(3, json.dumps(with_finding), expected).failed, 0)

    def test_verify_fail_row_fails(self):
        argv = ["verify", "--suite", "additivity", "--seed", "1", "--samples", "5"]
        rc, out, _ = call(argv)
        good = reference.check_verify(argv, rc, out)
        self.assertEqual((good.failed, good.ops), (0, 5))
        doc = json.loads(out)
        row = {"name": "additivity-plus", "instance": "x", "status": "fail"}
        counts = dict(doc["counts"], fail=1)
        counts["pass"] -= 1
        bad = dict(doc, fails=[row], counts=counts)
        self.assertEqual(reference.check_verify(argv, 4, json.dumps(bad)).failed, 1)
        self.assertEqual(reference.check_verify(argv, 0, out).failed, int(rc != 0))


class TracerTest(unittest.TestCase):
    def test_counts_and_uninstall(self):
        original = vtangle.cli.bracket
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(vtangle.cli.bracket, original)
            call(["bracket", "--", "3,3"])  # inactive: not counted
            t.active = True
            call(["bracket", "--", "3,3"])
            call(["conductance", "--path", "recursion", "--", "3,3"])
            t.active = False
        finally:
            t.uninstall()
        self.assertIs(vtangle.cli.bracket, original)
        self.assertIs(vtangle.cli._SINGLE_PATH["recursion"], vtangle.cli.conductance_recursive)
        metrics = tracer.layer_metrics(t.tables(), 1.0)
        self.assertEqual(metrics["cli.calls"], 2)
        self.assertEqual(metrics["conductance.route_calls"], 1)
        self.assertEqual(metrics["bracket.calls"], 1)
        self.assertEqual(metrics["bracket.states"], 1 << 6)
        self.assertEqual(metrics["bracket.fold_calls"], 0)
        self.assertEqual(set(metrics), set(tracer.METRICS))
        self.assertGreater(metrics["bracket.self_s"], 0)
        total = sum(tracer.layer_self_s(t.tables()).values())
        self.assertLessEqual(metrics["bracket.self_s"], total)


class SpeedTest(unittest.TestCase):
    def test_spent_counts_only_handler_time_inside_the_call(self):
        probe = speed.SpeedProbe()
        probe.starts.extend([0.0, 2.0, 2.9, 4.0])
        probe.ends.extend([1.0, 2.5, 3.2, 4.1])
        self.assertAlmostEqual(probe.spent(0, 1.5, 3.0), 0.6)
        self.assertAlmostEqual(probe.spent(2, 1.5, 3.0), 0.1)
        self.assertEqual(probe.spent(0, 5.0, 6.0), 0)

    def test_kernel_mean_leaves_out_preempted_samples(self):
        self.assertAlmostEqual(speed.kernel_mean([1.0, 1.2, 0.8, 1.0, 9.0]), 1.0)

    def test_local_mean_uses_the_call_or_the_last_samples(self):
        probe = speed.SpeedProbe()
        n = speed.LOCAL_SAMPLES
        probe.samples.extend([1.0] * n + [4.0] * (n // 2))
        self.assertEqual(probe.local_mean(0), 2.0)  # the call's own samples
        self.assertEqual(probe.local_mean(n), 2.5)  # too few: the last n
        self.assertEqual(probe.local_mean(len(probe.samples)), 2.5)

    def test_probe_samples_only_while_resumed(self):
        probe = speed.SpeedProbe()
        probe.install()
        try:
            deadline = time.perf_counter() + 5 * speed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
            paused = len(probe.samples)
            probe.resume()
            deadline = time.perf_counter() + 5 * speed.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
            probe.pause()
        finally:
            probe.uninstall()
        self.assertEqual(paused, speed.LOCAL_SAMPLES)
        self.assertGreaterEqual(len(probe.samples), paused + 2)
        self.assertEqual(len(probe.starts), len(probe.samples))


if __name__ == "__main__":
    unittest.main()
