"""Tests of the benchmark itself (not part of the package's test suite).

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import yagita.cli  # noqa: E402
import yagita.harness  # noqa: E402
from yagita.chern import EigenExponents  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _digests():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _check_self_times(test, spans):
    """Self times are never negative, and each span's self time plus its
    children's durations is exactly its own duration."""
    selfs = tracing.self_times(spans)
    children: dict[int, int] = {}
    for s in spans:
        if s[tracing.PARENT] is not None:
            children[s[tracing.PARENT]] = children.get(s[tracing.PARENT], 0) + (
                s[tracing.END] - s[tracing.START])
    for s, own in zip(spans, selfs):
        test.assertGreaterEqual(own, 0, s)
        test.assertEqual(own + children.get(s[tracing.ID], 0), s[tracing.END] - s[tracing.START])
    roots = [s for s in spans if s[tracing.PARENT] is None]
    test.assertEqual(sum(selfs), sum(s[tracing.END] - s[tracing.START] for s in roots))


class SmokeTest(unittest.TestCase):
    """Tiny-size runs of every workload through the real worker processes."""

    def test_each_workload_untraced(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                rec = run.run(name, seed=3, seconds=1, trace=False, tiny=True)
                self.assertTrue(rec["correct"], rec["problems"])
                self.assertEqual(rec["failed"], 0)
                self.assertGreaterEqual(rec["attempted"], 1)
                self.assertEqual(set(rec["metrics"]), names)
                for m in rec["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_metrics_and_exact_counts(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for name in ("sweep_reuse", "chern_matrices"):
            with self.subTest(workload=name):
                a = run.run(name, seed=5, seconds=1, trace=True, tiny=True)
                b = run.run(name, seed=5, seconds=1, trace=True, tiny=True)
                self.assertTrue(a["correct"], a["problems"])
                self.assertEqual(set(a["metrics"]), names)
                for metric, m in a["metrics"].items():
                    if metric.rsplit(".", 1)[-1] in ("count", "calls", "elements"):
                        self.assertEqual(m["value"], b["metrics"][metric]["value"], metric)
                layer = "harness.verify_case" if name == "sweep_reuse" else "chern.eigen_exponents"
                self.assertGreater(a["metrics"][layer + ".calls"]["value"], 0)
                # the spans written out at the end of the run
                with open(os.path.join(run.OUT, f"trace-{name}-5.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                for worker_spans in (w for p in doc["passes"] for w in p):
                    spans = [s[:-1] for s in worker_spans]
                    _check_self_times(self, spans)
                    self.assertEqual([s[-1] for s in worker_spans], tracing.self_times(spans))
                    self.assertIn(layer, {s[tracing.NAME] for s in spans})

    def test_fails_without_the_package(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify_Z", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CorrectnessCheckTest(unittest.TestCase):
    """A wrong answer is counted as a failed operation."""

    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)

    def _fail_ratio(self, ops):
        results = worker.run_ops(ops, _digests(), run.OUT)
        return sum(1 for r in results if r["problems"]) / len(results)

    def test_correct_ops_pass(self):
        ops = [op for group in workloads.plan("verify_Z", 1, tiny=True) for op in group]
        ops += workloads.plan("chern_matrices", 1, tiny=True)[0]
        self.assertEqual(self._fail_ratio(ops), 0)

    def test_corrupted_report_fails(self):
        real = yagita.harness.verify_case

        def wrong(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, certified_lower=rep.certified_lower * 3)

        ops = [op for g in workloads.plan("verify_Z", 1, tiny=True) for op in g]
        with mock.patch.object(yagita.harness, "verify_case", wrong):
            self.assertEqual(self._fail_ratio(ops), 1)

    def test_changed_report_text_fails_digest(self):
        op = workloads.plan("verify_cyclotomic", 1, tiny=True)[0][0]
        ring = yagita.ringspec.parse_ring(op["ring"])
        text = yagita.harness.report_to_json(
            yagita.harness.verify_case(op["p"], op["n"], ring, sl=op["sl"]))
        self.assertEqual(workloads.check_verify(op, text, _digests()), [])
        problems = workloads.check_verify(op, text.replace('"Pass"', '"Incomplete"'), _digests())
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_corrupted_multiplicity_fails(self):
        real = yagita.cli.eigen_exponents

        def wrong(m, p):
            e = real(m, p)
            mults = list(e.multiplicities)
            a = next(a for a, m in enumerate(mults) if m)
            mults[a] -= 1
            mults[(a + 1) % p] += 1
            return EigenExponents(p, tuple(mults))

        ops = [op for op in workloads.plan("chern_matrices", 1, tiny=True)[0]
               if op["kind"] == "chern"]
        with mock.patch.object(yagita.cli, "eigen_exponents", wrong):
            self.assertEqual(self._fail_ratio(ops), 1)

    def test_wrong_prop6_verdict_fails(self):
        op = {"kind": "prop6", "p": 5, "count": 1, "seed": 0}
        good = json.dumps([{"poly": "1 + 4*x^2 (mod 5)", "gcd": "2", "m": "2", "q": "0", "holds": True}])
        self.assertEqual(workloads.check_prop6(op, good), [])
        bad = good.replace('"gcd": "2"', '"gcd": "1"')
        self.assertEqual(len(workloads.check_prop6(op, bad)), 1)


class SpanTest(unittest.TestCase):
    def test_nested_spans(self):
        t = tracing.Tracer()
        a = t.open("a")
        b = t.open("b")
        c = t.open("c")
        time.sleep(0.001)
        t.close(c)
        t.close(b)
        b = t.open("b")
        time.sleep(0.001)
        t.close(b)
        t.close(a)
        _check_self_times(self, [s.as_list() for s in t.spans])
        summary = tracing.summarize([s.as_list() for s in t.spans])["spans"]
        self.assertEqual(summary["b"]["calls"], 2)

    def test_traced_verify_case(self):
        t = tracing.Tracer()
        ops = [op for g in workloads.plan("verify_Z", 2, tiny=True) for op in g]
        with t.install():
            results = worker.run_ops(ops, _digests(), run.OUT, t)
        self.assertTrue(all(not r["problems"] for r in results))
        spans = [s.as_list() for s in t.spans]
        _check_self_times(self, spans)
        names = {s[tracing.NAME] for s in spans}
        self.assertLessEqual({"bench.op", "harness.verify_case", "witness.witness_menu"}, names)
        # patches are undone on exit
        self.assertFalse(hasattr(yagita.harness.verify_case, "__wrapped__"))


class CompareTest(unittest.TestCase):
    def test_classify(self):
        base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
        self.assertEqual(run.classify(base, base, 0.1, True), "same")
        self.assertEqual(run.classify(base, [v * 1.3 for v in base], 0.1, True), "worse")
        self.assertEqual(run.classify(base, [v * 0.7 for v in base], 0.1, True), "improved")
        noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
        self.assertEqual(run.classify(base, noisy, 0.1, True), "unresolved")
        self.assertEqual(run.classify(base, [v * 1.3 for v in base], 0.1, False), "improved")


if __name__ == "__main__":
    unittest.main()
