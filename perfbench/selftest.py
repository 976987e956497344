"""Self-tests of the benchmark's tracer, checks and workloads.

    python3 perfbench/selftest.py

Named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hermquat  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def traced_counts(run):
    tracer = spans.Tracer(op_boundary="sweep.surviving_forms")
    with tracer:
        tally = run(tracer)
    calls = {name: rec["calls"] for name, rec in tracer.summary().items()}
    return tally, calls, dict(tracer.items), dict(tracer.outcomes), tracer


class TracerTest(unittest.TestCase):
    def tiny_sweep(self, tracer):
        tally = wl.Tally()
        wl.sweep_once(tally, -7, height=1)
        return tally

    def test_counts_repeat_on_tiny_sweep(self):
        first = traced_counts(self.tiny_sweep)
        second = traced_counts(self.tiny_sweep)
        self.assertEqual(first[1:4], second[1:4])
        self.assertTrue(first[0].correct)
        self.assertGreater(first[1]["hermitian.is_integral"], first[0].attempted)
        with spans.InstanceCounter(hermquat.QElem) as a:
            self.tiny_sweep(None)
        with spans.InstanceCounter(hermquat.QElem) as b:
            self.tiny_sweep(None)
        self.assertEqual(a.count, b.count)
        self.assertGreater(a.count, 0)

    def test_every_binding_is_wrapped_and_then_restored(self):
        names = ("hermitian", "represent", "sweep", "quaternion", "cli")
        tracer = spans.Tracer()
        with tracer:
            for name in names:
                fn = getattr(getattr(hermquat, name), "is_integral")
                self.assertTrue(hasattr(fn, "__wrapped__"), name)
            self.assertTrue(hasattr(hermquat.represent.factorint, "__wrapped__"))
            self.assertTrue(spans.patched_bindings())
        self.assertEqual(spans.patched_bindings(), [])
        for name in names:
            self.assertIs(getattr(getattr(hermquat, name), "is_integral"),
                          hermquat.hermitian.is_integral)

    def test_wrappers_removed_when_the_run_raises(self):
        with self.assertRaises(RuntimeError):
            with spans.Tracer():
                raise RuntimeError("boom")
        self.assertEqual(spans.patched_bindings(), [])

    def test_self_time_excludes_children(self):
        _, _, _, _, tracer = traced_counts(self.tiny_sweep)
        summary = tracer.summary()
        main = summary["cli.main"]
        self.assertLess(main["self_s"], main["s"])
        total_self = sum(rec["self_s"] for rec in summary.values())
        self.assertAlmostEqual(total_self, main["s"], delta=1e-6 * len(tracer.start) + 1e-6)


class WorkloadTest(unittest.TestCase):
    def test_no_order_built_on_witness_search(self):
        inputs = wl.WitnessInputs(seed=3)
        cases = inputs.block()

        def run(tracer):
            tally = wl.Tally()
            for k, c in enumerate(cases):
                tracer.op = k
                wl.decide(tally, inputs, c)
            return tally

        tally, calls, _, _, _ = traced_counts(run)
        self.assertTrue(tally.correct, tally.problems)
        self.assertEqual(calls.get("quaternion.build_order", 0), 0)
        self.assertEqual(calls["represent.represents_one_integral"], len(cases))

    def test_no_search_on_order_roundtrip(self):
        with tempfile.TemporaryDirectory() as tmp:
            cases = wl.OrderInputs(seed=3, workdir=tmp).block(4)

            def run(tracer):
                tally = wl.Tally()
                for k, c in enumerate(cases):
                    tracer.op = k
                    wl.roundtrip(tally, c)
                return tally

            tally, calls, _, _, _ = traced_counts(run)
        self.assertTrue(tally.correct, tally.problems)
        self.assertEqual(tally.failed, 0)
        self.assertEqual(calls.get("represent.global_search", 0), 0)
        self.assertGreater(calls["quaternion.order_to_pointed"], 0)

    def test_layer_metrics_cover_benchmark_json(self):
        import json

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        got = set(layers.layer_metrics({}, {}, {}, 1, 1.0))
        got |= {"qfield.QElem.created", "trace.overhead_ratio", "trace.spans"}
        self.assertEqual(got, {m["name"] for m in spec["per_layer"]})


class CheckTest(unittest.TestCase):
    """The benchmark's own arithmetic agrees with the package's."""

    def test_delta_and_form_value(self):
        rng = random.Random(0)
        for _ in range(40):
            d = rng.choice(wl.WS_FIELDS)
            alpha, beta = rng.randint(-9, 9), rng.randint(-9, 9)
            m, n = rng.randint(-9, 9), rng.randint(-9, 9)
            F = hermquat.QuadField(d)
            space = hermquat.HermSpace(F, alpha, beta, F.elem(m, n) * F.inverse_sqrt_d())
            if not space.is_nondegenerate():
                continue
            lattice = hermquat.Lattice.standard(F)
            delta = hermquat.discriminant_form(space, lattice).value
            self.assertEqual(wl.form_delta(d, alpha, beta, m, n), delta)
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            y = (rng.randint(-3, 3), rng.randint(-3, 3))
            v = (F.elem(*x), F.elem(*y))
            self.assertEqual(wl.form_value(d, alpha, beta, m, n, x, y), space.h_value(v))

    def test_squarefree(self):
        self.assertEqual([n for n in range(1, 20) if wl.squarefree(n)],
                         [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19])
        self.assertFalse(wl.squarefree(-18))

    def test_sweep_digest_mismatch_fails_every_row(self):
        tally = wl.Tally()
        header = "alpha,beta,gamma,Delta,definiteness,verdict,witness,order_disc,discs_equal\r\n"
        row = "1,1,0,-7,PositiveDefinite,Represented,\"(1, 0)\",-7,true\r\n"
        wl.check_sweep_csv(tally, -7, wl.SWEEP_HEIGHT, 0, header + row)
        self.assertEqual((tally.attempted, tally.failed, tally.correct), (1, 1, False))

    def test_indefinite_row_without_witness_is_undecided_not_failed(self):
        tally = wl.Tally()
        header = "alpha,beta,gamma,Delta,definiteness,verdict,witness,order_disc,discs_equal\r\n"
        row = "1,-1,0,7,Indefinite,LocallyRepresentedSearchExhausted,,,\r\n"
        wl.check_sweep_csv(tally, -7, 0, 0, header + row)
        self.assertEqual((tally.attempted, tally.failed, tally.undecided), (1, 0, 1))
        self.assertTrue(tally.correct)
        self.assertEqual(tally.decided_frac(), 0)


if __name__ == "__main__":
    unittest.main()
