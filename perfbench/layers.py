"""The traced run: per-layer counts and times for a fixed slice of a workload.

The slice runs four times: counting only ``QElem`` creations, so that the
counter's own cost does not distort the span times; under the span tracer,
for the spans; and untraced and traced once more with the speed probe of
``workloads.Speed`` between operations, for ``trace.overhead_ratio`` in
reference seconds.  Every pass checks its outputs; the tracer must leave no
wrapper behind.
"""

from __future__ import annotations

import os
from time import perf_counter

import hermquat
import spans
import workloads as wl

TRACE_SWEEP_FIELD = -7  # the ROADMAP baseline quotes calls per row at d = -7
TRACE_WS_BLOCKS = 4
TRACE_OR_ORDERS = 192


class Slice:
    """A fixed set of operations that can be run again with fresh tallies."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        if workload == "witness_search":
            self.inputs = wl.WitnessInputs(seed)
            self.cases = [c for _ in range(TRACE_WS_BLOCKS) for c in self.inputs.block()]
        elif workload == "order_roundtrip":
            self.cases = wl.OrderInputs(seed, workdir).block(TRACE_OR_ORDERS)

    def run(self, tracer=None, speed=None):
        """One pass; with ``speed``, operation latencies and probes are kept."""
        tally = wl.Tally()
        if self.workload == "sweep":
            if speed is None:
                wl.sweep_once(tally, TRACE_SWEEP_FIELD)
            else:
                with wl.RowClock(speed) as clock:
                    wl.sweep_once(tally, TRACE_SWEEP_FIELD)
                tally.latencies = clock.latencies
            return tally
        for k, c in enumerate(self.cases):
            if tracer is not None:
                tracer.op = k
            if self.workload == "witness_search":
                wl.decide(tally, self.inputs, c)
            else:
                wl.roundtrip(tally, c)
            if speed is not None:
                speed.tick(tally.latencies[-1])
        return tally


def layer_metrics(summary, items, outcomes, ops: int, traced_s: float):
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("hermitian.is_integral", "hermitian.discriminant_form"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.s"] = (get(name, "s"), "s")
        m[f"{name}.calls_per_op"] = (ratio(get(name, "calls"), ops), "count/op")
    for name in ("hermitian.det_form", "hermitian.gram_on_basis"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    candidates = items.get("sweep.iter_candidate_forms", 0)
    m["sweep.run_sweep.self_s"] = (get("sweep.run_sweep", "self_s"), "s")
    m["sweep.candidates"] = (candidates, "count")
    m["sweep.survival_ratio"] = (ratio(items.get("sweep.surviving_forms", 0), candidates), "ratio")
    for name in ("ext.factorint", "represent.local_test", "linalg.congruence_diagonalize",
                 "represent.represents_one_integral", "represent.global_search",
                 "quaternion.build_order", "quaternion.lattice_disc", "linalg.hnf",
                 "linalg.hnf_basis", "linalg.left_kernel",
                 "linalg.mat_det", "linalg.mat_inverse", "linalg.signature"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("represent.represents_one_integral", "quaternion.build_order", "cli.main"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    searches = get("represent.global_search", "calls")
    m["represent.global_search.hit_ratio"] = (
        ratio(outcomes.get("represent.global_search.hits", 0), searches), "ratio")
    m["represent.global_search.share"] = (ratio(get("represent.global_search", "s"), traced_s), "ratio")
    m["represent.exhausted_indefinite"] = (outcomes.get("represent.exhausted_indefinite", 0), "count")
    for name in ("quaternion.build_algebra", "quaternion.order_to_pointed", "quaternion.is_optimal",
                 "jsonio.parse_order", "jsonio.dumps"):
        m[f"{name}.s"] = (get(name, "s"), "s")
    for name in ("quaternion.QuatAlgebra.norm_gram", "quaternion.QuatAlgebra.reduced_norm"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    return m


def reference_seconds(piece: Slice, tracer=None):
    """A pass's operation time in reference seconds, and its tally."""
    speed = wl.Speed()
    if tracer is None:
        tally = piece.run(speed=speed)
    else:
        with tracer:
            tally = piece.run(tracer, speed)
    return sum(speed.local(tally.latencies)), tally


def traced_run(workload: str, seed: int, outdir: str):
    boundary = "sweep.surviving_forms" if workload == "sweep" else None
    with wl.workdir(outdir) as tmp:
        piece = Slice(workload, seed, tmp)
        # The counting pass goes first and also warms the interpreter and
        # sympy's caches.
        with spans.InstanceCounter(hermquat.QElem) as qelems:
            counted = piece.run()
        tracer = spans.Tracer(op_boundary=boundary)
        with tracer:
            t0 = perf_counter()
            traced = piece.run(tracer)
            traced_s = perf_counter() - t0
        # The overhead ratio comes from two more passes timed with the speed
        # probe between operations, which would distort the spans above.
        plain_ref, tally = reference_seconds(piece)
        traced_ref, timed = reference_seconds(piece, spans.Tracer(op_boundary=boundary))

    left = spans.patched_bindings()
    for other in (counted, traced, timed):
        if not other.correct or (other.failed, other.undecided) != (tally.failed, tally.undecided):
            tally.correct = False
            tally.problems += other.problems
    if left:
        tally.correct = False
        tally.problems.append(f"wrappers left installed: {left}")

    path = os.path.join(outdir, f"spans-{workload}-seed{seed}.tsv.gz")
    tracer.write(path)
    metrics = layer_metrics(tracer.summary(), tracer.items, tracer.outcomes, tally.attempted,
                            traced_s)
    metrics["qfield.QElem.created"] = (qelems.count, "count")
    metrics["trace.overhead_ratio"] = (traced_ref / plain_ref if plain_ref else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    print(
        f"{workload} seed={seed} traced slice: {tally.attempted} ops, traced {traced_s:.2f} s, "
        f"{len(tracer.start)} spans -> {path}; operation time {plain_ref:.2f} untraced and "
        f"{traced_ref:.2f} traced reference seconds"
    )
    return tally, metrics
