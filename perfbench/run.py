"""hermquat benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs a fixed slice of the workload three times (counting field elements
only, untraced, traced) and reports the per-layer metrics.  The
last line of standard output is the result object; the lines before it are
for people.  The package is imported from ``src/`` of the checkout; without
it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("sweep", "witness_search", "order_roundtrip")
SETUP_REPEATS = 7

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds the workload's fields and standard lattices.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hermquat
from hermquat import cli, jsonio
fields = [hermquat.QuadField(int(d)) for d in sys.argv[2].split(",")]
lattices = [hermquat.Lattice.standard(f) for f in fields]
print(repr(time.perf_counter() - t0))
"""


def import_package():
    """Imports hermquat from this checkout's ``src/``, or exits with code 2."""
    init = os.path.join(SRC, "hermquat", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: {init} not found; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hermquat

    if os.path.abspath(hermquat.__file__) != init:
        print(f"error: imported hermquat from {hermquat.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    # Keep the pipeline's warnings (records are still made) off stderr.
    logging.getLogger("hermquat").addHandler(logging.NullHandler())
    return hermquat


def setup_seconds(fields) -> float:
    """Median over fresh interpreters of import plus field and lattice set-up."""
    arg = ",".join(str(d) for d in fields)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC, arg],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(times)


def end_to_end(workload: str, seed: int, seconds: float):
    import workloads as wl

    setup = setup_seconds(wl.fields_of(workload))
    speed = wl.Speed()
    tally, ops_per_s = wl.MEASURE[workload](seconds, seed, speed, OUT)
    lat = tally.latencies
    factor = speed.factor()
    ref_lat = speed.local(lat)
    metrics = {
        # times in reference seconds: wall time over the machine's speed factor
        "ops_per_s": (ops_per_s * factor, "1/s"),
        "op_p50_ms": (wl.percentile_ms(ref_lat, 50), "ms"),
        "op_p95_ms": (wl.percentile_ms(ref_lat, 95), "ms"),
        # operations with a settled, checked answer; never 0, unlike fail_frac
        "decided_frac": (tally.decided_frac(), "ratio"),
        "setup_s": (setup / factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"{workload} seed={seed}: {tally.attempted} ops, {tally.failed} failed, "
        f"{tally.undecided} undecided, "
        f"output sha256 {tally.digest.hexdigest()}\n"
        f"wall-clock: {ops_per_s:.3f} ops/s, p50 {wl.percentile_ms(lat, 50):.3f} ms, "
        f"p95 {wl.percentile_ms(lat, 95):.3f} ms, setup {setup:.4f} s; speed factor {factor:.4f} "
        f"from {len(speed.times)} probes"
    )
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = perf_counter()
    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        import layers

        tally, metrics = layers.traced_run(args.workload, args.seed, OUT)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for problem in tally.problems:
        print(f"  failure: {problem}")
    print(f"wall {perf_counter() - t0:.1f} s")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
