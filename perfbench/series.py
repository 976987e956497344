"""Run the benchmark over several seeds and save the results as a result set.

    python3 perfbench/series.py --out perfbench/out/parent.jsonl --seeds 1-10

Each run is a separate process, one after another, as the benchmark's
command in ``BENCHMARK.json`` gives it.  Every line of the output file holds
one run: ``{"workload", "seed", "trace", "result"}``.  At the end the median
of each metric and its spread (interquartile range over median) is printed.
``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(spec, workload: str, seed: int, seconds: int, trace: int):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Interquartile range over median, as the acceptance rule computes it."""
    q1, med, q3 = quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def summarize(records):
    by_key = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            by_key.setdefault((rec["workload"], name), []).append(m["value"])
    for (workload, name), values in sorted(by_key.items()):
        line = f"{workload:16} {name:40} median {median(values):12.6g}"
        if len(values) >= 2:
            line += f"  spread {spread(values):.3f}"
        print(line)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    records = []
    with open(args.out, "a", encoding="utf-8") as fh:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                result = run_one(spec, workload, seed, args.seconds, args.trace)
                rec = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                records.append(rec)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                status = "ok" if result["correct"] else "INCORRECT"
                print(f"{workload} seed {seed}: {status}, "
                      f"{result['failed']}/{result['attempted']} failed", flush=True)
    summarize(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
