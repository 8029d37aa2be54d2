"""Repeat the benchmark over seeds and summarise the spread of each metric.

Usage, from the root of the repository:

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--traced]
        [--label NAME]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
the ``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound.  ``--traced`` adds one traced run per
workload at the default seed.  ``--label`` writes everything, with the run
metadata, to ``bench/trajectory/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    fd, record = tempfile.mkstemp(suffix=".json", dir=os.path.join(BENCH, ".work"))
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--record", record],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(record)


def summarise(records: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for metric in records[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric] = {
            "unit": records[0]["metrics"][metric]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(metric),
            "values": values,
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="benchmark spread over seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args()
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    entry: dict = {"run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        records = []
        for seed in _seeds(args.seeds):
            records.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in records[-1]["metrics"].items()),
                flush=True)
        summary = summarise(records, bounds)
        failed = sum(r["failed"] for r in records)
        correct = all(r["correct"] for r in records)
        print(f"== {workload}: correct={correct} failed={failed}")
        for metric, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"   {metric:14s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}"
                  f"  bound {s['bound']}", flush=True)
        entry["workloads"][workload] = {
            "meta": records[0]["meta"], "correct": correct, "failed": failed,
            "attempted": sum(r["attempted"] for r in records),
            "end_to_end": summary,
            "bases": {k: v["basis"] for k, v in records[0]["metrics"].items()},
        }
        if args.traced:
            traced = run_once(workload, 0, seconds, 1)
            entry["workloads"][workload]["per_layer"] = traced["metrics"]
            for metric, m in traced["metrics"].items():
                print(f"   {metric:42s} {m['value']:.6g} {m['unit']} ({m['basis']})")
    if args.label:
        path = os.path.join(BENCH, "trajectory", f"BENCH_{args.label}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
