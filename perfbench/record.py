"""Run every workload, untraced and traced, and write one BENCH JSON result.

    python3 perfbench/record.py --seed 1 --topic baseline

writes perfbench/out/BENCH_baseline.json (or --out): the machine (nproc,
CPU model), Python version, git SHA, seed and run length (BENCHMARK.json's
run_seconds); per workload the operations attempted and failed, every
end-to-end metric, every per-layer metric of the traced run, and the
traced run's overhead on wall_s.  A change that claims a gain commits
this file as BENCH_<topic>.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--topic", default="result")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    doc = {"topic": args.topic, "machine": run.machine(), "seed": args.seed,
           "run_seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        plain = run.measure(workload, args.seed, seconds, trace=False)
        traced = run.measure(workload, args.seed, seconds, trace=True)
        entry = doc["workloads"][workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "problems": plain["problems"] + traced["problems"],
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in plain["metrics"].items()},
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in traced["metrics"].items()},
            "trace_overhead": traced["raw_wall_s"] / plain["raw_wall_s"] - 1,
        }
        print(f"{workload}: attempted {plain['attempted']} failed {plain['failed']} "
              f"correct {entry['correct']} trace overhead {entry['trace_overhead']:+.1%}")
        for name, (value, unit) in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"  {name} = {value:.6g} {unit}", flush=True)
    out = args.out or run.OUT / f"BENCH_{args.topic}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
