"""Two sets of runs of the same code, compared against BENCHMARK.json's bounds.

    python3 perfbench/stability.py --runs 10

For every workload, runs --runs untraced runs per set (set 1 on seeds
1..runs, set 2 on seeds runs+1..2*runs) and one traced run per set on
seed 1, each for BENCHMARK.json's run_seconds.  For each end-to-end
metric it prints each set's median, quartiles (statistics.quantiles, n=4)
and spread (interquartile distance over the median), and whether

  * the spread of every set stays within the metric's bound,
  * the two medians differ by no more than the bound, as a share of set
    1's median, in either direction,
  * the share of failed operations is the same in both sets, and
  * every per-layer count of the traced runs repeats exactly.

The full report goes to perfbench/out/stability.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction

import run

COUNT_UNITS = ("count", "bytes")


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse set 2's median is than set 1's, as a share of set 1's."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=run.WORKLOADS,
                   help="repeat to pick several; default all")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workload or run.WORKLOADS:
        sets = []
        for k in range(2):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            runs = []
            for seed in seeds:
                res = run.measure(workload, seed, seconds, trace=False)
                print(f"{workload} set {k + 1} seed {seed}: failed {res['failed']}/"
                      f"{res['attempted']} " + " ".join(
                          f"{n}={v:.4g}" for n, (v, _) in res["metrics"].items()), flush=True)
                ok = ok and res["correct"]
                runs.append(res)
            traced = run.measure(workload, 1, seconds, trace=True)
            ok = ok and traced["correct"]
            sets.append({
                "seeds": list(seeds),
                "failed_share": [sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)],
                "metrics": {name: summarize([r["metrics"][name][0] for r in runs])
                            for name in run.END_TO_END},
                "counts": {n: v for n, (v, u) in traced["metrics"].items() if u in COUNT_UNITS},
                "traced_wall_s": traced["raw_wall_s"],
                "wall_s_untraced_median": statistics.median(r["raw_wall_s"] for r in runs),
            })
        verdicts = {}
        for name, bound in bounds.items():
            a, b = sets[0]["metrics"][name], sets[1]["metrics"][name]
            drift = worse_by(a["median"], b["median"], bound["better"])
            spread_ok = max(a["spread"], b["spread"]) <= bound["bound"]
            verdicts[name] = {"drift": drift, "ok": spread_ok and abs(drift) <= bound["bound"]}
            print(f"{workload:15s} {name:15s} bound {bound['bound']:.2f}  "
                  f"set1 {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] spread {a['spread']:.3f}  "
                  f"set2 {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] spread {b['spread']:.3f}  "
                  f"drift {drift:+.3f}  {'ok' if verdicts[name]['ok'] else 'OUT OF BOUND'}")
            ok = ok and verdicts[name]["ok"]
        shares = [Fraction(*s["failed_share"]) for s in sets]
        counts_repeat = sets[0]["counts"] == sets[1]["counts"]
        overhead = sets[0]["traced_wall_s"] / sets[0]["wall_s_untraced_median"] - 1
        print(f"{workload:15s} failed share {shares[0]} vs {shares[1]}; per-layer counts "
              f"{'repeat exactly' if counts_repeat else 'DIFFER'}; traced wall_s "
              f"{sets[0]['traced_wall_s']:.4g} s vs untraced median "
              f"{sets[0]['wall_s_untraced_median']:.4g} s ({overhead:+.1%})")
        ok = ok and shares[0] == shares[1] and counts_repeat
        report[workload] = {"sets": sets, "verdicts": verdicts,
                            "counts_repeat": counts_repeat, "trace_overhead": overhead}

    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "stability.json").write_text(json.dumps(
        {"machine": run.machine(), "seconds": seconds, "runs": args.runs,
         "workloads": report, "ok": ok}, indent=1))
    print("stable within bounds" if ok else "NOT stable within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
