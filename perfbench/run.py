"""Benchmark of statecomp: one workload per call, checked against references.

    python3 perfbench/run.py --workload search-full --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout; needs only the standard library and the
source tree under src/ (no install).  The workload runs in a fresh child
process (worker.py); this process never imports the program.  It checks
the child's outputs against reference.py, prints every metric by name and
unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run with spans around the program's functions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import reference as ref
import workloads
from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("search-full", "witness-large", "compose-random")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pairs_per_s": "pairs/s",
    "cell_s_max": "s",
    "compose_ms_p50": "ms",
    "compose_ms_p95": "ms",
    "peak_rss_mib": "MiB",
}
# Extra set-up-only children; set-up is the median of these and the main
# one.  A single child's set-up spread 0.17-0.18 over ten runs, the median
# of seven 0.06-0.09 (see README, Stability).
SETUP_PROBES = 6
# The time one calibration slice (worker.calibrate) takes at the reference
# speed; timings are reported in seconds at that speed (see scaled_rounds).
REFERENCE_SLICE_S = 0.3
RUN_LIMIT_S = 170  # a run ends within 180 s; the child is killed past this


class BenchError(RuntimeError):
    """The benchmark could not run to its end; no result is printed."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "git_sha": git_sha()}


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a repository."""
    if not (ROOT / ".git").exists():  # not a parent directory's repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _child(args: list[str], work: Path, deadline: float) -> dict:
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(HERE)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--work", str(work), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the workload did not finish in time")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"the workload process failed:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text())


def write_compose_inputs(pairs, work: Path) -> None:
    """Operand documents, and the list of calls the worker reads."""
    manifest = []
    for i, pair in enumerate(pairs):
        lhs, rhs = work / f"{i}-lhs.json", work / f"{i}-rhs.json"
        lhs.write_text(workloads.document(pair.a))
        rhs.write_text(workloads.document(pair.b))
        manifest.append([pair.op, str(lhs), str(rhs)])
    (work / "compose.json").write_text(json.dumps(manifest))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload in fresh children and check every output."""
    if not (SRC / "statecomp" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    deadline = monotonic() + RUN_LIMIT_S
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pairs = None
        if workload == "compose-random":
            pairs = workloads.compose_pairs(seed)
            write_compose_inputs(pairs, work)
        base = ["--workload", workload]
        probes = []
        if not trace:
            for _ in range(SETUP_PROBES):
                probes.append(_child(base + ["--seconds", "0", "--setup-only"], work, deadline))
        run = _child(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                     work, deadline)
        with (work / "outputs.jsonl").open() as f:
            outputs = [json.loads(line) for line in f]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups = [p["setup_s"] * REFERENCE_SLICE_S / p["calibration"][0] for p in probes + [run]]

    problems = ref.self_check()
    check = {"search-full": check_search, "witness-large": check_witness,
             "compose-random": check_compose}[workload]
    verdicts = check(outputs, pairs)  # per operation: None, or why it failed
    attempted = failed = 0
    disagreements = []
    for round_digests in run["digests"]:
        for i, (digest, verdict) in enumerate(zip(round_digests, verdicts)):
            attempted += 1
            if verdict is None and digest == run["digests"][0][i]:
                continue
            failed += 1
            why = verdict or "output differs from the first round"
            # an operation that raised or exited non-zero gave no output to
            # be wrong about; every other failure is a wrong output
            if not why.startswith(("raised", "exit")):
                disagreements.append(why)
    problems += disagreements

    if trace:
        metrics = {k: (run["layers"]["metrics"][k], u) for k, u in LAYER_METRICS.items()}
        if not run["layers"]["consistent"]:
            problems.append("a per-layer count changed from round to round")
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in timing(workload, run, setups).items()}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "rounds": len(run["rounds"]),
        "raw_wall_s": statistics.median(sum(r) for r in run["rounds"]),
        "calibration_s": statistics.median(run["calibration"]),
        "missing_sites": run.get("missing_sites", []),
    }


def _quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


PAIRS_PER_ROUND = {
    "search-full": len(workloads.SEARCH_OPS) * workloads.search_pairs(),
    "witness-large": len(workloads.WITNESS_CELLS),
}


def scaled_rounds(run: dict) -> list[list[float]]:
    """Each operation's time at the reference speed: multiplied by
    REFERENCE_SLICE_S over the mean of the calibration slices before and
    after it.  The slices and the operations slow down together when the
    machine does, so the ratio drifts much less than raw times do."""
    cal = run["calibration"]
    return [[t * 2 * REFERENCE_SLICE_S / (cal[k] + cal[k + 1]) for t, k in zip(times, chunks)]
            for times, chunks in zip(run["rounds"], run["chunks"])]


def timing(workload: str, run: dict, setups: list[float]) -> dict:
    """End-to-end metrics from scaled times.  Every per-round value,
    latency percentiles included, is the median over the run's rounds."""
    rounds = scaled_rounds(run)
    wall = statistics.median(sum(r) for r in rounds)
    pairs = PAIRS_PER_ROUND.get(workload, len(rounds[0]))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "pairs_per_s": pairs / wall,
        "cell_s_max": statistics.median(max(r) for r in rounds),
        "compose_ms_p50": 1e3 * statistics.median(_quantile(r, 0.50) for r in rounds),
        "compose_ms_p95": 1e3 * statistics.median(_quantile(r, 0.95) for r in rounds),
        "peak_rss_mib": run["peak_rss_mib"],
    }


# ------------------------------------------------------------------ checks

def _machine(p: dict) -> ref.Machine:
    return ref.Machine(p["states"], p["alphabet"], tuple(map(tuple, p["delta"])),
                       p["initial"], frozenset(p["finals"]))


def _raised(out: dict) -> str | None:
    return f"raised {out['error']}" if "error" in out else None


def check_search(outputs: list[dict], _pairs) -> list[str | None]:
    m, n, sigma = workloads.SEARCH_SHAPE
    verdicts = []
    for op, out in zip(workloads.SEARCH_OPS, outputs):
        why = _raised(out)
        expect = ref.CLOSED_FORM[op](m, n)
        if why is None:
            a, b = map(_machine, out["argmax"])
            if out["pairs"] != workloads.search_pairs():
                why = f"{op}: pairs_examined {out['pairs']}"
            elif out["max_minimal"] != expect:
                why = f"{op}: max_minimal {out['max_minimal']}, closed form {expect}"
            elif (a.states, b.states, len(a.alphabet)) != (m, n, sigma):
                why = f"{op}: argmax pair has the wrong shape"
            elif ref.minimal_size(op, a, b) != out["max_minimal"]:
                why = f"{op}: reference minimal size of the argmax pair differs"
        verdicts.append(why)
    return verdicts


def check_witness(outputs: list[dict], _pairs) -> list[str | None]:
    verdicts = []
    for (op, m, n), out in zip(workloads.WITNESS_CELLS, outputs):
        why = _raised(out)
        expect = ref.CLOSED_FORM[op](m, n)
        if why is None and not (out["passed"] and out["minimal"] == expect == out["formula"]):
            why = (f"{op} m={m} n={n}: passed={out['passed']} minimal={out['minimal']} "
                   f"formula={out['formula']}, closed form {expect}")
        verdicts.append(why)
    return verdicts


def check_compose(outputs: list[dict], pairs) -> list[str | None]:
    """Outputs come in pairs: the direct method, then the oracle method."""
    verdicts = []
    for k, pair in enumerate(pairs):
        expect = ref.minimal_size(pair.op, pair.a, pair.b)
        for method, out in zip(("direct", "oracle"), outputs[2 * k:2 * k + 2]):
            verdicts.append(_raised(out) or _check_compose_call(pair, method, out, expect))
    return verdicts


def _check_compose_call(pair, method, out, expect) -> str | None:
    where = f"{pair.op} {pair.kind} m={pair.a.states} n={pair.b.states} {method}"
    if out["rc"] != 0:
        return f"exit {out['rc']}: {where}: {out['stderr'].strip()}"
    doc, _, last = out["stdout"].rstrip("\n").rpartition("\n")
    try:
        fields = dict(kv.split("=", 1) for kv in last.split())
        states, got = int(fields["states"]), int(fields["minimal"])
    except (ValueError, KeyError):
        return f"{where}: no states=/minimal= line in {last!r}"
    if got != expect:
        return f"{where}: minimal={got}, reference {expect}"
    if method == "direct" and states > ref.direct_bound(pair.op, pair.a, pair.b):
        return f"{where}: states={states} above the construction's bound"
    try:
        result = workloads.parse_document(doc)
    except (ValueError, KeyError, TypeError) as e:
        return f"{where}: emitted document does not re-parse ({e})"
    if result.states != states or result.alphabet != pair.a.alphabet:
        return f"{where}: emitted document disagrees with states={states}"
    for w in pair.words:
        if ref.accepts(result, w) != ref.member(pair.op, pair.a, pair.b, w):
            return f"{where}: disagrees with word membership on {w!r}"
    return None


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    info = machine()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu_model']!r}")
    print(f"python {info['python']}  git {info['git_sha']}  seed {args.seed}  "
          f"workload {args.workload}  trace {args.trace}")
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for why in res["problems"][:20]:
        print(f"CHECK FAILED: {why}")
    if res["missing_sites"]:
        print("not traced (attribute missing): " + ", ".join(res["missing_sites"]))
    print(f"rounds {res['rounds']}  attempted {res['attempted']}  failed {res['failed']}  "
          f"unscaled wall_s per round {res['raw_wall_s']:.4f}{' (traced)' if args.trace else ''}  "
          f"calibration slice {res['calibration_s']:.4f} s (reference {REFERENCE_SLICE_S} s)")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
