"""The measured process: one workload, in a fresh single-threaded interpreter.

run.py starts it with the program's source tree on PYTHONPATH.  It
imports the program and lists the operations (that much is set-up), then
repeats whole rounds of the workload's operations until --seconds have
passed, timing each operation, with calibration slices in between.  The
first round's outputs are written in full to outputs.jsonl for checking
(not kept, so they do not add to the measured peak memory); every round
sends a digest of each output, which must match the first round's.  The
result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads


# A slice of fixed work that does not depend on the program: the reference
# minimal size of the revcat witness at (4, 4), 60 times (0.25–0.35 s on a
# 2-CPU Xeon host, depending on its load).
# Slices run after set-up, after every CALIBRATE_EVERY_S of operations and
# after every operation of at least LONG_OP_S, so that a long operation is
# scaled by slices taken right around it; run.py scales each operation by
# the slices on either side of it.
CALIBRATE_EVERY_S = 2.0
LONG_OP_S = 0.3
CALIBRATION_REPS = 60


def calibrate() -> float:
    a, b = reference.witness_pair("revcat", 4, 4)
    t = perf_counter()
    for _ in range(CALIBRATION_REPS):
        reference.minimal_size("revcat", a, b)
    return perf_counter() - t


def _plain(d) -> dict:
    return {"states": d.state_count, "alphabet": "".join(d.alphabet),
            "delta": d.transitions, "initial": d.initial, "finals": sorted(d.finals)}


def prepare(workload: str, work: Path):
    """Import the program and build the list of operations of one round.
    Each operation is a zero-argument callable returning a JSON-able output.
    The compose inputs are documents run.py wrote, listed in compose.json."""
    from statecomp import cli, harness

    if workload == "search-full":
        m, n, sigma = workloads.SEARCH_SHAPE

        def search(op):
            r = harness.exhaustive_search(op, m, n, sigma)
            return {"max_minimal": r.max_minimal, "pairs": r.pairs_examined,
                    "argmax": [_plain(r.argmax[0]), _plain(r.argmax[1])]}

        return [lambda op=op: search(op) for op in workloads.SEARCH_OPS]

    if workload == "witness-large":
        def verify(op, m, n):
            r = harness.verify_witness(op, m, n)
            return {"formula": r.formula, "constructed": r.constructed,
                    "minimal": r.minimal, "passed": r.passed}

        return [lambda c=cell: verify(*c) for cell in workloads.WITNESS_CELLS]

    def compose(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    ops = []
    for op, lhs, rhs in json.loads((work / "compose.json").read_text()):
        for method in ("direct", "oracle"):
            argv = ["compose", "--op", op, "--lhs", lhs, "--rhs", rhs, "--method", method]
            ops.append(lambda argv=argv: compose(argv))
    return ops


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = perf_counter()
    ops = prepare(args.workload, args.work)
    setup_s = perf_counter() - t0
    calibration = [calibrate()]
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s, "calibration": calibration}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    rounds, chunks = [], []  # per round: each operation's duration and calibration chunk
    digests = []
    outputs = (args.work / "outputs.jsonl").open("w")  # the first round's, one a line
    since_calibration = 0.0
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        if tracer:
            tracer.begin_round()
        times, round_chunks, round_digests = [], [], []
        for op in ops:
            t = perf_counter()
            try:
                out = op()
            except Exception as e:  # an operation that raises counts as failed
                out = {"error": f"{type(e).__name__}: {e}"}
            times.append(perf_counter() - t)
            round_chunks.append(len(calibration) - 1)
            since_calibration += times[-1]
            if not tracer and (since_calibration >= CALIBRATE_EVERY_S or times[-1] >= LONG_OP_S):
                calibration.append(calibrate())
                since_calibration = 0.0
            text = json.dumps(out, sort_keys=True)
            round_digests.append(hashlib.sha256(text.encode()).hexdigest())
            if not rounds:
                outputs.write(text + "\n")
        rounds.append(times)
        chunks.append(round_chunks)
        digests.append(round_digests)
    outputs.close()
    calibration.append(calibrate())

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "chunks": chunks,
        "calibration": calibration,
        "digests": digests,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["missing_sites"] = tracer.missing
        tracer.write_spans(args.work.parent / f"spans-{args.workload}.json.gz")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
