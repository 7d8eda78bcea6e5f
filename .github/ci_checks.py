"""The end-to-end checks above Tier-1, one per CI step.

Run one check per process from the repository root, with the package
installed or `src` on the path:

    PYTHONPATH=src python .github/ci_checks.py witnesses

Each check starts the command line as `python -m statecomp.cli` under
coreutils `timeout`, and exits nonzero with a message naming the cell
or shape when a gate fails.  Peak RSS is ru_maxrss from wait4, which
covers timeout's child.  A child's peak also counts the memory its
parent held when it was started, so each check runs in a process of
its own and runs every reference machine after the commands whose
peaks it gates.  perfbench/reference.py, which imports nothing from the
program, and perfbench/workloads.py are imported by path and left as
they are; nothing here imports statecomp.
"""

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import reference  # noqa: E402
from workloads import document, parse_document  # noqa: E402

CLI = (sys.executable, "-m", "statecomp.cli")


class Run(NamedTuple):
    out: str
    err: str
    peak_mib: float


def run(*args: str, seconds: int, command=CLI, code: int = 0) -> Run:
    """Run command with args under `timeout seconds` and print its exit
    code, time and peak RSS; exit naming it if its exit code is not code."""
    t0 = time.perf_counter()
    with tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            ["timeout", str(seconds), *command, *args],
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
        with proc.stdout:
            out = proc.stdout.read()
        # wait4, not wait: the child's own rusage, not every child's
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        r = Run(out, err.read(), usage.ru_maxrss / 1024)
    what = " ".join(args)
    print(f"{what}: exit {proc.returncode} in {time.perf_counter() - t0:.1f} s, "
          f"peak RSS {r.peak_mib:.0f} MiB", flush=True)
    if proc.returncode != code:
        sys.exit(f"{what}: exit {proc.returncode}, not {code}\n{r.err}")
    return r


def documents() -> None:
    """Every JSON document the command writes is the text json's own
    encoder gives it with indent=2, byte for byte: the two witnesses,
    compose's stdout for both ops and both methods (without its last
    states=... minimal=... line), and search's two argmax files.
    statecomp writes them with its own writer, and json checks it here."""

    def check(text: str, what: str) -> None:
        if text != json.dumps(json.loads(text), indent=2) + "\n":
            sys.exit(f"{what}: not the indent-2 text of its own document")
        print(f"{what}: {len(text)} bytes, as json writes them", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        lhs, rhs = Path(tmp, "lhs.json"), Path(tmp, "rhs.json")
        for path, size in ((lhs, ("--family", "revcat-M", "--m", "4")),
                           (rhs, ("--family", "revcat-N", "--n", "3"))):
            text = run("witness", *size, seconds=300).out
            check(text, "witness " + " ".join(size))
            path.write_text(text)
        for op in ("revcat", "starcat"):
            for method in ("direct", "oracle"):
                *doc, last = run(
                    "compose", "--op", op, "--lhs", str(lhs), "--rhs", str(rhs),
                    "--method", method, seconds=300,
                ).out.splitlines(keepends=True)
                if not last.startswith("states="):
                    sys.exit(f"compose {op} {method}: last line {last!r}")
                check("".join(doc), f"compose {op} {method}")
        prefix = f"{tmp}/argmax"
        run("search", "--op", "revcat", "--m", "2", "--n", "2", "--sigma", "2",
            "--out-prefix", prefix, seconds=300)
        for side in ("lhs", "rhs"):
            check(Path(f"{prefix}_{side}.json").read_text(), f"search argmax {side}")


def refusals() -> None:
    """Cells past verify's budget are refused before any witness is
    built, whatever their size: a count of 3 * 2^(10^20) states, n = 1
    cells budgeted as their (m, 2) cells, and cells over the budget in
    states or in 64-bit words of subset keys.  Each must exit 2 (not 1,
    a failed check, nor 124, timeout's) within 20 s with an --m/--n
    error and no traceback."""
    for op, m, n in (("revcat", "99999999999999999999", "2"), ("starcat", "26", "1"),
                     ("starcat-special", "200000", "1"), ("revcat", "30", "30"),
                     ("starcat-special", "1000000", "2")):
        err = run("verify", "--op", op, "--m", m, "--n", n, seconds=20, code=2).err
        print(f"  {err}", end="")
        if not err.startswith("error: --m/--n: ") or "Traceback" in err:
            sys.exit(f"verify {op} ({m}, {n}): not an --m/--n error")


def benchmark() -> None:
    """One round of each benchmark workload, checked against
    perfbench/reference.py: compose-random runs every direct route on
    the benchmark's compose inputs; search-full runs the full (2, 2, 3)
    search for both ops, each maximum against the closed form and the
    argmax pair's size against the reference; witness-large runs verify
    on the witness cells, each cell's formula, constructed size and
    minimal size against the reference.  run.py exits 0 even when a
    check fails, so the verdict is read from the JSON line it ends with."""
    for workload in ("compose-random", "search-full", "witness-large"):
        out = run("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "0", seconds=600,
                  command=(sys.executable, str(PERFBENCH / "run.py"))).out
        verdict = json.loads(out.splitlines()[-1])
        if verdict["correct"] is not True or verdict["failed"] != 0:
            sys.exit(f"{workload}: not correct against the references: {verdict!r}")


def witnesses() -> None:
    """The witness cells at m + n = 18 and 20, one verify per op and
    cell.  For revcat and starcat verify reads the minimal size off
    private words of the oracle's NFA states; for starcat-special
    (4,344 states at (9, 9), 9,719 at (10, 10)) the private words do not
    decide it, and verify refines the oracle's machine by Hopcroft's
    algorithm.  Each verify must exit 0 within its timeout (verify exits
    1 on a FAIL row, timeout 124), peak at most its limit, and print
    minimal= equal to the closed form.  At (9, 9) minimal= must also
    equal the reference's own frozenset subset construction and Moore
    refinement: revcat's only check by a second route above the
    witness-large cells, since it has no direct construction of its own
    there, the independent check of the private-word count, and for
    starcat-special of the refinement."""
    # (op, m = n, timeout in seconds, peak RSS limit in MiB); starcat's
    # peak at (10, 10) is its direct machine and pair walk beside the oracle
    cells = (("revcat", 9, 300, 100), ("starcat", 9, 300, 100),
             ("revcat", 10, 120, 200), ("starcat", 10, 120, 260),
             ("starcat-special", 9, 60, 40), ("starcat-special", 10, 60, 40))
    minimal = {}
    for op, k, seconds, limit in cells:
        r = run("verify", "--op", op, "--m", str(k), "--n", str(k), seconds=seconds)
        print(r.out, end="")
        if r.peak_mib > limit:
            sys.exit(f"{op} ({k}, {k}): peak RSS over {limit} MiB")
        minimal[op, k] = int(re.search(r"\bminimal=(\d+)", r.out)[1])
    for (op, k), found in minimal.items():
        cell = f"{op} ({k}, {k})"
        formula = reference.CLOSED_FORM[op](k, k)
        print(f"{cell}: closed form {formula}, verify minimal={found}", flush=True)
        if found != formula:
            sys.exit(f"{cell}: closed form and verify disagree")
        if k == 9:
            t0 = time.perf_counter()
            size = reference.minimal_size(op, *reference.witness_pair(op, k, k))
            print(f"{cell}: reference {size} in {time.perf_counter() - t0:.1f} s",
                  flush=True)
            if size != found:
                sys.exit(f"{cell}: reference and verify disagree")


def searches() -> None:
    """The argmax rows the search pins: at (m, n, |Σ|) = (3, 1, 3),
    whose left side has 42,042 classes; at (3, 2, 2) and (2, 3, 2),
    where the catenation bound skips only some orbits; at (2, 2, 4),
    1,048,576 pairs whose classes are renamed by both letter generators;
    at (1, 4, 2), whose class step keys all 1,048,576 four-state
    machines, many with unreachable states; and 2,000 pairs of (3, 3, 2)
    drawn with seed 5.  Each search must exit 0 within 300 s with the
    recorded max_minimal, and its argmax pair's reference size must
    equal it.  Revcat (3, 1, 3) reads its left classes off their
    reversals and must peak at most 65 MiB; starcat (3, 1, 3) keeps a
    dict keyed by each left language's minimal table to merge its left
    classes and must peak at most 70 MiB, so the dict cannot grow
    unnoticed.  Both run first."""
    sampled = ("--sample", "2000", "--seed", "5")
    recorded = {("revcat", 3, 1, 3, ()): 5, ("starcat", 3, 1, 3, ()): 1,
                ("revcat", 3, 2, 2, ()): 20, ("starcat", 3, 2, 2, ()): 10,
                ("revcat", 2, 3, 2, ()): 18, ("starcat", 2, 3, 2, ()): 11,
                ("revcat", 2, 2, 4, ()): 12, ("starcat", 2, 2, 4, ()): 5,
                ("revcat", 1, 4, 2, ()): 8, ("starcat", 1, 4, 2, ()): 8,
                ("revcat", 3, 3, 2, sampled): 32, ("starcat", 3, 3, 2, sampled): 22}
    peak_mib = {("revcat", 3, 1, 3, ()): 65, ("starcat", 3, 1, 3, ()): 70}
    with tempfile.TemporaryDirectory() as tmp:
        for (op, m, n, sigma, mode), best in recorded.items():
            shape = f"{op} ({m}, {n}, {sigma})"
            prefix = f"{tmp}/{op}_m{m}_n{n}_s{sigma}_{len(mode)}"
            r = run("search", "--op", op, "--m", str(m), "--n", str(n), "--sigma",
                    str(sigma), *mode, "--out-prefix", prefix, seconds=300)
            print(r.out, end="")
            found = int(re.search(r"\bmax_minimal=(\d+)", r.out)[1])
            size = reference.minimal_size(op, *(
                parse_document(Path(f"{prefix}_{side}.json").read_text())
                for side in ("lhs", "rhs")
            ))
            print(f"{shape}: recorded {best}, search {found}, "
                  f"reference size of the argmax pair {size}", flush=True)
            if not best == found == size:
                sys.exit(f"{shape}: recorded, search and reference disagree")
            limit = peak_mib.get((op, m, n, sigma, mode))
            if limit is not None and r.peak_mib > limit:
                sys.exit(f"{shape}: peak RSS over {limit} MiB")


def chunk_bounds() -> None:
    """compose on seeded random one-letter operands whose oracle machine
    has 22, 23, 33, 34, 40, 45, 56 and 66 states (m + n for revcat,
    m + 1 + n for starcat, whose direct machine walks the same masks):
    past 21 NFA states, where no other check outside Tier-1 reaches, up
    to the subset construction's whole-table bound (33, three chunks of
    11 bits), one past it and on, where the third chunk takes every bit
    from 22 up and its table is filled in as subsets reach it (at 45, 56
    and 66 that chunk is wider than 22 and 33 bits).  Each operand is
    one cycle through its states in a random order, each state final
    with probability 1/4.  Every compose, both ops and both methods,
    must exit 0 within 300 s and print the reference's minimal=."""

    def machine(rng: random.Random, size: int) -> reference.Machine:
        cycle = rng.sample(range(size), size)
        delta = [0] * size
        for q, t in zip(cycle, cycle[1:] + cycle[:1]):
            delta[q] = t
        finals = frozenset(q for q in range(size) if rng.random() < 0.25)
        return reference.Machine(size, "a", (tuple(delta),), rng.randrange(size), finals)

    with tempfile.TemporaryDirectory() as tmp:
        for states in (22, 23, 33, 34, 40, 45, 56, 66):
            for op in ("revcat", "starcat"):
                lhs, rhs = (Path(tmp, f"{op}_{states}_{side}.json") for side in ("lhs", "rhs"))
                rng = random.Random(states)
                m = (states - (op == "starcat")) // 2
                n = states - (op == "starcat") - m
                a, b = machine(rng, m), machine(rng, n)
                lhs.write_text(document(a))
                rhs.write_text(document(b))
                t0 = time.perf_counter()
                size = reference.minimal_size(op, a, b)
                print(f"{op} {states} NFA states (m={m}, n={n}): reference {size} "
                      f"in {time.perf_counter() - t0:.2f} s", flush=True)
                for method in ("direct", "oracle"):
                    out = run("compose", "--op", op, "--lhs", str(lhs), "--rhs",
                              str(rhs), "--method", method, seconds=300).out
                    found = re.search(r"\bstates=(\d+) minimal=(\d+)\n\Z", out)
                    print(f"  states={found[1]} minimal={found[2]}", flush=True)
                    if int(found[2]) != size:
                        sys.exit(f"{op} {states} {method}: minimal={found[2]}, "
                                 f"reference {size}")


CHECKS = (documents, refusals, benchmark, witnesses, searches, chunk_bounds)

if __name__ == "__main__":
    names = {check.__name__: check for check in CHECKS}
    if len(sys.argv) != 2 or sys.argv[1] not in names:
        sys.exit(f"usage: {sys.argv[0]} {{{','.join(names)}}}")
    names[sys.argv[1]]()
