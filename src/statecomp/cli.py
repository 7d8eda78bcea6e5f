"""Command-line front end.

Subcommands: witness (emit a stored family machine), compose (run an
operation on two DFA files), sc (evaluate a closed-form state count),
verify (check witness grids against the formulas), and search (maximize
the minimal result size over all small DFA pairs).

Exit codes: 0 on success, 1 when a verification fails, 2 on malformed
input or usage errors.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from pathlib import Path

from .automata import Dfa, minimal_size, minimize_hopcroft
from .bounds import _check_sizes
from .harness import (
    COMPOSE_OPS,
    OPS,
    _alphabet,
    combined,
    exhaustive_search,
    oracle_pipeline,
    verify_witness,
)
from .serialize import emit_document, emit_dot, parse_document
from .witnesses import FAMILIES


def _emit(machine, fmt: str) -> None:
    text = emit_document(machine) if fmt == "json" else emit_dot(machine)
    sys.stdout.write(text)


def _option(name: str, check, *args):
    """check(*args), naming the option in a ValueError it raises."""
    try:
        return check(*args)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _load_dfa(path: str, name: str) -> Dfa:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"{name}: cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise ValueError(f"{name}: cannot read {path}: not UTF-8 text")
    machine = parse_document(text)
    if not isinstance(machine, Dfa):
        raise ValueError(f"{name}: {path} holds an nfa document, expected a dfa")
    return machine


def cmd_witness(args) -> int:
    kind, generator = FAMILIES[args.family]
    if kind == "alphabet":
        machine = _option("--alphabet", generator, tuple(args.alphabet))
    else:
        size = getattr(args, kind)
        if size is None:
            raise ValueError(f"family {args.family} needs --{kind}")
        machine = _option(f"--{kind}", generator, size)
    _emit(machine, args.format)
    return 0


def cmd_compose(args) -> int:
    a = _load_dfa(args.lhs, "--lhs")
    b = _load_dfa(args.rhs, "--rhs")
    build = combined if args.method == "direct" else oracle_pipeline
    result = _option("--lhs/--rhs", build, args.op, a, b)
    if args.minimize:
        result = minimize_hopcroft(result)
        minimal = result.state_count
    else:
        minimal = minimal_size(result)
    _emit(result, args.format)
    print(f"states={result.state_count} minimal={minimal}")
    return 0


def cmd_sc(args) -> int:
    # imported here: it costs every other command about 2.5 ms and 0.5 MiB
    import decimal

    spec = OPS[args.op]
    if args.k1 is None:
        count, sizes, option = spec.sc, (args.m, args.n), "--m/--n"
    elif spec.bound_k1 is None:
        raise ValueError("--k1 only applies to --op starcat")
    else:
        count, sizes, option = spec.bound_k1, (args.m, args.n, args.k1), "--m/--n/--k1"
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # the count's decimal exponent, from the count to 20 digits, forms no
    # power of two in full, so one far past the limit is refused at once,
    # and one near it is cheap to form exactly
    try:
        with decimal.localcontext(decimal.Context(prec=20, Emax=decimal.MAX_EMAX)):
            estimate = _option(option, count, *map(decimal.Decimal, sizes))
            exponent = decimal.Decimal(estimate).adjusted()
    except decimal.Overflow:
        exponent = limit + 1
    if limit and (exponent > limit or count(*sizes) >= 10 ** limit):
        raise ValueError(
            f"--m/--n: the count has more than {limit} digits, "
            "past this interpreter's limit for printing an int"
        )
    print(count(*sizes))
    return 0


def _parse_range(text: str, name: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise ValueError(f"{name}: bad range {text!r}, expected A..B or a single integer")
    if not values:
        raise ValueError(f"{name}: range {text!r} is empty")
    return values


def cmd_verify(args) -> int:
    ms = _parse_range(args.m, "--m")
    ns = _parse_range(args.n, "--n")
    all_passed = True
    for m in ms:
        for n in ns:
            report = _option("--m/--n", verify_witness, args.op, m, n)
            print(report)
            all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def cmd_search(args) -> int:
    mode = "full" if args.sample is None else "sampled"
    _option("--m/--n", _check_sizes, args.m, args.n)
    _option("--sigma", _alphabet, args.sigma)
    if mode == "sampled" and args.sample < 1:
        raise ValueError("--sample: the sample size must be at least 1")
    prefix = args.out_prefix or f"argmax_{args.op}_m{args.m}_n{args.n}"
    paths = [Path(f"{prefix}_{side}.json") for side in ("lhs", "rhs")]
    # a search can take minutes, so a bad prefix fails before it starts
    folder = paths[0].parent
    if not folder.is_dir() or not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES if folder.is_dir() else errno.ENOENT
        raise ValueError(f"--out-prefix: cannot write {paths[0]}: {os.strerror(code)}")
    result = exhaustive_search(
        args.op, args.m, args.n, args.sigma,
        mode=mode, sample_count=args.sample, seed=args.seed,
    )
    print(
        f"op={result.op} m={result.m} n={result.n} sigma={result.alphabet_size} "
        f"mode={mode} pairs={result.pairs_examined} max_minimal={result.max_minimal}"
    )
    for side, path, machine in zip(("lhs", "rhs"), paths, result.argmax):
        try:
            path.write_text(emit_document(machine))
        except OSError as e:
            raise ValueError(f"--out-prefix: cannot write {path}: {e.strerror}")
        print(f"argmax {side} -> {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="statecomp",
        description="State complexity of reversal-catenation and star-catenation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="emit a stored worst-case machine")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--alphabet", default="abcd",
                   help="symbols for the sigma-star/empty families")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("compose", help="run an operation on two DFA files")
    p.add_argument("--op", required=True, choices=COMPOSE_OPS)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--method", required=True, choices=("direct", "oracle"))
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("sc", help="evaluate a closed-form state count")
    p.add_argument("--op", required=True, choices=tuple(OPS))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k1", type=int)
    p.set_defaults(func=cmd_sc)

    p = sub.add_parser("verify", help="check witness grids against the formulas")
    p.add_argument("--op", required=True, choices=tuple(OPS))
    p.add_argument("--m", required=True, help="range A..B (inclusive) or a single value")
    p.add_argument("--n", required=True, help="range C..D (inclusive) or a single value")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="maximize the minimal result size over all pairs")
    p.add_argument("--op", required=True, choices=COMPOSE_OPS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample this many pairs instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", help="path prefix for the argmax JSON files")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
