"""Spans around the program's public functions, for the traced run.

Each wrapped call records (name, start, end, parent) in flat arrays; the
per-layer metrics are self times (a span's duration minus the part its
child spans cover) and counts taken from those spans, one value per
round.  Functions are wrapped at the module attributes the program calls
them through, so nothing under src/ changes.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

# per-layer metric -> unit; every traced run reports all of them (0 where
# the workload never reaches the layer)
LAYER_METRICS = {
    "harness.search.pairs_covered": "count",
    "harness.search.pairs_evaluated": "count",
    "harness.search.self_s": "s",
    "harness.decode_dfa.calls": "count",
    "harness.decode_dfa.self_s": "s",
    "harness.oracle.self_s": "s",
    "harness.verify.self_s": "s",
    "constructions.left_nfa.self_s": "s",
    "constructions.catenation_nfa.self_s": "s",
    "constructions.direct.self_s": "s",
    "constructions.direct.states": "count",
    "automata.validate.calls": "count",
    "automata.validate.self_s": "s",
    "automata.determinize.self_s": "s",
    "automata.determinize.states": "count",
    "automata.minimize.self_s": "s",
    "automata.minimize.states_in": "count",
    "automata.minimize.states_out": "count",
    "automata.equivalent.self_s": "s",
    "serialize.parse.self_s": "s",
    "serialize.emit.self_s": "s",
    "serialize.bytes": "bytes",
    "witnesses.build.self_s": "s",
    "cli.self_s": "s",
}


def _add(key, value):
    def count(counters, args, out):
        counters[key] += value(args, out)
    return count


def _count_minimize(counters, args, out):
    counters["automata.minimize.states_in"] += args[0].state_count
    counters["automata.minimize.states_out"] += out.state_count


_count_direct = _add("constructions.direct.states", lambda a, out: out.state_count)
_count_bytes = _add("serialize.bytes", lambda a, out: len(out))

# (module, attribute, span name, counter); the module is where the caller
# looks the function up, not where it is defined
SITES = [
    ("harness", "exhaustive_search", "harness.search",
     _add("harness.search.pairs_covered", lambda a, out: out.pairs_examined)),
    ("harness", "decode_dfa", "harness.decode_dfa", None),
    ("harness", "oracle_sc", "harness.oracle",
     _add("harness.search.pairs_evaluated", lambda a, out: 1)),
    ("harness", "oracle_pipeline", "harness.oracle", None),
    ("harness", "verify_witness", "harness.verify", None),
    ("harness", "reverse_nfa", "constructions.left_nfa", None),
    ("harness", "star_nfa", "constructions.left_nfa", None),
    ("harness", "catenation_nfa", "constructions.catenation_nfa", None),
    ("harness", "combined", "constructions.direct", _count_direct),
    ("harness", "determinize", "automata.determinize",
     _add("automata.determinize.states", lambda a, out: out[0].state_count)),
    ("harness", "minimize_hopcroft", "automata.minimize", _count_minimize),
    ("harness", "equivalent", "automata.equivalent", None),
    ("constructions", "minimize_hopcroft", "automata.minimize", _count_minimize),
    ("constructions", "sigma_star_dfa", "witnesses.build", None),
    ("constructions", "empty_dfa", "witnesses.build", None),
    ("cli", "main", "cli", None),
    ("cli", "combined", "constructions.direct", _count_direct),
    ("cli", "oracle_pipeline", "harness.oracle", None),
    ("cli", "minimize_hopcroft", "automata.minimize", _count_minimize),
    ("cli", "parse_document", "serialize.parse", None),
    ("cli", "emit_document", "serialize.emit", _count_bytes),
    ("cli", "emit_dot", "serialize.emit", _count_bytes),
] + [("harness", name, "witnesses.build", None) for name in (
    "revcat_witness_M", "revcat_witness_N", "revcat_n1_witness",
    "starcat_witness_A", "starcat_witness_B",
    "starcat_special_witness_A", "starcat_special_witness_B", "sigma_star_dfa",
)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.round_starts: list[int] = []
        self.round_counters: list[Counter] = []
        self.stack = [-1]
        self.missing: list[str] = []

    def begin_round(self):
        self.round_starts.append(len(self.name))
        self.round_counters.append(Counter())

    def wrap(self, fn, name: str, count=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        rec_name, rec_start, rec_end, rec_parent = self.name, self.start, self.end, self.parent
        stack = self.stack
        counters = self.round_counters

        def traced(*args, **kwargs):
            idx = len(rec_name)
            rec_name.append(nid)
            rec_parent.append(stack[-1])
            rec_start.append(0)
            rec_end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec_start[idx] = t0
                rec_end[idx] = t1
            if count is not None:
                count(counters[-1], args, out)
            return out

        return traced

    def install(self):
        """Wrap every site and the two validating constructors."""
        import statecomp.automata as automata
        import statecomp.cli as cli
        import statecomp.constructions as constructions
        import statecomp.harness as harness

        modules = {"harness": harness, "constructions": constructions, "cli": cli}
        for mod, attr, name, count in SITES:
            target = getattr(modules[mod], attr, None)
            if target is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            setattr(modules[mod], attr, self.wrap(target, name, count))
        for cls in (automata.Dfa, automata.Nfa):
            cls.__post_init__ = self.wrap(cls.__post_init__, "automata.validate")

    def layer_metrics(self) -> dict:
        """Median self time per round and the first round's counts (counts
        repeat from round to round; `consistent` says whether they did)."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        bounds = self.round_starts + [n]
        per_round = []
        for r in range(len(self.round_starts)):
            self_ns = Counter()
            calls = Counter()
            for i in range(bounds[r], bounds[r + 1]):
                name = self.names[self.name[i]]
                self_ns[name] += self.end[i] - self.start[i] - child[i]
                calls[name] += 1
            values = {f"{k}.self_s": v / 1e9 for k, v in self_ns.items()}
            values.update({f"{k}.calls": v for k, v in calls.items()})
            values.update(self.round_counters[r])
            per_round.append(values)
        out = {}
        consistent = True
        for key, unit in LAYER_METRICS.items():
            vals = [v.get(key, 0) for v in per_round]
            if unit == "s":
                out[key] = statistics.median(vals)
            else:
                out[key] = vals[0]
                consistent = consistent and len(set(vals)) == 1
        return {"metrics": out, "consistent": consistent}

    def write_spans(self, path):
        """All spans, columnar, times in ns from perf_counter_ns."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump({
                "names": self.names,
                "round_starts": self.round_starts,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            }, f)
