"""JSON documents and DOT text for automata.

The JSON layout is fixed: kind, alphabet, states, initial (or initials),
finals, transitions, and for nondeterministic machines an epsilon list.
Emit always writes keys in that order with sorted state lists, so
emitting a parsed canonical document reproduces it byte for byte.
"""

from __future__ import annotations

import json
import sys

from .automata import Dfa, Nfa, nfa_from_dfa


class DocumentError(ValueError):
    """Raised for malformed automaton documents; the message names the field."""


def _need(obj: dict, key: str):
    if key not in obj:
        raise DocumentError(f"{key}: missing field")
    return obj[key]


def _int_in_range(value, hi: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    if not 0 <= value < hi:
        raise DocumentError(f"{where}: state {value} out of range 0..{hi - 1}")
    return value


def _state_list(value, hi: int, where: str, at: int | None = None) -> list[int]:
    """value, a list of states below hi, at the path where, or where[at]
    when at is given."""
    # the whole list at once; a path is formatted only to name the first
    # bad list or element
    if isinstance(value, list) and all(type(v) is int for v in value) and (
        not value or 0 <= min(value) and max(value) < hi
    ):
        return value
    if at is not None:
        where = f"{where}[{at}]"
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected a list")
    return [_int_in_range(v, hi, f"{where}[{k}]") for k, v in enumerate(value)]


def parse_document(text: str) -> Dfa | Nfa:
    """Parse a JSON automaton document into a Dfa or Nfa."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"document: not valid JSON ({e.msg} at line {e.lineno})")
    except RecursionError:
        raise DocumentError("document: nested too deeply")
    except ValueError:  # an integer literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"document: an integer literal has more than {limit} digits")
    if not isinstance(obj, dict):
        raise DocumentError("document: expected a JSON object")

    kind = _need(obj, "kind")
    if kind not in ("dfa", "nfa"):
        raise DocumentError(f"kind: expected \"dfa\" or \"nfa\", got {kind!r}")

    alphabet = _need(obj, "alphabet")
    if not isinstance(alphabet, list) or not alphabet:
        raise DocumentError("alphabet: expected a nonempty list")
    for k, sym in enumerate(alphabet):
        if not isinstance(sym, str) or len(sym) != 1:
            raise DocumentError(f"alphabet[{k}]: expected a single-character string")
    if len(set(alphabet)) != len(alphabet):
        raise DocumentError("alphabet: symbols must be distinct")
    alphabet = tuple(alphabet)

    states = _need(obj, "states")
    if not isinstance(states, int) or isinstance(states, bool) or states < 1:
        raise DocumentError("states: expected a positive integer")

    finals = frozenset(_state_list(_need(obj, "finals"), states, "finals"))

    trans = _need(obj, "transitions")
    if not isinstance(trans, dict):
        raise DocumentError("transitions: expected an object keyed by symbol")
    extra = set(trans) - set(alphabet)
    if extra:
        raise DocumentError(f"transitions: unknown symbol {sorted(extra)[0]!r}")

    if kind == "dfa":
        if "initials" in obj or "epsilon" in obj:
            raise DocumentError("kind: dfa documents take initial, not initials/epsilon")
        initial = _int_in_range(_need(obj, "initial"), states, "initial")
        rows = []
        for sym in alphabet:
            if sym not in trans:
                raise DocumentError(f"transitions.{sym}: missing row")
            row = _state_list(trans[sym], states, f"transitions.{sym}")
            if len(row) != states:
                raise DocumentError(
                    f"transitions.{sym}: expected {states} entries, got {len(row)}"
                )
            rows.append(tuple(row))
        return Dfa(states, alphabet, tuple(rows), initial, finals)

    if "initial" in obj:
        raise DocumentError("kind: nfa documents take initials, not initial")
    initials = frozenset(_state_list(_need(obj, "initials"), states, "initials"))
    rows = []
    for sym in alphabet:
        if sym not in trans:
            raise DocumentError(f"transitions.{sym}: missing row")
        row = trans[sym]
        if not isinstance(row, list) or len(row) != states:
            raise DocumentError(f"transitions.{sym}: expected {states} target lists")
        where = f"transitions.{sym}"
        rows.append(
            tuple(
                frozenset(_state_list(tgt, states, where, q)) for q, tgt in enumerate(row)
            )
        )
    pairs = obj.get("epsilon", [])
    if not isinstance(pairs, list):
        raise DocumentError("epsilon: expected a list of [from, to] pairs")
    epsilon = set()
    for k, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"epsilon[{k}]: expected a [from, to] pair")
        u = _int_in_range(pair[0], states, f"epsilon[{k}][0]")
        v = _int_in_range(pair[1], states, f"epsilon[{k}][1]")
        epsilon.add((u, v))
    return Nfa(states, alphabet, tuple(rows), initials, frozenset(epsilon), finals)


def document_dict(a: Dfa | Nfa) -> dict:
    """Plain-dict form of an automaton, keys in canonical order."""
    doc: dict = {"kind": "dfa" if isinstance(a, Dfa) else "nfa"}
    doc["alphabet"] = list(a.alphabet)
    doc["states"] = a.state_count
    if isinstance(a, Dfa):
        doc["initial"] = a.initial
        rows = [list(row) for row in a.transitions]
    else:
        doc["initials"] = sorted(a.initials)
        rows = [[sorted(t) for t in row] for row in a.transitions]
    doc["finals"] = sorted(a.finals)
    doc["transitions"] = dict(zip(a.alphabet, rows))
    if isinstance(a, Nfa):
        doc["epsilon"] = sorted([u, v] for u, v in a.epsilon_edges)
    return doc


def _dumps(value, indent: str) -> str:
    """value as json's encoder writes it with an indent of 2, for the
    values document_dict holds: strs, ints, and lists and str-keyed
    dicts of them, each list all ints, all strs or all lists.

    With an indent, json formats value by value in Python; here a list
    of ints is one str.join.  Strs go through json.dumps without an
    indent, so their escapes (quotes, backslashes, control and non-ASCII
    characters) are json's own.
    """
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join(
            f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in value.items()
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value[0], int):
        body = sep.join(map(str, value))
    else:
        body = sep.join([_dumps(v, inner) for v in value])
    return f"[\n{inner}{body}\n{indent}]"


def emit_document(a: Dfa | Nfa) -> str:
    """The JSON document of a: document_dict's keys and values, byte for
    byte as json's encoder writes them with an indent of 2."""
    return _dumps(document_dict(a), "") + "\n"


def emit_dot(a: Dfa | Nfa) -> str:
    """DOT digraph: one labeled edge per transition, double circles on
    final states, a point-shaped entry arrow into each initial state.
    A Dfa is written as its Nfa, nfa_from_dfa's."""
    if isinstance(a, Dfa):
        a = nfa_from_dfa(a)
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in sorted(a.finals):
        lines.append(f"  {q} [shape=doublecircle];")
    lines.append("  __start [shape=point];")
    for q in sorted(a.initials):
        lines.append(f"  __start -> {q};")
    for q in range(a.state_count):
        for s, sym in enumerate(a.alphabet):
            for t in sorted(a.transitions[s][q]):
                lines.append(f"  {q} -> {t} [label=\"{sym}\"];")
    for u, v in sorted(a.epsilon_edges):
        lines.append(f"  {u} -> {v} [label=\"&epsilon;\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
