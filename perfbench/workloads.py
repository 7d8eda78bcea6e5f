"""What each workload runs, made from the seed alone.

Shared by the measuring child (which hands the inputs to the program)
and the checking parent (which recomputes the expected results).  No
import of the program here.
"""

from __future__ import annotations

import json
import math
import random
from typing import NamedTuple

from reference import Machine, result_machine

SEARCH_SHAPE = (2, 2, 3)  # (m, n, |Sigma|): 65,536 pairs per operation
SEARCH_OPS = ("revcat", "starcat")


def search_pairs() -> int:
    """Pairs one full search covers: complete DFAs with initial state 0,
    every transition table and every final set, on each side."""
    m, n, sigma = SEARCH_SHAPE
    return m ** (m * sigma) * 2 ** m * n ** (n * sigma) * 2 ** n


# (verify op, m, n); the last cell is the ~10k-state restricted star form
WITNESS_CELLS = (
    ("revcat", 6, 6), ("starcat", 6, 6),
    ("revcat", 7, 7), ("starcat", 7, 7),
    ("revcat", 8, 8), ("starcat", 8, 8),
    ("starcat-special", 10, 10),
)

COMPOSE_SIZES = range(4, 10)
COMPOSE_SIGMAS = (2, 3, 4)
# Shapes that pick different branches of the direct route: a one-state
# right operand, a left operand with no finals, and one whose only final
# is its initial state.
SPECIAL_KINDS = ("n1", "nofinal", "initfinal")
MAKEUP_SEED = 0
MAX_DRAWS = 400
WORDS_PER_PAIR = 24
WORD_MAX_LEN = 8


class ComposePair(NamedTuple):
    op: str
    kind: str
    a: Machine
    b: Machine
    words: list


def _operand(rng: random.Random, size: int, alphabet: str, kind: str) -> Machine:
    """Uniform transitions and initial state; with probability 1/2 one
    non-initial state is made unreachable by redirecting its in-edges.
    kind "nofinal" or "initfinal" then overrides the random final set."""
    delta = [[rng.randrange(size) for _ in range(size)] for _ in alphabet]
    initial = rng.randrange(size)
    finals = {q for q in range(size) if rng.random() < 0.5}
    if size > 1 and rng.random() < 0.5:
        hidden = rng.choice([q for q in range(size) if q != initial])
        others = [q for q in range(size) if q != hidden]
        for row in delta:
            for q in range(size):
                if row[q] == hidden:
                    row[q] = rng.choice(others)
    if kind == "nofinal":
        finals = set()
    elif kind == "initfinal":
        finals = {initial}
    return Machine(size, alphabet, tuple(map(tuple, delta)), initial, frozenset(finals))


def _draw(rng: random.Random, op: str, kind: str, m: int, n: int, sigma: int) -> ComposePair:
    alphabet = "abcd"[:sigma]
    a = _operand(rng, m, alphabet, kind)
    b = _operand(rng, n, alphabet, "general")
    words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, WORD_MAX_LEN)))
             for _ in range(WORDS_PER_PAIR)]
    return ComposePair(op, kind, a, b, words)


def _grid(rng: random.Random):
    """Every (op, m, n, |Sigma|) cell once for a general pair, and every
    (op, m, |Sigma|) cell once per special shape: 324 slots."""
    for op in SEARCH_OPS:
        for m in COMPOSE_SIZES:
            for n in COMPOSE_SIZES:
                for sigma in COMPOSE_SIGMAS:
                    yield op, "general", m, n, sigma
        for m in COMPOSE_SIZES:
            for sigma in COMPOSE_SIGMAS:
                for kind in SPECIAL_KINDS:
                    n = 1 if kind == "n1" else rng.choice(COMPOSE_SIZES)
                    yield op, kind, m, n, sigma


def _band(states: int) -> int:
    """Quarter-octave size class: states in [2^(k/4), 2^((k+1)/4))."""
    return int(4 * math.log2(states))


def compose_pairs(seed: int) -> list[ComposePair]:
    """One round of compose inputs.

    Result sizes are heavy-tailed, so a plain random draw moves the tail
    (p95, the slowest call, peak memory) from seed to seed more than any
    change worth catching.  The round therefore has a fixed make-up: the
    grid drawn once with MAKEUP_SEED fixes, per slot, the op, the
    operand shape and the quarter-octave size class of the result; the seed
    then draws, per slot, random operands of that shape until the
    reference subset construction lands in that class.
    """
    makeup = random.Random(MAKEUP_SEED)
    rng = random.Random(seed)
    pairs = []
    for slot in _grid(makeup):
        model = _draw(makeup, *slot)
        target = _band(result_machine(model.op, model.a, model.b).states)
        limit = int(2 ** ((target + 1) / 4))
        for _ in range(MAX_DRAWS):  # the last draw stands if none lands
            pair = _draw(rng, *slot)
            result = result_machine(pair.op, pair.a, pair.b, limit)
            if result is not None and _band(result.states) == target:
                break
        pairs.append(pair)
    return pairs


def document(d: Machine) -> str:
    """The program's DFA document layout, written with the json module."""
    return json.dumps({
        "kind": "dfa",
        "alphabet": list(d.alphabet),
        "states": d.states,
        "initial": d.initial,
        "finals": sorted(d.finals),
        "transitions": {sym: list(d.delta[s]) for s, sym in enumerate(d.alphabet)},
    })


def parse_document(text: str) -> Machine:
    """Re-read a DFA document the program emitted, checking its structure."""
    doc = json.loads(text)
    if doc.get("kind") != "dfa":
        raise ValueError("kind is not dfa")
    n = doc["states"]
    alphabet = "".join(doc["alphabet"])
    if not isinstance(n, int) or n < 1 or len(alphabet) != len(doc["alphabet"]):
        raise ValueError("bad states or alphabet")
    if set(doc["transitions"]) != set(alphabet):
        raise ValueError("transition rows do not match the alphabet")
    delta = tuple(tuple(doc["transitions"][sym]) for sym in alphabet)
    targets = [t for row in delta for t in row] + list(doc["finals"]) + [doc["initial"]]
    if any(len(row) != n for row in delta) or any(
        not isinstance(t, int) or not 0 <= t < n for t in targets
    ):
        raise ValueError("state out of range or row of the wrong length")
    return Machine(n, alphabet, delta, doc["initial"], frozenset(doc["finals"]))
