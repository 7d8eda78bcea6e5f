"""Test references written apart from the library.

`perfbench/reference.py`, loaded here by path as `reference`, is the one
reference for word membership, membership by trying every split, the
frozenset reversal and Moore's minimal size.  It imports nothing from the
library, and the benchmark and CI trust it too.  `machine` hands it a
`Dfa`; `run_word`, `moore_minimal_size` and `ref_reverse_nfa` adapt it.

What stays here, `reference.py` does not state: the library's own star
and catenation layouts, which the structural tests pin (its star is
Thompson's, and its catenation puts the left machine first); a subset
construction that returns its subsets in state order; the direct routes'
product machines; `moore_classes`, `all_words` and `random_complete_dfa`.
"""

from __future__ import annotations

import ast
import importlib.util
import random
from itertools import count, product
from pathlib import Path

from statecomp import AlphabetMismatch, Dfa, Nfa

_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).parents[1] / "perfbench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def imported_modules(path: Path) -> list[str]:
    """Every module name the Python file at path imports, read with ast;
    none may be relative."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.append(node.module)
    return imported


def machine(d: Dfa) -> reference.Machine:
    """The reference's Machine of d: the same table, the letters as a string."""
    return reference.Machine(
        d.state_count, "".join(d.alphabet), d.transitions, d.initial, d.finals
    )


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for chars in product(alphabet, repeat=length):
            yield "".join(chars)


def run_word(d: Dfa, word: str) -> bool:
    return reference.accepts(machine(d), word)


def moore_minimal_size(d: Dfa) -> int:
    return reference.moore_size(machine(d))


def moore_classes(rows, finals) -> list[int]:
    """Class of every state of a complete table (rows[s][q] the successor
    of q on symbol s), numbered by first occurrence: two states share a
    class exactly when no word tells them apart.  Plain Moore rounds,
    each splitting by (class, successor classes); no reachability pass."""
    cls = [int(q in finals) for q in range(len(rows[0]))]
    size = len(set(cls))
    while True:
        sig = list(zip(cls, *(map(cls.__getitem__, row) for row in rows)))
        # number the signatures by first occurrence
        ids = dict(zip(dict.fromkeys(sig), count()))
        cls = list(map(ids.__getitem__, sig))
        if len(ids) == size:
            return cls
        size = len(ids)


def ref_reverse_nfa(d: Dfa) -> Nfa:
    """reference.reversal as an Nfa, the reference for the library's
    reverse_masks and reverse_nfa."""
    r = reference.reversal(machine(d))
    return Nfa(r.states, d.alphabet, r.delta, r.initials, frozenset(), r.finals)


def ref_star_nfa(a: Dfa) -> Nfa:
    """Nfa for L(a)*, the reference for the library's star_masks and
    star_nfa.

    A fresh state (index a.state_count) is both initial and final and
    copies the initial state's outgoing moves; nothing enters it.  Every
    move into a final state of a also targets a.initial, which re-enters
    the loop without free moves.
    """
    n = a.state_count
    init = a.initial
    fins = a.finals
    rows = []
    for s in range(len(a.alphabet)):
        row = a.transitions[s]
        new_row = [
            frozenset((row[q], init)) if row[q] in fins else frozenset((row[q],))
            for q in range(n)
        ]
        new_row.append(new_row[init])
        rows.append(tuple(new_row))
    return Nfa(
        state_count=n + 1,
        alphabet=a.alphabet,
        transitions=tuple(rows),
        initials=frozenset((n,)),
        epsilon_edges=frozenset(),
        finals=frozenset(fins) | frozenset((n,)),
    )


# each op's left operand as a reference Nfa: L(a)^R or L(a)*
REF_LEFT = {"revcat": ref_reverse_nfa, "starcat": ref_star_nfa}


def catenation_nfa(a: Nfa, b: Dfa) -> Nfa:
    """Catenation of an Nfa with a Dfa, the reference for the library's
    catenation_masks: disjoint union with free moves from every final
    state of a to b's initial state; finals are b's.  States are
    numbered as catenation_masks numbers them: b's state q is q, and a's
    state q is b.state_count + q."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"operands use different alphabets {a.alphabet!r} and {b.alphabet!r}"
        )
    off = b.state_count
    rows = tuple(
        tuple(frozenset((t,)) for t in brow)
        + tuple(frozenset(off + t for t in targets) for targets in arow)
        for arow, brow in zip(a.transitions, b.transitions)
    )
    return Nfa(
        state_count=off + a.state_count,
        alphabet=a.alphabet,
        transitions=rows,
        initials=frozenset(off + q for q in a.initials),
        epsilon_edges=frozenset((off + u, off + v) for u, v in a.epsilon_edges)
        | {(off + f, b.initial) for f in a.finals},
        finals=b.finals,
    )


def random_complete_dfa(rng: random.Random, size: int, alphabet) -> Dfa:
    alphabet = tuple(alphabet)
    rows = tuple(
        tuple(rng.randrange(size) for _ in range(size)) for _ in alphabet
    )
    finals = frozenset(q for q in range(size) if rng.random() < 0.5)
    return Dfa(size, alphabet, rows, rng.randrange(size), finals)


def _bfs_build(alphabet, start, step, is_final) -> tuple[Dfa, list]:
    """Generic frozenset-state BFS in alphabet order; returns the Dfa and
    the discovered state keys in numbering order."""
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in alphabet]
    for key in order:
        for s, row in enumerate(rows):
            nxt = step(key, s)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
    finals = frozenset(i for i, key in enumerate(order) if is_final(key))
    dfa = Dfa(len(order), tuple(alphabet), tuple(tuple(r) for r in rows), 0, finals)
    return dfa, order


def ref_determinize(nfa: Nfa) -> tuple[Dfa, list[int]]:
    """Subset construction with epsilon closure over frozensets, the
    reference for the library's determinize: the Dfa and its subsets as
    masks, in state order."""
    eps: dict[int, list[int]] = {q: [] for q in range(nfa.state_count)}
    for u, v in nfa.epsilon_edges:
        eps[u].append(v)

    def closure(states) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for v in eps[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def step(key, s):
        return closure(t for q in key for t in nfa.transitions[s][q])

    dfa, order = _bfs_build(
        nfa.alphabet, closure(nfa.initials), step, lambda key: bool(key & nfa.finals)
    )
    return dfa, [sum(1 << q for q in key) for key in order]


def ref_revcat(m: Dfa, n: Dfa) -> tuple[Dfa, list]:
    """Reversal-catenation product rebuilt with frozensets."""
    nsym = len(m.alphabet)
    pre = [
        {q: frozenset(p for p in range(m.state_count) if m.transitions[s][p] == q)
         for q in range(m.state_count)}
        for s in range(nsym)
    ]

    def step(key, s):
        i, j = key
        i2 = frozenset().union(*[pre[s][q] for q in i]) if i else frozenset()
        j2 = frozenset(n.transitions[s][q] for q in j)
        if m.initial in i2:
            j2 |= {n.initial}
        return (i2, j2)

    i0 = frozenset(m.finals)
    j0 = frozenset((n.initial,)) if m.initial in i0 else frozenset()
    return _bfs_build(
        m.alphabet, (i0, j0), step, lambda key: bool(key[1] & n.finals)
    )


def ref_revcat_n1(m: Dfa) -> Dfa:
    """L(m)^R followed by anything, rebuilt with frozensets: the subset
    walk of m's reversal, in which every subset holding m's initial
    state becomes the one absorbing final key "sink"."""

    def key(states: frozenset) -> frozenset | str:
        return "sink" if m.initial in states else states

    def step(k, s):
        if k == "sink":
            return k
        row = m.transitions[s]
        return key(frozenset(p for p in range(m.state_count) if row[p] in k))

    dfa, _ = _bfs_build(m.alphabet, key(frozenset(m.finals)), step, lambda k: k == "sink")
    return dfa


def ref_starcat_special(a: Dfa, b: Dfa) -> tuple[Dfa, list]:
    def step(key, s):
        q, t = key
        q2 = a.transitions[s][q]
        t2 = frozenset(b.transitions[s][x] for x in t)
        if q2 == a.initial:
            t2 |= {b.initial}
        return (q2, t2)

    start = (a.initial, frozenset((b.initial,)))
    return _bfs_build(a.alphabet, start, step, lambda key: bool(key[1] & b.finals))


def ref_starcat_general(a: Dfa, b: Dfa) -> tuple[Dfa, list]:
    def step(key, s):
        p, t = key
        p2 = frozenset(a.transitions[s][x] for x in p)
        t2 = frozenset(b.transitions[s][x] for x in t)
        if p2 & a.finals:
            p2 |= {a.initial}
            t2 |= {b.initial}
        return (p2, t2)

    start = (frozenset((a.initial,)), frozenset((b.initial,)))
    return _bfs_build(a.alphabet, start, step, lambda key: bool(key[1] & b.finals))
