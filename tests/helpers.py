"""Independent reference oracles for the test suite.

Nothing here reuses the library's bitmask machinery: minimization is
redone by naive signature refinement, operation membership is decided at
the word level by trying every split, and the product constructions are
rebuilt with plain frozensets straight from their definitions.  Tests
compare the fast implementations against these.
"""

from __future__ import annotations

import random
from itertools import count, product

from statecomp import Dfa


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for chars in product(alphabet, repeat=length):
            yield "".join(chars)


def run_word(d: Dfa, word: str) -> bool:
    idx = {sym: s for s, sym in enumerate(d.alphabet)}
    q = d.initial
    for ch in word:
        q = d.transitions[idx[ch]][q]
    return q in d.finals


def moore_minimal_size(d: Dfa) -> int:
    """Minimal state count by plain signature refinement over reachable states."""
    nsym = len(d.alphabet)
    seen = {d.initial}
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for s in range(nsym):
            t = d.transitions[s][q]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    cls = {q: int(q in d.finals) for q in seen}
    n_classes = len(set(cls.values()))
    while True:
        ren: dict[tuple, int] = {}
        new = {}
        for q in sorted(seen):
            sig = (cls[q], *[cls[d.transitions[s][q]] for s in range(nsym)])
            new[q] = ren.setdefault(sig, len(ren))
        if len(ren) == n_classes:
            return n_classes
        cls = new
        n_classes = len(ren)


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


def revcat_member(a: Dfa, b: Dfa, word: str) -> bool:
    """word is in L(a)^R L(b): some split u v with reverse(u) in L(a)."""
    return any(
        run_word(a, word[:i][::-1]) and run_word(b, word[i:])
        for i in range(len(word) + 1)
    )


def star_member(a: Dfa, word: str) -> bool:
    """word is in L(a)*: it splits into zero or more L(a) pieces."""
    dp = [True] + [False] * len(word)
    for i in range(1, len(word) + 1):
        dp[i] = any(dp[j] and run_word(a, word[j:i]) for j in range(i))
    return dp[len(word)]


def starcat_member(a: Dfa, b: Dfa, word: str) -> bool:
    return any(
        star_member(a, word[:i]) and run_word(b, word[i:])
        for i in range(len(word) + 1)
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
    k = 0
    while k < len(order):
        for s in range(len(alphabet)):
            nxt = step(order[k], s)
            idx = index.get(nxt)
            if idx is None:
                idx = len(order)
                index[nxt] = idx
                order.append(nxt)
            rows[s].append(idx)
        k += 1
    finals = frozenset(i for i, key in enumerate(order) if is_final(key))
    dfa = Dfa(len(order), tuple(alphabet), tuple(tuple(r) for r in rows), 0, finals)
    return dfa, order


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
