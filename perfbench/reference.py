"""Reference computations the benchmark checks the program against.

Nothing here imports the program.  The closed forms are typed in again
from the paper; the constructions use plain frozensets straight from the
textbook definitions (an epsilon-NFA for the star, the reversed edge
relation for the reversal, epsilon moves for the catenation); the
minimal size comes from Moore's signature refinement; and membership in
the result language is decided word by word by trying every split.

A machine is a `Machine`: transitions are indexed `delta[symbol][state]`,
the same layout as the program's JSON documents.
"""

from __future__ import annotations

from typing import NamedTuple


class Machine(NamedTuple):
    states: int
    alphabet: str
    delta: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset


# ---------------------------------------------------------------- closed forms

def sc_revcat(m: int, n: int) -> int:
    """Worst-case size of L(A)^R L(B)."""
    if m == 1:
        return 2 ** (n - 1)
    if n == 1:
        return 2 ** (m - 1) + 1
    return 3 * 2 ** (m + n - 2)


def sc_starcat(m: int, n: int) -> int:
    """Worst-case size of L(A)* L(B)."""
    if n == 1:
        return 1
    if m == 1:
        return sc_starcat_special(1, n)
    return 5 * 2 ** (m + n - 3) - 2 ** (m - 1) - 2 ** n + 1


def sc_starcat_special(m: int, n: int) -> int:
    """Worst-case size of L(A)* L(B) when A's only final state is its initial one."""
    if n == 1:
        return 1
    return m * (2 ** n - 1) - 2 ** (n - 1) + 1


def ub_starcat_general(m: int, n: int, k1: int) -> int:
    """Size bound of the general star-catenation product, k1 non-initial finals."""
    return (3 * 2 ** (m - 2) - 1) * (2 ** n - 1) - (
        2 ** (m - 1) - 2 ** (m - k1 - 1)
    ) * (2 ** (n - 1) - 1)


def direct_bound(op: str, a: Machine, b: Machine) -> int:
    """Most states the direct product route may build for this operand shape."""
    m, n = a.states, b.states
    if op == "revcat":
        if n == 1 and m >= 2:
            return 2 ** (m - 1) + 1
        return 3 * 2 ** (m + n - 2)
    if n == 1:
        return 1
    if not a.finals:
        return n
    if a.finals == {a.initial}:
        return sc_starcat_special(m, n)
    return ub_starcat_general(m, n, len(a.finals - {a.initial}))


# ------------------------------------------------ constructions from definitions

class Enfa(NamedTuple):
    states: int
    alphabet: str
    delta: tuple[tuple[frozenset, ...], ...]
    initials: frozenset
    eps: dict
    finals: frozenset


def reversal(a: Machine) -> Enfa:
    """Every edge p -a-> q becomes q -a-> p; initial and final roles swap."""
    delta = tuple(
        tuple(frozenset(p for p in range(a.states) if row[p] == q) for q in range(a.states))
        for row in a.delta
    )
    return Enfa(a.states, a.alphabet, delta, frozenset(a.finals),
                {}, frozenset((a.initial,)))


def star(a: Machine) -> Enfa:
    """Thompson-style star: a fresh accepting start with an epsilon move to
    A's initial state, and epsilon moves from A's finals back to it."""
    new = a.states
    delta = tuple(
        tuple(frozenset((row[q],)) for q in range(a.states)) + (frozenset(),)
        for row in a.delta
    )
    eps = {new: frozenset((a.initial,))}
    for f in a.finals:
        eps[f] = frozenset((new,))
    return Enfa(a.states + 1, a.alphabet, delta, frozenset((new,)), eps,
                frozenset((new,)))


def catenation(left: Enfa, b: Machine) -> Enfa:
    """B's states follow the left machine's; epsilon from each left final to B's start."""
    off = left.states
    delta = tuple(
        left.delta[s] + tuple(frozenset((off + t,)) for t in b.delta[s])
        for s in range(len(left.alphabet))
    )
    eps = dict(left.eps)
    for f in left.finals:
        eps[f] = eps.get(f, frozenset()) | {off + b.initial}
    return Enfa(off + b.states, left.alphabet, delta, left.initials, eps,
                frozenset(off + q for q in b.finals))


def _closure(nfa: Enfa, states) -> frozenset:
    seen = set(states)
    stack = list(states)
    while stack:
        for t in nfa.eps.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def subsets(nfa: Enfa, limit: int | None = None) -> Machine | None:
    """Subset construction over the reachable epsilon-closed sets; None
    once more than `limit` sets are reached."""
    start = _closure(nfa, nfa.initials)
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in nfa.alphabet]
    for cur in order:
        for s, row in enumerate(nfa.delta):
            nxt = _closure(nfa, frozenset().union(*(row[q] for q in cur)))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            rows[s].append(index[nxt])
        if limit is not None and len(order) > limit:
            return None
    finals = frozenset(i for i, S in enumerate(order) if S & nfa.finals)
    return Machine(len(order), nfa.alphabet, tuple(map(tuple, rows)), 0, finals)


def moore_size(d: Machine) -> int:
    """Minimal state count by signature refinement over the reachable states."""
    reach = {d.initial}
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for row in d.delta:
            if row[q] not in reach:
                reach.add(row[q])
                stack.append(row[q])
    cls = {q: q in d.finals for q in reach}
    count = len(set(cls.values()))
    while True:
        names: dict = {}
        cls = {
            q: names.setdefault((cls[q], *(cls[row[q]] for row in d.delta)), len(names))
            for q in reach
        }
        if len(names) == count:
            return count
        count = len(names)


def result_machine(op: str, a: Machine, b: Machine, limit: int | None = None):
    """Subset machine of the operation (None past `limit` states)."""
    left = reversal(a) if op == "revcat" else star(a)
    return subsets(catenation(left, b), limit)


def minimal_size(op: str, a: Machine, b: Machine) -> int:
    return moore_size(result_machine(op, a, b))


# ------------------------------------------------------- word-level membership

def accepts(d: Machine, word: str) -> bool:
    q = d.initial
    for ch in word:
        q = d.delta[d.alphabet.index(ch)][q]
    return q in d.finals


def in_star(a: Machine, word: str) -> bool:
    """word splits into zero or more pieces of L(A)."""
    ok = [True] + [False] * len(word)
    for i in range(1, len(word) + 1):
        ok[i] = any(ok[j] and accepts(a, word[j:i]) for j in range(i))
    return ok[-1]


def member(op: str, a: Machine, b: Machine, word: str) -> bool:
    """word = u v with reverse(u) (revcat) or u (starcat) in the left factor."""
    for i in range(len(word) + 1):
        u, v = word[:i], word[i:]
        left = accepts(a, u[::-1]) if op == "revcat" else in_star(a, u)
        if left and accepts(b, v):
            return True
    return False


# --------------------------------------------------------- the paper's table

def _cycle(k):
    return tuple((i + 1) % k for i in range(k))


def _ident(k):
    return tuple(range(k))


def witness_pair(op: str, m: int, n: int) -> tuple[Machine, Machine]:
    """The paper's worst-case operands, typed in again (m, n >= 2)."""
    if op == "revcat":
        fold = _ident(m)[:-1] + (m - 2,)
        swap = _ident(m)[:-2] + (m - 1, m - 2)
        a = Machine(m, "abcd", (_cycle(m), fold, swap, _ident(m)), 0, frozenset({m - 1}))
        b = Machine(n, "abcd", (_ident(n), _ident(n), (0,) * n, _cycle(n)), 0,
                    frozenset({n - 1}))
    elif op == "starcat":
        rot = (0,) + tuple((i + 1) % m for i in range(1, m))
        a = Machine(m, "abcd", (_cycle(m), rot, _ident(m), _ident(m)), 0,
                    frozenset({m - 1}))
        b = Machine(n, "abcd", (_ident(n), _ident(n), _cycle(n), (0,) * n), 0,
                    frozenset({n - 1}))
    else:
        rot = (0,) + tuple((i + 1) % n for i in range(1, n))
        a = Machine(m, "abc", (_cycle(m), _ident(m), _ident(m)), 0, frozenset({0}))
        b = Machine(n, "abc", (_ident(n), _cycle(n), rot), 0, frozenset({n - 1}))
    return a, b


CLOSED_FORM = {
    "revcat": sc_revcat,
    "starcat": sc_starcat,
    "starcat-special": sc_starcat_special,
}


def self_check() -> list[str]:
    """Reproduce the paper's table on small witness cells with the references
    alone; returns the cells that disagree (empty when all agree)."""
    bad = []
    words = ["", "a", "ab", "ba", "abc", "cab", "dcba", "abcda", "bbadc", "cadbca"]
    for op in CLOSED_FORM:
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                a, b = witness_pair(op, m, n)
                cat = "revcat" if op == "revcat" else "starcat"
                result = result_machine(cat, a, b)
                if moore_size(result) != CLOSED_FORM[op](m, n):
                    bad.append(f"{op} m={m} n={n}: minimal size")
                for w in words:
                    w = "".join(ch for ch in w if ch in a.alphabet)
                    if accepts(result, w) != member(cat, a, b, w):
                        bad.append(f"{op} m={m} n={n}: word {w!r}")
    return bad
