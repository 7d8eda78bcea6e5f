"""Deterministic and nondeterministic finite automata.

States are integers 0..state_count-1 and symbols are single characters.
A Dfa is always complete: every (state, symbol) pair has exactly one
target.  Subsets of states are integer bitmasks, fast enough for
exhaustive searches over millions of machines; minimization's partition
blocks are sets of states, which scale to hundreds of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product


class AlphabetMismatch(ValueError):
    """Raised when a binary operation mixes automata over different alphabets."""


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if not alphabet:
        raise ValueError("alphabet must contain at least one symbol")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    for sym in alphabet:
        if not isinstance(sym, str) or len(sym) != 1:
            raise ValueError(f"alphabet symbol {sym!r} must be a single character")


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton.

    transitions[s][q] is the target of state q on symbol alphabet[s].
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise ValueError("a Dfa needs at least one state")
        _check_alphabet(self.alphabet)
        if len(self.transitions) != len(self.alphabet):
            raise ValueError("one transition row per alphabet symbol required")
        for row in self.transitions:
            if len(row) != n:
                raise ValueError("every transition row must cover all states")
            if row and (min(row) < 0 or max(row) >= n):
                raise ValueError("transition target out of range")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for q in self.finals:
            if not 0 <= q < n:
                raise ValueError("final state out of range")


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton with optional epsilon edges.

    transitions[s][q] is the frozenset of targets of q on alphabet[s];
    epsilon_edges are (source, target) pairs taken for free.
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[frozenset[int], ...], ...]
    initials: frozenset[int]
    epsilon_edges: frozenset[tuple[int, int]]
    finals: frozenset[int]

    def __post_init__(self) -> None:
        n = self.state_count
        if n < 1:
            raise ValueError("an Nfa needs at least one state")
        _check_alphabet(self.alphabet)
        if len(self.transitions) != len(self.alphabet):
            raise ValueError("one transition row per alphabet symbol required")
        for row in self.transitions:
            if len(row) != n:
                raise ValueError("every transition row must cover all states")
            for targets in row:
                for t in targets:
                    if not 0 <= t < n:
                        raise ValueError("transition target out of range")
        for group in (self.initials, self.finals):
            for q in group:
                if not 0 <= q < n:
                    raise ValueError("state out of range")
        for u, v in self.epsilon_edges:
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError("epsilon edge endpoint out of range")


def nfa_from_dfa(d: Dfa) -> Nfa:
    """Reinterpret a Dfa as an Nfa with singleton target sets."""
    rows = tuple(
        tuple(frozenset((row[q],)) for q in range(d.state_count))
        for row in d.transitions
    )
    return Nfa(
        state_count=d.state_count,
        alphabet=d.alphabet,
        transitions=rows,
        initials=frozenset((d.initial,)),
        epsilon_edges=frozenset(),
        finals=d.finals,
    )


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask -= low
    return out


def state_mask(states) -> int:
    """Bitmask with the bits of the given states set."""
    m = 0
    for q in states:
        m |= 1 << q
    return m


def mask_image(mask: int, table) -> int:
    """Union of the bitmasks table[q] over the states q in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask -= low
    return out


def explore(nsym: int, start, step, is_final):
    """Number the keys reachable from start, breadth-first.

    step(key) lists the key's successors in alphabet order, so keys are
    numbered in the order a breadth-first walk taking symbols in
    alphabet order discovers them, start first.  Returns the transition
    rows over those numbers (rows[s][k] is the successor of key k on
    symbol s), the frozenset of numbers whose key is_final holds for,
    and the keys in discovery order.
    """
    index = {start: 0}
    order = [start]
    flat: list[int] = []  # successor numbers, key by key, symbols in order
    # the loop also visits the keys appended while it runs
    for key in order:
        for nxt in step(key):
            k = index.get(nxt)
            if k is None:
                k = index[nxt] = len(order)
                order.append(nxt)
            flat.append(k)
    rows = tuple(tuple(flat[s::nsym]) for s in range(nsym))
    finals = frozenset(compress(range(len(order)), map(is_final, order)))
    return rows, finals, order


def explore_dfa(alphabet: tuple[str, ...], start, step, is_final) -> Dfa:
    """The Dfa over alphabet whose states are the keys explore numbers,
    start (state 0) initial."""
    rows, finals, order = explore(len(alphabet), start, step, is_final)
    return Dfa(
        state_count=len(order),
        alphabet=alphabet,
        transitions=rows,
        initial=0,
        finals=finals,
    )


def _moves(nfa: Nfa) -> tuple[list[list[int]], int]:
    """The Nfa's move table and closed initial set, as bitmasks.

    move[s][q] is the epsilon closure of q's targets on symbol s.  With
    the closure folded in, the closed successor of a closed set is the
    union of its states' entries, and no separate closure pass is needed.
    """
    n = nfa.state_count
    if nfa.epsilon_edges:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in nfa.epsilon_edges:
            adj[u].append(v)
        closure = []
        for q in range(n):
            mask = 1 << q
            stack = [q]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if not (mask >> y) & 1:
                        mask |= 1 << y
                        stack.append(y)
            closure.append(mask)
    else:
        closure = [1 << q for q in range(n)]

    move = []
    for row in nfa.transitions:
        srow = []
        for targets in row:
            m = 0
            for t in targets:
                m |= closure[t]
            srow.append(m)
        move.append(srow)
    start = 0
    for q in nfa.initials:
        start |= closure[q]
    return move, start


def determinize(nfa: Nfa) -> tuple[Dfa, list[int]]:
    """Subset construction with epsilon closure.

    Dfa states are the reachable closed subsets, numbered in the order a
    breadth-first walk from the closed initial set discovers them, taking
    symbols in alphabet order.  The empty subset becomes an ordinary dead
    state when reached.  Returns the Dfa and the subsets in that order:
    bit q of order[i] is set when Nfa state q is behind Dfa state i.
    """
    move, start = _moves(nfa)

    def step(cur: int) -> list[int]:
        qs = _mask_bits(cur)
        out = []
        for mv in move:
            t = 0
            for q in qs:
                t |= mv[q]
            out.append(t)
        return out

    final_mask = state_mask(nfa.finals)
    rows, finals, order = explore(len(move), start, step, final_mask.__and__)
    dfa = Dfa(
        state_count=len(order),
        alphabet=nfa.alphabet,
        transitions=rows,
        initial=0,
        finals=finals,
    )
    return dfa, order


def minimize_hopcroft(d: Dfa) -> Dfa:
    """Unique minimal Dfa for the same language.

    Restricts to reachable states, refines the final/nonfinal split with
    Hopcroft's smaller-half worklist, then renumbers blocks breadth-first
    from the initial block in alphabet order so equal inputs give equal
    outputs.  Blocks are sets of states, so a split costs the size of the
    splitter's preimage and the refinement runs in O(k n log n).
    """
    nsym = len(d.alphabet)
    # successors of each state, in alphabet order
    succ = list(zip(*d.transitions))
    rows, finals, reach = explore(
        nsym, d.initial, succ.__getitem__, d.finals.__contains__
    )
    n = len(reach)
    nonfinals = set(range(n)).difference(finals)
    block_of = [0] * n
    if finals and nonfinals:
        blocks = [set(finals), nonfinals]
        for q in nonfinals:
            block_of[q] = 1
        worklist = [0 if len(finals) <= len(nonfinals) else 1]
        # pre[s][q] lists the states that rows[s] sends to q
        pre = []
        for row in rows:
            ps: list[list[int]] = [[] for _ in range(n)]
            for q, t in enumerate(row):
                ps[t].append(q)
            pre.append(ps)
    else:
        # one block: nothing to refine
        blocks = [nonfinals or set(finals)]
        worklist = []

    while worklist:
        # a copy: every symbol must refine by the whole block, even after
        # the block itself splits below
        splitter = list(blocks[worklist.pop()])
        for ps in pre:
            touched: dict[int, list[int]] = {}  # block -> its states in the preimage
            for q in splitter:
                for p in ps[q]:
                    b = block_of[p]
                    inter = touched.get(b)
                    if inter is None:
                        touched[b] = [p]
                    else:
                        inter.append(p)
            for b, inter in touched.items():
                y = blocks[b]
                if len(inter) == len(y):
                    continue
                # the larger part keeps index b; the smaller one is
                # appended, relabelled and queued
                y.difference_update(inter)
                small = set(inter)
                if len(y) < len(small):
                    blocks[b], small = small, y
                ni = len(blocks)
                blocks.append(small)
                for q in small:
                    block_of[q] = ni
                worklist.append(ni)

    # every block is reachable, and any of its states stands for it
    succ = list(zip(*rows))
    reps = [next(iter(blk)) for blk in blocks]
    block_succ = [[block_of[t] for t in succ[q]] for q in reps]
    block_final = [q in finals for q in reps]
    return explore_dfa(
        d.alphabet, block_of[0], block_succ.__getitem__, block_final.__getitem__
    )


def reverse_nfa(d: Dfa) -> Nfa:
    """Nfa for the reversed language: edges flipped, roles of initial and finals swapped."""
    nsym = len(d.alphabet)
    n = d.state_count
    rows = []
    for s in range(nsym):
        row = d.transitions[s]
        targets: list[list[int]] = [[] for _ in range(n)]
        for q in range(n):
            targets[row[q]].append(q)
        rows.append(tuple(frozenset(t) for t in targets))
    return Nfa(
        state_count=n,
        alphabet=d.alphabet,
        transitions=tuple(rows),
        initials=frozenset(d.finals),
        epsilon_edges=frozenset(),
        finals=frozenset((d.initial,)),
    )


def minimize_brzozowski(d: Dfa) -> Dfa:
    """Minimal Dfa by double reversal; slower than Hopcroft but independent of it."""
    mid, _ = determinize(reverse_nfa(d))
    out, _ = determinize(reverse_nfa(mid))
    return out


def accepts(d: Dfa, word: str) -> bool:
    idx = {sym: s for s, sym in enumerate(d.alphabet)}
    state = d.initial
    for ch in word:
        s = idx.get(ch)
        if s is None:
            raise ValueError(f"symbol {ch!r} is not in the alphabet")
        state = d.transitions[s][state]
    return state in d.finals


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    idx = {sym: s for s, sym in enumerate(nfa.alphabet)}
    move, cur = _moves(nfa)
    for ch in word:
        s = idx.get(ch)
        if s is None:
            raise ValueError(f"symbol {ch!r} is not in the alphabet")
        cur = mask_image(cur, move[s])
    return bool(cur & state_mask(nfa.finals))


def _pair_walk(a: Dfa, p: int, b: Dfa, q: int) -> str | None:
    """Shortest word on which a from state p and b from state q disagree
    about acceptance; None if they agree on every word.

    Breadth-first over state pairs taking symbols in alphabet order, so
    among shortest witnesses the alphabet-lexicographically first wins.
    """
    afin, bfin = a.finals, b.finals
    start = (p, q)
    words = {start: ""}  # the word that first reached each pair
    # the loop also visits the pairs appended while it runs
    queue = [start]
    for pair in queue:
        u, v = pair
        if (u in afin) != (v in bfin):
            return words[pair]
        for sym, arow, brow in zip(a.alphabet, a.transitions, b.transitions):
            child = (arow[u], brow[v])
            if child not in words:
                words[child] = words[pair] + sym
                queue.append(child)
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality: no word tells the two initial states apart."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"cannot compare over alphabets {a.alphabet!r} and {b.alphabet!r}"
        )
    return _pair_walk(a, a.initial, b, b.initial) is None


def distinguishing_word(d: Dfa, p: int, q: int) -> str | None:
    """Shortest word accepted from exactly one of states p, q; None if none exists.

    Among shortest witnesses the alphabet-lexicographically first wins.
    None means the two states accept the same language, i.e.
    minimization merges them.
    """
    for s in (p, q):
        if not 0 <= s < d.state_count:
            raise ValueError(f"state {s} out of range for {d.state_count} states")
    return _pair_walk(d, p, d, q)


def enumerate_accepted(d: Dfa, max_len: int) -> list[str]:
    """All accepted words of length at most max_len, shortest first, ties in alphabet order."""
    words = (
        "".join(chars)
        for length in range(max_len + 1)
        for chars in product(d.alphabet, repeat=length)
    )
    return [w for w in words if accepts(d, w)]
