"""Deterministic and nondeterministic finite automata.

States are integers 0..state_count-1 and symbols are single characters.
A Dfa is always complete: every (state, symbol) pair has exactly one
target.  Subsets of states are integer bitmasks, fast enough for
exhaustive searches over millions of machines; minimization keeps its
partition as ranges of one permutation of the states, which scales to
hundreds of thousands.
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


# Subset constructions on more than BIT_LOOP_MAX_STATES and at most
# TABLE_MAX_STATES NFA states step through image tables; the others OR
# the move entries of a subset's states one by one.  On fewer states the
# tables cost more to build than they save.  On more, the tables, built
# before the first step, grow as n^2 however few subsets are reached;
# at TABLE_MAX_STATES they are at most 1,024 entries.
BIT_LOOP_MAX_STATES = 8
TABLE_MAX_STATES = 32


def _image_tables(move, n: int) -> list[list[int]]:
    """For each byte of an n-state subset, the packed image of every
    value of that byte: entry j of table c holds, n bits apart in symbol
    order, the union of move[s][q] over the states q = 8c + i with bit i
    of j set."""
    # state q's images on every symbol, padded to whole bytes
    packed = [0] * (-(-n // 8) * 8)
    for s, row in enumerate(move):
        shift = s * n
        for q, t in enumerate(row):
            packed[q] |= t << shift
    tables = []
    for base in range(0, n, 8):
        table = [0] * 256
        for j in range(1, 256):
            low = j & -j
            # the entry with j's lowest bit cleared, plus that bit's state
            table[j] = table[j ^ low] | packed[base + low.bit_length() - 1]
        tables.append(table)
    return tables


def subset_construction(move, start: int, final_mask: int):
    """Subset construction over a bitmask move table.

    move[s][q] is the bitmask of states q reaches on symbol s, epsilon
    closure already folded in (as _moves builds it); start is the closed
    initial set and final_mask the accepting states.  Subsets are
    numbered in the order a breadth-first walk from start discovers
    them, taking symbols in alphabet order; the empty subset becomes an
    ordinary dead state when reached.  Returns explore's rows, finals
    (the subsets meeting final_mask) and subsets in that order.

    On more than BIT_LOOP_MAX_STATES and at most TABLE_MAX_STATES
    states, a step looks each byte of the subset up in _image_tables and
    cuts the packed union into one image per symbol; otherwise it ORs
    the subset's states' entries one by one.
    """
    n = len(move[0])
    if BIT_LOOP_MAX_STATES < n <= TABLE_MAX_STATES:
        tables = _image_tables(move, n)
        nbytes = len(tables)
        full = (1 << n) - 1
        shifts = range(0, len(move) * n, n)

        def step(cur: int) -> list[int]:
            acc = 0
            for table, piece in zip(tables, cur.to_bytes(nbytes, "little")):
                acc |= table[piece]
            return [acc >> sh & full for sh in shifts]

    else:

        def step(cur: int) -> list[int]:
            qs = _mask_bits(cur)
            out = []
            for mv in move:
                t = 0
                for q in qs:
                    t |= mv[q]
                out.append(t)
            return out

    return explore(len(move), start, step, final_mask.__and__)


def determinize(nfa: Nfa) -> tuple[Dfa, list[int]]:
    """Subset construction with epsilon closure.

    Dfa states are the reachable closed subsets, numbered as
    subset_construction numbers them.  Returns the Dfa and the subsets
    in that order: bit q of order[i] is set when Nfa state q is behind
    Dfa state i.
    """
    move, start = _moves(nfa)
    rows, finals, order = subset_construction(move, start, state_mask(nfa.finals))
    dfa = Dfa(
        state_count=len(order),
        alphabet=nfa.alphabet,
        transitions=rows,
        initial=0,
        finals=finals,
    )
    return dfa, order


def hopcroft_refine(rows, finals) -> tuple[list[int], list[int]]:
    """Coarsest partition of a transition table's states that respects
    finals, by Hopcroft's smaller-half worklist.

    rows[s][q] is the successor of state q on symbol s.  Returns reps,
    one state of each block, and block_of, the index of each state's
    block, so block_of[reps[b]] == b.  When every state is reachable, as
    explore's tables are, the number of blocks is the minimal Dfa's
    state count; an unreachable state could add a block of its own.

    The partition lives in flat arrays: elems is a permutation of the
    states, loc its inverse, and block b is the range
    elems[first[b]:end[b]].  A splitter's preimage on one symbol is
    swapped to the front of each block it meets, up to mid[b]; the
    smaller of the marked and unmarked parts becomes a new block.  A
    split costs the size of the splitter's preimage, and the refinement
    runs in O(k n log n).
    """
    n = len(rows[0])
    nf = len(finals)
    if nf in (0, n):
        # one block: nothing to refine
        return [0], [0] * n
    block_of = [1] * n
    for q in finals:
        block_of[q] = 0
    # one int object per state, shared by every table below
    states = list(range(n))
    # finals first; elems is a permutation, so sorting positions by it
    # gives its inverse
    elems = sorted(states, key=block_of.__getitem__)
    loc = sorted(states, key=elems.__getitem__)
    first, end, mid = [0, nf], [nf, n], [0, nf]
    worklist = [0 if nf <= n - nf else 1]
    # pre[s][q] lists the states that rows[s] sends to q
    pre = []
    for row in rows:
        ps: list = [()] * n  # a list once q has a preimage
        for q, t in zip(states, row):
            x = ps[t]
            if x:
                x.append(q)
            else:
                ps[t] = [q]
        pre.append(ps)

    while worklist:
        w = worklist.pop()
        # a copy: the swaps below reorder elems, the splitter's own range
        # included, and every symbol refines by the whole block even after
        # the block itself splits
        splitter = elems[first[w] : end[w]]
        for ps in pre:
            touched = []
            for q in splitter:
                # rows[s] is a function, so each p turns up once per symbol
                for p in ps[q]:
                    b = block_of[p]
                    m = mid[b]
                    if m == first[b]:
                        touched.append(b)
                    # swap p into the marked front of its block
                    i = loc[p]
                    if i != m:
                        r = elems[m]
                        elems[m] = p
                        loc[p] = m
                        elems[i] = r
                        loc[r] = i
                    mid[b] = m + 1
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                if m == e:
                    # the whole block is in the preimage
                    mid[b] = f
                    continue
                # the larger part keeps index b; the smaller one is
                # appended, relabelled and queued
                ni = len(first)
                if m - f <= e - m:
                    first.append(f)
                    end.append(m)
                    mid.append(f)
                    first[b] = mid[b] = m
                    lo, hi = f, m
                else:
                    first.append(m)
                    end.append(e)
                    mid.append(m)
                    end[b] = m
                    mid[b] = f
                    lo, hi = m, e
                for q in elems[lo:hi]:
                    block_of[q] = ni
                worklist.append(ni)
    return [elems[f] for f in first], block_of


def _reachable(transitions, initial: int, finals):
    """explore's rows and finals of a complete table's states reachable
    from initial (transitions[s][q] the target of q on symbol s, finals
    a container of states)."""
    # successors of each state, in alphabet order
    succ = list(zip(*transitions))
    rows, finals, _ = explore(
        len(transitions), initial, succ.__getitem__, finals.__contains__
    )
    return rows, finals


def minimal_size(d: Dfa) -> int:
    """State count of d's minimal Dfa, without building it: the number
    of Hopcroft blocks of d's reachable states."""
    return len(hopcroft_refine(*_reachable(d.transitions, d.initial, d.finals))[0])


def minimal_rows(transitions, initial: int, finals):
    """Transition rows and finals of the minimal machine of a complete
    table, given as _reachable takes it.

    Blocks are numbered breadth-first from the initial block in
    alphabet order, so the initial block is 0 and two tables with the
    same language give equal rows and finals.
    """
    rows, finals = _reachable(transitions, initial, finals)
    reps, block_of = hopcroft_refine(rows, finals)
    # every block is reachable, and any of its states stands for it
    succ = list(zip(*rows))
    block_succ = [[block_of[t] for t in succ[q]] for q in reps]
    block_final = [q in finals for q in reps]
    rows, finals, _ = explore(
        len(rows), block_of[0], block_succ.__getitem__, block_final.__getitem__
    )
    return rows, finals


def minimize_hopcroft(d: Dfa) -> Dfa:
    """Unique minimal Dfa for the same language: minimal_rows' machine,
    so equal languages give equal outputs."""
    rows, finals = minimal_rows(d.transitions, d.initial, d.finals)
    return Dfa(
        state_count=len(rows[0]),
        alphabet=d.alphabet,
        transitions=rows,
        initial=0,
        finals=finals,
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
    Each pair keeps the index of the pair it was reached from and the
    symbol taken, and the word is spelled out only on a hit.
    """
    afin, bfin = a.finals, b.finals
    start = (p, q)
    seen = {start}
    # the loop also visits the pairs appended while it runs
    queue = [start]
    parent = [0]
    via = [""]
    steps = list(zip(a.alphabet, a.transitions, b.transitions))
    for i, (u, v) in enumerate(queue):
        if (u in afin) != (v in bfin):
            word = []
            while i:
                word.append(via[i])
                i = parent[i]
            return "".join(reversed(word))
        for sym, arow, brow in steps:
            child = (arow[u], brow[v])
            if child not in seen:
                seen.add(child)
                queue.append(child)
                parent.append(i)
                via.append(sym)
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
