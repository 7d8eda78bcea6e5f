"""Deterministic and nondeterministic finite automata.

States are integers 0..state_count-1 and symbols are single characters.
A Dfa is always complete: every (state, symbol) pair has exactly one
target.  Subsets of states are integer bitmasks, fast enough for
exhaustive searches over millions of machines.  One breadth-first
walk numbers each kind of key: _walk a table's states or the blocks of
a partition of them, _table_walk subsets, through three tables of
packed images, one per chunk of a subset's bits, and _pair_walk pairs
of states, each seen when its first state is the one first paired with
its second.  Minimization keeps its partition as ranges of one
permutation of the states, and its preimages as chains through flat
lists, which scales to hundreds of thousands; minimal_count needs none
where private words decide the count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import compress, product
from operator import and_, or_

# the most subsets a subset construction may reach
DEFAULT_BUDGET = 20_000_000


class BudgetError(ValueError):
    """Raised when subsets, search pairs or witness states pass the budget."""


class AlphabetMismatch(ValueError):
    """Raised when a binary operation mixes automata over different alphabets."""


def _check_shape(machine, name: str) -> int:
    """The checks a Dfa and an Nfa (name, "a Dfa" or "an Nfa") share, on
    the state count, the alphabet and the number and length of the rows;
    returns the state count."""
    n = machine.state_count
    if n < 1:
        raise ValueError(f"{name} needs at least one state")
    alphabet = machine.alphabet
    if not alphabet:
        raise ValueError("alphabet must contain at least one symbol")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    for sym in alphabet:
        if not isinstance(sym, str) or len(sym) != 1:
            raise ValueError(f"alphabet symbol {sym!r} must be a single character")
    if len(machine.transitions) != len(alphabet):
        raise ValueError("one transition row per alphabet symbol required")
    for row in machine.transitions:
        if len(row) != n:
            raise ValueError("every transition row must cover all states")
    return n


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
        n = _check_shape(self, "a Dfa")
        for row in self.transitions:
            if min(row) < 0 or max(row) >= n:
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
        n = _check_shape(self, "an Nfa")
        for row in self.transitions:
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
    """Reinterpret a Dfa as an Nfa with singleton target sets.

    The sets are built from the targets, not from masks: a mask of one
    of n states is n bits wide, so masks would cost time and memory
    quadratic in the state count."""
    rows = tuple(tuple(frozenset((t,)) for t in row) for row in d.transitions)
    initials = frozenset((d.initial,))
    return Nfa(d.state_count, d.alphabet, rows, initials, frozenset(), d.finals)


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


def _walk(rows, reps, block_of, start: int):
    """Flat successor numbers and blocks of a partition of a complete
    table's states, numbered from block start breadth-first in alphabet
    order, start first; _numbered turns them into rows and finals.

    rows[s][q] is the successor of state q on symbol s, reps[b] a state
    of block b and block_of[q] the block of state q, as hopcroft_refine
    returns them; the list 0..n-1 as both walks the states themselves.
    Any state of a block stands for it, so the successor of block b on s
    is block_of[rows[s][reps[b]]].  flat holds the successor numbers
    block by block, symbols in order, and order the blocks by number.
    """
    index = [-1] * len(reps)
    index[start] = 0
    order = [start]
    flat: list[int] = []
    # the loop also visits the blocks appended while it runs
    for b in order:
        q = reps[b]
        for row in rows:
            c = block_of[row[q]]
            k = index[c]
            if k < 0:
                k = index[c] = len(order)
                order.append(c)
            flat.append(k)
    return flat, order


def _numbered(flat: list[int], nsym: int, order: list, is_final):
    """The rows, finals and keys of a walk's flat successor numbers
    (_walk's or _table_walk's): rows[s][k] is the successor of key k on
    symbol s, and finals the numbers of the keys is_final holds for."""
    rows = tuple(tuple(flat[s::nsym]) for s in range(nsym))
    finals = frozenset(compress(range(len(order)), map(is_final, order)))
    return rows, finals, order


# A machine's masks: its move table, closed start set and final mask,
# every set a bitmask of states.
Masks = tuple[list[list[int]], int, int]


def nfa_masks(nfa: Nfa) -> Masks:
    """The Nfa's masks.

    move[s][q] is the epsilon closure of q's targets on symbol s.  With
    the closure folded in, the closed successor of a closed set is the
    union of its states' entries, and no separate closure pass is needed.
    """
    # at the fixpoint closure[u] holds every state u reaches by epsilon
    # edges, each closure taking in its edges' targets' closures
    closure = [1 << q for q in range(nfa.state_count)]
    grown = True
    while grown:
        grown = False
        for u, v in nfa.epsilon_edges:
            if closure[v] & ~closure[u]:
                closure[u] |= closure[v]
                grown = True

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
    return move, start, state_mask(nfa.finals)


# A subset construction looks a subset's images up in three tables, one
# per chunk of its bits.  Up to TABLE_MAX_STATES NFA states a chunk is a
# third of the states, so every table is built whole with at most 2^11
# entries; past it the first two chunks are 11 bits and the third holds
# every bit from 22 up, its table filled in at the values subsets reach.
TABLE_MAX_STATES = 33


def _packed(move, width: int) -> list[int]:
    """Entry q holds state q's images on every symbol, width bits apart
    in symbol order: _subset_table's input."""
    packed = [0] * len(move[0])
    for s, row in enumerate(move):
        shift = s * width
        for q, t in enumerate(row):
            packed[q] |= t << shift
    return packed


def _subset_table(packed: list[int]) -> list[int]:
    """Entry j is the union of packed[q] over the bits q of j."""
    # after state q, the table covers the values below 2^(q + 1): the
    # second half is the first with q's entry added
    table = [0]
    for p in packed:
        table += [p | x for x in table]
    return table


def _over_budget(max_states: int) -> BudgetError:
    """The error of a subset walk that passes max_states subsets."""
    return BudgetError(
        f"the subset construction needs more states than the budget of {max_states}"
    )


def _table_walk(tables, cuts, width, nsym, start, max_states=DEFAULT_BUDGET):
    """_walk's flat successor numbers and keys for subsets from start;
    _numbered turns them into rows and finals; BudgetError past
    max_states keys.

    A key is cut at the bits cuts = (c1, c2) into three chunks, and entry
    j of tables[i] holds the images of the states in j, chunk i's value,
    packed width bits apart in symbol order.  The first two tables'
    lengths are powers of two that mask their chunks, as _subset_table
    builds them; the third is indexed by all of a key's bits from c2 up,
    a list or an _ImageTable.
    A key's successors are the OR of one entry per table, cut width bits
    at a time, and each new one is numbered inline in _walk's order.
    flat holds the successor numbers key by key, symbols in order.
    """
    t0, t1, t2 = tables
    c1, c2 = cuts
    m0, m1 = len(t0) - 1, len(t1) - 1
    full = (1 << width) - 1
    shifts = range(0, nsym * width, width)
    index = {start: 0}
    order = [start]
    flat: list[int] = []  # successor numbers, key by key, symbols in order
    # the loop also visits the keys appended while it runs
    for key in order:
        union = t0[key & m0] | t1[key >> c1 & m1] | t2[key >> c2]
        for sh in shifts:
            nxt = union >> sh & full
            k = index.get(nxt)
            if k is None:
                k = index[nxt] = len(order)
                if k == max_states:
                    raise _over_budget(max_states)
                order.append(nxt)
            flat.append(k)
    return flat, order


class _ImageTable(dict):
    """_subset_table's entries for a chunk too wide to build whole, each
    computed when first looked up."""

    def __init__(self, packed: list[int]):
        super().__init__()
        self.packed = packed

    def __missing__(self, j: int) -> int:
        self[j] = image = mask_image(j, self.packed)
        return image


def _chunked(packed: list[int], chunk: int) -> list:
    """_table_walk's three tables of these entries, cut at chunk and
    2 * chunk; the third is an _ImageTable past TABLE_MAX_STATES entries."""
    tables = [_subset_table(packed[c : c + chunk]) for c in (0, chunk)]
    high = packed[2 * chunk :]
    whole = len(packed) <= TABLE_MAX_STATES
    tables.append(_subset_table(high) if whole else _ImageTable(high))
    return tables


def _chunk(n: int) -> int:
    """The bits of each of a subset walk's first two chunks over n
    states: thirds, not fixed 11-bit chunks, since the whole tables of a
    small machine cost little where few subsets are reached."""
    return min(-(-n // 3), 11)


def _subset_walk(move, start: int, max_states: int):
    """subset_construction's _table_walk from start."""
    n = len(move[0])
    chunk = _chunk(n)
    tables = _chunked(_packed(move, n), chunk)
    return _table_walk(tables, (chunk, 2 * chunk), n, len(move), start, max_states)


def _grouped_walk(move, start: int, n: int):
    """The subsets subset_construction reaches from start, in no order,
    for masks whose states below n move only among themselves, as a
    catenation's right machine does (constructions.catenation_masks).
    Returns them grouped by their bits from n up: groups[p] is the set
    of the low parts t of the subsets p << n | t.  Also returns their
    count and whether some subset's successor is start; BudgetError past
    DEFAULT_BUDGET subsets, as subset_construction.

    A subset's high part p moves on its own, and its low part t moves
    under the low states' entries plus the low bits of p's image (the
    catenation's free move, folded in as constructions._catenation_left
    does).  So p's image on each symbol is read once, and the low parts
    of p's subsets not yet stepped go through one table per symbol
    together, as one set.  A table is _subset_table's over the low
    states' entries, with p's low image bits ORed into each entry; past
    11 low states there are three, cut as _subset_walk cuts subsets.
    """
    low = (1 << n) - 1
    whole = n <= 11
    chunk = n if whole else _chunk(n)
    cut, mask = 2 * chunk, (1 << chunk) - 1
    right = [_chunked(row[:n], chunk) for row in move]
    left = [row[n:] for row in move]
    firsts = {}  # (symbol, low image bits) -> the first table with them ORed in
    steps = {}  # p -> per symbol, p's image's high part and the low tables
    p0, t0 = start >> n, start & low
    groups, pending = {p0: {t0}}, {p0: {t0}}
    count, reenters = 1, False
    while pending:
        p, ts = pending.popitem()
        step = steps.get(p)
        if step is None:
            step = steps[p] = []
            for s, (lrow, (r0, r1, r2)) in enumerate(zip(left, right)):
                image = mask_image(p, lrow)
                inject = image & low
                first = firsts.get((s, inject))
                if first is None:
                    first = firsts[s, inject] = [x | inject for x in r0]
                step.append((image >> n, first, r1, r2))
        for q, r0, r1, r2 in step:
            if whole:
                new = set(map(r0.__getitem__, ts))
            else:
                new = {r0[t & mask] | r1[t >> chunk & mask] | r2[t >> cut] for t in ts}
            reenters = reenters or q == p0 and t0 in new
            group = groups.setdefault(q, set())
            new -= group
            if not new:
                continue
            group |= new
            pending.setdefault(q, set()).update(new)
            count += len(new)
            if count > DEFAULT_BUDGET:
                raise _over_budget(DEFAULT_BUDGET)
    return groups, count, reenters


def subset_construction(move, start: int, final_mask: int):
    """Subset construction over a bitmask move table.

    move[s][q] is the bitmask of states q reaches on symbol s, epsilon
    closure already folded in (as nfa_masks builds it); start is the closed
    initial set and final_mask the accepting states.  Subsets are
    numbered in the order a breadth-first walk from start discovers
    them, taking symbols in alphabet order; the empty subset becomes an
    ordinary dead state when reached.  Returns _numbered's rows, finals
    (the subsets meeting final_mask) and subsets in that order;
    BudgetError past DEFAULT_BUDGET subsets.

    A _table_walk cuts each subset into chunks of a third of the states,
    rounded up and at most 11 bits; the last chunk takes the rest of the
    bits (it can be shorter, or empty with the table [0]).  Past
    TABLE_MAX_STATES states the last chunk's table is an _ImageTable.
    """
    flat, order = _subset_walk(move, start, DEFAULT_BUDGET)
    return _numbered(flat, len(move), order, final_mask.__and__)


def minimal_count(move, final_mask: int, groups, n: int) -> int | None:
    """Minimal state count of the subset construction whose masks and
    (reachable) subsets these are, the subsets grouped as _grouped_walk
    returns them (groups[p] the low parts t of the subsets p << n | t);
    None unless private words decide it.

    States of equal finality and entries form a class.  A subset the
    reversed masks reach from final_mask holds the states accepting one
    word.  If each class some but not all subsets meet has one holding,
    of their union, just its states, subsets are equivalent exactly when
    they meet the same classes (as in Brzozowski's double reversal).
    The reverse walk stops at as many subsets as there are forward.
    """
    classes = {}
    for q, entries in enumerate(zip(*move)):
        key = final_mask >> q & 1, entries
        classes[key] = classes.get(key, 0) | 1 << q
    count = sum(map(len, groups.values()))
    # a subset's bits below n and from n up are ORed and ANDed apart
    lows = set().union(*groups.values())
    union = reduce(or_, groups) << n | reduce(or_, lows)
    common = reduce(and_, groups) << n | reduce(and_, lows)
    rev = [[0] * len(row) for row in move]
    for rrow, row in zip(rev, move):
        for q, t in enumerate(row):
            for p in _mask_bits(t):
                rrow[p] |= 1 << q
    try:
        found = {r & union for r in _subset_walk(rev, final_mask, count)[1]}
    except BudgetError:
        return None
    for c in classes.values():
        if c & union and not c & common and c & union not in found:
            return None
    # each class's states collapse to its lowest: only subsets holding
    # one of the others change
    merged = [(c, c & -c) for c in classes.values() if c & c - 1]
    if not merged:
        return count
    others = reduce(or_, (c ^ bit for c, bit in merged))
    bits = (1 << n) - 1
    high, low = others >> n, others & bits
    moved = []
    for p, ts in groups.items():
        if p & high:
            moved += [p << n | t for t in ts]
        elif low:
            moved += [p << n | t for t in ts if t & low]
    images = set()
    for s in moved:
        for c, bit in merged:
            if s & c:
                s = s & ~c | bit
        images.add(s)
    kept = sum(s & bits in groups.get(s >> n, ()) for s in images)
    return count - len(moved) + len(images) - kept


def subset_dfa(alphabet: tuple[str, ...], move, start: int, final_mask: int) -> Dfa:
    """The Dfa over alphabet of subset_construction on these masks."""
    rows, finals, order = subset_construction(move, start, final_mask)
    return Dfa(len(order), alphabet, rows, 0, finals)


def determinize(nfa: Nfa) -> tuple[Dfa, list[int]]:
    """Subset construction with epsilon closure: the Dfa of the Nfa's
    masks, and its subsets in state order: bit q of order[i] is set
    when Nfa state q is behind Dfa state i."""
    rows, finals, order = subset_construction(*nfa_masks(nfa))
    return Dfa(len(order), nfa.alphabet, rows, 0, finals), order


def hopcroft_refine(rows, finals) -> tuple[list[int], list[int]]:
    """Coarsest partition of a transition table's states that respects
    finals, by Hopcroft's smaller-half worklist.

    rows[s][q] is the successor of state q on symbol s.  Returns reps,
    one state of each block, and block_of, the index of each state's
    block, so block_of[reps[b]] == b.  When every state is reachable, as
    in the tables _walk and _table_walk number, the number of blocks is
    the minimal Dfa's state count; an unreachable state could add a
    block of its own (minimal_rows and minimal_size _walk only the
    blocks reachable from the initial one).

    The partition lives in flat arrays: elems is a permutation of the
    states, loc its inverse, and block b is the range
    elems[first[b]:end[b]].  Each symbol's preimages are chains through
    two lists of n entries.  A splitter's
    preimage on one symbol is swapped to the front of each block it
    meets, up to mid[b]; the smaller of the marked and unmarked parts
    becomes a new block.  A split costs the size of the splitter's
    preimage, and the refinement runs in O(k n log n).

    A block down to one state can never split again, so it is settled:
    block_of holds ~b for its state while the refinement runs, and the
    marking loop passes such a state by, as Valmari's minimization (2012)
    does no work on blocks that cannot split.  The ids are restored
    before returning, so every block_of entry is a block index.
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
    # a block of one state is settled from the start
    if nf == 1:
        block_of[elems[0]] = ~0
    if n - nf == 1:
        block_of[elems[nf]] = ~1
    worklist = [0 if nf <= n - nf else 1]
    # per symbol, the states that rows[s] sends to t form a chain:
    # head[t] is its first state, nxt[q] the one after q, and -1 ends it
    pre = []
    for row in rows:
        head = [-1] * n
        nxt = [-1] * n
        for q, t in zip(states, row):
            nxt[q] = head[t]
            head[t] = q
        pre.append((head, nxt))

    while worklist:
        w = worklist.pop()
        # a copy: the swaps below reorder elems, the splitter's own range
        # included, and every symbol refines by the whole block even after
        # the block itself splits
        splitter = elems[first[w] : end[w]]
        for head, nxt in pre:
            touched = []
            for q in splitter:
                # rows[s] is a function, so each p turns up once per symbol
                p = head[q]
                while p >= 0:
                    b = block_of[p]
                    # a settled block (b < 0) cannot split: pass p by
                    if b >= 0:
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
                    p = nxt[p]
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                if m == e:
                    # the whole block is in the preimage
                    mid[b] = f
                    continue
                # b keeps the larger part; the smaller one, [lo, hi), is
                # appended, relabelled and queued
                if m - f <= e - m:
                    lo, hi = f, m
                    first[b] = mid[b] = m
                else:
                    lo, hi = m, e
                    end[b] = m
                    mid[b] = f
                ni = len(first)
                first.append(lo)
                end.append(hi)
                mid.append(lo)
                if hi - lo == 1:
                    block_of[elems[lo]] = ~ni
                    if e - f == 2:
                        # b kept one state too, [m, e)
                        block_of[elems[m]] = ~b
                else:
                    for q in elems[lo:hi]:
                        block_of[q] = ni
                worklist.append(ni)
    # unflag the settled blocks
    for b, f in enumerate(first):
        if end[b] - f == 1:
            block_of[elems[f]] = b
    return [elems[f] for f in first], block_of


def _reachable(transitions, initial: int, finals):
    """_walk's rows and finals of a complete table's states reachable
    from initial (transitions[s][q] the target of q on symbol s, finals
    a container of states)."""
    # the identity partition; a list indexes faster than a range
    states = list(range(len(transitions[0])))
    flat, order = _walk(transitions, states, states, initial)
    rows, finals, _ = _numbered(flat, len(transitions), order, finals.__contains__)
    return rows, finals


def minimal_size(d: Dfa) -> int:
    """State count of d's minimal Dfa, without building it.

    d's whole table is refined, and the count is the number of blocks
    reachable from the initial state's block: exactly the blocks of d's
    reachable states, so no pass over the states finds those first.
    """
    reps, block_of = hopcroft_refine(d.transitions, d.finals)
    return len(_walk(d.transitions, reps, block_of, block_of[d.initial])[1])


def minimal_rows(transitions, initial: int, finals):
    """Transition rows and finals of the minimal machine of a complete
    table (transitions[s][q] the target of q on symbol s, finals a
    frozenset of states).

    The whole table is refined, and only the blocks reachable from the
    initial block are numbered: exactly the blocks of the reachable
    states.  They are numbered breadth-first in alphabet order, so the
    initial block is 0 and two tables with the same language give equal
    rows and finals.
    """
    reps, block_of = hopcroft_refine(transitions, finals)
    flat, order = _walk(transitions, reps, block_of, block_of[initial])
    # a block is final when the state standing for it is
    rows, finals, _ = _numbered(
        flat, len(transitions), [reps[b] for b in order], finals.__contains__
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


def reverse_masks(d: Dfa) -> Masks:
    """The masks of d's reversal: move[s][t] is the mask of d's states
    that go to t on symbol s, the start set is d's finals and the final
    mask d's initial state."""
    move = []
    for row in d.transitions:
        pre = [0] * d.state_count
        for q, t in enumerate(row):
            pre[t] |= 1 << q
        move.append(pre)
    return move, state_mask(d.finals), 1 << d.initial


def _masks_nfa(alphabet: tuple[str, ...], masks: Masks) -> Nfa:
    """The Nfa without free moves whose masks these are."""
    move, start, final_mask = masks
    return Nfa(
        state_count=len(move[0]),
        alphabet=alphabet,
        transitions=tuple(tuple(frozenset(_mask_bits(t)) for t in row) for row in move),
        initials=frozenset(_mask_bits(start)),
        epsilon_edges=frozenset(),
        finals=frozenset(_mask_bits(final_mask)),
    )


def reverse_nfa(d: Dfa) -> Nfa:
    """Nfa for the reversed language: the Nfa of reverse_masks(d)."""
    return _masks_nfa(d.alphabet, reverse_masks(d))


def minimize_brzozowski(d: Dfa) -> Dfa:
    """Minimal Dfa by double reversal; slower than Hopcroft but independent of it."""
    mid = subset_dfa(d.alphabet, *reverse_masks(d))
    return subset_dfa(d.alphabet, *reverse_masks(mid))


def _symbols(alphabet: tuple[str, ...], word: str):
    """The index in alphabet of each symbol of word, in order;
    ValueError for a symbol not in it."""
    idx = {sym: s for s, sym in enumerate(alphabet)}
    for ch in word:
        if ch not in idx:
            raise ValueError(f"symbol {ch!r} is not in the alphabet")
        yield idx[ch]


def accepts(d: Dfa, word: str) -> bool:
    state = d.initial
    for s in _symbols(d.alphabet, word):
        state = d.transitions[s][state]
    return state in d.finals


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    move, cur, final_mask = nfa_masks(nfa)
    for s in _symbols(nfa.alphabet, word):
        cur = mask_image(cur, move[s])
    return bool(cur & final_mask)


def _pair_walk(a: Dfa, p: int, b: Dfa, q: int) -> str | None:
    """Shortest word on which a from state p and b from state q disagree
    about acceptance; None if they agree on every word.

    Breadth-first over state pairs taking symbols in alphabet order, so
    among shortest witnesses the alphabet-lexicographically first wins.
    The queue is two lists, the pairs' a-states and b-states, and each
    pair keeps the index of the pair it was reached from.  partner[v] is
    the a-state first paired with b-state v, so (u, v) is seen when
    partner[v] == u; a pair whose b-state already has another partner
    is kept as the int u * nb + v in a set, which stays empty when a's
    states are a function of b's, as for two machines of one language.
    The word is spelled out only on a hit: each step's symbol is the
    first that takes the parent pair to the child, since the walk takes
    symbols in order and a pair is queued when first reached.
    """
    afin = [False] * a.state_count
    for u in a.finals:
        afin[u] = True
    bfin = [False] * b.state_count
    for v in b.finals:
        bfin[v] = True
    nb = b.state_count
    partner = [-1] * nb
    partner[q] = p
    others = set()
    # the loop also visits the pairs appended while it runs
    qa, qb = [p], [q]
    parent = array("q", [0])
    rows = list(zip(a.transitions, b.transitions))
    for i, u in enumerate(qa):
        v = qb[i]
        if afin[u] != bfin[v]:
            word = []
            while i:
                j = parent[i]
                u, v, x, y = qa[j], qb[j], qa[i], qb[i]
                word.append(next(
                    sym for sym, (arow, brow) in zip(a.alphabet, rows)
                    if arow[u] == x and brow[v] == y
                ))
                i = j
            return "".join(reversed(word))
        for arow, brow in rows:
            x = arow[u]
            y = brow[v]
            w = partner[y]
            if w == x:
                continue
            if w < 0:
                partner[y] = x
            else:
                key = x * nb + y
                if key in others:
                    continue
                others.add(key)
            qa.append(x)
            qb.append(y)
            parent.append(i)
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
