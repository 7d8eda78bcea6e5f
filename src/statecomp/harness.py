"""Verification oracles, searches, and the op table.

The oracle never touches the direct product constructions: it builds the
operation's left NFA from reverse/star, catenates it with the right
operand on bitmask move tables, and counts the subset construction's
Hopcroft blocks.  Agreement between the two routes, plus the closed-form
bounds, is what the verify and search entry points check.  Everything
that differs from one operation to the next is a row of OPS.
"""

from __future__ import annotations

import functools
import random
import string
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Container

# determinize, equivalent, minimize_hopcroft and catenation_nfa are unused
# here, but perfbench/spans.py traces them at this module's attributes, so
# they stay importable from it
from .automata import (  # noqa: F401
    Dfa,
    Nfa,
    _moves,
    _pair_walk,
    determinize,
    equivalent,
    hopcroft_refine,
    minimal_rows,
    minimize_hopcroft,
    state_mask,
    subset_construction,
)
from .bounds import (
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from .constructions import (  # noqa: F401
    _require_same_alphabet,
    catenation_nfa,
    combined,
    revcat_route,
    reverse_nfa,
    star_nfa,
    starcat_route,
)
from .witnesses import (
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_special_witness_A,
    starcat_special_witness_B,
    starcat_witness_A,
    starcat_witness_B,
)

DEFAULT_BUDGET = 20_000_000


class BudgetError(ValueError):
    """Raised when a full search would exceed the configured pair budget."""


@dataclass(frozen=True)
class BoundReport:
    """One verification row comparing a construction against its bound."""

    op: str
    m: int
    n: int
    k1: int | None
    formula: int
    constructed: int
    minimal: int
    passed: bool
    # the shortest word the direct route and the oracle disagree on, or
    # None when their languages agree
    word: str | None = None

    def __str__(self) -> str:
        """The report as one verify row, ending with the word the routes
        disagree on when there is one."""
        k1 = "-" if self.k1 is None else str(self.k1)
        verdict = "PASS" if self.passed else "FAIL"
        row = (
            f"{self.op} m={self.m} n={self.n} k1={k1} formula={self.formula} "
            f"constructed={self.constructed} minimal={self.minimal} {verdict}"
        )
        if self.word is not None:
            # the empty word prints as ""
            row += " word=" + (self.word or '""')
        return row


@dataclass(frozen=True)
class SearchResult:
    op: str
    m: int
    n: int
    alphabet_size: int
    max_minimal: int
    argmax: tuple[Dfa, Dfa]
    pairs_examined: int  # pairs covered
    pairs_evaluated: int  # oracle runs made


def _revcat_bound(a: Dfa, b: Dfa) -> tuple[int, int | None]:
    m, n = a.state_count, b.state_count
    return (sc_revcat(m, 1) if n == 1 and m >= 2 else ub_revcat(m, n)), None


def _starcat_bound(a: Dfa, b: Dfa) -> tuple[int, int | None]:
    m, n = a.state_count, b.state_count
    if n == 1:
        return 1, None
    if not a.finals:
        # the result is a copy of b, so its own size is the bound
        return n, None
    if a.finals == frozenset((a.initial,)):
        return sc_starcat_special(m, n), None
    k1 = len(a.finals - {a.initial})
    return ub_starcat_general(m, n, k1), k1


def _revcat_pair(m: int, n: int) -> tuple[Dfa, Dfa, int | None]:
    if m < 2:
        raise ValueError(
            "no stored reversal-catenation family covers m = 1; "
            "use exhaustive_search"
        )
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        a = revcat_n1_witness(m)
        return a, sigma_star_dfa(a.alphabet), None
    return revcat_witness_M(m), revcat_witness_N(n), None


def _starcat_pair(m: int, n: int) -> tuple[Dfa, Dfa, int | None]:
    if m < 2 or n < 1:
        raise ValueError("starcat witnesses need m >= 2 and n >= 1")
    a = starcat_witness_A(m)
    if n == 1:
        return a, sigma_star_dfa(a.alphabet), None
    return a, starcat_witness_B(n), len(a.finals - {a.initial})


def _starcat_special_pair(m: int, n: int) -> tuple[Dfa, Dfa, int | None]:
    if m < 2 or n < 1:
        raise ValueError("starcat-special witnesses need m >= 2 and n >= 1")
    a = starcat_special_witness_A(m)
    b = sigma_star_dfa(a.alphabet) if n == 1 else starcat_special_witness_B(n)
    return a, b, None


@dataclass(frozen=True)
class Operation:
    """One row of the op table."""

    base: str  # the op whose constructions run; starcat-special runs starcat's
    left: Callable[[Dfa], Nfa]  # the oracle's NFA for the left operand
    direct: Callable[[Dfa, Dfa], Dfa]  # direct construction routed by operand shape
    bound: Callable[[Dfa, Dfa], tuple[int, int | None]]  # that route's size bound, k1
    sc: Callable[[int, int], int]  # exact worst-case minimal size
    bound_k1: Callable[[int, int, int], int] | None  # construction bound at a given k1
    witness: Callable[[int, int], tuple[Dfa, Dfa, int | None]]  # worst-case pair, k1


OPS = {
    "revcat": Operation(
        "revcat", reverse_nfa, revcat_route, _revcat_bound, sc_revcat, None, _revcat_pair
    ),
    "starcat": Operation(
        "starcat", star_nfa, starcat_route, _starcat_bound, sc_starcat,
        ub_starcat_general, _starcat_pair,
    ),
}
# star-catenation restricted to a first operand whose only final state
# is its initial one: its own witnesses and formula, starcat's constructions
OPS["starcat-special"] = replace(
    OPS["starcat"], sc=sc_starcat_special, bound_k1=None, witness=_starcat_special_pair
)

# the ops with constructions of their own, in the order random_check draws them
COMPOSE_OPS = ("revcat", "starcat")


def operation(op: str, among: Container[str] = COMPOSE_OPS) -> Operation:
    """The op table row for op; ValueError unless op is one of among."""
    if op not in among:
        raise ValueError(f"unknown operation {op!r}")
    return OPS[op]


# A machine's masks: its move table, closed start set and final mask,
# every set a bitmask of states.
Masks = tuple[list[list[int]], int, int]


def _left_masks(op: str, a: Dfa) -> Masks:
    """The masks of the op's left NFA for a."""
    left = operation(op).left(a)
    move, start = _moves(left)
    return move, start, state_mask(left.finals)


def _right_masks(b: Dfa, off: int) -> Masks:
    """b's masks with b's state q renumbered off + q, past the left NFA's
    states."""
    move = [[1 << (off + t) for t in row] for row in b.transitions]
    return move, 1 << (off + b.initial), state_mask(b.finals) << off


def catenation_masks(left: Masks, right: Masks) -> Masks:
    """The masks of catenation_nfa(left NFA, b), given the left NFA's
    masks and b's from _right_masks, without building either machine.

    The catenation's one free move, from the left NFA's finals to b's
    initial state, is folded in as _moves folds epsilon closure: a left
    entry (or start set) that meets the left finals also gets b's
    initial bit.
    """
    lmove, lstart, lfinal = left
    rmove, rinit, rfinal = right
    move = [
        [t | rinit if t & lfinal else t for t in lrow] + rrow
        for lrow, rrow in zip(lmove, rmove)
    ]
    return move, (lstart | rinit if lstart & lfinal else lstart), rfinal


def _oracle_masks(op: str, a: Dfa, b: Dfa) -> Masks:
    left = _left_masks(op, a)
    _require_same_alphabet(a, b)
    # the left NFA's state count: one move-table entry per state
    return catenation_masks(left, _right_masks(b, len(left[0][0])))


def _masks_minimal_size(move, start: int, final_mask: int) -> int:
    """Minimal DFA size of the machine with these masks: every subset
    the construction reaches is reachable, so the blocks are the count."""
    rows, finals, _ = subset_construction(move, start, final_mask)
    return len(hopcroft_refine(rows, finals)[0])


def oracle_pipeline(op: str, a: Dfa, b: Dfa) -> Dfa:
    """Determinized (not yet minimized) DFA for the operation, built only
    from the generic constructions: the same Dfa as
    determinize(catenation_nfa(left NFA, b))."""
    rows, finals, order = subset_construction(*_oracle_masks(op, a, b))
    return Dfa(len(order), a.alphabet, rows, 0, finals)


def oracle_sc(op: str, a: Dfa, b: Dfa) -> int:
    """Minimal DFA size of the operation result, via the generic pipeline."""
    return _masks_minimal_size(*_oracle_masks(op, a, b))


def _report(
    op: str, base: str, a: Dfa, b: Dfa, k1: int | None, formula: int, exact: bool
) -> BoundReport:
    """Run the direct construction and the oracle on (a, b).  Passed when
    both give the same language and the oracle's minimal size equals
    formula (exact) or the direct construction's size fits under it;
    the report keeps the shortest word they disagree on, if any."""
    direct = combined(base, a, b)
    oracle = oracle_pipeline(base, a, b)
    # every subset the construction reaches is reachable, so the blocks
    # are the count
    minimal = len(hopcroft_refine(oracle.transitions, oracle.finals)[0])
    fits = minimal == formula if exact else direct.state_count <= formula
    word = _pair_walk(direct, direct.initial, oracle, 0)
    return BoundReport(
        op, a.state_count, b.state_count, k1, formula, direct.state_count, minimal,
        fits and word is None, word,
    )


def verify_witness(op: str, m: int, n: int) -> BoundReport:
    """Build the stored witness pair for (op, m, n), run the direct
    construction and the oracle, and compare against the formula."""
    spec = operation(op, OPS)
    a, b, k1 = spec.witness(m, n)
    return _report(op, spec.base, a, b, k1, spec.sc(m, n), exact=True)


def verify_construction(op: str, a: Dfa, b: Dfa) -> BoundReport:
    """Check one concrete pair: the direct construction must match the
    oracle's language and fit under the route's size bound."""
    formula, k1 = operation(op).bound(a, b)
    return _report(op, op, a, b, k1, formula, exact=False)


def dfa_count(size: int, alphabet_size: int) -> int:
    """Number of complete DFAs with the initial state fixed at 0."""
    return size ** (size * alphabet_size) * 2 ** size


def _decode(index: int, size: int, nsym: int):
    """Transition rows and finals of decode_dfa's machine."""
    finals_bits = index & ((1 << size) - 1)
    t = index >> size
    rows = []
    for _ in range(nsym):
        row = []
        for _ in range(size):
            t, q = divmod(t, size)
            row.append(q)
        rows.append(tuple(row))
    finals = frozenset(q for q in range(size) if (finals_bits >> q) & 1)
    return tuple(rows), finals


def decode_dfa(index: int, size: int, alphabet: tuple[str, ...]) -> Dfa:
    """The index-th DFA in the enumeration of all complete machines of
    the given size, initial state 0.  The low bits pick the final set,
    the rest spell the transition table in base size."""
    rows, finals = _decode(index, size, len(alphabet))
    return Dfa(
        state_count=size,
        alphabet=alphabet,
        transitions=rows,
        initial=0,
        finals=finals,
    )


def _alphabet(alphabet_size: int) -> tuple[str, ...]:
    if not 1 <= alphabet_size <= 26:
        raise ValueError("alphabet size must be between 1 and 26")
    return tuple(string.ascii_lowercase[:alphabet_size])


def exhaustive_search(
    op: str,
    m: int,
    n: int,
    alphabet_size: int,
    mode: str = "full",
    *,
    sample_count: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Maximal oracle size over complete DFA pairs of the given shape.

    Full mode covers every pair (initial states fixed at 0, all
    transition tables, all final sets) and refuses to start past the
    budget; it runs the oracle once per letter-permutation orbit of
    language-class pairs (see _orbit_pairs).  Sampled mode draws
    sample_count index pairs from a seeded generator and runs the oracle
    on each.  The reported argmax is the first pair reaching the maximum
    in enumeration order.
    """
    operation(op)
    if m < 1 or n < 1:
        raise ValueError("automaton sizes must be at least 1")
    alphabet = _alphabet(alphabet_size)
    if mode == "full" and m + n >= budget.bit_length():
        # each side has at least 2^size final sets, so the pair count is
        # over the budget; refused before its power, which can run to
        # more digits than int-to-string conversion allows, is formed
        raise BudgetError(
            f"full search over at least 2^{m + n} pairs exceeds the budget of {budget}"
        )
    count_a = dfa_count(m, alphabet_size)
    count_b = dfa_count(n, alphabet_size)

    if mode == "full":
        examined = count_a * count_b
        if examined > budget:
            raise BudgetError(
                f"full search over {examined} pairs exceeds the budget of {budget}"
            )
        pair_indices = _orbit_pairs(m, n, alphabet)
    elif mode == "sampled":
        if sample_count is None or sample_count < 1:
            raise ValueError("sampled mode needs a positive sample_count")
        rng = random.Random(seed)
        pair_indices = (
            (rng.randrange(count_a), rng.randrange(count_b))
            for _ in range(sample_count)
        )
        examined = sample_count
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = -1
    best_pair: tuple[Dfa, Dfa] | None = None
    evaluated = 0
    for a, b, size in _pair_sizes(op, m, n, alphabet, pair_indices):
        evaluated += 1
        if size > best:
            best = size
            best_pair = (a, b)
    assert best_pair is not None
    return SearchResult(op, m, n, alphabet_size, best, best_pair, examined, evaluated)


def _pair_sizes(op: str, m: int, n: int, alphabet: tuple[str, ...], pair_indices):
    """(a, b, oracle_sc(op, a, b)) for each (ia, ib) in pair_indices, a
    and b the decoded machines of sizes m and n.

    Each side keeps the machines and masks of its last 65,536 indices,
    so an index that comes again is not decoded again, and the pair's
    own work is catenation_masks and _masks_minimal_size.
    """
    # every left operand of size m gives a left NFA of the same size
    off = operation(op).left(decode_dfa(0, m, alphabet)).state_count

    # bounded, as a side can hold millions of machines
    @functools.lru_cache(maxsize=1 << 16)
    def left_of(ia: int) -> tuple[Dfa, Masks]:
        a = decode_dfa(ia, m, alphabet)
        return a, _left_masks(op, a)

    @functools.lru_cache(maxsize=1 << 16)
    def right_of(ib: int) -> tuple[Dfa, Masks]:
        b = decode_dfa(ib, n, alphabet)
        return b, _right_masks(b, off)

    for ia, ib in pair_indices:
        a, left = left_of(ia)
        b, right = right_of(ib)
        yield a, b, _masks_minimal_size(*catenation_masks(left, right))


def _letter_generators(nsym: int) -> list[tuple[int, ...]]:
    """Generators of the group of letter permutations, as row orders (a
    machine's rows taken in this order rename its letters): the swap of
    letters 0 and 1 and the cycle of all letters.  There are none for
    one letter, and for two letters the swap is the cycle."""
    if nsym == 1:
        return []
    swap = (1, 0, *range(2, nsym))
    if nsym == 2:
        return [swap]
    return [swap, (*range(1, nsym), 0)]


def _index_of(rows, finals) -> int:
    """decode_dfa's index of the machine with these transition rows and
    finals, initial state 0."""
    size = len(rows[0])
    t = 0
    for row in reversed(rows):
        for q in reversed(row):
            t = t * size + q
    return t << size | state_mask(finals)


def _renamed_index(index: int, size: int, order: tuple[int, ...]) -> int:
    """decode_dfa's index of the index-th machine of this size with its
    rows taken in the given order."""
    radix = size ** size  # a row's digit in the index
    t = index >> size
    rows = []
    for _ in order:
        t, row = divmod(t, radix)
        rows.append(row)
    for s in reversed(order):
        t = t * radix + rows[s]
    return t << size | index & ((1 << size) - 1)


def _classes(
    size: int, alphabet: tuple[str, ...], gens
) -> tuple[list[int], list[list[int]]]:
    """The languages of the complete DFAs of this size, as classes.

    Every machine is keyed by its minimal_rows, which are canonical
    since blocks are numbered breadth-first.  Returns each
    class's first enumeration index, classes in that order, and for
    each generator the class it maps each class to.  Only indices are
    kept: a side can hold millions of machines and classes.
    """
    index: dict[int, int] = {}  # key -> class
    firsts: list[int] = []
    class_of = array("q")
    nsym = len(alphabet)
    for i in range(dfa_count(size, nsym)):
        rows, finals = _decode(i, size, nsym)
        rows, finals = minimal_rows(rows, 0, finals)
        # the minimal machine's own index, told apart by its state count
        key = _index_of(rows, finals) * (size + 1) + len(rows[0])
        c = index.get(key)
        if c is None:
            c = index[key] = len(firsts)
            firsts.append(i)
        class_of.append(c)
    images = [[class_of[_renamed_index(i, size, g)] for i in firsts] for g in gens]
    return firsts, images


def _orbit_pairs(m: int, n: int, alphabet: tuple[str, ...]):
    """One index pair per orbit of class pairs, enough to find the
    maximal oracle size over all pairs and the first pair reaching it.

    The oracle's size depends only on the two languages, and renaming
    letters on both operands together keeps it.  So the class pairs
    (x, y) are walked in lexicographic order, and a pair not yet seen
    is the least of its orbit under the letter permutations: its orbit
    is marked seen and the pair of the two classes' first indices is
    yielded.  The first strict maximum over these is at the least
    maximizing (first index of x, first index of y), which is the first
    maximizing pair in enumeration order.
    """
    gens = _letter_generators(len(alphabet))
    firsts_a, img_a = _classes(m, alphabet, gens)
    firsts_b, img_b = (firsts_a, img_a) if n == m else _classes(n, alphabet, gens)
    gen_pairs = list(zip(img_a, img_b))
    ny = len(firsts_b)
    seen = bytearray(len(firsts_a) * ny)
    for x, ia in enumerate(firsts_a):
        for y, ib in enumerate(firsts_b):
            if seen[x * ny + y]:
                continue
            seen[x * ny + y] = 1
            stack = [(x, y)]
            while stack:
                u, v = stack.pop()
                for ga, gb in gen_pairs:
                    k = ga[u] * ny + gb[v]
                    if not seen[k]:
                        seen[k] = 1
                        stack.append((ga[u], gb[v]))
            yield ia, ib


def random_dfa(rng: random.Random, size: int, alphabet: tuple[str, ...]) -> Dfa:
    """Uniform random complete DFA; draws transitions, then initial, then finals."""
    rows = tuple(
        tuple(rng.randrange(size) for _ in range(size)) for _ in range(len(alphabet))
    )
    initial = rng.randrange(size)
    finals = frozenset(q for q in range(size) if rng.random() < 0.5)
    return Dfa(size, tuple(alphabet), rows, initial, finals)


def random_check(
    trials: int, m_max: int, n_max: int, sigma_max: int, seed: int
) -> list[BoundReport]:
    """Seeded random construction checks; every report should pass."""
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        op = rng.choice(COMPOSE_OPS)
        m = rng.randint(1, m_max)
        n = rng.randint(1, n_max)
        alphabet = _alphabet(rng.randint(1, sigma_max))
        a = random_dfa(rng, m, alphabet)
        b = random_dfa(rng, n, alphabet)
        reports.append(verify_construction(op, a, b))
    return reports
