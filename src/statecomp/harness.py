"""Verification oracles, searches, the op table and its routes.

The oracle builds the operation's left NFA from reverse/star, takes its
masks, catenates them with the right operand's through
constructions.catenation_masks, and counts the subset construction's
Hopcroft blocks.  Each op's route picks the direct construction and
its size bound by operand shape; revcat with n >= 2 has none of its own
(the paper's is the oracle's pipeline), so there verify checks the one
machine against the closed form only.  Agreement between the routes,
plus the closed-form bounds, is what the verify and search entry points
check.  Everything that differs from one operation to the next is a row
of OPS.
"""

from __future__ import annotations

import functools
import random
import string
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Container

from .automata import (
    Dfa,
    Masks,
    Nfa,
    _pair_walk,
    hopcroft_refine,
    minimal_rows,
    nfa_masks,
    state_mask,
    subset_construction,
    subset_dfa,
)
from .bounds import (
    _check_sizes,
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from .constructions import (
    _require_same_alphabet,
    catenation_masks,
    dfa_masks,
    revcat_n1_direct,
    reverse_nfa,
    star_nfa,
    starcat_general_direct,
)
from .witnesses import (
    empty_dfa,
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


def _revcat_route(a: Dfa, b: Dfa) -> tuple[Dfa | None, int, int | None]:
    m, n = a.state_count, b.state_count
    if n == 1 and m >= 2:
        return revcat_n1_direct(a, bool(b.finals)), sc_revcat(m, 1), None
    # none of its own: the paper's is the oracle's pipeline, reverse_nfa(a)
    # with free moves from its finals to b's initial state, determinized
    return None, ub_revcat(m, n), None


def _starcat_route(a: Dfa, b: Dfa) -> tuple[Dfa | None, int, int | None]:
    m, n = a.state_count, b.state_count
    if n == 1:
        # L(b) is all words or none, and the star factor always
        # contributes the empty word
        return (sigma_star_dfa(a.alphabet) if b.finals else empty_dfa(a.alphabet)), 1, None
    if not a.finals:
        # L(a)* is just the empty word, so the result is b itself and
        # its own size is the bound
        return b, n, None
    direct = starcat_general_direct(a, b)
    if a.finals == frozenset((a.initial,)):
        return direct, sc_starcat_special(m, n), None
    k1 = len(a.finals - {a.initial})
    return direct, ub_starcat_general(m, n, k1), k1


def _revcat_pair(m: int, n: int) -> tuple[Dfa, Dfa]:
    if m < 2:
        raise ValueError(
            "no stored reversal-catenation family covers m = 1; "
            "use exhaustive_search"
        )
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        a = revcat_n1_witness(m)
        return a, sigma_star_dfa(a.alphabet)
    return revcat_witness_M(m), revcat_witness_N(n)


def _starcat_pair(m: int, n: int) -> tuple[Dfa, Dfa]:
    if m < 2 or n < 1:
        raise ValueError("starcat witnesses need m >= 2 and n >= 1")
    a = starcat_witness_A(m)
    return a, sigma_star_dfa(a.alphabet) if n == 1 else starcat_witness_B(n)


def _starcat_special_pair(m: int, n: int) -> tuple[Dfa, Dfa]:
    if m < 2 or n < 1:
        raise ValueError("starcat-special witnesses need m >= 2 and n >= 1")
    a = starcat_special_witness_A(m)
    return a, sigma_star_dfa(a.alphabet) if n == 1 else starcat_special_witness_B(n)


@dataclass(frozen=True)
class Operation:
    """One row of the op table."""

    base: str  # the op whose constructions run; starcat-special runs starcat's
    left: Callable[[Dfa], Nfa]  # the oracle's NFA for the left operand
    # by operand shape: the direct construction (None where the oracle's
    # pipeline is the only one), its size bound, and k1
    route: Callable[[Dfa, Dfa], tuple[Dfa | None, int, int | None]]
    sc: Callable[[int, int], int]  # exact worst-case minimal size
    bound_k1: Callable[[int, int, int], int] | None  # construction bound at a given k1
    witness: Callable[[int, int], tuple[Dfa, Dfa]]  # worst-case pair


OPS = {
    "revcat": Operation(
        "revcat", reverse_nfa, _revcat_route, sc_revcat, None, _revcat_pair
    ),
    "starcat": Operation(
        "starcat", star_nfa, _starcat_route, sc_starcat, ub_starcat_general,
        _starcat_pair,
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


def _oracle_masks(op: str, a: Dfa, b: Dfa) -> Masks:
    left = nfa_masks(operation(op).left(a))
    _require_same_alphabet(a, b)
    # the left NFA's state count: one move-table entry per state
    return catenation_masks(left, dfa_masks(b, len(left[0][0])))


def _masks_minimal_size(move, start: int, final_mask: int) -> int:
    """Minimal DFA size of the machine with these masks: every subset
    the construction reaches is reachable, so the blocks are the count."""
    rows, finals, _ = subset_construction(move, start, final_mask)
    return len(hopcroft_refine(rows, finals)[0])


def oracle_pipeline(op: str, a: Dfa, b: Dfa) -> Dfa:
    """Determinized (not yet minimized) DFA for the operation, built only
    from the generic constructions: the left NFA and b side by side, with
    free moves from the left NFA's finals to b's initial state."""
    return subset_dfa(a.alphabet, *_oracle_masks(op, a, b))


def oracle_sc(op: str, a: Dfa, b: Dfa) -> int:
    """Minimal DFA size of the operation result, via the generic pipeline."""
    return _masks_minimal_size(*_oracle_masks(op, a, b))


def combined(op: str, a: Dfa, b: Dfa) -> Dfa:
    """The direct construction routed for the operands' shape, or the
    oracle's pipeline where the route has none; op is "revcat" for
    L(a)^R L(b) or "starcat" for L(a)* L(b)."""
    _require_same_alphabet(a, b)
    direct = operation(op).route(a, b)[0]
    return oracle_pipeline(op, a, b) if direct is None else direct


def _report(
    op: str, spec: Operation, a: Dfa, b: Dfa, formula: int | None
) -> BoundReport:
    """Compare the route's direct machine and k1 for (a, b) with the
    oracle, or report the oracle's own where the route has none.  Passed
    when both give the same language and the oracle's minimal size equals
    formula or, formula None, the direct machine fits the route's bound;
    the report keeps the shortest word they disagree on, if any."""
    direct, bound, k1 = spec.route(a, b)
    oracle = oracle_pipeline(spec.base, a, b)
    # every subset the construction reaches is reachable, so the blocks
    # are the count
    minimal = len(hopcroft_refine(oracle.transitions, oracle.finals)[0])
    if direct is None:
        direct, word = oracle, None
    else:
        word = _pair_walk(direct, direct.initial, oracle, 0)
    exact = formula is not None
    fits = minimal == formula if exact else direct.state_count <= bound
    return BoundReport(
        op, a.state_count, b.state_count, k1, formula if exact else bound,
        direct.state_count, minimal, fits and word is None, word,
    )


def verify_witness(op: str, m: int, n: int) -> BoundReport:
    """Build the stored witness pair for (op, m, n), run the routed
    direct construction and the oracle, and compare the oracle's minimal
    size with the closed form at (m, n)."""
    spec = operation(op, OPS)
    a, b = spec.witness(m, n)
    return _report(op, spec, a, b, spec.sc(m, n))


def verify_construction(op: str, a: Dfa, b: Dfa) -> BoundReport:
    """Check one concrete pair: the routed direct construction must match
    the oracle's language and fit under the route's size bound."""
    return _report(op, operation(op), a, b, None)


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
    _check_sizes(m, n)
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

    Each side keeps the machines and masks of its last 65,536 indices
    (the right side's also keyed by its offset, the left NFA's state
    count), so an index that comes again is not decoded again, and the
    pair's own work is catenation_masks and _masks_minimal_size.
    """
    left_nfa = operation(op).left

    # bounded, as a side can hold millions of machines
    @functools.lru_cache(maxsize=1 << 16)
    def left_of(ia: int) -> tuple[Dfa, Masks]:
        a = decode_dfa(ia, m, alphabet)
        return a, nfa_masks(left_nfa(a))

    @functools.lru_cache(maxsize=1 << 16)
    def right_of(ib: int, off: int) -> tuple[Dfa, Masks]:
        b = decode_dfa(ib, n, alphabet)
        return b, dfa_masks(b, off)

    for ia, ib in pair_indices:
        a, left = left_of(ia)
        # the left NFA's state count: one move-table entry per state
        b, right = right_of(ib, len(left[0][0]))
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
    # a generator's image of a class is the class of its first machine
    # with its rows taken in the generator's order
    images: list[list[int]] = [[] for _ in gens]
    for i in firsts:
        rows, finals = _decode(i, size, nsym)
        for g, image in zip(gens, images):
            image.append(class_of[_index_of([rows[s] for s in g], finals)])
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
