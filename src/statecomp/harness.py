"""Verification oracles, searches, the op table and its routes.

The oracle takes the masks of the left operand's reversal or star and
catenates them with the right operand through
constructions.catenation_masks.  verify and oracle_sc count its subsets
in one walk grouped by their left parts (automata._grouped_walk), since
a subset's left part moves on its own and its right part under b plus
a free move that depends only on the left part, and read the minimal
size off private words (automata.minimal_count).  The subsets are
numbered (automata.subset_construction) only where a table is read:
for Hopcroft's blocks when private words do not decide the count, and
for a pair walk against a route's machine.  The full search walks the
same subsets over cached per-class image tables instead, handing them
to automata._table_walk as two of its chunks: a right class's table
packs catenation_masks' right part and a left class's its left part,
built by constructions._catenation_left, so the walk's keys are the
oracle's own.  Each op's route picks the direct construction and its
size bound by operand shape.  starcat's is the oracle's own masks from
another start set of the same images and finality, so verify reads its
count and language off the oracle's one grouped walk; revcat with
n >= 2 has none of its own (the paper's is the oracle's pipeline), so
there verify checks the one count against the closed form only.
Agreement between the routes, plus the closed-form bounds, is what the
verify and search entry points check.  Everything that differs from
one operation to the next is a row of OPS.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace
from typing import Callable, Container

from .automata import (
    DEFAULT_BUDGET,
    BudgetError,
    Dfa,
    Masks,
    _grouped_walk,
    _numbered,
    _packed,
    _pair_walk,
    _reachable,
    _subset_table,
    _table_walk,
    hopcroft_refine,
    mask_image,
    minimal_count,
    minimal_rows,
    reverse_masks,
    state_mask,
    subset_construction,
    subset_dfa,
)
from .bounds import (
    _check_sizes,
    estimate,
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from .constructions import (
    _catenation_left,
    _require_same_alphabet,
    _starcat_masks,
    catenation_masks,
    revcat_n1_direct,
    star_masks,
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
    # pairs whose size was decided: orbit pairs in full mode, draws in
    # sampled mode
    pairs_evaluated: int


def _revcat_route(a: Dfa, b: Dfa) -> tuple[Dfa | None, int, int | None]:
    m, n = a.state_count, b.state_count
    if n == 1 and m >= 2:
        return revcat_n1_direct(a, bool(b.finals)), sc_revcat(m, 1), None
    # none of its own: the paper's is the oracle's pipeline, a's reversal
    # with free moves from its finals to b's initial state, determinized
    return None, ub_revcat(m, n), None


def _starcat_route(a: Dfa, b: Dfa) -> tuple[Dfa | Masks, int, int | None]:
    m, n = a.state_count, b.state_count
    if n == 1:
        # L(b) is all words or none, and the star factor always
        # contributes the empty word
        return (sigma_star_dfa(a.alphabet) if b.finals else empty_dfa(a.alphabet)), 1, None
    if not a.finals:
        # L(a)* is just the empty word, so the result is b itself and
        # its own size is the bound
        return b, n, None
    # starcat_general_direct's masks, not yet determinized
    masks = _starcat_masks(a, b)
    if a.finals == frozenset((a.initial,)):
        return masks, sc_starcat_special(m, n), None
    k1 = len(a.finals - {a.initial})
    return masks, ub_starcat_general(m, n, k1), k1


def _revcat_pair(m: int, n: int) -> tuple[Dfa, Dfa]:
    if m < 1:
        raise ValueError("m must be at least 1")
    if m == 1:
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

    left: Callable[[Dfa], Masks]  # the oracle's left machine: a's reversal or star
    # by operand shape: the direct construction, as a machine or as the
    # masks of its subset construction (None where the oracle's pipeline
    # is the only one), its size bound, and k1
    route: Callable[[Dfa, Dfa], tuple[Dfa | Masks | None, int, int | None]]
    sc: Callable[[int, int], int]  # exact worst-case minimal size
    bound_k1: Callable[[int, int, int], int] | None  # construction bound at a given k1
    witness: Callable[[int, int], tuple[Dfa, Dfa]]  # worst-case pair


OPS = {
    "revcat": Operation(reverse_masks, _revcat_route, sc_revcat, None, _revcat_pair),
    "starcat": Operation(
        star_masks, _starcat_route, sc_starcat, ub_starcat_general, _starcat_pair
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


def _oracle_masks(left: Callable[[Dfa], Masks], a: Dfa, b: Dfa) -> Masks:
    """The oracle's masks: the left machine left(a) catenated with b."""
    _require_same_alphabet(a, b)
    return catenation_masks(left(a), b)


def oracle_pipeline(op: str, a: Dfa, b: Dfa) -> Dfa:
    """Determinized (not yet minimized) DFA for the operation, built only
    from the generic constructions: the left machine and b side by side,
    with free moves from the left machine's finals to b's initial state."""
    return subset_dfa(a.alphabet, *_oracle_masks(operation(op).left, a, b))


def _oracle_count(move, start: int, final_mask: int, n: int):
    """The subsets of these catenation masks' subset construction, with
    a right machine of n states, grouped by left part, their count and
    whether the construction re-enters its start (automata._grouped_walk);
    its minimal size, by private words (automata.minimal_count), else
    Hopcroft's blocks, since every subset the construction reaches is
    reachable; and the numbered rows and finals where Hopcroft read
    them, else None."""
    groups, count, reenters = _grouped_walk(move, start, n)
    minimal = minimal_count(move, final_mask, groups, n)
    table = None
    if minimal is None:
        table = subset_construction(move, start, final_mask)[:2]
        minimal = len(hopcroft_refine(*table)[0])
    return groups, count, reenters, minimal, table


def oracle_sc(op: str, a: Dfa, b: Dfa) -> int:
    """Minimal DFA size of the operation result, via the generic pipeline."""
    return _oracle_count(*_oracle_masks(operation(op).left, a, b), b.state_count)[3]


def combined(op: str, a: Dfa, b: Dfa) -> Dfa:
    """The direct construction routed for the operands' shape, or the
    oracle's pipeline where the route has none; op is "revcat" for
    L(a)^R L(b) or "starcat" for L(a)* L(b)."""
    _require_same_alphabet(a, b)
    direct = operation(op).route(a, b)[0]
    if direct is None:
        return oracle_pipeline(op, a, b)
    return direct if isinstance(direct, Dfa) else subset_dfa(a.alphabet, *direct)


def _restarts(oracle: Masks, route: Masks, reenters: bool) -> bool:
    """Whether route is the oracle's masks started in a set with the
    oracle start's images and finality, and the oracle's subset
    construction never re-enters its start (reenters False).  Then the
    route's machine accepts the oracle's language, and its subsets are
    the oracle's with the route's start in place of the oracle's."""
    def one_step(move, start, final_mask):
        # the move table and final mask, the start's finality and images
        return move, final_mask, bool(start & final_mask), [mask_image(start, r) for r in move]

    return one_step(*route) == one_step(*oracle) and not reenters


def _report(
    op: str, spec: Operation, a: Dfa, b: Dfa, formula: int | None
) -> BoundReport:
    """Compare the route's direct machine and k1 for (a, b) with the
    oracle, or report the oracle's own where the route has none.  Passed
    when both give the same language and the oracle's minimal size equals
    formula or, formula None, the direct machine fits the route's bound;
    the report keeps the shortest word they disagree on, if any.  A
    route whose masks only restart the oracle's (_restarts) is counted
    off the oracle's subsets, with no walk or machine of its own; only
    another route's machine is pair-walked against the oracle's
    numbered machine."""
    # counted before the route runs: the oracle's walk is done before
    # any machine of the route's is built
    masks = _oracle_masks(spec.left, a, b)
    n = b.state_count
    groups, constructed, reenters, minimal, table = _oracle_count(*masks, n)
    direct, bound, k1 = spec.route(a, b)
    word = None
    if isinstance(direct, tuple) and _restarts(masks, direct, reenters):
        # the oracle's start gives way to the route's, one state fewer
        # when the route's start is reached anyway
        start = direct[1]
        reached = start & (1 << n) - 1 in groups.get(start >> n, ())
        constructed -= start != masks[1] and reached
    elif direct is not None:
        if isinstance(direct, tuple):
            direct = subset_dfa(a.alphabet, *direct)
        rows, finals = table or subset_construction(*masks)[:2]
        oracle = Dfa(len(rows[0]), a.alphabet, rows, 0, finals)
        constructed = direct.state_count
        word = _pair_walk(direct, direct.initial, oracle, 0)
    exact = formula is not None
    fits = minimal == formula if exact else constructed <= bound
    return BoundReport(
        op, a.state_count, b.state_count, k1, formula if exact else bound,
        constructed, minimal, fits and word is None, word,
    )


def verify_witness(op: str, m: int, n: int) -> BoundReport:
    """Build the stored witness pair for (op, m, n), run the routed
    direct construction and the oracle, and compare the oracle's minimal
    size with the closed form at (m, n).

    The oracle builds at least the closed form's count of states, each
    keyed by a subset of the m + n + 1 NFA states, so a cell is refused
    (BudgetError) before any machine or table is built when that count
    is over DEFAULT_BUDGET, or when its keys are, counted in 64-bit
    words (one word each up to m + n = 63).  The count is sized by its
    estimate before it is formed, so a cell of any size is refused at
    once.  At n = 1 the closed form does not bound the oracle's subsets
    (for starcat it is 1, where the oracle reaches 3 * 2^(m - 2)), so
    such a cell is budgeted as the same op's (m, 2) cell, which does.
    Sizes below 1 are left to the witness's own checks, so their
    messages name the witness family.
    """
    spec = operation(op, OPS)
    if min(m, n) >= 1:
        sizes = (m, 2) if n == 1 else (m, n)
        # the count itself can run to more digits than int-to-string
        # conversion allows, so the messages do not print it
        if estimate(spec.sc, *sizes) > DEFAULT_BUDGET:
            raise BudgetError(
                f"the {op} witness cell ({m}, {n}) needs more states than "
                f"the budget of {DEFAULT_BUDGET}"
            )
        # within the budget the estimate is exact, and the count cheap
        if spec.sc(*sizes) * ((sum(sizes) + 64) // 64) > DEFAULT_BUDGET:
            raise BudgetError(
                f"the {op} witness cell ({m}, {n}) needs more 64-bit words "
                f"of subset keys than the budget of {DEFAULT_BUDGET}"
            )
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
    the rest spell the transition table in base size.  ValueError for an
    index outside 0..dfa_count(size, len(alphabet)) - 1."""
    if not 0 <= index < dfa_count(size, len(alphabet)):
        # named, not printed: the bound can pass int-to-string's digit limit
        raise ValueError(f"decode index outside 0..dfa_count({size}, {len(alphabet)}) - 1")
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
) -> SearchResult:
    """Maximal oracle size over complete DFA pairs of the given shape.

    Full mode covers every pair (initial states fixed at 0, all
    transition tables, all final sets) and refuses to start past
    DEFAULT_BUDGET pairs; it decides the size of one pair per
    letter-permutation orbit of language-class pairs (see _orbit_pairs)
    whose catenation bound beats the best size found before it, on the
    two classes' minimal machines.  The oracle's subsets are walked by
    automata._table_walk over the two classes' cached image tables, once
    per left class and right transition table: right classes that differ
    only in their finals share the walk.  Each pair numbers the walk's
    rows, with its own right class's finals, only when the subset count
    beats the best size found before it.  Sampled mode draws
    sample_count index pairs from a seeded generator and runs the
    oracle's subset construction on each.  A minimal size is at most the
    subset count and at most the count of distinct (final, successors)
    rows, so either mode refines only a table whose two counts both beat
    the best size so far (_size_over).  The reported argmax is the first
    pair reaching the maximum in enumeration order.
    """
    spec = operation(op)
    _check_sizes(m, n)
    alphabet = _alphabet(alphabet_size)
    if mode == "full" and m + n >= DEFAULT_BUDGET.bit_length():
        # each side has at least 2^size final sets, so the pair count is
        # over the budget; refused before its power, which can run to
        # more digits than int-to-string conversion allows, is formed
        raise BudgetError(
            f"full search over at least 2^{m + n} pairs exceeds the budget of "
            f"{DEFAULT_BUDGET}"
        )
    count_a = dfa_count(m, alphabet_size)
    count_b = dfa_count(n, alphabet_size)
    best = -1

    if mode == "full":
        examined = count_a * count_b
        if examined > DEFAULT_BUDGET:
            raise BudgetError(
                f"full search over {examined} pairs exceeds the budget of {DEFAULT_BUDGET}"
            )
        gens = _letter_generators(alphabet_size)
        classes_a = _classes(m, alphabet, gens)
        left = _left_classes(op, classes_a)
        right = classes_a if n == m else _classes(n, alphabet, gens)
        firsts_a, _, _, heads = left
        firsts_b, _, rights = right
        width = _image_width(m, n)
        # each right class's transition rows, numbered: classes that
        # differ only in their finals share this skeleton, and with it one
        # image table and, for each left class, one walk, since a walk
        # depends on the right machine's finals only through _numbered
        numbers: dict = {}
        skeleton = [numbers.setdefault(b.transitions, len(numbers)) for b in rights]
        right_tables: list = [None] * len(numbers)
        right_finals = [state_mask(b.finals) for b in rights]
        evaluated = 0
        # the best size so far, read by _orbit_pairs: a pair whose
        # catenation bound is at most it cannot be a new strict maximum,
        # so the walk passes it by.  Only this bound, which predates the
        # paper, prunes: the search is the machine check that no pair
        # beats sc_revcat and sc_starcat, and a walk pruned by those could
        # never find a pair that does.
        floor = [best]
        # _orbit_pairs yields the pairs x-major, so the current left
        # class's table and walks are dropped when x advances
        current = -1
        for x, y, _ in _orbit_pairs(left, right, floor):
            evaluated += 1
            if x != current:
                current, walks = x, {}
                lt, start = _left_table(spec.left(heads[x]), n, width)
            skel = skeleton[y]
            walk = walks.get(skel)
            if walk is None:
                rt = right_tables[skel]
                if rt is None:
                    rt = right_tables[skel] = _right_table(rights[y].transitions, width)
                # catenation_masks' subsets, found in the oracle's order,
                # with the left block at bit n and no third chunk
                walk = walks[skel] = _table_walk(
                    (rt, lt, [0]), (n, width), width, alphabet_size, start
                )
            flat, keys = walk
            if len(keys) > floor[0]:
                rows, finals, _ = _numbered(
                    flat, alphabet_size, keys, right_finals[y].__and__
                )
                size = _size_over(rows, finals, floor[0])
                if size is not None:
                    floor[0], argmax = size, (x, y)
        best = floor[0]
        x, y = argmax
        best_pair = decode_dfa(firsts_a[x], m, alphabet), decode_dfa(firsts_b[y], n, alphabet)
    elif mode == "sampled":
        if sample_count is None or sample_count < 1:
            raise ValueError("sampled mode needs a positive sample_count")
        rng = random.Random(seed)
        for _ in range(sample_count):
            a = decode_dfa(rng.randrange(count_a), m, alphabet)
            b = decode_dfa(rng.randrange(count_b), n, alphabet)
            rows, finals, keys = subset_construction(*_oracle_masks(spec.left, a, b))
            if len(keys) > best:
                size = _size_over(rows, finals, best)
                if size is not None:
                    best, best_pair = size, (a, b)
        examined = evaluated = sample_count
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SearchResult(op, m, n, alphabet_size, best, best_pair, examined, evaluated)


def _size_over(rows, finals, floor: int) -> int | None:
    """The minimal size of a subset construction's table (rows, finals),
    every state reachable, when it is over floor; None otherwise.

    States with the same finality and the same successor on every symbol
    accept the same language, so the number of distinct (final,
    successors) rows bounds the minimal size from above: the table is
    refined only when that bound is over floor too.
    """
    flags = map(finals.__contains__, range(len(rows[0])))
    if len(set(zip(flags, *rows))) <= floor:
        return None
    size = len(hopcroft_refine(rows, finals)[0])
    return size if size > floor else None


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


def _classes(
    size: int, alphabet: tuple[str, ...], gens
) -> tuple[list[int], list[list[int]], list[Dfa]]:
    """The languages of the complete DFAs of this size, as classes.

    Every machine is keyed by its minimal_rows, which are canonical: two
    machines share a key exactly when they accept the same language.
    The machines are taken a transition table at a time, in enumeration
    order, and each table is decoded once.  Complementary final sets
    have the same Myhill-Nerode partition on a table, so of each pair
    only the first set is refined, and the second's key is read off it:
    dfa_count(size, len(alphabet)) / 2 refinements in all.
    Returns each class's first enumeration index, classes in that order;
    for each generator the class it maps each class to; and each class's
    minimal machine, minimize_hopcroft's of any of its machines.  Only
    classes are kept: a side can hold millions of machines.
    """
    index = {}  # minimal_rows' (rows, finals) -> class
    firsts: list[int] = []
    minimal: list[Dfa] = []
    nsym = len(alphabet)
    full = (1 << size) - 1
    final_sets = [frozenset(q for q in range(size) if f >> q & 1) for f in range(full + 1)]
    for t in range(size ** (size * nsym)):
        rows = _decode(t << size, size, nsym)[0]
        # a final set and its complement refine the table into the same
        # blocks, so the complement's key is the same rows (one tuple for
        # both) with the reachable blocks' finals complemented
        keys: list = [None] * (full + 1)
        for f, finals in enumerate(final_sets):
            key = keys[f]
            if key is None:
                key = minimal_rows(rows, 0, finals)
                blocks, accepting = key
                keys[f ^ full] = blocks, frozenset(range(len(blocks[0]))) - accepting
            if key not in index:
                index[key] = len(firsts)
                firsts.append(t << size | f)
                blocks, accepting = key
                minimal.append(Dfa(len(blocks[0]), alphabet, blocks, 0, accepting))
    # renaming letters keeps a machine minimal, so a generator's image of
    # a class is keyed by its minimal machine with the rows taken in the
    # generator's order, renumbered breadth-first
    images = [
        [
            index[_reachable([d.transitions[s] for s in g], 0, d.finals)]
            for d in minimal
        ]
        for g in gens
    ]
    return firsts, images, minimal


def _left_classes(
    op: str, classes
) -> tuple[list[int], list[list[int]], list[tuple[int, int]], list[Dfa]]:
    """The left operand's classes by the language of its left machine
    (L(a)^R for revcat, L(a)* for starcat): _classes' classes, merged
    where their minimal machines' left machines accept the same language.

    A merged class keeps the least first index among those it absorbs,
    and classes stay in that order.  Renaming letters commutes with
    reversal and with star, so a generator still sends a merged class to
    the class of its renamed first machine.  Returns firsts and images
    as _classes does; for each class (r, k), the state and final counts
    of its left language's minimal DFA; and its head, the minimal machine
    of its first class, whose left masks stand for it.  The masks are not
    kept: a side can hold tens of thousands of classes, and the search
    builds a class's masks again only for its left table.

    Reversal is a bijection on languages, so revcat merges nothing: its
    classes and heads are _classes' own, and no key is built.  Every
    state of a class's minimal machine is reachable, so the subset
    construction of its reversal is already minimal (Brzozowski, 1962):
    r and k are its subset and final counts, with no refinement.
    """
    left = operation(op).left
    firsts, images, minimal = classes
    if left is reverse_masks:
        counts = []
        for d in minimal:
            _, finals, keys = subset_construction(*reverse_masks(d))
            counts.append((len(keys), len(finals)))
        return firsts, images, counts, minimal
    index = {}  # minimal_rows' (rows, finals) of the left language -> merged class
    merged_of: list[int] = []  # class -> merged class
    first_of: list[int] = []  # each merged class's first class
    counts: list[tuple[int, int]] = []
    for c, d in enumerate(minimal):
        rows, finals, _ = subset_construction(*left(d))
        key = minimal_rows(rows, 0, finals)
        x = index.get(key)
        if x is None:
            x = index[key] = len(first_of)
            first_of.append(c)
            rows, finals = key
            counts.append((len(rows[0]), len(finals)))
        merged_of.append(x)
    return (
        [firsts[c] for c in first_of],
        [[merged_of[image[c]] for c in first_of] for image in images],
        counts,
        [minimal[c] for c in first_of],
    )


def _image_width(m: int, n: int) -> int:
    """Bits per symbol of a _table_walk image at a search's (m, n): the
    right machine's n, then the left machine's at most m + 1 (the star's
    fresh state), so one right table serves every left class."""
    return m + 1 + n


def _left_table(masks: Masks, n: int, width: int) -> tuple[list[int], int]:
    """A left machine's image table for _table_walk, and its start key:
    the left part of its catenation with a right machine of n states,
    initial state 0 (constructions._catenation_left)."""
    move, start = _catenation_left(masks, n, 0)
    return _subset_table(_packed(move, width)), start


def _right_table(transitions, width: int) -> list[int]:
    """A right machine's image table for _table_walk, from its complete
    table (transitions[s][q] the target of q on symbol s):
    catenation_masks' right part, state q as bit q."""
    return _subset_table(_packed([[1 << t for t in row] for row in transitions], width))


def _orbit_pairs(left, right, floor=(-1,)):
    """One class pair (x, y) per orbit of class pairs whose catenation
    bound beats floor[0], enough to find the maximal oracle size over
    all pairs and the first pair reaching it, each with its bound; left
    is _left_classes' classes and right _classes'.

    The oracle's size depends only on the left machine's language and b's,
    and renaming letters on both operands together keeps it.  So the
    class pairs are walked in lexicographic order, and a pair not yet
    seen is the least of its orbit under the letter permutations: its
    orbit is marked seen and the pair is yielded.  The first strict
    maximum over these is at the least maximizing (first index of x,
    first index of y), which is the first maximizing pair in enumeration
    order.

    The bound is Yu, Zhuang & Salomaa's (1994) for catenation,
    r * 2^s - k * 2^(s - 1): r and k the state and final counts of the
    left language's minimal DFA, s the right class's minimal size.  It
    is tested before the seen mark, and floor[0] is read again at each
    pair, so a caller may raise it as the walk runs.  Renaming letters
    keeps r, k and s, so every pair of an orbit has the same bound: an
    orbit whose least pair is passed by, left unmarked, has each later
    pair passed by too as long as floor[0] never falls.  The default
    floor is beaten by every bound, so then every orbit is yielded.
    """
    _, img_a, counts_a, _ = left
    _, img_b, minimal_b = right
    gen_pairs = list(zip(img_a, img_b))
    ny = len(minimal_b)
    seen = bytearray(len(counts_a) * ny)
    # the bound is (2r - k) * 2^(s - 1)
    halves = [2 ** (b.state_count - 1) for b in minimal_b]
    for x, (r, k) in enumerate(counts_a):
        twice = 2 * r - k
        for y, half in enumerate(halves):
            if seen[x * ny + y]:
                continue
            bound = twice * half
            if bound <= floor[0]:
                continue
            seen[x * ny + y] = 1
            stack = [(x, y)]
            while stack:
                u, v = stack.pop()
                for ga, gb in gen_pairs:
                    j = ga[u] * ny + gb[v]
                    if not seen[j]:
                        seen[j] = 1
                        stack.append((ga[u], gb[v]))
            yield x, y, bound


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
