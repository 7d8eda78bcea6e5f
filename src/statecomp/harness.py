"""Verification oracles, searches, and the op table.

The oracle never touches the direct product constructions: it builds the
operation from reverse/star and catenation NFAs, determinizes, and
minimizes.  Agreement between the two routes, plus the closed-form
bounds, is what the verify and search entry points check.  Everything
that differs from one operation to the next is a row of OPS.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace
from typing import Callable, Container

from .automata import Dfa, Nfa, determinize, equivalent, minimize_hopcroft
from .bounds import (
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from .constructions import (
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


@dataclass(frozen=True)
class SearchResult:
    op: str
    m: int
    n: int
    alphabet_size: int
    max_minimal: int
    argmax: tuple[Dfa, Dfa]
    pairs_examined: int


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


def oracle_pipeline(op: str, a: Dfa, b: Dfa) -> Dfa:
    """Determinized (not yet minimized) DFA for the operation, built only
    from the generic NFA constructions."""
    dfa, _ = determinize(catenation_nfa(operation(op).left(a), b))
    return dfa


def oracle_sc(op: str, a: Dfa, b: Dfa) -> int:
    """Minimal DFA size of the operation result, via the generic pipeline."""
    return minimize_hopcroft(oracle_pipeline(op, a, b)).state_count


def _report(
    op: str, base: str, a: Dfa, b: Dfa, k1: int | None, formula: int, exact: bool
) -> BoundReport:
    """Run the direct construction and the oracle on (a, b).  Passed when
    both give the same language and the oracle's minimal size equals
    formula (exact) or the direct construction's size fits under it."""
    direct = combined(base, a, b)
    oracle = oracle_pipeline(base, a, b)
    minimal = minimize_hopcroft(oracle).state_count
    fits = minimal == formula if exact else direct.state_count <= formula
    passed = fits and equivalent(direct, oracle)
    return BoundReport(
        op, a.state_count, b.state_count, k1, formula, direct.state_count, minimal, passed
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


def decode_dfa(index: int, size: int, alphabet: tuple[str, ...]) -> Dfa:
    """The index-th DFA in the enumeration of all complete machines of
    the given size, initial state 0.  The low bits pick the final set,
    the rest spell the transition table in base size."""
    finals_bits = index & ((1 << size) - 1)
    t = index >> size
    rows = []
    for _ in range(len(alphabet)):
        row = []
        for _ in range(size):
            row.append(t % size)
            t //= size
        rows.append(tuple(row))
    finals = frozenset(q for q in range(size) if (finals_bits >> q) & 1)
    return Dfa(
        state_count=size,
        alphabet=alphabet,
        transitions=tuple(rows),
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

    Full mode enumerates every pair (initial states fixed at 0, all
    transition tables, all final sets) and refuses to start past the
    budget.  Sampled mode draws sample_count index pairs from a seeded
    generator.  The reported argmax is the first pair reaching the
    maximum in enumeration order.
    """
    operation(op)
    if m < 1 or n < 1:
        raise ValueError("automaton sizes must be at least 1")
    alphabet = _alphabet(alphabet_size)
    count_a = dfa_count(m, alphabet_size)
    count_b = dfa_count(n, alphabet_size)

    if mode == "full":
        total = count_a * count_b
        if total > budget:
            raise BudgetError(
                f"full search over {total} pairs exceeds the budget of {budget}"
            )
        pair_indices = (
            (ia, ib) for ia in range(count_a) for ib in range(count_b)
        )
        examined = total
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

    # decoding is a visible share of the per-pair cost, so keep the
    # right-hand machines around when the space is small enough
    b_cache: list[Dfa] | None = None
    if count_b <= 65536:
        b_cache = [decode_dfa(ib, n, alphabet) for ib in range(count_b)]

    best = -1
    best_pair: tuple[Dfa, Dfa] | None = None
    last_ia = -1
    a = None
    for ia, ib in pair_indices:
        if ia != last_ia:
            a = decode_dfa(ia, m, alphabet)
            last_ia = ia
        b = b_cache[ib] if b_cache is not None else decode_dfa(ib, n, alphabet)
        size = oracle_sc(op, a, b)
        if size > best:
            best = size
            best_pair = (a, b)
    assert best_pair is not None
    return SearchResult(op, m, n, alphabet_size, best, best_pair, examined)


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
