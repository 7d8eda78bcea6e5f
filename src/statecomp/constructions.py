"""Operation constructions: star, the bitmask masks of a catenation,
and the two direct DFAs for the two combined operations.

The left operand's machine is its masks (automata.reverse_masks or
star_masks), and catenation_masks catenates them with the right
operand's Dfa; it is the oracle's catenation too.  A catenation keeps
the right operand's states in the low bits and the left machine's above
them, and _catenation_left, which shifts the left machine there and
folds in the free move, also builds the full search's left class tables
in harness.  Each catenation-based direct construction hands its masks
to automata.subset_dfa, so every route shares one subset construction,
numbered breadth-first in alphabet order, and no count exceeds the
closed-form size bounds.  starcat's direct construction walks the
oracle's own masks and differs from it only in the start set.
revcat_n1_direct widens each set holding the left operand's initial
state to the full set, one absorbing state.  harness's op table decides
which construction fits which shape.
"""

from __future__ import annotations

from .automata import (
    AlphabetMismatch,
    Dfa,
    Masks,
    Nfa,
    _masks_nfa,
    reverse_masks,
    state_mask,
    subset_dfa,
)
from .witnesses import empty_dfa

__all__ = [
    "ShapeError",
    "catenation_masks",
    "star_masks",
    "star_nfa",
    "revcat_n1_direct",
    "starcat_general_direct",
]


class ShapeError(ValueError):
    """Raised when an operand does not fit the construction's required shape."""


def _require_same_alphabet(a, b) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"operands use different alphabets {a.alphabet!r} and {b.alphabet!r}"
        )


def star_masks(a: Dfa) -> Masks:
    """The masks of L(a)*: a's masks, with every move into a final state
    of a also entering a.initial (the loop, which re-enters a without
    free moves), plus a fresh state (index a.state_count) that is
    initial and final and copies a.initial's moves; nothing enters it."""
    init = 1 << a.initial
    fins = a.finals
    move = [
        [1 << t | init if t in fins else 1 << t for t in row] for row in a.transitions
    ]
    for row in move:
        row.append(row[a.initial])
    fresh = 1 << a.state_count
    return move, fresh, state_mask(fins) | fresh


def star_nfa(a: Dfa) -> Nfa:
    """Nfa for L(a)*: the Nfa of star_masks(a)."""
    return _masks_nfa(a.alphabet, star_masks(a))


def _catenation_left(left: Masks, n: int, initial: int) -> tuple[list[list[int]], int]:
    """The left machine's move table and start set in a catenation with
    a right machine of n states whose initial state is bit initial: left
    state q is bit n + q.

    The catenation's free moves, from the left finals to the right
    initial state, are folded in as nfa_masks folds epsilon closure: a
    left entry (or start set) that meets the left finals also gets bit
    initial.
    """
    lmove, lstart, lfinal = left
    rinit = 1 << initial
    move = [[t << n | rinit if t & lfinal else t << n for t in row] for row in lmove]
    start = lstart << n | rinit if lstart & lfinal else lstart << n
    return move, start


def catenation_masks(left: Masks, b: Dfa) -> Masks:
    """The masks of a left machine catenated with b, given the left
    machine's masks: b's state q is bit q, and the left machine's states
    follow b's (_catenation_left)."""
    lmove, start = _catenation_left(left, b.state_count, b.initial)
    move = [[1 << t for t in brow] + lrow for lrow, brow in zip(lmove, b.transitions)]
    return move, start, state_mask(b.finals)


def revcat_n1_direct(m: Dfa, n_accepting: bool) -> Dfa:
    """Direct DFA for L(m)^R L(n) when n is a one-state DFA.

    A rejecting n gives the empty language.  An accepting n gives
    L(m)^R followed by anything: the subset construction of
    reverse_masks(m) with every set holding m's initial state widened
    to the full set, the one final state.  It is absorbing, since the
    initial state's target on any symbol has the initial state as a
    preimage.  At most 2^(m-1) + 1 states are reachable.
    """
    if not n_accepting:
        return empty_dfa(m.alphabet)
    # m's preimages, started in m's finals, final at m's initial state
    pre, start, init_bit = reverse_masks(m)
    full = (1 << m.state_count) - 1
    move = [[full if t & init_bit else t for t in row] for row in pre]
    start = full if start & init_bit else start
    return subset_dfa(m.alphabet, move, start, init_bit)


def starcat_general_direct(a: Dfa, b: Dfa) -> Dfa:
    """Direct DFA for L(a)* L(b) when a has a final state.

    The subset construction of the oracle's masks, star_masks(a)
    catenated with b, started in {a.initial, b.initial} instead of
    {fresh, b.initial}, since the empty word is in L(a)*.  Nothing
    enters the fresh state, so no subset reached holds it.  A subset
    splits into p, a's states, and t, b's states: whenever p meets a's
    finals, a's initial state joins p (star re-entry) and b's initial
    state joins t.  Final when t meets b's finals.  The reachable count
    never exceeds
    (3/4 * 2^m - 1)(2^n - 1) - (2^(m-1) - 2^(m-k1-1))(2^(n-1) - 1)
    with k1 the number of non-initial final states of a.  When a's only
    final state is its initial state, L(a)* = L(a) and p is always a
    single state, so at most m(2^n - 1) - 2^(n-1) + 1 are reachable.
    """
    _require_same_alphabet(a, b)
    if not a.finals:
        raise ShapeError("starcat_general_direct needs at least one final state")
    if b.state_count < 2:
        raise ShapeError("starcat_general_direct needs a second operand with >= 2 states")
    move, _, final_mask = catenation_masks(star_masks(a), b)
    start = 1 << b.state_count + a.initial | 1 << b.initial
    return subset_dfa(a.alphabet, move, start, final_mask)
