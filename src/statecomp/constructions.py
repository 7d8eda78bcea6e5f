"""Operation constructions: reversal, star, the bitmask masks of a
catenation, and the three direct DFAs for the two combined operations.

The catenation with the right operand is catenation_masks, on the
bitmask move tables of automata.nfa_masks; it is the oracle's too.  Each
catenation-based direct construction hands its masks to
automata.subset_dfa, so every route shares one subset construction,
numbered breadth-first in alphabet order, and no count exceeds the
closed-form size bounds.  starcat's two direct constructions differ
from the oracle only in the left table and the start set.
revcat_n1_direct is the one quotient: it merges every subset holding
the left operand's initial state into one absorbing state.  Which
construction fits which operand shape is decided in harness's op table.
"""

from __future__ import annotations

from .automata import (
    AlphabetMismatch,
    Dfa,
    Masks,
    Nfa,
    explore,
    mask_image,
    nfa_masks,
    reverse_nfa,
    state_mask,
    subset_dfa,
)
from .witnesses import empty_dfa

__all__ = [
    "ShapeError",
    "reverse_nfa",
    "dfa_masks",
    "catenation_masks",
    "star_nfa",
    "revcat_n1_direct",
    "starcat_special_direct",
    "starcat_general_direct",
]


class ShapeError(ValueError):
    """Raised when an operand does not fit the construction's required shape."""


def _require_same_alphabet(a, b) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"operands use different alphabets {a.alphabet!r} and {b.alphabet!r}"
        )


def star_nfa(a: Dfa) -> Nfa:
    """Nfa for L(a)*.

    A fresh state (index a.state_count) is both initial and final and
    copies the initial state's outgoing moves; nothing enters it.  Every
    move into a final state of a also targets a.initial, which re-enters
    the loop without free moves.
    """
    n = a.state_count
    init = a.initial
    fins = a.finals
    rows = []
    for s in range(len(a.alphabet)):
        row = a.transitions[s]
        new_row = [
            frozenset((row[q], init)) if row[q] in fins else frozenset((row[q],))
            for q in range(n)
        ]
        new_row.append(new_row[init])
        rows.append(tuple(new_row))
    return Nfa(
        state_count=n + 1,
        alphabet=a.alphabet,
        transitions=tuple(rows),
        initials=frozenset((n,)),
        epsilon_edges=frozenset(),
        finals=frozenset(fins) | frozenset((n,)),
    )


def dfa_masks(d: Dfa, off: int = 0) -> Masks:
    """d's masks with d's state q renumbered off + q, as the right
    operand of a catenation whose left machine has off states."""
    move = [[1 << (off + t) for t in row] for row in d.transitions]
    return move, 1 << (off + d.initial), state_mask(d.finals) << off


def catenation_masks(left: Masks, right: Masks) -> Masks:
    """The masks of a left machine catenated with b, given the left
    machine's masks and b's from dfa_masks, without building either.

    The catenation's free moves, from the left finals to b's initial
    state, are folded in as nfa_masks folds epsilon closure: a left entry
    (or start set) that meets the left finals also gets b's initial bit.
    """
    lmove, lstart, lfinal = left
    rmove, rinit, rfinal = right
    move = [
        [t | rinit if t & lfinal else t for t in lrow] + rrow
        for lrow, rrow in zip(lmove, rmove)
    ]
    return move, (lstart | rinit if lstart & lfinal else lstart), rfinal


def revcat_n1_direct(m: Dfa, n_accepting: bool) -> Dfa:
    """Direct DFA for L(m)^R L(n) when n is a one-state DFA.

    A rejecting n gives the empty language.  An accepting n gives
    L(m)^R followed by anything: the subset walk of reverse_nfa(m), in
    which every subset containing m's initial state collapses into one
    absorbing final state.  At most 2^(m-1) + 1 states are reachable.
    """
    if not n_accepting:
        return empty_dfa(m.alphabet)
    # the reversal's moves are m's preimages; its initial set is m's finals
    pre, i0, _ = nfa_masks(reverse_nfa(m))
    init_bit = 1 << m.initial
    SINK = -1  # the merged absorbing final state

    def step(cur):
        if cur == SINK:
            return [SINK] * len(pre)
        out = []
        for ps in pre:
            i2 = mask_image(cur, ps)
            out.append(SINK if i2 & init_bit else i2)
        return out

    start = SINK if i0 & init_bit else i0
    rows, finals, order = explore(len(m.alphabet), start, step, lambda key: key == SINK)
    return Dfa(len(order), m.alphabet, rows, 0, finals)


def starcat_special_direct(a: Dfa, b: Dfa) -> Dfa:
    """Direct DFA for L(a) L(b) (= L(a)* L(b)) when a's only final state
    is its initial state: the subset construction of a's own masks
    catenated with b's.

    A subset holds one state q of a and a nonempty subset T of b's
    states; b's initial state joins T exactly when q lands on a's
    initial (and only final) state.  At most m(2^n - 1) - 2^(n-1) + 1
    states are reachable.
    """
    _require_same_alphabet(a, b)
    if a.finals != frozenset((a.initial,)):
        raise ShapeError(
            "starcat_special_direct needs the first operand's single final "
            "state to be its initial state"
        )
    if b.state_count < 2:
        raise ShapeError("starcat_special_direct needs a second operand with >= 2 states")
    masks = catenation_masks(dfa_masks(a), dfa_masks(b, a.state_count))
    return subset_dfa(a.alphabet, *masks)


def starcat_general_direct(a: Dfa, b: Dfa) -> Dfa:
    """Direct DFA for L(a)* L(b) when a has a final state other than its
    initial state.

    The subset construction of star_nfa(a)'s masks without the fresh
    state's column (start a.initial, finals a's), catenated with b's
    and started in {a.initial, b.initial}, since the empty word is in
    L(a)*.  A subset splits into p, a's states, and t, b's states:
    whenever p meets a's finals, a's initial state joins p (star
    re-entry) and b's initial state joins t.  Final when t meets b's
    finals.  The reachable count never exceeds
    (3/4 * 2^m - 1)(2^n - 1) - (2^(m-1) - 2^(m-k1-1))(2^(n-1) - 1)
    with k1 the number of non-initial final states of a.
    """
    _require_same_alphabet(a, b)
    if not a.finals:
        raise ShapeError("starcat_general_direct needs at least one final state")
    if a.finals == frozenset((a.initial,)):
        raise ShapeError(
            "first operand's only final state is its initial state; "
            "use starcat_special_direct"
        )
    if b.state_count < 2:
        raise ShapeError("starcat_general_direct needs a second operand with >= 2 states")
    m = a.state_count
    move = nfa_masks(star_nfa(a))[0]
    loop = [row[:m] for row in move], 1 << a.initial, state_mask(a.finals)
    move, start, final_mask = catenation_masks(loop, dfa_masks(b, m))
    return subset_dfa(a.alphabet, move, start | 1 << (m + b.initial), final_mask)
