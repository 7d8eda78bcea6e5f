"""Operation constructions: reversal, star, catenation, and the direct
product-style DFAs for the two combined operations.

The direct constructions materialize only reachable states, found by
automata.explore, so state numbering is deterministic and counts never
exceed the closed-form size bounds.  State subsets are integer bitmasks.
"""

from __future__ import annotations

from .automata import (
    AlphabetMismatch,
    Dfa,
    Nfa,
    explore_dfa,
    mask_image,
    minimize_hopcroft,
    preimage_masks,
    reverse_nfa,
    state_mask,
)
from .witnesses import empty_dfa, sigma_star_dfa

__all__ = [
    "ShapeError",
    "reverse_nfa",
    "catenation_nfa",
    "star_nfa",
    "revcat_direct",
    "revcat_n1_direct",
    "starcat_special_direct",
    "starcat_general_direct",
    "revcat_route",
    "starcat_route",
    "combined",
]


class ShapeError(ValueError):
    """Raised when an operand does not fit the construction's required shape."""


def _require_same_alphabet(a, b) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"operands use different alphabets {a.alphabet!r} and {b.alphabet!r}"
        )


def _image_masks(d: Dfa) -> list[list[int]]:
    """img[s][q] is the one-bit mask of the state q moves to on symbol s."""
    return [[1 << t for t in row] for row in d.transitions]


def catenation_nfa(a: Nfa, b: Dfa) -> Nfa:
    """Catenation of an Nfa with a Dfa: disjoint union with free moves
    from every final state of a to b's initial state; finals are b's."""
    _require_same_alphabet(a, b)
    off = a.state_count
    rows = []
    for s in range(len(a.alphabet)):
        brow = b.transitions[s]
        rows.append(
            a.transitions[s]
            + tuple(frozenset((brow[q] + off,)) for q in range(b.state_count))
        )
    eps = set(a.epsilon_edges)
    for f in a.finals:
        eps.add((f, off + b.initial))
    return Nfa(
        state_count=off + b.state_count,
        alphabet=a.alphabet,
        transitions=tuple(rows),
        initials=a.initials,
        epsilon_edges=frozenset(eps),
        finals=frozenset(off + q for q in b.finals),
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


def revcat_direct(m: Dfa, n: Dfa) -> Dfa:
    """Direct DFA for L(m)^R L(n).

    States are reachable pairs (i, j): i a subset of m's states walked
    under preimages (the reversal part), j a subset of n's states.  n's
    initial state joins j exactly when i contains m's initial state,
    which is when the prefix read so far lies in L(m)^R.  Final when j
    meets n's finals.  At most 3/4 * 2^(m+n) states are reachable.

    The pair (i, j) is the subset i | j << m of the oracle's NFA, and
    both walks number states the same way, so the result is
    byte-identical to determinize(catenation_nfa(reverse_nfa(m), n)).
    This construction is therefore no independent check of the oracle.
    """
    _require_same_alphabet(m, n)
    pre = preimage_masks(m.transitions, m.state_count)
    img = _image_masks(n)
    init_bit = 1 << m.initial
    sn_bit = 1 << n.initial
    fn_mask = state_mask(n.finals)

    def step(key):
        i, j = key
        out = []
        for ps, ns in zip(pre, img):
            i2 = mask_image(i, ps)
            j2 = mask_image(j, ns)
            out.append((i2, j2 | sn_bit) if i2 & init_bit else (i2, j2))
        return out

    i0 = state_mask(m.finals)
    start = (i0, sn_bit if i0 & init_bit else 0)
    return explore_dfa(m.alphabet, start, step, lambda key: key[1] & fn_mask)


def revcat_n1_direct(m: Dfa, n_accepting: bool) -> Dfa:
    """Direct DFA for L(m)^R L(n) when n is a one-state DFA.

    A rejecting n gives the empty language.  An accepting n gives
    L(m)^R followed by anything, so every subset containing m's initial
    state collapses into one absorbing final state.  At most
    2^(m-1) + 1 states are reachable.
    """
    if not n_accepting:
        return empty_dfa(m.alphabet)
    pre = preimage_masks(m.transitions, m.state_count)
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

    i0 = state_mask(m.finals)
    start = SINK if i0 & init_bit else i0
    return explore_dfa(m.alphabet, start, step, lambda key: key == SINK)


def starcat_special_direct(a: Dfa, b: Dfa) -> Dfa:
    """Direct DFA for L(a) L(b) (= L(a)* L(b)) when a's only final state
    is its initial state.

    States are reachable pairs (q, T): q a state of a, T a nonempty
    subset of b's states; b's initial state joins T exactly when q lands
    on a's initial (and only final) state.  At most
    m(2^n - 1) - 2^(n-1) + 1 states are reachable.
    """
    _require_same_alphabet(a, b)
    if a.finals != frozenset((a.initial,)):
        raise ShapeError(
            "starcat_special_direct needs the first operand's single final "
            "state to be its initial state"
        )
    if b.state_count < 2:
        raise ShapeError("starcat_special_direct needs a second operand with >= 2 states")
    s1 = a.initial
    s2_bit = 1 << b.initial
    f2_mask = state_mask(b.finals)
    img = _image_masks(b)

    def step(key):
        q, tmask = key
        out = []
        for arow, bs in zip(a.transitions, img):
            q2 = arow[q]
            t2 = mask_image(tmask, bs)
            out.append((q2, t2 | s2_bit) if q2 == s1 else (q2, t2))
        return out

    return explore_dfa(a.alphabet, (s1, s2_bit), step, lambda key: key[1] & f2_mask)


def starcat_general_direct(a: Dfa, b: Dfa) -> Dfa:
    """Direct DFA for L(a)* L(b) when a has a final state other than its
    initial state.

    States are reachable pairs (p, t) of subsets.  After each step, when
    the image p meets a's finals, a's initial state joins p (star
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
    f1_mask = state_mask(a.finals)
    s1_bit = 1 << a.initial
    s2_bit = 1 << b.initial
    f2_mask = state_mask(b.finals)
    aimg = _image_masks(a)
    bimg = _image_masks(b)

    def step(key):
        p, t = key
        out = []
        for as_, bs in zip(aimg, bimg):
            p2 = mask_image(p, as_)
            t2 = mask_image(t, bs)
            out.append((p2 | s1_bit, t2 | s2_bit) if p2 & f1_mask else (p2, t2))
        return out

    return explore_dfa(a.alphabet, (s1_bit, s2_bit), step, lambda key: key[1] & f2_mask)


def revcat_route(a: Dfa, b: Dfa) -> Dfa:
    """The direct construction for L(a)^R L(b) that fits the operands' shape."""
    if b.state_count == 1 and a.state_count >= 2:
        return revcat_n1_direct(a, bool(b.finals))
    return revcat_direct(a, b)


def starcat_route(a: Dfa, b: Dfa) -> Dfa:
    """The direct construction for L(a)* L(b) that fits the operands' shape."""
    if b.state_count == 1:
        # L(b) is all words or none, and the star factor always
        # contributes the empty word
        return sigma_star_dfa(a.alphabet) if b.finals else empty_dfa(a.alphabet)
    if not a.finals:
        # L(a)* is just the empty word, so the product is L(b)
        return b
    if a.finals == frozenset((a.initial,)):
        return starcat_special_direct(a, b)
    return starcat_general_direct(a, b)


def combined(op: str, a: Dfa, b: Dfa, minimized: bool = False) -> Dfa:
    """Run the operation's direct construction, as routed in the op table.

    op is "revcat" for L(a)^R L(b) or "starcat" for L(a)* L(b).  With
    minimized=True the result is minimized before returning.
    """
    # the op table lives in harness, which imports this module, so it is
    # imported here rather than at the top
    from .harness import operation

    _require_same_alphabet(a, b)
    out = operation(op).direct(a, b)
    return minimize_hopcroft(out) if minimized else out
