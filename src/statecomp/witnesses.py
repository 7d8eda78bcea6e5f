"""Parameterized worst-case machine families.

Each generator returns a complete minimal Dfa over a fixed alphabet with
states 0..size-1 in a fixed numbering, so serialized output is stable.
These families realize the exact worst cases of the two combined
operations handled by this package.
"""

from __future__ import annotations

from .automata import Dfa

_FOUR = ("a", "b", "c", "d")


def _family(rows, final: int) -> Dfa:
    return Dfa(len(rows[0]), _FOUR[:len(rows)], rows, 0, frozenset((final,)))


def _identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def _cycle(m: int) -> tuple[int, ...]:
    return tuple((i + 1) % m for i in range(m))


def _fold_top(m: int) -> tuple[int, ...]:
    return _identity(m - 1) + (m - 2,)


def _swap_top(m: int) -> tuple[int, ...]:
    return _identity(m - 2) + (m - 1, m - 2)


def _reset(m: int) -> tuple[int, ...]:
    return (0,) * m


def _cycle_rest(m: int) -> tuple[int, ...]:
    # 0 fixed, 1..m-1 one step along the cycle, so m-1 goes to 0
    return (0,) + _cycle(m)[1:]


def _rotate_rest(m: int) -> tuple[int, ...]:
    # 0 fixed, 1..m-1 rotated by one step, so m-1 goes back to 1
    return (0,) + _identity(m)[2:] + (1,)


def revcat_witness_M(m: int) -> Dfa:
    """First operand of the reversal-catenation worst case, m >= 2.

    Over {a,b,c,d}: a cycles, b folds the top state onto its neighbor,
    c swaps the top two states, d is the identity.  Final state m-1.
    """
    if m < 2:
        raise ValueError("revcat_witness_M needs m >= 2")
    return _family((_cycle(m), _fold_top(m), _swap_top(m), _identity(m)), m - 1)


def revcat_witness_N(n: int) -> Dfa:
    """Second operand of the reversal-catenation worst case, n >= 2.

    Over {a,b,c,d}: a and b are identities, c resets every state to 0,
    d cycles.  Final state n-1.  The moves of state 0 under a, b, c are
    self-loops, the minimal completion consistent with the rest.
    """
    if n < 2:
        raise ValueError("revcat_witness_N needs n >= 2")
    return _family((_identity(n), _identity(n), _reset(n), _cycle(n)), n - 1)


def revcat_n1_witness(m: int) -> Dfa:
    """First operand of the reversal-catenation worst case against a
    one-state accepting second operand, m >= 2.

    The alphabet grows with m: two letters suffice at m=2, three at m=3,
    and four from m=4 on.  Each size takes the first letters of the
    four-letter family: a cycles, b folds the top state onto its
    neighbor, c swaps the top two states, d fixes 0 and rotates the
    rest.  Final state m-1.
    """
    if m < 2:
        raise ValueError("revcat_n1_witness needs m >= 2")
    # At m=3, b must fix state 1: folding 1 onto 0 would keep the
    # reversal subset walk from ever reaching {1,2} and lose a state.
    rows = (_cycle(m), _fold_top(m), _swap_top(m), _rotate_rest(m))
    return _family(rows[:min(m, 4)], m - 1)


def starcat_special_witness_A(m: int) -> Dfa:
    """First operand of the star-catenation worst case in the restricted
    form where the only final state is the initial one, m >= 2.

    Over {a,b,c}: a cycles, b and c are identities.  Final state 0.
    """
    if m < 2:
        raise ValueError("starcat_special_witness_A needs m >= 2")
    return _family((_cycle(m), _identity(m), _identity(m)), 0)


def starcat_special_witness_B(n: int) -> Dfa:
    """Second operand paired with starcat_special_witness_A, n >= 2.

    Over {a,b,c}: a is the identity, b cycles, c fixes 0 and rotates the
    rest along the cycle.  Final state n-1.
    """
    if n < 2:
        raise ValueError("starcat_special_witness_B needs n >= 2")
    return _family((_identity(n), _cycle(n), _cycle_rest(n)), n - 1)


def starcat_witness_A(m: int) -> Dfa:
    """First operand of the general star-catenation worst case, m >= 2.

    Over {a,b,c,d}: a cycles, b fixes 0 and rotates 1..m-1 along the
    cycle, c and d are identities.  Final state m-1, which differs from
    the initial state, the shape the general construction requires.
    """
    if m < 2:
        raise ValueError("starcat_witness_A needs m >= 2")
    return _family((_cycle(m), _cycle_rest(m), _identity(m), _identity(m)), m - 1)


def starcat_witness_B(n: int) -> Dfa:
    """Second operand of the general star-catenation worst case, n >= 2.

    Over {a,b,c,d}: a and b are identities, c cycles, d resets every
    state to 0.  Final state n-1.
    """
    if n < 2:
        raise ValueError("starcat_witness_B needs n >= 2")
    return _family((_identity(n), _identity(n), _cycle(n), _reset(n)), n - 1)


def _one_state(alphabet, finals: frozenset[int]) -> Dfa:
    alphabet = tuple(alphabet)
    return Dfa(1, alphabet, ((0,),) * len(alphabet), 0, finals)


def sigma_star_dfa(alphabet) -> Dfa:
    """One-state DFA accepting every word over the alphabet."""
    return _one_state(alphabet, frozenset((0,)))


def empty_dfa(alphabet) -> Dfa:
    """One-state DFA accepting nothing."""
    return _one_state(alphabet, frozenset())


# family tag -> (size parameter kind, generator); the cli exposes these.
FAMILIES = {
    "revcat-M": ("m", revcat_witness_M),
    "revcat-N": ("n", revcat_witness_N),
    "revcat-n1": ("m", revcat_n1_witness),
    "starcat-special-A": ("m", starcat_special_witness_A),
    "starcat-special-B": ("n", starcat_special_witness_B),
    "starcat-A": ("m", starcat_witness_A),
    "starcat-B": ("n", starcat_witness_B),
    "sigma-star": ("alphabet", sigma_star_dfa),
    "empty": ("alphabet", empty_dfa),
}
