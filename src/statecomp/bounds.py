"""Closed-form state counts for the two combined operations.

All values are exact integers; powers of two are computed with integer
arithmetic so nothing overflows or rounds.
"""

from __future__ import annotations


def _check_sizes(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("automaton sizes must be at least 1")


def estimate(count, *sizes):
    """count(*sizes) to 20 significant digits, as a Decimal, forming no
    power of two in full, so a count of any size is sized at once;
    Infinity when its exponent is past decimal's largest.  Within 20
    digits, and so within any budget below 10^20, it is exact."""
    # imported here: it costs every command that sizes nothing about
    # 2.5 ms and 0.5 MiB
    import decimal

    try:
        with decimal.localcontext(decimal.Context(prec=20, Emax=decimal.MAX_EMAX)):
            return +decimal.Decimal(count(*map(decimal.Decimal, sizes)))
    except decimal.Overflow:
        return decimal.Decimal("Infinity")


def sc_revcat(m: int, n: int) -> int:
    """Worst-case minimal DFA size for L(A)^R L(B), |A| = m, |B| = n."""
    _check_sizes(m, n)
    if m == 1:
        return 2 ** (n - 1)
    if n == 1:
        return 2 ** (m - 1) + 1
    return 3 * 2 ** (m + n - 2)


def ub_revcat(m: int, n: int) -> int:
    """Size bound for the reversal-catenation product construction."""
    _check_sizes(m, n)
    return 3 * 2 ** (m + n - 2)


def sc_starcat_special(m: int, n: int) -> int:
    """Worst-case minimal DFA size for L(A)* L(B) when A's only final
    state is its initial state."""
    _check_sizes(m, n)
    if n == 1:
        return 1
    return m * (2 ** n - 1) - 2 ** (n - 1) + 1


def ub_starcat_general(m: int, n: int, k1: int) -> int:
    """Size bound for the general star-catenation construction, where k1
    counts A's non-initial final states."""
    _check_sizes(m, n)
    if m < 2 or n < 2:
        raise ValueError("the general star-catenation bound needs m, n >= 2")
    if not 1 <= k1 <= m - 1:
        raise ValueError("k1 must lie between 1 and m - 1")
    return (3 * 2 ** (m - 2) - 1) * (2 ** n - 1) - (
        2 ** (m - 1) - 2 ** (m - k1 - 1)
    ) * (2 ** (n - 1) - 1)


def sc_starcat(m: int, n: int) -> int:
    """Worst-case minimal DFA size for L(A)* L(B), |A| = m, |B| = n.

    At n = 1 the result language is empty or everything, one state.  At
    m = 1 the single state of A is final (or A accepts nothing and the
    star contributes only the empty word), so the restricted-form value
    applies.
    """
    _check_sizes(m, n)
    if n == 1:
        return 1
    if m == 1:
        return sc_starcat_special(1, n)
    return 5 * 2 ** (m + n - 3) - 2 ** (m - 1) - 2 ** n + 1
