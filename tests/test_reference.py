"""The one reference, perfbench/reference.py: it stands apart from the
library, and the library's oracle agrees with it on random small pairs,
as each direct route does with the oracle."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecomp import (
    Dfa,
    decode_dfa,
    dfa_count,
    exhaustive_search,
    oracle_sc,
    verify_construction,
)

from helpers import imported_modules, machine, reference


def test_reference_imports_nothing_from_the_library():
    # Tier-1, CI and the benchmark all trust it as a route of its own
    imported = imported_modules(Path(reference.__file__))
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "statecomp"]


@st.composite
def operands(draw):
    """Two complete DFAs of 1-4 states over the same one or two letters."""
    alphabet = ("a", "b")[: draw(st.integers(1, 2))]

    def dfa():
        n = draw(st.integers(1, 4))
        state = st.integers(0, n - 1)
        row = st.lists(state, min_size=n, max_size=n).map(tuple)
        rows = tuple(draw(row) for _ in alphabet)
        finals = frozenset(draw(st.sets(state)))
        return Dfa(n, alphabet, rows, draw(state), finals)

    return dfa(), dfa()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(op=st.sampled_from(["revcat", "starcat"]), pair=operands())
def test_oracle_size_is_the_reference_size(op, pair):
    # the reference's star is Thompson's, so only the languages agree
    a, b = pair
    assert oracle_sc(op, a, b) == reference.minimal_size(op, machine(a), machine(b))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(op=st.sampled_from(["revcat", "starcat"]), pair=operands())
def test_every_route_agrees_with_the_oracle_and_fits_its_bound(op, pair):
    report = verify_construction(op, *pair)
    assert report.word is None
    assert report.passed


@pytest.mark.parametrize("op", ["revcat", "starcat"])
@pytest.mark.parametrize("m,n,sigma", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)])
def test_full_search_is_the_reference_max_over_every_pair(op, m, n, sigma):
    # oracle_sc shares the search's masks, subset walk and count, so the
    # reference sizes every pair here, and the first to reach the max,
    # in decode order, is the argmax
    alphabet = ("a", "b")[:sigma]
    rights = [decode_dfa(ib, n, alphabet) for ib in range(dfa_count(n, sigma))]
    best, best_pair = -1, None
    for ia in range(dfa_count(m, sigma)):
        a = decode_dfa(ia, m, alphabet)
        for b in rights:
            size = reference.minimal_size(op, machine(a), machine(b))
            if size > best:
                best, best_pair = size, (a, b)
    r = exhaustive_search(op, m, n, sigma, "full")
    assert (r.max_minimal, r.argmax) == (best, best_pair)
