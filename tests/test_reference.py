"""The one reference, perfbench/reference.py: it stands apart from the
library, and the library's oracle agrees with it on random small pairs,
as each direct route does with the oracle.  The subset construction
agrees with helpers' frozenset one on random small NFAs."""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statecomp import (
    Dfa,
    Nfa,
    decode_dfa,
    dfa_count,
    exhaustive_search,
    oracle_sc,
    starcat_general_direct,
    verify_construction,
)
from statecomp.automata import _grouped_walk, nfa_masks, subset_construction
from statecomp.constructions import _starcat_masks
from statecomp.harness import OPS, _oracle_masks
from statecomp.witnesses import revcat_witness_M, revcat_witness_N

from helpers import imported_modules, machine, ref_determinize, reference


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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pair=operands())
def test_starcats_count_is_its_direct_machines(pair):
    # verify counts starcat's direct machine off the oracle's subsets;
    # starcat_general_direct builds it, and test_constructions checks
    # that machine against helpers' ref_starcat_general and
    # ref_starcat_special
    a, b = pair
    assume(a.finals and b.state_count >= 2)
    report = verify_construction("starcat", a, b)
    assert report.constructed == starcat_general_direct(a, b).state_count


def assert_grouped_walk_is_the_subset_construction(move, start, final_mask, n):
    """_grouped_walk's groups, read as whole subsets, are
    subset_construction's, with their count and its re-entry flag."""
    rows, _, subsets = subset_construction(move, start, final_mask)
    groups, count, reenters = _grouped_walk(move, start, n)
    keys = {p << n | t for p, ts in groups.items() for t in ts}
    assert keys == set(subsets) and count == len(subsets)
    assert reenters == any(0 in row for row in rows)


def starts(a, b, start):
    """The oracle's start and starcat's route's, {a's initial, b's
    initial}, in a catenation with b."""
    route = 1 << b.state_count + a.initial | 1 << b.initial
    if a.finals and b.state_count >= 2:
        assert _starcat_masks(a, b)[1] == route
    return start, route


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(op=st.sampled_from(["revcat", "starcat"]), pair=operands())
def test_grouped_walk_is_the_subset_construction(op, pair):
    a, b = pair
    move, start, final_mask = _oracle_masks(OPS[op].left, a, b)
    for s in starts(a, b, start):
        assert_grouped_walk_is_the_subset_construction(move, s, final_mask, b.state_count)


def cycle_reset(n, alphabet):
    """The first letter cycles n states, every other one resets to 0:
    few subsets, whose bits run through every chunk."""
    cycle = tuple((q + 1) % n for q in range(n))
    resets = ((0,) * n,) * (len(alphabet) - 1)
    return Dfa(n, alphabet, (cycle, *resets), 0, frozenset({n - 1}))


@pytest.mark.parametrize("op", ["revcat", "starcat"])
@pytest.mark.parametrize("n", [12, 35])
def test_grouped_walk_with_chunked_right_tables(op, n):
    # past 11 right states the right tables are cut into three chunks,
    # and past 33 the third is filled in as subsets reach it
    a = revcat_witness_M(3)
    b = revcat_witness_N(n) if n == 12 else cycle_reset(n, a.alphabet)
    move, start, final_mask = _oracle_masks(OPS[op].left, a, b)
    for s in starts(a, b, start):
        assert_grouped_walk_is_the_subset_construction(move, s, final_mask, n)


@st.composite
def nfas(draw):
    """An Nfa of 1-5 states over one to three letters, with any target,
    initial and final sets and any epsilon edges."""
    n = draw(st.integers(1, 5))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    state = st.integers(0, n - 1)
    states = st.frozensets(state)
    rows = tuple(tuple(draw(states) for _ in range(n)) for _ in alphabet)
    edges = draw(st.frozensets(st.tuples(state, state)))
    return Nfa(n, alphabet, rows, draw(states), edges, draw(states))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(nfa=nfas())
def test_subset_construction_is_the_reference_determinize(nfa):
    # the same rows and finals, and the same subsets in the same order
    dfa, order = ref_determinize(nfa)
    assert subset_construction(*nfa_masks(nfa)) == (dfa.transitions, dfa.finals, order)


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
