"""Verification harness: oracle pipeline values, witness and
construction reports, the enumeration-based search, and the seeded
random checker."""

import collections
import dataclasses
import functools
import random
import string

import pytest

from helpers import (
    REF_LEFT,
    all_words,
    catenation_nfa,
    machine,
    moore_minimal_size,
    random_complete_dfa,
    ref_determinize,
    reference,
    run_word,
)
from statecomp import automata, harness
from statecomp.automata import (
    Dfa,
    _numbered,
    _table_walk,
    determinize,
    equivalent,
    minimal_rows,
    minimize_hopcroft,
    nfa_from_dfa,
    nfa_masks,
    state_mask,
    subset_dfa,
)
from statecomp.bounds import sc_revcat, sc_starcat, sc_starcat_special
from statecomp.constructions import catenation_masks, starcat_general_direct
from statecomp.harness import (
    DEFAULT_BUDGET,
    OPS,
    BoundReport,
    BudgetError,
    SearchResult,
    _classes,
    _left_classes,
    _left_table,
    _letter_generators,
    _oracle_masks,
    _orbit_pairs,
    _right_table,
    combined,
    decode_dfa,
    dfa_count,
    exhaustive_search,
    oracle_pipeline,
    oracle_sc,
    random_check,
    random_dfa,
    verify_construction,
    verify_witness,
)
from statecomp.witnesses import (
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_special_witness_A,
    starcat_special_witness_B,
    starcat_witness_A,
    starcat_witness_B,
)


def _raw_sizes(op, m, n, alphabet):
    """(ia, ib, a, b, oracle_sc(op, a, b)) for every index pair in
    enumeration order, a and b the decoded machines: the search's
    reference, one oracle run a pair."""
    sigma = len(alphabet)
    rights = [decode_dfa(ib, n, alphabet) for ib in range(dfa_count(n, sigma))]
    for ia in range(dfa_count(m, sigma)):
        a = decode_dfa(ia, m, alphabet)
        for ib, b in enumerate(rights):
            yield ia, ib, a, b, oracle_sc(op, a, b)


def _class_walk(masks, b, n, sigma, width):
    """The full search's walk of a left machine (its masks) catenated
    with b, over the two class tables, called as the search calls it,
    and its flat output numbered by _numbered with b's finals: rows and
    finals, and whether its keys are catenation_masks' own.

    Asserts that the walk is catenation_masks' subset construction: the
    same rows and finals, and the same keys, exactly so when b has n
    states, and otherwise once the walk's left block, at bit n, is moved
    down to bit b.state_count, where catenation_masks puts it."""
    left_table, start = _left_table(masks, n, width)
    flat, keys = _table_walk(
        (_right_table(b.transitions, width), left_table, [0]), (n, width), width, sigma,
        start,
    )
    rows, finals, keys = _numbered(flat, sigma, keys, state_mask(b.finals).__and__)
    ref = automata.subset_construction(*catenation_masks(masks, b))
    s = b.state_count
    if s == n:
        assert (rows, finals, keys) == ref
    else:
        low = (1 << n) - 1
        assert (rows, finals, [key >> n << s | key & low for key in keys]) == ref
    return rows, finals, s == n


def _keyed_left_classes(op, classes):
    """_left_classes by keys alone: each class's left language keyed by
    minimal_rows of its left masks' subset construction, classes with
    equal keys merged into the first."""
    firsts, images, minimal = classes
    index, merged_of, first_of, counts = {}, [], [], []
    for c, d in enumerate(minimal):
        rows, finals, _ = automata.subset_construction(*OPS[op].left(d))
        key = minimal_rows(rows, 0, finals)
        if key not in index:
            index[key] = len(first_of)
            first_of.append(c)
            counts.append((len(key[0][0]), len(key[1])))
        merged_of.append(index[key])
    return (
        [firsts[c] for c in first_of],
        [[merged_of[image[c]] for c in first_of] for image in images],
        counts,
        [minimal[c] for c in first_of],
    )


def _cycle(rng, size):
    """A one-letter machine that is one cycle through its states in a
    random order, its initial state random and each state final with
    probability 1/4."""
    cycle = rng.sample(range(size), size)
    delta = [0] * size
    for q, t in zip(cycle, cycle[1:] + cycle[:1]):
        delta[q] = t
    finals = frozenset(q for q in range(size) if rng.random() < 0.25)
    return Dfa(size, ("a",), (tuple(delta),), rng.randrange(size), finals)


def _first_disagreement(a, b):
    """The shortest word a and b disagree on, the first in alphabet order
    among those, by breadth-first search over (u, v) tuples, each stored
    with the word that reached it; None if they agree on every word."""
    start = (a.initial, b.initial)
    words = {start: ""}
    queue = collections.deque([start])
    while queue:
        pair = u, v = queue.popleft()
        if (u in a.finals) != (v in b.finals):
            return words[pair]
        for sym, arow, brow in zip(a.alphabet, a.transitions, b.transitions):
            child = arow[u], brow[v]
            if child not in words:
                words[child] = words[pair] + sym
                queue.append(child)
    return None


def _search_classes(op, m, n, alphabet):
    """The full search's left and right classes, built as it builds them."""
    gens = _letter_generators(len(alphabet))
    classes_a = _classes(m, alphabet, gens)
    left = _left_classes(op, classes_a)
    return left, classes_a if n == m else _classes(n, alphabet, gens)


class TestOracle:
    def test_revcat_value(self):
        assert oracle_sc("revcat", revcat_witness_M(2), revcat_witness_N(2)) == 12

    def test_starcat_value(self):
        assert oracle_sc("starcat", starcat_witness_A(2), starcat_witness_B(2)) == 5

    def test_starcat_special_value(self):
        assert (
            oracle_sc(
                "starcat",
                starcat_special_witness_A(2),
                starcat_special_witness_B(3),
            )
            == 11
        )

    def test_pipeline_is_not_minimized(self):
        raw = oracle_pipeline("revcat", revcat_witness_M(3), revcat_witness_N(2))
        assert raw.state_count >= minimize_hopcroft(raw).state_count

    def test_pipeline_agrees_with_direct_construction(self):
        # revcat has no construction of its own for n >= 2 or m = 1:
        # combined runs the oracle's pipeline there
        for a, b in [
            (revcat_witness_M(3), revcat_witness_N(3)),
            (sigma_star_dfa(("a", "b", "c", "d")), revcat_witness_N(3)),
        ]:
            assert combined("revcat", a, b) == oracle_pipeline("revcat", a, b)
        for op, a, b in [
            ("starcat", starcat_witness_A(3), starcat_witness_B(2)),
            ("starcat", starcat_special_witness_A(3), starcat_special_witness_B(2)),
        ]:
            assert equivalent(oracle_pipeline(op, a, b), combined(op, a, b))

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            oracle_sc("shuffle", revcat_witness_M(2), revcat_witness_N(2))

    def test_mask_catenation_is_the_catenation_nfa(self):
        # the oracle's masks and Dfa against the Nfa route, on random
        # pairs with one-state right operands and finals-free left ones
        rng = random.Random(17)
        for trial in range(240):
            op = ("revcat", "starcat")[trial % 2]
            alphabet = tuple("abc"[: rng.randint(1, 3)])
            a = random_complete_dfa(rng, rng.randint(1, 5), alphabet)
            b = random_complete_dfa(rng, trial % 4 + 1, alphabet)
            if trial % 3 == 0:
                a = dataclasses.replace(a, finals=frozenset())
            cat = catenation_nfa(REF_LEFT[op](a), b)
            move, start, final_mask = _oracle_masks(OPS[op].left, a, b)
            assert (move, start, final_mask) == nfa_masks(cat), (op, a, b)
            assert final_mask == state_mask(cat.finals)
            assert oracle_pipeline(op, a, b) == determinize(cat)[0]

    # catenations of 31 to 35 NFA states, either side of the subset
    # construction's table bound (33), where the layout decides which
    # states fall in which third of a subset's bits
    @pytest.mark.parametrize("states", range(31, 36))
    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    def test_catenations_at_the_chunk_bounds(self, op, states):
        rng = random.Random(states)
        m = (states - (op == "starcat")) // 2
        n = states - (op == "starcat") - m
        a, b = _cycle(rng, m), _cycle(rng, n)
        cat = catenation_nfa(REF_LEFT[op](a), b)
        assert cat.state_count == states
        det, keys = determinize(cat)
        assert (det, keys) == ref_determinize(cat)
        assert oracle_pipeline(op, a, b) == det
        assert equivalent(combined(op, a, b), det)


class Reached(Exception):
    pass


def stand_in_witness(monkeypatch, op):
    # a stand-in witness stops the run once the budget check is passed
    def witness(m, n):
        raise Reached

    monkeypatch.setitem(harness.OPS, op, dataclasses.replace(OPS[op], witness=witness))


def count_walks(monkeypatch):
    """The grouped walks, numbered subset constructions and pair walks
    run from here on, as a dict the patched functions keep up to date."""
    calls = {"grouped": 0, "subset": 0, "walk": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    # both names: harness calls its own, subset_dfa automata's
    subset = counted("subset", automata.subset_construction)
    monkeypatch.setattr(automata, "subset_construction", subset)
    monkeypatch.setattr(harness, "subset_construction", subset)
    monkeypatch.setattr(harness, "_grouped_walk", counted("grouped", harness._grouped_walk))
    monkeypatch.setattr(harness, "_pair_walk", counted("walk", harness._pair_walk))
    return calls


class TestVerifyWitness:
    def test_revcat(self):
        r = verify_witness("revcat", 3, 3)
        assert r == BoundReport("revcat", 3, 3, None, 48, 48, 48, True)

    @pytest.mark.parametrize("m, n, numbered", [(2, 2, 1), (3, 4, 0), (5, 3, 0)])
    def test_revcat_counts_one_grouped_walk(self, monkeypatch, m, n, numbered):
        # the route has no machine of its own, so the oracle's subsets
        # are counted once and not walked against themselves; they are
        # numbered only for Hopcroft, where private words do not decide
        # the count, as at (2, 2)
        calls = count_walks(monkeypatch)
        f = sc_revcat(m, n)
        assert verify_witness("revcat", m, n) == BoundReport(
            "revcat", m, n, None, f, f, f, True
        )
        assert calls == {"grouped": 1, "subset": numbered, "walk": 0}

    @pytest.mark.parametrize("op, m, n, numbered", [
        ("starcat", 2, 2, 1), ("starcat", 3, 4, 0), ("starcat", 5, 3, 1),
        ("starcat-special", 2, 2, 1), ("starcat-special", 3, 4, 1),
        ("starcat-special", 5, 3, 1),
    ])
    def test_starcat_runs_one_grouped_walk(self, monkeypatch, op, m, n, numbered):
        # the route's masks are the oracle's from another start set of the
        # same images and finality, so the direct machine's count is read
        # off the oracle's subsets: no walk of its own and no pair walk.
        # They are numbered only for Hopcroft, where private words do not
        # decide the count: starcat at (2, 2) and (5, 3), and every
        # starcat-special cell
        spec = OPS[op]
        a, b = spec.witness(m, n)
        k1 = spec.route(a, b)[2]
        constructed = starcat_general_direct(a, b).state_count
        calls = count_walks(monkeypatch)
        f = spec.sc(m, n)
        assert verify_witness(op, m, n) == BoundReport(
            op, m, n, k1, f, constructed, f, True
        )
        assert calls == {"grouped": 1, "subset": numbered, "walk": 0}

    def test_route_started_without_bs_initial_state_fails(self, monkeypatch):
        # starcat's masks started in a's initial state alone: the start's
        # images are not the oracle start's, so verify builds the route's
        # machine and walks it against the oracle's, and the report's
        # word is that walk's
        route = OPS["starcat"].route

        def broken(a, b):
            (move, start, final_mask), bound, k1 = route(a, b)
            return (move, start & ~(1 << b.initial), final_mask), bound, k1

        a, b = OPS["starcat"].witness(3, 3)
        direct = subset_dfa(a.alphabet, *broken(a, b)[0])
        word = harness._pair_walk(direct, 0, oracle_pipeline("starcat", a, b), 0)
        assert word is not None
        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=broken)
        )
        calls = count_walks(monkeypatch)
        r = verify_witness("starcat", 3, 3)
        assert (r.constructed, r.passed, r.word) == (direct.state_count, False, word)
        assert str(r).endswith(" FAIL word=" + (word or '""'))
        assert calls == {"grouped": 1, "subset": 2, "walk": 1}

    def test_revcat_right_operand_one_state(self):
        r = verify_witness("revcat", 5, 1)
        assert r.formula == 17 and r.minimal == 17 and r.passed
        assert r.k1 is None

    def test_starcat_special(self):
        r = verify_witness("starcat-special", 4, 3)
        assert r.formula == sc_starcat_special(4, 3) == 25
        assert r.passed

    def test_starcat_general_sets_k1(self):
        r = verify_witness("starcat", 2, 2)
        assert r.k1 == 1
        assert r.formula == 5 and r.minimal == 5 and r.passed

    def test_k1_is_the_routes(self, monkeypatch):
        # the report's k1 comes from the route, not from the witness
        route = OPS["starcat"].route

        def shifted(a, b):
            d, bound, k1 = route(a, b)
            return d, bound, k1 + 1

        before = verify_witness("starcat", 4, 3)
        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=shifted)
        )
        assert verify_witness("starcat", 4, 3) == dataclasses.replace(
            before, k1=before.k1 + 1
        )

    @pytest.mark.parametrize("op", ["revcat", "starcat", "starcat-special"])
    def test_wrong_sized_witness_fails(self, monkeypatch, op):
        # the formula is the closed form at the requested sizes, so a
        # witness one state larger than asked for fails
        spec = OPS[op]
        monkeypatch.setitem(
            harness.OPS, op,
            dataclasses.replace(spec, witness=lambda m, n: spec.witness(m + 1, n)),
        )
        r = verify_witness(op, 3, 3)
        assert (r.m, r.formula, r.minimal) == (4, spec.sc(3, 3), spec.sc(4, 3))
        assert not r.passed and r.word is None
        assert str(r).endswith(" FAIL")

    def test_counterexample_at_witness_scale(self, monkeypatch):
        # starcat's direct machine at (6, 6), the subset construction of
        # its route's masks, with its last-numbered state flipped in
        # finality: the report's word is the first word a plain
        # breadth-first search over (u, v) tuples finds, and the reference
        # tells the broken machine from the language on it
        route = OPS["starcat"].route

        def broken(a, b):
            masks, bound, k1 = route(a, b)
            d = subset_dfa(a.alphabet, *masks)
            return dataclasses.replace(d, finals=d.finals ^ {d.state_count - 1}), bound, k1

        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=broken)
        )
        r = verify_witness("starcat", 6, 6)
        assert not r.passed and r.word is not None
        a, b = OPS["starcat"].witness(6, 6)
        direct = broken(a, b)[0]
        oracle = oracle_pipeline("starcat", a, b)
        assert direct.state_count == 2465
        assert r.word == _first_disagreement(direct, oracle)
        assert reference.member("starcat", machine(a), machine(b), r.word) != run_word(
            direct, r.word
        )

    def test_starcat_right_operand_one_state(self):
        r = verify_witness("starcat", 4, 1)
        assert r.formula == 1 and r.minimal == 1 and r.passed
        assert r.k1 is None

    @pytest.mark.parametrize("op", ["revcat", "starcat", "starcat-special"])
    def test_small_grid_passes(self, op):
        for m in range(2, 5):
            for n in range(1, 4):
                assert verify_witness(op, m, n).passed, (op, m, n)

    def test_no_family_for_one_state_left_operand(self):
        with pytest.raises(ValueError):
            verify_witness("revcat", 1, 4)

    @pytest.mark.parametrize(
        "op,m,n",
        [
            ("revcat", 30, 30),
            ("revcat", 1_000_000, 2),
            ("starcat", 30, 30),
            # sized by its estimate: 3 * 2^(10^20) is never formed
            ("revcat", 99_999_999_999_999_999_999, 2),
            # n = 1 cells, budgeted as their (m, 2) cells
            ("revcat", 23, 1),
            ("revcat", 25, 1),
            ("starcat", 24, 1),
            ("starcat", 30, 1),
            ("starcat-special", 20_641, 1),
        ],
    )
    def test_cell_past_the_budget_is_refused_before_its_witness(
        self, monkeypatch, op, m, n
    ):
        stand_in_witness(monkeypatch, op)
        with pytest.raises(BudgetError, match=f"budget of {DEFAULT_BUDGET}$"):
            verify_witness(op, m, n)

    @pytest.mark.parametrize(
        "op,m,n",
        [
            (op, k, k)
            for k in (11, 12, 9)
            for op in ("revcat", "starcat", "starcat-special")
        ]
        # n = 1 cells, budgeted as their (m, 2) cells
        + [("revcat", 22, 1), ("starcat", 23, 1), ("starcat-special", 20_640, 1)]
        # starcat-special (m, 2) cells within the budget in key words too
        + [("starcat-special", 15_000, 2), ("starcat-special", 20_640, 2)],
    )
    def test_cells_within_the_budget_reach_their_witness(self, monkeypatch, op, m, n):
        stand_in_witness(monkeypatch, op)
        with pytest.raises(Reached):
            verify_witness(op, m, n)

    @pytest.mark.parametrize("op", ["revcat", "starcat", "starcat-special"])
    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_n1_cell_is_budgeted_as_its_m2_cell(self, monkeypatch, op, m):
        stand_in_witness(monkeypatch, op)
        budget = OPS[op].sc(m, 2)
        monkeypatch.setattr(harness, "DEFAULT_BUDGET", budget)
        with pytest.raises(Reached):
            verify_witness(op, m, 1)
        monkeypatch.setattr(harness, "DEFAULT_BUDGET", budget - 1)
        with pytest.raises(BudgetError, match=f"\\({m}, 1\\) needs more states than"):
            verify_witness(op, m, 1)

    @pytest.mark.parametrize("op", ["revcat", "starcat", "starcat-special"])
    def test_n1_oracle_subsets_within_the_m2_closed_form(self, op):
        # the bound an n = 1 cell is budgeted by; its own closed form is
        # no bound (starcat's is 1)
        spec = OPS[op]
        for m in range(2, 13):
            a, b = spec.witness(m, 1)
            subsets = automata.subset_construction(*_oracle_masks(spec.left, a, b))[2]
            assert len(subsets) <= spec.sc(m, 2), (op, m)
            # and each key fits the (m, 2) cell's m + 3 bits
            assert max(subsets).bit_length() <= m + 3, (op, m)

    @pytest.mark.parametrize("m", [1_000_000, 30_000, 20_641])
    def test_cell_past_the_budget_in_key_words_is_refused(self, monkeypatch, m):
        # starcat-special (m, 2) has 3m - 1 states, under the budget, but
        # each subset key takes ceil((m + 3) / 64) words
        op = "starcat-special"
        stand_in_witness(monkeypatch, op)
        assert OPS[op].sc(m, 2) <= DEFAULT_BUDGET
        words = f"64-bit words of subset keys than the budget of {DEFAULT_BUDGET}$"
        with pytest.raises(BudgetError, match=words):
            verify_witness(op, m, 2)

    def test_bad_sizes_and_ops(self):
        with pytest.raises(ValueError):
            verify_witness("revcat", 3, 0)
        with pytest.raises(ValueError):
            verify_witness("starcat", 1, 3)
        with pytest.raises(ValueError):
            verify_witness("shuffle", 2, 2)

    def test_reports_are_frozen(self):
        r = verify_witness("revcat", 2, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.passed = False


class TestVerifyConstruction:
    def test_revcat_general_route(self):
        r = verify_construction(
            "revcat", sigma_star_dfa(("a", "b", "c", "d")), revcat_witness_N(3)
        )
        assert r.formula == 12  # the product bound at (1, 3)
        assert r.constructed <= r.formula
        assert r.passed

    def test_revcat_one_state_right_operand_uses_exact_formula(self):
        a = revcat_n1_witness(3)
        r = verify_construction("revcat", a, sigma_star_dfa(a.alphabet))
        assert r.formula == sc_revcat(3, 1) == 5
        assert r.constructed == 5 and r.passed

    def test_starcat_general_route(self):
        r = verify_construction("starcat", starcat_witness_A(2), starcat_witness_B(2))
        assert r.k1 == 1
        assert r.formula == 5 and r.constructed == 5 and r.minimal == 5
        assert r.passed

    def test_starcat_k1_with_a_final_initial_state(self):
        # a is the cycle 0 -> 1 -> 2 -> 0 with finals {0, 2}: k1 counts
        # only the non-initial final state 2.  L(a)* is every a^k but a,
        # and L(b) the odd lengths, so the result is every a^k but the
        # empty word and aa: 4 minimal states.  The direct machine's
        # subsets differ at lengths 0 to 4 and repeat from there: 5.
        a = Dfa(3, ("a",), ((1, 2, 0),), 0, frozenset({0, 2}))
        b = Dfa(2, ("a",), ((1, 0),), 0, frozenset({1}))
        r = verify_construction("starcat", a, b)
        # (3 * 2^1 - 1)(2^2 - 1) - (2^2 - 2^1)(2^1 - 1) = 15 - 2
        assert (r.k1, r.formula) == (1, 13)
        assert str(r) == "starcat m=3 n=2 k1=1 formula=13 constructed=5 minimal=4 PASS"

    def test_starcat_special_route(self):
        r = verify_construction(
            "starcat", starcat_special_witness_A(3), starcat_special_witness_B(3)
        )
        assert r.k1 is None
        assert r.formula == sc_starcat_special(3, 3) == 18
        assert r.passed

    def test_route_whose_start_the_oracle_reenters_falls_back(self, monkeypatch):
        # a left machine that is a itself, the one-letter cycle 0 <-> 1
        # with 2 -> 1 beside it: the oracle's walk from {0} goes to {1}
        # and back to {0}.  The route's start {0, 2} has {0}'s image and
        # finality but is never re-entered, so its machine has 3 states,
        # not the oracle's 2 less one: verify builds and walks it
        a = Dfa(3, ("a",), ((1, 0, 1),), 0, frozenset())
        b = Dfa(2, ("a",), ((1, 0),), 0, frozenset({1}))

        def left(d):
            return nfa_masks(nfa_from_dfa(d))

        def restarted(a, b):
            move, start, final_mask = catenation_masks(left(a), b)
            return (move, start | 1 << b.state_count + 2, final_mask), 10, None

        rows = automata.subset_construction(*_oracle_masks(left, a, b))[0]
        assert rows == ((1, 0),)
        assert subset_dfa(a.alphabet, *restarted(a, b)[0]).state_count == 3
        monkeypatch.setitem(
            harness.OPS, "starcat",
            dataclasses.replace(OPS["starcat"], left=left, route=restarted),
        )
        calls = count_walks(monkeypatch)
        r = verify_construction("starcat", a, b)
        assert (r.constructed, r.minimal, r.passed, r.word) == (3, 1, True, None)
        assert calls == {"grouped": 1, "subset": 2, "walk": 1}

    @pytest.mark.parametrize("edit", [
        # b's final state 1' added to the start: 1' goes only where the
        # start goes already, so the start's images stay the oracle
        # start's but its finality does not
        lambda move, start, final_mask: (move, start | 1 << 1, final_mask),
        # a's state 1 made final: the start's images and finality stay
        lambda move, start, final_mask: (move, start, final_mask | 1 << 3),
        # 1' sent to 0' on a: the start's images stay, as 1' is not in it
        lambda move, start, final_mask: (
            [[1 << 1, 1 << 0, *move[0][2:]], move[1]], start, final_mask
        ),
    ])
    def test_route_that_only_looks_like_a_restart_falls_back(self, monkeypatch, edit):
        # starcat's masks, a's states above b's 0' and 1', edited so that
        # one test of _restarts alone tells them from a restart.  L(a) is
        # the words ending in b, and L(b) those ending in a, so the
        # result is the words ending in a, and each edit changes it
        a = Dfa(2, ("a", "b"), ((0, 0), (1, 1)), 0, frozenset({1}))
        b = Dfa(2, ("a", "b"), ((1, 1), (0, 0)), 0, frozenset({1}))
        route = OPS["starcat"].route

        def edited(a, b):
            masks, bound, k1 = route(a, b)
            return edit(*masks), bound, k1

        direct = subset_dfa(a.alphabet, *edited(a, b)[0])
        word = harness._pair_walk(direct, 0, oracle_pipeline("starcat", a, b), 0)
        assert word is not None
        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=edited)
        )
        calls = count_walks(monkeypatch)
        r = verify_construction("starcat", a, b)
        assert (r.constructed, r.passed, r.word) == (direct.state_count, False, word)
        assert calls == {"grouped": 1, "subset": 2, "walk": 1}

    def test_route_of_the_oracles_own_masks_counts_every_subset(self, monkeypatch):
        # the oracle's start is its own restart: no subset gives way
        a, b = starcat_witness_A(3), starcat_witness_B(3)

        def same(a, b):
            return _oracle_masks(OPS["starcat"].left, a, b), 100, None

        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=same)
        )
        calls = count_walks(monkeypatch)
        r = verify_construction("starcat", a, b)
        # numbered once, for Hopcroft: private words do not decide (3, 3)
        assert calls == {"grouped": 1, "subset": 1, "walk": 0}
        assert r.constructed == oracle_pipeline("starcat", a, b).state_count
        assert r.passed and r.word is None

    def test_starcat_left_operand_without_finals(self):
        a = starcat_witness_A(2)
        hollow = a.__class__(
            a.state_count, a.alphabet, a.transitions, a.initial, frozenset()
        )
        r = verify_construction("starcat", hollow, starcat_witness_B(3))
        assert r.formula == 3 and r.constructed == 3 and r.passed

    def test_starcat_one_state_right_operand(self):
        a = starcat_witness_A(3)
        r = verify_construction("starcat", a, sigma_star_dfa(a.alphabet))
        assert r.formula == 1 and r.constructed == 1 and r.passed

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_alphabet_mismatch(self, op, n):
        # one message on every route shape, the one-state right operand's
        # included, whose revcat route never compares the alphabets
        a = revcat_n1_witness(3)  # over a, b, c
        b = sigma_star_dfa(("a", "b")) if n == 1 else starcat_witness_B(n)
        with pytest.raises(ValueError, match="operands use different alphabets"):
            verify_construction(op, a, b)


class TestEnumeration:
    def test_dfa_count(self):
        assert dfa_count(1, 3) == 2
        assert dfa_count(2, 1) == 16
        assert dfa_count(2, 2) == 64
        assert dfa_count(3, 2) == 3 ** 6 * 8

    def test_decode_zero_is_the_all_zero_machine(self):
        d = decode_dfa(0, 2, ("a",))
        assert d.transitions == ((0, 0),)
        assert d.initial == 0
        assert d.finals == frozenset()

    def test_decode_low_bits_are_finals(self):
        assert decode_dfa(3, 2, ("a",)).finals == frozenset((0, 1))

    @pytest.mark.parametrize("size,sigma", [(1, 2), (2, 1), (2, 2)])
    def test_decode_is_injective_and_complete(self, size, sigma):
        alphabet = tuple("ab"[:sigma])
        seen = {decode_dfa(i, size, alphabet) for i in range(dfa_count(size, sigma))}
        assert len(seen) == dfa_count(size, sigma)
        for d in seen:
            assert d.state_count == size and d.initial == 0

    @pytest.mark.parametrize("index", [-1, 64, 65, 2 ** 70])
    def test_decode_refuses_indices_outside_the_range(self, index):
        with pytest.raises(ValueError, match=r"outside 0\.\.dfa_count\(2, 2\) - 1$"):
            decode_dfa(index, 2, ("a", "b"))


class TestExhaustiveSearch:
    def test_full_search_tiny_revcat(self):
        r = exhaustive_search("revcat", 1, 2, 2, "full")
        assert r.max_minimal == sc_revcat(1, 2) == 2
        assert r.pairs_examined == 2 * 64
        assert oracle_sc("revcat", *r.argmax) == 2

    def test_full_search_tiny_starcat(self):
        r = exhaustive_search("starcat", 1, 2, 2, "full")
        assert r.max_minimal == sc_starcat(1, 2) == 2
        r = exhaustive_search("starcat", 2, 1, 1, "full")
        assert r.max_minimal == 1

    def test_full_search_never_beats_the_formula(self):
        r = exhaustive_search("revcat", 2, 2, 1, "full")
        assert r.max_minimal <= sc_revcat(2, 2)
        assert r.pairs_examined == 16 * 16

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize("m,n", [(2, 2), (1, 2), (2, 1)])
    def test_every_pair_size_is_the_nfa_route_size(self, op, m, n):
        alphabet = ("a", "b")
        for ia, ib, a, b, size in _raw_sizes(op, m, n, alphabet):
            nfa = catenation_nfa(REF_LEFT[op](a), b)
            assert size == moore_minimal_size(determinize(nfa)[0]), (op, ia, ib)

    # argmax pairs as decode_dfa indices, recorded from the Nfa/Dfa
    # pipeline that the bitmask search replaced.  The two |Σ| = 4 rows
    # were recorded from the full search as it was before classes and
    # orbits, when it ran the oracle on every index pair; the (3, 2) and
    # (2, 3) rows from the class search before it skipped pairs by their
    # catenation bound, which skips some of their orbits.  The sampled
    # searches draw from 157,464 three-state machines over three letters.
    @pytest.mark.parametrize(
        "op,m,n,sigma,mode,kw,best,ia,ib",
        [
            ("revcat", 2, 2, 3, "full", {}, 12, 22, 70),
            ("starcat", 2, 2, 3, "full", {}, 5, 21, 6),
            ("revcat", 2, 2, 4, "full", {}, 12, 22, 70),
            ("starcat", 2, 2, 4, "full", {}, 5, 21, 6),
            ("revcat", 3, 2, 2, "full", {}, 20, 742, 6),
            ("starcat", 3, 2, 2, "full", {}, 10, 348, 54),
            ("revcat", 2, 3, 2, "full", {}, 18, 6, 738),
            ("starcat", 2, 3, 2, "full", {}, 11, 25, 1154),
            ("revcat", 2, 3, 3, "sampled", dict(sample_count=2000, seed=5), 22, 22, 55934),
            ("starcat", 2, 3, 3, "sampled", dict(sample_count=2000, seed=5), 11, 185, 135657),
        ],
    )
    def test_argmax_is_pinned(self, op, m, n, sigma, mode, kw, best, ia, ib):
        r = exhaustive_search(op, m, n, sigma, mode, **kw)
        alphabet = tuple("abcd"[:sigma])
        assert r.max_minimal == best
        assert r.argmax == (decode_dfa(ia, m, alphabet), decode_dfa(ib, n, alphabet))

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize(
        "m,n,sigma",
        [(2, 2, 2), (1, 2, 2), (2, 1, 2), (1, 3, 2), (3, 1, 2), (1, 1, 1), (1, 1, 26)],
    )
    def test_full_search_is_the_first_strict_max_of_the_raw_search(self, op, m, n, sigma):
        alphabet = tuple(string.ascii_lowercase[:sigma])
        best, best_pair = -1, None
        for _, _, a, b, size in _raw_sizes(op, m, n, alphabet):
            if size > best:
                best, best_pair = size, (a, b)
        r = exhaustive_search(op, m, n, sigma, "full")
        assert (r.max_minimal, r.argmax) == (best, best_pair)
        assert r.pairs_examined == dfa_count(m, sigma) * dfa_count(n, sigma)

    # 2,516 orbits for revcat, 1,512 for starcat, whose 114 classes of
    # machines have 69 languages L(a)*; the rest are skipped by their bound
    @pytest.mark.parametrize("op,runs", [("revcat", 328), ("starcat", 1444)])
    def test_one_oracle_run_per_orbit(self, op, runs):
        r = exhaustive_search(op, 2, 2, 3, "full")
        assert (r.pairs_evaluated, r.pairs_examined) == (runs, 65536)
        r = exhaustive_search(op, 2, 3, 3, "sampled", sample_count=50, seed=1)
        assert r.pairs_evaluated == r.pairs_examined == 50

    # of those runs, only the pairs whose subset count and count of
    # distinct (final, successors) rows both beat the best size so far are
    # refined; the others cannot be a new strict maximum.  The spy counts
    # the pair loop's refinements only: revcat's left classes refine
    # nothing, and starcat's refine inside minimal_rows
    @pytest.mark.parametrize(
        "op,runs,refinements", [("revcat", 328, 14), ("starcat", 1444, 38)]
    )
    def test_refines_only_counts_that_beat_the_best(self, monkeypatch, op, runs, refinements):
        calls = []

        def counted(rows, finals):
            calls.append(1)
            return automata.hopcroft_refine(rows, finals)

        monkeypatch.setattr(harness, "hopcroft_refine", counted)
        r = exhaustive_search(op, 2, 2, 3, "full")
        assert (r.pairs_evaluated, len(calls)) == (runs, refinements)

    # right classes that differ only in their finals share one transition
    # table, and the walk depends on the right machine only through it:
    # each left class walks once per right table it meets, however many
    # of that table's classes it is paired with
    @pytest.mark.parametrize("op,runs,walks", [("revcat", 328, 164), ("starcat", 1444, 722)])
    def test_one_walk_per_left_class_and_right_table(self, monkeypatch, op, runs, walks):
        calls, pairs = [], []

        def counted(*args):
            calls.append(1)
            return _table_walk(*args)

        def recorded(left, right, floor):
            for pair in _orbit_pairs(left, right, floor):
                pairs.append((pair[0], right[2][pair[1]].transitions))
                yield pair

        monkeypatch.setattr(harness, "_table_walk", counted)
        monkeypatch.setattr(harness, "_orbit_pairs", recorded)
        r = exhaustive_search(op, 2, 2, 3, "full")
        assert (r.pairs_evaluated, len(pairs), len(calls)) == (runs, runs, walks)
        assert len(set(pairs)) == walks

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize("m,n,sigma,count", [(2, 2, 2, 300), (2, 3, 3, 50)])
    def test_sampled_is_the_first_strict_max_of_its_draws(self, op, m, n, sigma, count):
        # the draws replayed, one oracle run each, against the search that
        # refines only the counts beating the best
        alphabet = tuple("abc"[:sigma])
        rng = random.Random(7)
        best, best_pair = -1, None
        for _ in range(count):
            a = decode_dfa(rng.randrange(dfa_count(m, sigma)), m, alphabet)
            b = decode_dfa(rng.randrange(dfa_count(n, sigma)), n, alphabet)
            size = oracle_sc(op, a, b)
            if size > best:
                best, best_pair = size, (a, b)
        r = exhaustive_search(op, m, n, sigma, "sampled", sample_count=count, seed=7)
        assert (r.max_minimal, r.argmax, r.pairs_evaluated) == (best, best_pair, count)

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize("floor", [-1, 5, 12])
    def test_floored_walk_is_the_walk_above_the_floor(self, op, floor):
        left, right = _search_classes(op, 2, 2, ("a", "b", "c"))
        walk = list(_orbit_pairs(left, right))
        floored = list(_orbit_pairs(left, right, [floor]))
        assert floored == [p for p in walk if p[2] > floor]
        assert len(walk) == {"revcat": 2516, "starcat": 1512}[op]

    def test_floor_raised_during_the_walk_is_read_at_each_pair(self):
        # raising the floor to a yielded pair's bound passes every later
        # pair with that bound or less by, as a fresh walk at that floor does
        left, right = _search_classes("starcat", 2, 2, ("a", "b", "c"))
        floor = [-1]
        pairs = _orbit_pairs(left, right, floor)
        first = next(pairs)
        floor[0] = first[2]
        rest = [p for p in _orbit_pairs(left, right) if p[2] > first[2]]
        assert list(pairs) == [p for p in rest if p[:2] > first[:2]]

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize(
        "m,n,sigma", [(2, 2, 2), (1, 2, 2), (2, 1, 2), (1, 3, 2), (3, 1, 2), (1, 1, 26)]
    )
    def test_every_pair_is_within_its_orbits_bound(self, op, m, n, sigma):
        # a pair is keyed by its two languages, the left NFA's and b's, as
        # minimal DFAs; a yielded bound covers its pair's orbit, which the
        # generators' renamings of the two keys reach
        alphabet = tuple(string.ascii_lowercase[:sigma])
        gens = _letter_generators(sigma)

        def left_key(i):
            nfa = REF_LEFT[op](decode_dfa(i, m, alphabet))
            return minimize_hopcroft(determinize(nfa)[0])

        def right_key(i):
            return minimize_hopcroft(decode_dfa(i, n, alphabet))

        @functools.cache
        def renamed(d, g):
            return minimize_hopcroft(
                dataclasses.replace(d, transitions=tuple(d.transitions[s] for s in g))
            )

        lefts = [left_key(i) for i in range(dfa_count(m, sigma))]
        rights = [right_key(i) for i in range(dfa_count(n, sigma))]
        bound_of = {}
        left, right = _search_classes(op, m, n, alphabet)
        for x, y, bound in _orbit_pairs(left, right):
            ia, ib = left[0][x], right[0][y]
            stack = [(lefts[ia], rights[ib])]
            while stack:
                key = stack.pop()
                if key not in bound_of:
                    bound_of[key] = bound
                    stack.extend((renamed(key[0], g), renamed(key[1], g)) for g in gens)
                assert bound_of[key] == bound
        for ia, ib, _, _, size in _raw_sizes(op, m, n, alphabet):
            assert size <= bound_of[lefts[ia], rights[ib]], (op, ia, ib)

    # the search runs the oracle on the classes' minimal machines (for a
    # merged left class, its first class's), never on decoded machines;
    # every pair it can evaluate, one per orbit, must size as the two
    # classes' first machines do
    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize(
        "m,n,sigma",
        [(2, 2, 2), (1, 2, 2), (2, 1, 2), (1, 3, 2), (3, 1, 2), (2, 2, 3), (1, 1, 26)],
    )
    def test_class_machines_size_as_their_first_machines(self, op, m, n, sigma):
        alphabet = tuple(string.ascii_lowercase[:sigma])
        left, right = _search_classes(op, m, n, alphabet)
        (firsts_a, _, _, heads), (firsts_b, _, minimal_b) = left, right
        for x, y, _ in _orbit_pairs(left, right):
            rows, finals, _ = automata.subset_construction(
                *catenation_masks(OPS[op].left(heads[x]), minimal_b[y])
            )
            size = len(automata.hopcroft_refine(rows, finals)[0])
            a = decode_dfa(firsts_a[x], m, alphabet)
            b = decode_dfa(firsts_b[y], n, alphabet)
            assert size == oracle_sc(op, a, b), (op, x, y)

    # the search's walk on cached class tables, at the shapes above: at
    # (1, 1, 26) a packed image is 26 * 3 = 78 bits wide.  Past n = 1,
    # some right classes have fewer than n states, and there
    # catenation_masks puts the left block lower than the walk does
    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize(
        "m,n,sigma",
        [(2, 2, 2), (1, 2, 2), (2, 1, 2), (1, 3, 2), (3, 1, 2), (2, 2, 3), (1, 1, 26)],
    )
    def test_table_walk_is_the_catenations_subset_construction(self, op, m, n, sigma):
        alphabet = tuple(string.ascii_lowercase[:sigma])
        left, right = _search_classes(op, m, n, alphabet)
        (firsts_a, _, _, heads), (firsts_b, _, minimal_b) = left, right
        width = harness._image_width(m, n)
        kinds = collections.Counter()  # exact keys (True), shifted (False)
        for x, y, _ in _orbit_pairs(left, right):
            masks = OPS[op].left(heads[x])
            rows, finals, exact = _class_walk(masks, minimal_b[y], n, sigma, width)
            kinds[exact] += 1
            first_a = decode_dfa(firsts_a[x], m, alphabet)
            first_b = decode_dfa(firsts_b[y], n, alphabet)
            size = len(automata.hopcroft_refine(rows, finals)[0])
            assert size == oracle_sc(op, first_a, first_b), (op, x, y)
        assert kinds[True] and (kinds[False] or n == 1), kinds

    # left machines of m + 1 states that every state can be entered in,
    # unlike a star's fresh state, and right machines of 1..n states
    @pytest.mark.parametrize("m,n,sigma", [(1, 1, 26), (2, 2, 3), (3, 2, 2), (2, 4, 2)])
    def test_table_walk_on_random_machines(self, m, n, sigma):
        rng = random.Random(m * 100 + n * 10 + sigma)
        alphabet = tuple(string.ascii_lowercase[:sigma])
        width = harness._image_width(m, n)
        full = (1 << (m + 1)) - 1
        kinds = collections.Counter()  # exact keys (True), shifted (False)
        for _ in range(60):
            move = [[rng.randrange(full + 1) for _ in range(m + 1)] for _ in alphabet]
            masks = (move, rng.randrange(full + 1), rng.randrange(full + 1))
            b = random_complete_dfa(rng, rng.randint(1, n), alphabet)
            b = dataclasses.replace(b, initial=0)
            kinds[_class_walk(masks, b, n, sigma, width)[2]] += 1
        assert kinds[True] and (kinds[False] or n == 1), kinds

    # subset constructions of random NFAs of 1..8 states, free moves
    # folded in: the distinct (final, successors) rows lie between the
    # minimal size and the subset count, so the refinement is skipped only
    # where it could not beat the floor
    @pytest.mark.parametrize("sigma", [1, 2, 3])
    def test_distinct_rows_bound_the_minimal_size(self, sigma):
        rng = random.Random(sigma)
        for _ in range(150):
            k = rng.randint(1, 8)
            full = (1 << k) - 1
            move = [[rng.randrange(full + 1) for _ in range(k)] for _ in range(sigma)]
            rows, finals, keys = automata.subset_construction(
                move, rng.randrange(full + 1), rng.randrange(full + 1)
            )
            size = len(automata.hopcroft_refine(rows, finals)[0])
            flags = [q in finals for q in range(len(keys))]
            distinct = len(set(zip(flags, *rows)))
            assert size <= distinct <= len(keys)
            for floor in range(-1, len(keys) + 1):
                expected = size if size > floor else None
                assert harness._size_over(rows, finals, floor) == expected

    def test_budget_refusal(self, monkeypatch):
        with pytest.raises(BudgetError):
            exhaustive_search("revcat", 3, 3, 4, "full")
        monkeypatch.setattr(harness, "DEFAULT_BUDGET", 3)
        with pytest.raises(BudgetError):
            exhaustive_search("revcat", 1, 1, 1, "full")

    def test_budget_error_is_a_value_error(self):
        assert issubclass(BudgetError, ValueError)

    def test_sampled_is_deterministic(self):
        kw = dict(sample_count=30, seed=5)
        first = exhaustive_search("revcat", 2, 2, 2, "sampled", **kw)
        second = exhaustive_search("revcat", 2, 2, 2, "sampled", **kw)
        assert first == second
        assert first.pairs_examined == 30
        assert first.max_minimal <= sc_revcat(2, 2)

    def test_sampled_needs_a_count(self):
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 2, 2, 2, "sampled")
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 2, 2, 2, "sampled", sample_count=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            exhaustive_search("shuffle", 1, 1, 1, "full")
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 0, 1, 1, "full")
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 1, 1, 0, "full")
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 1, 1, 27, "full")
        with pytest.raises(ValueError):
            exhaustive_search("revcat", 1, 1, 1, "diagonal")

    def test_result_is_frozen(self):
        r = exhaustive_search("starcat", 1, 1, 1, "full")
        assert isinstance(r, SearchResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.max_minimal = 0


def _words(d: Dfa, max_len: int) -> frozenset[str]:
    return frozenset(w for w in all_words(d.alphabet, max_len) if run_word(d, w))


class TestLanguageClasses:
    # two DFAs of at most 2 states each agree on every word iff they
    # agree on the words shorter than 2 · 2, the number of state pairs

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_minimal_dfa_key_is_the_language(self, sigma):
        alphabet = tuple("abc"[:sigma])
        machines = [decode_dfa(i, 2, alphabet) for i in range(dfa_count(2, sigma))]
        by_key, by_words = {}, {}
        for i, d in enumerate(machines):
            by_key.setdefault(minimize_hopcroft(d), []).append(i)
            by_words.setdefault(_words(d, 3), []).append(i)
        assert sorted(by_key.values()) == sorted(by_words.values())
        firsts, _, minimal = _classes(2, alphabet, [])
        assert firsts == [block[0] for block in by_words.values()]
        assert minimal == [minimize_hopcroft(machines[i]) for i in firsts]

    # each machine decoded and refined on its own, the first index of each
    # key recorded: the class step without sharing a table's work across
    # its final sets
    @pytest.mark.parametrize("size,alphabet", [(2, "ab"), (2, "abc"), (3, "ab"), (2, "abcd"),
                                               (1, string.ascii_lowercase)])
    def test_class_step_is_the_per_machine_step(self, monkeypatch, size, alphabet):
        alphabet = tuple(alphabet)
        gens = _letter_generators(len(alphabet))
        index, firsts, minimal = {}, [], []
        for i in range(dfa_count(size, len(alphabet))):
            d = decode_dfa(i, size, alphabet)
            key = minimal_rows(d.transitions, 0, d.finals)
            if key not in index:
                index[key] = len(firsts)
                firsts.append(i)
                minimal.append(Dfa(len(key[0][0]), alphabet, key[0], 0, key[1]))
        images = [
            [index[minimal_rows([d.transitions[s] for s in g], 0, d.finals)] for d in minimal]
            for g in gens
        ]
        calls = []

        def counted(*args):
            calls.append(1)
            return minimal_rows(*args)

        monkeypatch.setattr(harness, "minimal_rows", counted)
        assert _classes(size, alphabet, gens) == (firsts, images, minimal)
        # a final set's complement is keyed off its own refinement
        assert 2 * len(calls) == dfa_count(size, len(alphabet))

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_images_are_the_renamed_languages(self, sigma):
        alphabet = tuple("abc"[:sigma])
        gens = _letter_generators(sigma)
        firsts, images, _ = _classes(2, alphabet, gens)
        languages = [_words(decode_dfa(i, 2, alphabet), 3) for i in firsts]
        for g, image in zip(gens, images, strict=True):
            # the machine with rows in order g reads letter g[s] as s
            rename = str.maketrans({alphabet[g[s]]: alphabet[s] for s in range(sigma)})
            for x, y in enumerate(image):
                assert languages[y] == {w.translate(rename) for w in languages[x]}

    @pytest.mark.parametrize("op,count", [("revcat", 114), ("starcat", 69)])
    def test_left_classes_are_the_left_languages(self, op, count):
        alphabet = ("a", "b", "c")
        gens = _letter_generators(3)
        classes = _classes(2, alphabet, gens)
        firsts, images, counts, heads = _left_classes(op, classes)
        blocks = {}  # the left NFA's minimal DFA -> its machines, in order
        for i in range(dfa_count(2, 3)):
            nfa = REF_LEFT[op](decode_dfa(i, 2, alphabet))
            blocks.setdefault(minimize_hopcroft(determinize(nfa)[0]), []).append(i)
        keys = list(blocks)
        assert firsts == [block[0] for block in blocks.values()]
        assert len(firsts) == count
        assert counts == [(d.state_count, len(d.finals)) for d in keys]
        # each class's head's left masks accept its left language
        lefts = [OPS[op].left(d) for d in heads]
        assert [minimize_hopcroft(subset_dfa(alphabet, *masks)) for masks in lefts] == keys
        # reversal is a bijection on languages, so revcat keeps the classes
        assert ((firsts, images) == classes[:2]) == (op == "revcat")
        for g, image in zip(gens, images, strict=True):
            for x, y in enumerate(image):
                d = keys[x]
                renamed = dataclasses.replace(
                    d, transitions=tuple(d.transitions[s] for s in g)
                )
                assert equivalent(renamed, keys[y]), (op, x, g)

    # revcat's classes, with their (r, k) read off the reversal's subset
    # construction, against the keyed merge starcat uses
    @pytest.mark.parametrize("size,alphabet", [(2, "abc"), (3, "ab"), (1, "abcd")])
    def test_revcat_left_classes_are_the_keyed_merge(self, size, alphabet):
        alphabet = tuple(alphabet)
        classes = _classes(size, alphabet, _letter_generators(len(alphabet)))
        firsts, images, counts, heads = _left_classes("revcat", classes)
        assert (firsts, images, counts) == _keyed_left_classes("revcat", classes)[:3]
        assert heads is classes[2]
        # the reference is starcat's own merge
        assert _left_classes("starcat", classes) == _keyed_left_classes("starcat", classes)

    def test_generators_generate_every_permutation(self):
        assert [len(_letter_generators(k)) for k in (1, 2, 3, 26)] == [0, 1, 2, 2]
        group = {tuple(range(4))}
        frontier = list(group)
        while frontier:
            p = frontier.pop()
            for g in _letter_generators(4):
                q = tuple(p[s] for s in g)
                if q not in group:
                    group.add(q)
                    frontier.append(q)
        assert len(group) == 24

    # at (3, 2) many of the 5,832 machines have smaller minimal machines,
    # whose renamings _classes keys without decoding any machine
    @pytest.mark.parametrize("size,sigma", [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_index_arithmetic(self, size, sigma):
        alphabet = tuple("abc"[:sigma])
        machines = [decode_dfa(i, size, alphabet) for i in range(dfa_count(size, sigma))]
        # each machine's decode index, by its table
        index_of = {(d.transitions, d.finals): i for i, d in enumerate(machines)}
        # every machine's class, numbered in order of first index
        ids = {}
        class_of = [ids.setdefault(minimize_hopcroft(d), len(ids)) for d in machines]
        # a generator sends a class to the class of its first machine
        # with the rows taken in the generator's order
        gens = _letter_generators(sigma)
        firsts, images, _ = _classes(size, alphabet, gens)
        assert len(firsts) == len(ids)
        for g, image in zip(gens, images, strict=True):
            for i, y in zip(firsts, image, strict=True):
                d = machines[i]
                rows = tuple(d.transitions[s] for s in g)
                assert y == class_of[index_of[rows, d.finals]], (i, g)
                renamed = dataclasses.replace(d, transitions=rows)
                assert equivalent(renamed, machines[firsts[y]]), (i, g)

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    def test_renaming_letters_keeps_the_oracle_size(self, op):
        rng = random.Random(29)
        for _ in range(150):
            alphabet = tuple("abcd"[: rng.randint(1, 4)])
            a = random_complete_dfa(rng, rng.randint(1, 4), alphabet)
            b = random_complete_dfa(rng, rng.randint(1, 4), alphabet)
            perm = list(range(len(alphabet)))
            rng.shuffle(perm)
            pa, pb = (
                dataclasses.replace(d, transitions=tuple(d.transitions[s] for s in perm))
                for d in (a, b)
            )
            assert oracle_sc(op, pa, pb) == oracle_sc(op, a, b), (a, b, perm)


class TestRandomChecks:
    def test_random_dfa_shape_and_determinism(self):
        a = random_dfa(random.Random(9), 3, ("a", "b"))
        b = random_dfa(random.Random(9), 3, ("a", "b"))
        assert a == b
        assert a.state_count == 3
        assert len(a.transitions) == 2
        assert all(len(row) == 3 for row in a.transitions)
        assert 0 <= a.initial < 3

    def test_random_check_all_pass(self):
        reports = random_check(50, 4, 4, 2, 7)
        assert len(reports) == 50
        assert all(r.passed for r in reports)

    def test_random_check_reports_a_separating_word(self, monkeypatch):
        # every route's direct machine (for masks, their subset
        # construction) with the finality of its last state reached
        # breadth-first flipped: every report whose route builds a machine
        # of its own fails on language, with a word that exactly one of
        # the two machines accepts.  revcat with n >= 2 or m = 1 has no
        # direct machine to break, so those reports pass unchanged.
        def flip(d):
            reached = [d.initial]
            for q in reached:
                reached += {row[q] for row in d.transitions}.difference(reached)
            return dataclasses.replace(d, finals=d.finals ^ {reached[-1]})

        unpatched = random_check(30, 3, 3, 2, 5)
        for op in harness.COMPOSE_OPS:
            def broken(a, b, route=OPS[op].route):
                d, bound, k1 = route(a, b)
                if isinstance(d, tuple):
                    d = subset_dfa(a.alphabet, *d)
                return (None if d is None else flip(d)), bound, k1

            monkeypatch.setitem(
                harness.OPS, op, dataclasses.replace(OPS[op], route=broken)
            )
        reports = random_check(30, 3, 3, 2, 5)
        rng = random.Random(5)
        unbroken = 0
        for r, before in zip(reports, unpatched):
            # replay random_check's draws to rebuild the pair
            op = rng.choice(harness.COMPOSE_OPS)
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            alphabet = harness._alphabet(rng.randint(1, 2))
            a, b = random_dfa(rng, m, alphabet), random_dfa(rng, n, alphabet)
            assert (r.op, r.m, r.n) == (op, m, n)
            direct = harness.OPS[op].route(a, b)[0]
            if direct is None:
                assert op == "revcat" and (n >= 2 or m == 1)
                assert r.passed and r.word is None and r == before
                unbroken += 1
                continue
            assert not r.passed and r.word is not None
            assert run_word(direct, r.word) != run_word(
                oracle_pipeline(op, a, b), r.word
            )
            assert str(r).endswith(" FAIL word=" + (r.word or '""'))
        assert 0 < unbroken < len(reports)

    def test_passing_reports_carry_no_word(self):
        for r in random_check(20, 3, 3, 2, 5):
            assert r.passed and r.word is None
            assert str(r).endswith(" PASS")

    def test_random_check_is_deterministic(self):
        assert random_check(10, 3, 3, 2, 11) == random_check(10, 3, 3, 2, 11)

    def test_zero_trials(self):
        assert random_check(0, 3, 3, 2, 1) == []


def _count_and_blocks(op, a, b):
    """minimal_count and the Hopcroft block count of the oracle's subset
    construction for (a, b), and its subset count."""
    move, start, final_mask = _oracle_masks(OPS[op].left, a, b)
    rows, finals, subsets = automata.subset_construction(move, start, final_mask)
    groups = automata._grouped_walk(move, start, b.state_count)[0]
    count = automata.minimal_count(move, final_mask, groups, b.state_count)
    return count, len(automata.hopcroft_refine(rows, finals)[0]), len(subsets)


def _reverse_subsets(move, final_mask):
    """The subsets of the reversed masks reachable from final_mask, by a
    plain breadth-first walk: on a symbol, a subset goes to the states
    whose entry meets it."""
    seen = {final_mask}
    queue = [final_mask]
    for r in queue:
        for row in move:
            nxt = sum(1 << q for q, t in enumerate(row) if t & r)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


class TestMinimalCount:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_witness_cells(self, op):
        # starcat-special is starcat on its own witnesses
        oracle_op = "revcat" if op == "revcat" else "starcat"
        decided = []
        for m in range(2, 8):
            for n in range(1, 8):
                a, b = OPS[op].witness(m, n)
                count, blocks, _ = _count_and_blocks(op, a, b)
                assert count in (None, blocks) and blocks == oracle_sc(oracle_op, a, b)
                decided.append(count is not None)
        # the largest cells of the general families are counted, not refined
        assert decided[-1] == (op != "starcat-special")

    @pytest.mark.parametrize("op", harness.COMPOSE_OPS)
    def test_all_pairs_of_one_and_two_state_machines(self, op):
        decided = 0
        for alphabet in (("a",), ("a", "b")):
            machines = [
                decode_dfa(i, size, alphabet)
                for size in (1, 2)
                for i in range(dfa_count(size, len(alphabet)))
            ]
            for a in machines:
                for b in machines:
                    count, blocks, _ = _count_and_blocks(op, a, b)
                    assert count in (None, blocks) and blocks == oracle_sc(op, a, b)
                    decided += count is not None
        assert decided > 0

    def test_seeded_random_pairs(self):
        rng = random.Random(27)
        decided = 0
        for _ in range(400):
            op = rng.choice(harness.COMPOSE_OPS)
            alphabet = harness._alphabet(rng.randint(1, 3))
            a = random_dfa(rng, rng.randint(1, 6), alphabet)
            b = random_dfa(rng, rng.randint(1, 6), alphabet)
            count, blocks, _ = _count_and_blocks(op, a, b)
            assert count in (None, blocks) and blocks == oracle_sc(op, a, b)
            decided += count is not None
        assert decided > 0

    def test_starcat_fresh_state_merges_with_the_initial_one(self):
        # the star's fresh state copies a's initial state's moves and, like
        # every left state of the catenation, is not final: one class.  At
        # (2, 4) the subsets it and a's initial state stand in are the same
        # language, so the count is one below the oracle's subsets
        a, b = OPS["starcat"].witness(2, 4)
        move, _, final_mask = _oracle_masks(OPS["starcat"].left, a, b)
        fresh, initial = b.state_count + a.state_count, b.state_count + a.initial
        assert [row[fresh] for row in move] == [row[initial] for row in move]
        count, blocks, subsets = _count_and_blocks("starcat", a, b)
        assert count == blocks == subsets - 1 == sc_starcat(2, 4) == 23
        assert verify_witness("starcat", 2, 4).minimal == 23

    def test_no_private_word(self):
        # b accepts every word, so a word accepted from one left state is
        # accepted from every state its run reaches: some classes share
        # every reverse subset they are in
        a, b = OPS["revcat"].witness(2, 1)
        move, start, final_mask = _oracle_masks(OPS["revcat"].left, a, b)
        subsets = automata.subset_construction(move, start, final_mask)[2]
        assert len(_reverse_subsets(move, final_mask)) <= len(subsets)
        groups = automata._grouped_walk(move, start, b.state_count)[0]
        assert automata.minimal_count(move, final_mask, groups, b.state_count) is None
        r = verify_witness("revcat", 2, 1)
        assert r.minimal == sc_revcat(2, 1) and r.passed

    def test_reverse_walk_past_the_cap(self):
        # every class has a private word, but only past the forward count
        # of reverse subsets, where the walk stops
        a, b = OPS["revcat"].witness(2, 2)
        move, start, final_mask = _oracle_masks(OPS["revcat"].left, a, b)
        subsets = automata.subset_construction(move, start, final_mask)[2]
        found = _reverse_subsets(move, final_mask)
        assert len(found) > len(subsets) == 12
        union = functools.reduce(int.__or__, subsets)
        assert all(1 << q & union in {r & union for r in found} for q in range(len(move[0])))
        groups = automata._grouped_walk(move, start, b.state_count)[0]
        assert automata.minimal_count(move, final_mask, groups, b.state_count) is None
        r = verify_witness("revcat", 2, 2)
        assert r.minimal == sc_revcat(2, 2) == 12 and r.passed
