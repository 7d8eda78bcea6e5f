"""Core automata algebra: representation, determinization, minimization,
equivalence, and distinguishability."""

import dataclasses
import random
import tracemalloc
from itertools import product

import pytest

from statecomp import (
    AlphabetMismatch,
    Dfa,
    Nfa,
    accepts,
    determinize,
    distinguishing_word,
    enumerate_accepted,
    equivalent,
    minimal_size,
    minimize_brzozowski,
    minimize_hopcroft,
    nfa_accepts,
    nfa_from_dfa,
    reverse_nfa,
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_witness_A,
)
from statecomp import automata, harness
from statecomp.automata import TABLE_MAX_STATES, _pair_walk
from statecomp.constructions import catenation_masks

from helpers import (
    all_words,
    machine,
    moore_classes,
    moore_minimal_size,
    random_complete_dfa,
    ref_determinize,
    reference,
    run_word,
)


class TestValidation:
    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            Dfa(2, ("a",), ((0,),), 0, frozenset())

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ValueError):
            Dfa(2, ("a",), ((0, 2),), 0, frozenset())

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            Dfa(2, ("a",), ((0, 1),), 2, frozenset())

    def test_rejects_bad_final(self):
        with pytest.raises(ValueError):
            Dfa(2, ("a",), ((0, 1),), 0, frozenset((5,)))

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Dfa(1, ("a", "a"), ((0,), (0,)), 0, frozenset())

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            Dfa(1, (), (), 0, frozenset())

    def test_rejects_multichar_symbol(self):
        with pytest.raises(ValueError):
            Dfa(1, ("ab",), ((0,),), 0, frozenset())

    def test_nfa_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Nfa(2, ("a",), ((frozenset(), frozenset()),), frozenset((0,)),
                frozenset(((0, 5),)), frozenset())

    @pytest.mark.parametrize("build, message", [
        (lambda: Dfa(0, ("a",), ((),), 0, frozenset()), "a Dfa needs at least one state"),
        (lambda: Nfa(0, ("a",), ((),), frozenset(), frozenset(), frozenset()),
         "an Nfa needs at least one state"),
        (lambda: Dfa(1, ("a", "b"), ((0,),), 0, frozenset()),
         "one transition row per alphabet symbol required"),
        (lambda: Nfa(1, ("a",), (), frozenset((0,)), frozenset(), frozenset()),
         "one transition row per alphabet symbol required"),
        (lambda: Nfa(2, ("a",), ((frozenset(),),), frozenset((0,)), frozenset(), frozenset()),
         "every transition row must cover all states"),
        (lambda: Nfa(2, ("a",), ((frozenset(), frozenset((2,))),), frozenset((0,)),
                     frozenset(), frozenset()),
         "transition target out of range"),
        (lambda: Nfa(2, ("a",), ((frozenset(), frozenset()),), frozenset((2,)),
                     frozenset(), frozenset()),
         "state out of range"),
        (lambda: Nfa(2, ("a",), ((frozenset(), frozenset()),), frozenset((0,)),
                     frozenset(), frozenset((-1,))),
         "state out of range"),
        # every row's length is checked before any row's targets
        (lambda: Dfa(2, ("a", "b"), ((0, 5), (0,)), 0, frozenset()),
         "every transition row must cover all states"),
        (lambda: Nfa(2, ("a", "b"), ((frozenset(), frozenset((5,))), (frozenset(),)),
                     frozenset((0,)), frozenset(), frozenset()),
         "every transition row must cover all states"),
    ], ids=["dfa-no-states", "nfa-no-states", "dfa-rows", "nfa-rows", "nfa-short-row",
            "nfa-target", "nfa-initial", "nfa-final", "dfa-short-row-first",
            "nfa-short-row-first"])
    def test_refusal_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestAccepts:
    def test_traces_into_final(self):
        assert accepts(revcat_witness_M(3), "aa")

    def test_traces_past_final(self):
        assert not accepts(revcat_witness_M(3), "aaa")

    def test_empty_word_is_initial_finality(self):
        m = revcat_witness_M(3)
        assert accepts(m, "") == (m.initial in m.finals)
        s = sigma_star_dfa(("a",))
        assert accepts(s, "") == (s.initial in s.finals)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            accepts(revcat_witness_M(2), "ax")

    def test_nfa_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="^symbol 'x' is not in the alphabet$"):
            nfa_accepts(nfa_from_dfa(revcat_witness_M(2)), "abx")


class TestDeterminize:
    def test_dfa_reinterpreted_is_isomorphic(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_complete_dfa(rng, rng.randint(1, 6), ("a", "b"))
            det, _ = determinize(nfa_from_dfa(d))
            # reachable part only, so compare against the reachable count
            reach = {d.initial}
            stack = [d.initial]
            while stack:
                q = stack.pop()
                for s in range(2):
                    t = d.transitions[s][q]
                    if t not in reach:
                        reach.add(t)
                        stack.append(t)
            assert det.state_count == len(reach)
            assert equivalent(det, d)

    def test_reversal_subsets_at_m2(self):
        det, order = determinize(reverse_nfa(revcat_witness_M(2)))
        assert order == [0b10, 0b01, 0, 0b11]
        assert sorted(det.finals) == [1, 3]

    @pytest.mark.parametrize("m", range(2, 6))
    def test_reversal_subset_counts(self, m):
        det, _ = determinize(reverse_nfa(revcat_witness_M(m)))
        assert det.state_count == 2 ** m
        assert len(det.finals) == 2 ** (m - 1)

    def test_empty_initials_gives_dead_state(self):
        n = Nfa(2, ("a",), ((frozenset((1,)), frozenset()),),
                frozenset(), frozenset(), frozenset((1,)))
        det, order = determinize(n)
        assert det.state_count == 1
        assert det.finals == frozenset()
        assert order == [0]

    def test_epsilon_closure_chain_and_cycle(self):
        # 0 -eps-> 1 -eps-> 2 -eps-> 0, and 2 --a--> 3
        n = Nfa(
            4, ("a",),
            ((frozenset(), frozenset(), frozenset((3,)), frozenset()),),
            frozenset((0,)),
            frozenset(((0, 1), (1, 2), (2, 0))),
            frozenset((3,)),
        )
        det, order = determinize(n)
        assert order[0] == 0b111
        assert nfa_accepts(n, "a")
        assert accepts(det, "a")
        assert not accepts(det, "")

    def test_language_matches_direct_simulation(self):
        rng = random.Random(7)
        for _ in range(25):
            size = rng.randint(1, 6)
            nsym = rng.randint(1, 3)
            alphabet = tuple("abc"[:nsym])
            rows = tuple(
                tuple(
                    frozenset(q for q in range(size) if rng.random() < 0.3)
                    for _ in range(size)
                )
                for _ in range(nsym)
            )
            eps = frozenset(
                (u, v)
                for u in range(size)
                for v in range(size)
                if u != v and rng.random() < 0.08
            )
            n = Nfa(
                size, alphabet, rows,
                frozenset(q for q in range(size) if rng.random() < 0.4),
                eps,
                frozenset(q for q in range(size) if rng.random() < 0.4),
            )
            det, _ = determinize(n)
            max_len = 8 if nsym <= 2 else 6
            got = set(enumerate_accepted(det, max_len))
            want = {w for w in all_words(alphabet, max_len) if nfa_accepts(n, w)}
            assert got == want


def _random_nfa(rng: random.Random, n: int, nsym: int, epsilon: bool) -> Nfa:
    """Up to two targets per state and symbol, two initial draws and,
    with epsilon, n // 3 + 1 random free moves."""
    rows = tuple(
        tuple(
            frozenset(rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 2))))
            for _ in range(n)
        )
        for _ in range(nsym)
    )
    eps = frozenset(
        (rng.randrange(n), rng.randrange(n)) for _ in range(n // 3 + 1 if epsilon else 0)
    )
    initials = frozenset(rng.randrange(n) for _ in range(2))
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, tuple("abcd"[:nsym]), rows, initials, eps, finals)


def _sparse_nfa(rng: random.Random, n: int, nsym: int, epsilon: bool) -> Nfa:
    """At most one target per state and symbol, three initial draws and,
    with epsilon, two random free moves: few subsets however many states."""
    rows = tuple(
        tuple(
            frozenset(rng.randrange(n) for _ in range(rng.choice((0, 1, 1, 1))))
            for _ in range(n)
        )
        for _ in range(nsym)
    )
    eps = frozenset((rng.randrange(n), rng.randrange(n)) for _ in range(2 if epsilon else 0))
    initials = frozenset(rng.randrange(n) for _ in range(3))
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, tuple("abcd"[:nsym]), rows, initials, eps, finals)


def _walk_tables(monkeypatch) -> list:
    """The tables of every _table_walk from now on, in call order."""
    seen = []
    real = automata._table_walk
    monkeypatch.setattr(
        automata, "_table_walk", lambda tables, *rest: seen.append(tables) or real(tables, *rest)
    )
    return seen


class TestSubsetBudget:
    # a one-letter cycle through four states reaches four singletons
    CYCLE = [[2, 4, 8, 1]], 1, 1

    def test_budget_allows_exactly_its_count(self, monkeypatch):
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", 4)
        assert automata.subset_construction(*self.CYCLE)[2] == [1, 2, 4, 8]

    def test_one_subset_past_the_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", 3)
        with pytest.raises(
            automata.BudgetError,
            match="^the subset construction needs more states than the budget of 3$",
        ):
            automata.subset_construction(*self.CYCLE)

    @pytest.mark.parametrize("op", harness.COMPOSE_OPS)
    def test_grouped_walk_is_budgeted_as_the_numbered_walk(self, monkeypatch, op):
        # verify's grouped walk stops where subset_construction stops,
        # with its message
        a, b = harness.OPS[op].witness(3, 3)
        move, start, final_mask = harness._oracle_masks(harness.OPS[op].left, a, b)
        count = len(automata.subset_construction(move, start, final_mask)[2])
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", count)
        assert automata._grouped_walk(move, start, 3)[1] == count
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", count - 1)
        with pytest.raises(automata.BudgetError) as numbered:
            automata.subset_construction(move, start, final_mask)
        with pytest.raises(automata.BudgetError) as grouped:
            automata._grouped_walk(move, start, 3)
        with pytest.raises(automata.BudgetError) as verified:
            harness.verify_witness(op, 3, 3)
        message = f"the subset construction needs more states than the budget of {count - 1}"
        assert str(numbered.value) == str(grouped.value) == str(verified.value) == message

    def test_every_subset_dfa_is_budgeted(self, monkeypatch):
        # the routes, the oracle and Brzozowski all go through subset_dfa
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", 3)
        with pytest.raises(automata.BudgetError):
            minimize_brzozowski(revcat_witness_M(4))


class TestSubsetTables:
    # a walk reads three image tables, one per chunk of a third of the
    # states, rounded up and at most 11 bits; past TABLE_MAX_STATES the
    # third chunk takes every bit from 22 up, and its table is filled in
    # as subsets reach it

    def test_tables_only_up_to_the_bound(self, monkeypatch):
        seen = _walk_tables(monkeypatch)
        for n in (TABLE_MAX_STATES, TABLE_MAX_STATES + 1, 40):
            nfa = _random_nfa(random.Random(n), n, 1, epsilon=False)
            assert determinize(nfa) == ref_determinize(nfa), n
        # three whole 11-state tables at 33 states, two and a lazy one past
        whole = [[len(t) for t in tables if type(t) is list] for tables in seen]
        assert whole == [[2048] * 3, [2048] * 2, [2048] * 2]
        assert [type(tables[2]) for tables in seen[1:]] == [automata._ImageTable] * 2

    # the chunks' widths change with every third size, so every size up
    # to the table bound and one past it; at 40, 45, 56 and 66 the high
    # chunk is wider than 11, 22 and 33 bits.  One-letter and sparse
    # machines keep the subset counts small
    @pytest.mark.parametrize("n", [*range(1, TABLE_MAX_STATES + 2), 40, 45, 56, 66])
    def test_chunk_bounds(self, n, monkeypatch):
        seen = _walk_tables(monkeypatch)
        rng = random.Random(2000 + n)
        for k in range(8):
            if k < 4:
                nfa = _random_nfa(rng, n, 1, epsilon=k % 2 == 1)
            else:
                nfa = _sparse_nfa(rng, n, k % 3 + 2, epsilon=k >= 6)
            det, order = determinize(nfa)
            assert (det, order) == ref_determinize(nfa), (n, k)
            tables = seen[-1]
            assert all(len(t) <= 2048 for t in tables if type(t) is list), (n, k)
            if n > TABLE_MAX_STATES:
                # entries only at the high chunks the subsets have, each
                # the entry _subset_table would hold there
                lazy = tables[2]
                assert set(lazy) == {key >> 22 for key in order}, (n, k)
                for j, image in lazy.items():
                    bits = [p for q, p in enumerate(lazy.packed) if j >> q & 1]
                    assert image == automata._subset_table(bits)[-1], (n, k, j)

    def test_lazy_chunk_under_load(self, monkeypatch):
        # two letters and 36 states, about 3 % of the entries with a
        # second target: 10,069 subsets over 211 values of the high chunk
        seen = _walk_tables(monkeypatch)
        rng = random.Random(3)
        rows = tuple(
            tuple(
                frozenset(rng.randrange(36) for _ in range(2 if rng.random() < 0.03 else 1))
                for _ in range(36)
            )
            for _ in "ab"
        )
        initials = frozenset((rng.randrange(36),))
        finals = frozenset(q for q in range(36) if rng.random() < 0.3)
        nfa = Nfa(36, ("a", "b"), rows, initials, frozenset(), finals)
        det, order = determinize(nfa)
        assert (det, order) == ref_determinize(nfa)
        lazy = seen[-1][2]
        assert type(lazy) is automata._ImageTable
        assert set(lazy) == {key >> 22 for key in order}
        assert len(order) >= 5000 and len(lazy) >= 100

    @pytest.mark.parametrize("n", range(1, 21))
    def test_same_rows_finals_and_order_as_frozensets(self, n):
        rng = random.Random(1000 + n)
        for k in range(8):
            nsym = k % 4 + 1
            nfa = _random_nfa(rng, n, nsym, epsilon=k >= 4)
            assert determinize(nfa) == ref_determinize(nfa), (n, k)

    @pytest.mark.parametrize("m", [9, 12])
    def test_every_table_entry(self, m):
        # the reversed witness reaches all 2^m subsets, so every entry of
        # every table is looked up
        nfa = reverse_nfa(revcat_witness_M(m))
        det, order = determinize(nfa)
        assert sorted(order) == list(range(2 ** m))
        assert (det, order) == ref_determinize(nfa)


class TestMinimize:
    def test_witness_already_minimal(self):
        assert minimize_hopcroft(revcat_witness_M(3)).state_count == 3

    def test_equivalent_final_sinks_merge(self):
        # two final sink states reached on different symbols, otherwise minimal
        d = Dfa(3, ("a", "b"), ((1, 1, 2), (2, 1, 2)), 0, frozenset((1, 2)))
        assert minimize_hopcroft(d).state_count == d.state_count - 1

    def test_unreachable_states_dropped(self):
        d = Dfa(3, ("a",), ((1, 0, 2),), 0, frozenset((1, 2)))
        assert minimize_hopcroft(d).state_count == 2

    def test_dead_state_kept(self):
        # the empty language still needs its one (dead) state
        d = Dfa(3, ("a",), ((1, 2, 2),), 0, frozenset())
        out = minimize_hopcroft(d)
        assert out.state_count == 1
        assert out.finals == frozenset()

    @pytest.mark.parametrize("m", range(2, 6))
    def test_reversal_machine_minimal(self, m):
        det, _ = determinize(reverse_nfa(revcat_witness_M(m)))
        assert minimize_hopcroft(det).state_count == 2 ** m
        assert minimize_brzozowski(det).state_count == 2 ** m

    def test_brzozowski_on_one_state(self):
        assert minimize_brzozowski(sigma_star_dfa(("a", "b"))).state_count == 1

    def test_three_minimizers_agree(self):
        rng = random.Random(99)
        machines = [
            random_complete_dfa(
                rng, rng.randint(1, 8), tuple("abcd"[: rng.randint(1, 4)])
            )
            for _ in range(150)
        ]
        # 30-300 states: each state is a clone of a state of a random core
        # machine of at most 8 states, and each edge lands on a random clone
        # of the core's target.  Minimization then merges many states while
        # Brzozowski's subsets stay at most 2^8.  The core's final set runs
        # from none through one state, a random set, all but one, to all.
        rng = random.Random(100)
        for k in range(60):
            core = random_complete_dfa(
                rng, rng.randint(1, 8), tuple("abcd"[: rng.randint(1, 4)])
            )
            size = core.state_count
            extra = rng.randint(30, 300) - size
            of = list(range(size)) + [rng.randrange(size) for _ in range(extra)]
            clones = [[q for q, c in enumerate(of) if c == x] for x in range(size)]
            rows = tuple(
                tuple(rng.choice(clones[row[c]]) for c in of) for row in core.transitions
            )
            core_finals = [
                set(), {0}, set(core.finals), set(range(1, size)), set(range(size))
            ][k % 5]
            finals = frozenset(q for q, c in enumerate(of) if c in core_finals)
            initial = rng.randrange(len(of))
            machines.append(Dfa(len(of), core.alphabet, rows, initial, finals))
        # a splitter whose own block splits while it refines (see
        # TestHopcroftRefine.test_splitter_whose_own_block_splits)
        rows = ((5, 0, 1, 0, 5, 3), (5, 1, 4, 2, 4, 0))
        machines.append(Dfa(6, ("a", "b"), rows, 0, frozenset((0, 1, 3))))
        for d in machines:
            h = minimize_hopcroft(d)
            assert h.state_count == minimize_brzozowski(d).state_count
            assert h.state_count == moore_minimal_size(d)
            assert equivalent(h, d)

    def test_minimal_size_counts_reachable_blocks(self):
        # a random core plus states only reachable from each other, whose
        # edges also lead into the core: Hopcroft on the whole table would
        # count their blocks too
        rng = random.Random(41)
        for k in range(120):
            alphabet = tuple("abc"[: k % 3 + 1])
            core = random_complete_dfa(rng, rng.randint(1, 6), alphabet)
            size, extra = core.state_count, rng.randint(1, 4)
            total = size + extra
            rows = tuple(
                row + tuple(rng.randrange(total) for _ in range(extra))
                for row in core.transitions
            )
            finals = frozenset(q for q in range(total) if rng.random() < 0.5)
            d = Dfa(total, alphabet, rows, core.initial, finals)
            assert minimal_size(d) == minimize_hopcroft(d).state_count
            assert minimal_size(d) == moore_minimal_size(d)
            # Brzozowski's count shares no code with Hopcroft's
            assert minimal_size(d) == minimize_brzozowski(d).state_count
            # the canonical table is that of the reachable part, numbered
            # breadth-first from the initial state
            order, number = [d.initial], {d.initial: 0}
            for q in order:
                for row in rows:
                    if row[q] not in number:
                        number[row[q]] = len(order)
                        order.append(row[q])
            part = Dfa(
                len(order),
                alphabet,
                tuple(tuple(number[row[q]] for q in order) for row in rows),
                0,
                frozenset(number[q] for q in finals if q in number),
            )
            assert minimize_hopcroft(d) == minimize_hopcroft(part)

    def test_minimal_size_of_an_unreachable_only_final(self):
        # state 2, the only final state, is unreachable: the language is
        # empty, though refining the whole table gives two blocks
        d = Dfa(3, ("a", "b"), ((1, 0, 0), (0, 1, 2)), 0, frozenset((2,)))
        assert minimal_size(d) == minimize_brzozowski(d).state_count == 1

    def test_minimal_size_with_an_unreachable_twin(self):
        # unreachable state 2 shares state 1's block, so that block is
        # reached and counted once
        d = Dfa(3, ("a",), ((1, 0, 0),), 0, frozenset((1, 2)))
        assert minimal_size(d) == minimize_brzozowski(d).state_count == 2

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(60):
            d = random_complete_dfa(rng, rng.randint(1, 7), ("a", "b"))
            once = minimize_hopcroft(d)
            assert minimize_hopcroft(once).state_count == once.state_count

    def test_deterministic_numbering(self):
        rng = random.Random(3)
        for _ in range(20):
            d = random_complete_dfa(rng, rng.randint(2, 7), ("a", "b", "c"))
            assert minimize_hopcroft(d) == minimize_hopcroft(d)

    def test_double_reversal_preserves_language(self):
        rng = random.Random(21)
        for _ in range(200):
            d = random_complete_dfa(
                rng, rng.randint(1, 7), tuple("abc"[: rng.randint(1, 3)])
            )
            once, _ = determinize(reverse_nfa(d))
            twice, _ = determinize(reverse_nfa(once))
            assert equivalent(twice, d)


class TestHopcroftRefine:
    """hopcroft_refine's partition itself, against Moore's classes."""

    @staticmethod
    def check(rows, finals) -> int:
        reps, block_of = automata.hopcroft_refine(rows, finals)
        # no settled block's flag is left in block_of
        assert all(0 <= b < len(reps) for b in block_of)
        assert len(set(block_of)) == len(reps)
        assert all(block_of[q] == b for b, q in enumerate(reps))
        # the same partition up to renaming: number blocks by first occurrence
        ids: dict[int, int] = {}
        assert [ids.setdefault(b, len(ids)) for b in block_of] == moore_classes(
            rows, finals
        )
        return len(reps)

    def test_random_tables(self):
        # half plain random tables, half clones of a small core machine,
        # so that blocks of many states merge
        rng = random.Random(8)
        for k in range(400):
            n, nsym = rng.randint(1, 60), rng.randint(1, 4)
            if k % 2:
                rows = [[rng.randrange(n) for _ in range(n)] for _ in range(nsym)]
                finals = {q for q in range(n) if rng.random() < 0.5}
            else:
                size = rng.randint(1, min(n, 6))
                of = list(range(size)) + [rng.randrange(size) for _ in range(n - size)]
                clones = [[q for q, c in enumerate(of) if c == x] for x in range(size)]
                core = [[rng.randrange(size) for _ in range(size)] for _ in range(nsym)]
                rows = [[rng.choice(clones[row[c]]) for c in of] for row in core]
                core_finals = {x for x in range(size) if rng.random() < 0.5}
                finals = {q for q, c in enumerate(of) if c in core_finals}
            self.check(rows, frozenset(finals))

    def test_chain_peels_one_state_per_split(self):
        # q -> q + 1, the last state final and looping: every split cuts
        # one state off the front block, and all 2,000 states stay apart
        n = 2000
        rows = [[min(q + 1, n - 1) for q in range(n)]]
        assert self.check(rows, frozenset((n - 1,))) == n

    def test_discrete_partition(self):
        # a cycle with one final state plus a letter to state 0: the
        # cycle alone already tells every state apart
        n = 50
        rows = [[(q + 1) % n for q in range(n)], [0] * n]
        assert self.check(rows, frozenset((7,))) == n

    @pytest.mark.parametrize("finals", [(), (0, 3), (0, 1, 2, 3, 4)])
    def test_nothing_splits(self, finals):
        # every state moves to state 0 on every letter, so only finality
        # tells states apart
        rows = [[0] * 5, [0] * 5]
        want = 1 if len(finals) in (0, 5) else 2
        assert self.check(rows, frozenset(finals)) == want

    def test_splitter_whose_own_block_splits(self):
        # the splitter's own block splits while it refines: reading its
        # states off elems, which the swaps reorder, instead of from a
        # copy taken at the pop gives the wrong partition here
        rows = ((5, 0, 1, 0, 5, 3), (5, 1, 4, 2, 4, 0))
        self.check(rows, frozenset((0, 1, 3)))

    def test_one_target_takes_most_preimages(self):
        # on the first letter most states go to one target and no state
        # goes to the upper half, so one preimage chain runs through most
        # of the table and half the chains are empty
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 80)
            hub = rng.randrange(n // 2)
            crowd = [hub if rng.random() < 0.8 else rng.randrange(n // 2) for _ in range(n)]
            rows = [crowd] + [
                [rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(0, 2))
            ]
            self.check(rows, frozenset(q for q in range(n) if rng.random() < 0.5))

    def test_one_chain_through_every_state(self):
        # every state goes to state 0 on the first letter, a chain of all
        # 500 states; the second letter peels one state off per split
        n = 500
        rows = [[0] * n, [min(q + 1, n - 1) for q in range(n)]]
        assert self.check(rows, frozenset((n - 1,))) == n

    def test_permutation_letters(self):
        # every letter a permutation, so every chain holds one state
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(1, 60)
            rows = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
            self.check(rows, frozenset(q for q in range(n) if rng.random() < 0.3))

    def test_unary_alphabet(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 40)
            rows = [[rng.randrange(n) for _ in range(n)]]
            self.check(rows, frozenset(q for q in range(n) if rng.random() < 0.5))

    @pytest.mark.parametrize("n", [3, 4, 7, 30])
    def test_one_final_state_is_settled_from_the_start(self, n):
        rng = random.Random(30 + n)
        for _ in range(60):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            self.check(rows, frozenset((rng.randrange(n),)))
        # every state goes to the final state: the others all stay together
        assert self.check([[n - 1] * n], frozenset((0,))) == 2

    @pytest.mark.parametrize("n", [3, 4, 7, 30])
    def test_one_nonfinal_state_is_settled_from_the_start(self, n):
        rng = random.Random(40 + n)
        for _ in range(60):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            self.check(rows, frozenset(range(n)) - {rng.randrange(n)})
        assert self.check([[n - 1] * n], frozenset(range(1, n))) == 2

    def test_two_state_blocks_split_into_settled_halves(self):
        # the non-finals {0, 1} and the finals {2, 3}: the finals' preimage
        # {0, 2} cuts each block into two settled states
        assert self.check([[2, 0, 2, 0]], frozenset((2, 3))) == 4

    @pytest.mark.parametrize("j", range(2, 9))
    def test_halving_blocks(self, j):
        # q -> 2q mod 2^j, final when the top bit is set: after i letters
        # the top bit is bit j - 1 - i, so each state's bits tell it apart
        # and Moore's rounds halve every block; Hopcroft's splits cut
        # pairs into two settled states (66 of them at j = 8).  The
        # relabelled copies with a random second letter split in other
        # orders
        n = 1 << j
        rows = [[2 * q % n for q in range(n)]]
        finals = frozenset(range(n // 2, n))
        assert self.check(rows, finals) == n
        rng = random.Random(j)
        for _ in range(20):
            name = rng.sample(range(n), n)
            back = sorted(range(n), key=name.__getitem__)
            shift = [name[rows[0][back[q]]] for q in range(n)]
            other = [rng.randrange(n) for _ in range(n)]
            self.check([shift, other], frozenset(name[q] for q in finals))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("nsym", [1, 2])
    def test_every_table_of_one_or_two_states(self, n, nsym):
        for flat in product(range(n), repeat=n * nsym):
            rows = [flat[s * n : (s + 1) * n] for s in range(nsym)]
            for bits in range(1 << n):
                self.check(rows, frozenset(q for q in range(n) if bits >> q & 1))

    def test_peak_memory_per_state(self):
        # tracemalloc's peak inside the refinement of revcat's (7, 7)
        # oracle table (12,288 states, four letters): about 390 bytes per
        # state (4.8 MB) with one preimage list per (symbol, state), about
        # 225 (2.8 MB) with each symbol's preimages as chains in two flat
        # lists
        left = automata.reverse_masks(revcat_witness_M(7))
        rows, finals, _ = automata.subset_construction(
            *catenation_masks(left, revcat_witness_N(7))
        )
        n = len(rows[0])
        assert n == 12288
        tracemalloc.start()
        try:
            reps, _ = automata.hopcroft_refine(rows, finals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reps) == n
        assert peak < 300 * n


def _first_separating(a: Dfa, p: int, b: Dfa, q: int, max_len: int) -> str | None:
    """The first word of at most max_len symbols, shortest first and then
    in alphabet order, accepted from exactly one of a's state p and b's
    state q, found by trying every word; None if there is none."""
    ma = machine(dataclasses.replace(a, initial=p))
    mb = machine(dataclasses.replace(b, initial=q))
    return next(
        (
            w
            for w in all_words(a.alphabet, max_len)
            if reference.accepts(ma, w) != reference.accepts(mb, w)
        ),
        None,
    )


def _doubled(d: Dfa) -> Dfa:
    """d with each state q split into copies 2q and 2q + 1 of the same
    language: the first symbol moves to the other copy, the rest keep it."""
    rows = tuple(
        tuple(2 * row[q] + (c ^ (s == 0)) for q in range(d.state_count) for c in (0, 1))
        for s, row in enumerate(d.transitions)
    )
    finals = frozenset(2 * q + c for q in d.finals for c in (0, 1))
    return Dfa(2 * d.state_count, d.alphabet, rows, 2 * d.initial, finals)


class TestEquivalent:
    def test_minimization_preserves_language(self):
        d = revcat_witness_N(3)
        assert equivalent(d, minimize_hopcroft(d))

    def test_detects_difference(self):
        assert not equivalent(revcat_witness_M(2), revcat_n1_witness(4))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            equivalent(revcat_witness_M(2), revcat_n1_witness(2))

    def test_agrees_with_word_comparison(self):
        rng = random.Random(13)
        pairs = [
            (
                random_complete_dfa(rng, rng.randint(1, 4), ("a", "b")),
                random_complete_dfa(rng, rng.randint(1, 4), ("a", "b")),
            )
            for _ in range(40)
        ]
        # plus one pair of random machines known to differ
        a = random_complete_dfa(random.Random(5), 4, ("a", "b"))
        b = random_complete_dfa(random.Random(6), 4, ("a", "b"))
        pairs.append((a, b))
        for a, b in pairs:
            separating = [
                w for w in all_words(("a", "b"), 7) if run_word(a, w) != run_word(b, w)
            ]
            # inequivalent DFAs of sizes p and q differ on some word of
            # length at most p + q - 2, here at most 6
            assert equivalent(a, b) == (not separating)
            word = _pair_walk(a, a.initial, b, b.initial)
            if separating:
                assert run_word(a, word) != run_word(b, word)
                # all_words runs shortest first, so nothing shorter separates
                assert len(word) == len(separating[0])
            else:
                assert word is None
        assert separating, "the last pair must be inequivalent"

    @pytest.mark.parametrize(
        "d",
        [revcat_witness_M(5), revcat_witness_N(4), starcat_witness_A(5)]
        + [
            minimize_hopcroft(random_complete_dfa(random.Random(seed), 6, ("a", "b")))
            for seed in (1, 6, 9)
        ],
    )
    def test_doubled_states_against_the_minimal_machine(self, d):
        # a has two copies of each state of b, the minimal machine, so
        # every b-state has two partners: the walk meets the second copy
        # of each after the first and keeps those pairs in its set.  The
        # copy reached last is flipped in finality, so the walk's hit is
        # on a pair in the set.
        a, b = _doubled(d), d
        assert minimize_hopcroft(d) == d
        # a's states in the walk's order: b's state is a function of a's
        reached = [a.initial]
        for u in reached:
            for row in a.transitions:
                if row[u] not in reached:
                    reached.append(row[u])
        assert len(reached) == a.state_count
        assert _pair_walk(a, a.initial, b, b.initial) is None
        last = reached[-1]
        flipped = dataclasses.replace(a, finals=a.finals ^ {last})
        word = _pair_walk(flipped, flipped.initial, b, b.initial)
        # the two machines differ, so trying every word up to the walk's
        # length finds the walk's word, or a shorter or earlier one
        assert word is not None
        assert word == _first_separating(flipped, flipped.initial, b, b.initial, len(word))
        assert run_word(dataclasses.replace(a, finals=frozenset((last,))), word)
        for q in range(d.state_count):
            assert distinguishing_word(a, 2 * q, 2 * q + 1) is None

    def test_pair_walk_peak_memory_per_state(self):
        # tracemalloc's peak inside the walk of starcat's (7, 7) direct
        # machine, the subset construction of its route's masks, against
        # the oracle's (10,050 states, every pair (u, v) with a fresh v),
        # the walk verify falls back to when a route's masks do not just
        # restart the oracle's: about 129 bytes per oracle state with a
        # set of pair ints and a symbol per pair, about 49 with each
        # b-state's first partner in a list and the queue in two lists
        spec = harness.OPS["starcat"]
        a, b = spec.witness(7, 7)
        direct = automata.subset_dfa(a.alphabet, *spec.route(a, b)[0])
        oracle = harness.oracle_pipeline("starcat", a, b)
        n = oracle.state_count
        assert n == 10050
        tracemalloc.start()
        try:
            word = _pair_walk(direct, direct.initial, oracle, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word is None
        assert peak <= 64 * n


class TestDistinguishingWord:
    def test_identical_states(self):
        assert distinguishing_word(revcat_witness_M(3), 1, 1) is None

    def test_final_vs_nonfinal_is_empty_word(self):
        assert distinguishing_word(revcat_witness_M(3), 0, 2) == ""

    def test_one_step(self):
        assert distinguishing_word(revcat_witness_M(3), 0, 1) == "a"

    @pytest.mark.parametrize("p, q, bad", [(0, 3, 3), (-1, 0, -1)])
    def test_state_out_of_range_is_refused(self, p, q, bad):
        with pytest.raises(ValueError, match=f"^state {bad} out of range for 3 states$"):
            distinguishing_word(revcat_witness_M(3), p, q)

    def test_matches_brute_force_shortest_lex_first(self):
        rng = random.Random(17)
        for _ in range(30):
            d = random_complete_dfa(rng, rng.randint(2, 5), ("a", "b", "c"))
            for p in range(d.state_count):
                for q in range(d.state_count):
                    # a difference, if any, shows up within state_count - 1
                    # steps, so scanning words up to length 5 is exhaustive
                    assert distinguishing_word(d, p, q) == _first_separating(d, p, d, q, 5)

    def test_none_exactly_when_states_merge(self):
        rng = random.Random(29)
        for _ in range(25):
            d = random_complete_dfa(rng, rng.randint(2, 6), ("a", "b"))
            full = Dfa(d.state_count, d.alphabet, d.transitions, 0,
                       d.finals)
            for p in range(d.state_count):
                for q in range(d.state_count):
                    merged = equivalent(
                        Dfa(d.state_count, d.alphabet, d.transitions, p, d.finals),
                        Dfa(d.state_count, d.alphabet, d.transitions, q, d.finals),
                    )
                    assert (distinguishing_word(full, p, q) is None) == merged


class TestEnumerateAccepted:
    def test_empty_language(self):
        from statecomp import empty_dfa

        assert enumerate_accepted(empty_dfa(("a", "b")), 3) == []

    def test_unary_sigma_star(self):
        assert enumerate_accepted(sigma_star_dfa(("a",)), 2) == ["", "a", "aa"]

    def test_witness_short_words(self):
        assert enumerate_accepted(revcat_witness_N(2), 1) == ["d"]

    def test_order_and_content(self):
        rng = random.Random(31)
        d = random_complete_dfa(rng, 4, ("a", "b"))
        got = enumerate_accepted(d, 5)
        want = [w for w in all_words(("a", "b"), 5) if run_word(d, w)]
        assert got == want
