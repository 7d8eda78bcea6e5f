"""Core automata algebra: representation, determinization, minimization,
equivalence, and distinguishability."""

import random

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
)
from statecomp import automata
from statecomp.automata import BIT_LOOP_MAX_STATES, TABLE_MAX_STATES, _pair_walk

from helpers import (
    _bfs_build,
    all_words,
    moore_classes,
    moore_minimal_size,
    random_complete_dfa,
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


def _frozenset_subsets(nfa: Nfa) -> tuple[Dfa, list[int]]:
    """Subset construction on frozensets, numbered breadth-first with
    symbols in alphabet order: the Dfa and its subsets as masks."""
    eps: dict[int, list[int]] = {q: [] for q in range(nfa.state_count)}
    for u, v in nfa.epsilon_edges:
        eps[u].append(v)

    def close(states) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for v in eps[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def step(cur, s):
        return close(t for q in cur for t in nfa.transitions[s][q])

    dfa, order = _bfs_build(
        nfa.alphabet, close(nfa.initials), step, lambda key: bool(key & nfa.finals)
    )
    return dfa, [sum(1 << q for q in key) for key in order]


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


class TestSubsetTables:
    # past BIT_LOOP_MAX_STATES states, up to TABLE_MAX_STATES, a step
    # reads byte-indexed image tables; sizes 1..20 cross the switch (8 to
    # 9) and the byte boundaries (8 to 9, 16 to 17)

    def test_tables_only_between_the_bounds(self, monkeypatch):
        built = []
        real = automata._image_tables
        monkeypatch.setattr(
            automata, "_image_tables", lambda move, n: built.append(n) or real(move, n)
        )
        low, high = BIT_LOOP_MAX_STATES, TABLE_MAX_STATES
        for n in (low, low + 1, high, high + 1):
            nfa = _random_nfa(random.Random(n), n, 1, epsilon=False)
            assert determinize(nfa) == _frozenset_subsets(nfa), n
        assert built == [low + 1, high]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_same_rows_finals_and_order_as_frozensets(self, n):
        rng = random.Random(1000 + n)
        for k in range(8):
            nsym = k % 4 + 1
            nfa = _random_nfa(rng, n, nsym, epsilon=k >= 4)
            assert determinize(nfa) == _frozenset_subsets(nfa), (n, k)

    @pytest.mark.parametrize("m", [9, 12])
    def test_every_table_entry(self, m):
        # the reversed witness reaches all 2^m subsets, so every entry of
        # every table is looked up
        nfa = reverse_nfa(revcat_witness_M(m))
        det, order = determinize(nfa)
        assert sorted(order) == list(range(2 ** m))
        assert (det, order) == _frozenset_subsets(nfa)


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


class TestDistinguishingWord:
    def test_identical_states(self):
        assert distinguishing_word(revcat_witness_M(3), 1, 1) is None

    def test_final_vs_nonfinal_is_empty_word(self):
        assert distinguishing_word(revcat_witness_M(3), 0, 2) == ""

    def test_one_step(self):
        assert distinguishing_word(revcat_witness_M(3), 0, 1) == "a"

    def test_matches_brute_force_shortest_lex_first(self):
        rng = random.Random(17)
        for _ in range(30):
            d = random_complete_dfa(rng, rng.randint(2, 5), ("a", "b", "c"))
            idx = {s: i for i, s in enumerate(d.alphabet)}

            def final_from(start, word):
                state = start
                for ch in word:
                    state = d.transitions[idx[ch]][state]
                return state in d.finals

            for p in range(d.state_count):
                for q in range(d.state_count):
                    got = distinguishing_word(d, p, q)
                    # a difference, if any, shows up within state_count - 1
                    # steps, so scanning words up to length 5 is exhaustive
                    want = next(
                        (
                            w
                            for w in all_words(d.alphabet, 5)
                            if final_from(p, w) != final_from(q, w)
                        ),
                        None,
                    )
                    assert got == want

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
