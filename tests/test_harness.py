"""Verification harness: oracle pipeline values, witness and
construction reports, the enumeration-based search, and the seeded
random checker."""

import dataclasses
import random
import string

import pytest

from helpers import all_words, moore_minimal_size, random_complete_dfa, run_word
from statecomp import harness
from statecomp.automata import (
    Dfa,
    _moves,
    determinize,
    equivalent,
    minimize_hopcroft,
    state_mask,
)
from statecomp.bounds import sc_revcat, sc_starcat, sc_starcat_special
from statecomp.constructions import catenation_nfa, combined
from statecomp.harness import (
    OPS,
    BoundReport,
    BudgetError,
    SearchResult,
    _classes,
    _index_of,
    _letter_generators,
    _oracle_masks,
    _pair_sizes,
    _renamed_index,
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
        for op, a, b in [
            ("revcat", revcat_witness_M(3), revcat_witness_N(3)),
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
            cat = catenation_nfa(OPS[op].left(a), b)
            move, start, final_mask = _oracle_masks(op, a, b)
            assert (move, start) == _moves(cat), (op, a, b)
            assert final_mask == state_mask(cat.finals)
            assert oracle_pipeline(op, a, b) == determinize(cat)[0]


class TestVerifyWitness:
    def test_revcat(self):
        r = verify_witness("revcat", 3, 3)
        assert r == BoundReport("revcat", 3, 3, None, 48, 48, 48, True)

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

    def test_starcat_special_route(self):
        r = verify_construction(
            "starcat", starcat_special_witness_A(3), starcat_special_witness_B(3)
        )
        assert r.k1 is None
        assert r.formula == sc_starcat_special(3, 3) == 18
        assert r.passed

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
        pairs = [
            (ia, ib) for ia in range(dfa_count(m, 2)) for ib in range(dfa_count(n, 2))
        ]
        sizes = _pair_sizes(op, m, n, alphabet, iter(pairs))
        for (ia, ib), (a, b, size) in zip(pairs, sizes, strict=True):
            assert (a, b) == (decode_dfa(ia, m, alphabet), decode_dfa(ib, n, alphabet))
            nfa = catenation_nfa(OPS[op].left(a), b)
            assert size == moore_minimal_size(determinize(nfa)[0]), (op, ia, ib)

    # argmax pairs as decode_dfa indices, recorded from the Nfa/Dfa
    # pipeline that the bitmask search replaced.  The two |Σ| = 4 rows
    # were recorded from the full search as it was before classes and
    # orbits, when it ran the oracle on every index pair.  The sampled
    # searches draw from 157,464 three-state machines over three letters.
    @pytest.mark.parametrize(
        "op,m,n,sigma,mode,kw,best,ia,ib",
        [
            ("revcat", 2, 2, 3, "full", {}, 12, 22, 70),
            ("starcat", 2, 2, 3, "full", {}, 5, 21, 6),
            ("revcat", 2, 2, 4, "full", {}, 12, 22, 70),
            ("starcat", 2, 2, 4, "full", {}, 5, 21, 6),
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
        pairs = (
            (ia, ib)
            for ia in range(dfa_count(m, sigma))
            for ib in range(dfa_count(n, sigma))
        )
        best, best_pair = -1, None
        for a, b, size in _pair_sizes(op, m, n, alphabet, pairs):
            if size > best:
                best, best_pair = size, (a, b)
        r = exhaustive_search(op, m, n, sigma, "full")
        assert (r.max_minimal, r.argmax) == (best, best_pair)
        assert r.pairs_examined == dfa_count(m, sigma) * dfa_count(n, sigma)

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    def test_one_oracle_run_per_orbit(self, op):
        r = exhaustive_search(op, 2, 2, 3, "full")
        assert (r.pairs_evaluated, r.pairs_examined) == (2516, 65536)
        r = exhaustive_search(op, 2, 3, 3, "sampled", sample_count=50, seed=1)
        assert r.pairs_evaluated == r.pairs_examined == 50

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            exhaustive_search("revcat", 3, 3, 4, "full")
        with pytest.raises(BudgetError):
            exhaustive_search("revcat", 1, 1, 1, "full", budget=3)

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
        firsts, _ = _classes(2, alphabet, [])
        assert firsts == [block[0] for block in by_words.values()]

    @pytest.mark.parametrize("sigma", [2, 3])
    def test_images_are_the_renamed_languages(self, sigma):
        alphabet = tuple("abc"[:sigma])
        gens = _letter_generators(sigma)
        firsts, images = _classes(2, alphabet, gens)
        languages = [_words(decode_dfa(i, 2, alphabet), 3) for i in firsts]
        for g, image in zip(gens, images, strict=True):
            # the machine with rows in order g reads letter g[s] as s
            rename = str.maketrans({alphabet[g[s]]: alphabet[s] for s in range(sigma)})
            for x, y in enumerate(image):
                assert languages[y] == {w.translate(rename) for w in languages[x]}

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

    @pytest.mark.parametrize("size,sigma", [(1, 3), (2, 2), (2, 3), (3, 1)])
    def test_index_arithmetic(self, size, sigma):
        alphabet = tuple("abc"[:sigma])
        for i in range(dfa_count(size, sigma)):
            d = decode_dfa(i, size, alphabet)
            assert _index_of(d.transitions, d.finals) == i
            for g in _letter_generators(sigma):
                renamed = decode_dfa(_renamed_index(i, size, g), size, alphabet)
                assert renamed.transitions == tuple(d.transitions[s] for s in g)
                assert renamed.finals == d.finals

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
        # a direct route with the finality of its last state reached
        # breadth-first flipped: every report fails on language, with a
        # word that exactly one of the two machines accepts
        def broken(op, a, b):
            d = combined(op, a, b)
            reached = [d.initial]
            for q in reached:
                reached += {row[q] for row in d.transitions}.difference(reached)
            return dataclasses.replace(d, finals=d.finals ^ {reached[-1]})

        monkeypatch.setattr(harness, "combined", broken)
        reports = random_check(30, 3, 3, 2, 5)
        rng = random.Random(5)
        for r in reports:
            # replay random_check's draws to rebuild the pair
            op = rng.choice(harness.COMPOSE_OPS)
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            alphabet = harness._alphabet(rng.randint(1, 2))
            a, b = random_dfa(rng, m, alphabet), random_dfa(rng, n, alphabet)
            assert (r.op, r.m, r.n) == (op, m, n)
            assert not r.passed and r.word is not None
            assert run_word(broken(op, a, b), r.word) != run_word(
                oracle_pipeline(op, a, b), r.word
            )
            assert str(r).endswith(" FAIL word=" + (r.word or '""'))

    def test_passing_reports_carry_no_word(self):
        for r in random_check(20, 3, 3, 2, 5):
            assert r.passed and r.word is None
            assert str(r).endswith(" PASS")

    def test_random_check_is_deterministic(self):
        assert random_check(10, 3, 3, 2, 11) == random_check(10, 3, 3, 2, 11)

    def test_zero_trials(self):
        assert random_check(0, 3, 3, 2, 1) == []
