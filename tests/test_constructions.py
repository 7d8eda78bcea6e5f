"""Operation constructions: NFA building blocks checked word by word,
direct product DFAs checked against frozenset reimplementations and
against split-enumeration membership oracles."""

import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from statecomp.automata import (
    AlphabetMismatch,
    Dfa,
    accepts,
    determinize,
    equivalent,
    minimize_hopcroft,
    nfa_accepts,
    nfa_from_dfa,
    nfa_masks,
    reverse_masks,
    reverse_nfa,
)
from statecomp.bounds import (
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)
from statecomp.constructions import (
    ShapeError,
    revcat_n1_direct,
    star_masks,
    star_nfa,
    starcat_general_direct,
)
from statecomp.harness import combined, oracle_pipeline
from statecomp.serialize import parse_document
from statecomp.witnesses import (
    empty_dfa,
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_special_witness_A,
    starcat_special_witness_B,
    starcat_witness_A,
    starcat_witness_B,
)

from helpers import (
    all_words,
    catenation_nfa,
    machine,
    random_complete_dfa,
    ref_reverse_nfa,
    ref_revcat,
    ref_revcat_n1,
    ref_starcat_general,
    ref_starcat_special,
    ref_star_nfa,
    reference,
    run_word,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _random_general_pair(rng, m_max, n_max, alphabet):
    """Random operand pair fitting the general star-catenation shape."""
    while True:
        a = random_complete_dfa(rng, rng.randint(2, m_max), alphabet)
        if a.finals and a.finals != frozenset((a.initial,)):
            break
    b = random_complete_dfa(rng, rng.randint(2, n_max), alphabet)
    return a, b


class TestReverseNfa:
    def test_edges_are_flipped(self):
        r = reverse_nfa(revcat_witness_M(2))
        assert r.initials == frozenset((1,))
        assert r.finals == frozenset((0,))
        assert r.transitions[0] == (frozenset((1,)), frozenset((0,)))
        assert r.transitions[1] == (frozenset((0, 1)), frozenset())
        assert r.epsilon_edges == frozenset()

    def test_accepts_reversed_words(self):
        rng = random.Random(31)
        for _ in range(15):
            d = random_complete_dfa(rng, rng.randint(1, 4), ("a", "b"))
            r = reverse_nfa(d)
            for w in all_words(("a", "b"), 5):
                assert nfa_accepts(r, w) == run_word(d, w[::-1])


class TestCatenationNfa:
    def test_shape(self):
        a = nfa_from_dfa(revcat_witness_M(2))
        b = revcat_witness_N(2)
        cat = catenation_nfa(a, b)
        assert cat.state_count == 4
        assert cat.initials == frozenset((2 + q for q in a.initials))
        assert cat.finals == b.finals
        assert (3, 0) in cat.epsilon_edges  # a's final 1, shifted -> b's initial

    def test_word_level(self):
        rng = random.Random(32)
        for _ in range(15):
            a = random_complete_dfa(rng, rng.randint(1, 3), ("a", "b"))
            b = random_complete_dfa(rng, rng.randint(1, 3), ("a", "b"))
            cat = catenation_nfa(nfa_from_dfa(a), b)
            for w in all_words(("a", "b"), 5):
                want = any(
                    run_word(a, w[:i]) and run_word(b, w[i:])
                    for i in range(len(w) + 1)
                )
                assert nfa_accepts(cat, w) == want

    def test_with_empty_right_operand(self):
        cat = catenation_nfa(
            nfa_from_dfa(sigma_star_dfa(("a",))), empty_dfa(("a",))
        )
        assert not any(nfa_accepts(cat, w) for w in all_words(("a",), 5))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            catenation_nfa(nfa_from_dfa(revcat_witness_M(2)), revcat_n1_witness(2))


class TestStarNfa:
    def test_fresh_state_shape(self):
        a = starcat_special_witness_A(2)
        st = star_nfa(a)
        fresh = a.state_count
        assert st.initials == frozenset((fresh,))
        assert fresh in st.finals
        assert st.epsilon_edges == frozenset()
        # nothing moves into the fresh state, and it mirrors the initial row
        for row in st.transitions:
            assert all(fresh not in targets for targets in row)
            assert row[fresh] == row[a.initial]

    def test_star_of_empty_is_empty_word(self):
        st = star_nfa(empty_dfa(("a", "b")))
        assert nfa_accepts(st, "")
        assert not any(nfa_accepts(st, w) for w in all_words(("a", "b"), 4) if w)

    def test_even_cycle_language(self):
        st = star_nfa(starcat_special_witness_A(2))
        assert nfa_accepts(st, "")
        assert not nfa_accepts(st, "a")
        assert nfa_accepts(st, "aa")
        assert nfa_accepts(st, "bacab")

    def test_word_level(self):
        rng = random.Random(33)
        for _ in range(15):
            a = random_complete_dfa(rng, rng.randint(1, 3), ("a", "b"))
            st = star_nfa(a)
            for w in all_words(("a", "b"), 5):
                assert nfa_accepts(st, w) == reference.in_star(machine(a), w)


def _left_operands() -> list[Dfa]:
    """Seeded random DFAs over one to three letters, each also with no
    finals, with every state final and with its initial state final, and
    one-state machines with and without a final state."""
    rng = random.Random(34)
    out = []
    for _ in range(40):
        d = random_complete_dfa(rng, rng.randint(1, 6), "abc"[: rng.randint(1, 3)])
        out += [
            d,
            replace(d, finals=frozenset()),
            replace(d, finals=frozenset(range(d.state_count))),
            replace(d, finals=d.finals | {d.initial}),
        ]
    for alphabet in (("a",), ("a", "b"), ("a", "b", "c")):
        loops = tuple((0,) for _ in alphabet)
        out += [Dfa(1, alphabet, loops, 0, frozenset(f)) for f in ((), (0,))]
    return out


class TestLeftMasks:
    # the library states each left construction once, as masks; its Nfa
    # and its masks must be the frozenset references' own
    def test_reversal_is_the_reference(self):
        for d in _left_operands():
            ref = ref_reverse_nfa(d)
            assert reverse_nfa(d) == ref, d
            assert nfa_masks(reverse_nfa(d)) == reverse_masks(d) == nfa_masks(ref), d

    def test_star_is_the_reference(self):
        for d in _left_operands():
            ref = ref_star_nfa(d)
            assert star_nfa(d) == ref, d
            assert nfa_masks(star_nfa(d)) == star_masks(d) == nfa_masks(ref), d


class TestRevcatDirect:
    # revcat's direct route for n >= 2 is the oracle's pipeline
    def test_matches_frozenset_reference(self):
        rng = random.Random(41)
        pairs = [(revcat_witness_M(3), revcat_witness_N(3))]
        for _ in range(25):
            a = random_complete_dfa(rng, rng.randint(1, 4), ("a", "b"))
            b = random_complete_dfa(rng, rng.randint(1, 4), ("a", "b"))
            pairs.append((a, b))
        for _ in range(30):
            alphabet = "abc"[: rng.randint(1, 3)]
            a = random_complete_dfa(rng, rng.randint(1, 5), alphabet)
            b = random_complete_dfa(rng, rng.randint(1, 5), alphabet)
            pairs.append((a, b))
        for a, b in pairs:
            assert oracle_pipeline("revcat", a, b) == ref_revcat(a, b)[0]

    def test_reference_pairs_satisfy_the_coupling(self):
        rng = random.Random(42)
        for _ in range(10):
            a = random_complete_dfa(rng, 3, ("a", "b"))
            b = random_complete_dfa(rng, 3, ("a", "b"))
            _, order = ref_revcat(a, b)
            for i, j in order:
                if a.initial in i:
                    assert b.initial in j

    def test_word_level(self):
        rng = random.Random(43)
        for _ in range(12):
            a = random_complete_dfa(rng, rng.randint(1, 3), ("a", "b", "c"))
            b = random_complete_dfa(rng, rng.randint(1, 3), ("a", "b", "c"))
            d = oracle_pipeline("revcat", a, b)
            for w in all_words(("a", "b", "c"), 4):
                assert accepts(d, w) == reference.member(
                    "revcat", machine(a), machine(b), w
                )

    def test_witness_pair_counts(self):
        d = oracle_pipeline("revcat", revcat_witness_M(2), revcat_witness_N(2))
        assert d.state_count == 12
        assert minimize_hopcroft(d).state_count == 12
        assert oracle_pipeline(
            "revcat", revcat_witness_M(3), revcat_witness_N(2)
        ).state_count == 24

    def test_reachable_count_never_exceeds_bound(self):
        rng = random.Random(44)
        for _ in range(60):
            m = rng.randint(2, 4)
            n = rng.randint(2, 4)
            a = random_complete_dfa(rng, m, ("a", "b", "c"))
            b = random_complete_dfa(rng, n, ("a", "b", "c"))
            assert oracle_pipeline("revcat", a, b).state_count <= ub_revcat(m, n)

    def test_unary_alphabet_reduces_to_plain_catenation(self):
        # over one letter every word is its own reversal
        rng = random.Random(45)
        for _ in range(10):
            a = random_complete_dfa(rng, rng.randint(1, 4), ("a",))
            b = random_complete_dfa(rng, rng.randint(1, 4), ("a",))
            plain, _ = determinize(catenation_nfa(nfa_from_dfa(a), b))
            assert equivalent(oracle_pipeline("revcat", a, b), plain)


class TestRevcatN1Direct:
    def test_rejecting_right_operand(self):
        d = revcat_n1_direct(revcat_n1_witness(3), False)
        assert d == empty_dfa(revcat_n1_witness(3).alphabet)

    def test_exact_machine_m2(self):
        d = revcat_n1_direct(revcat_n1_witness(2), True)
        assert d.transitions == ((1, 1, 2), (2, 1, 2))
        assert d.initial == 0
        assert d.finals == frozenset((1,))

    def test_exact_machine_m3(self):
        d = revcat_n1_direct(revcat_n1_witness(3), True)
        assert d.transitions == ((1, 3, 2, 3, 3), (2, 4, 2, 3, 4), (1, 0, 2, 3, 4))
        assert d.finals == frozenset((3,))

    @pytest.mark.parametrize("m", range(2, 8))
    def test_witness_counts(self, m):
        d = revcat_n1_direct(revcat_n1_witness(m), True)
        assert d.state_count == 2 ** (m - 1) + 1 == sc_revcat(m, 1)
        assert minimize_hopcroft(d).state_count == d.state_count

    def test_word_level(self):
        rng = random.Random(46)
        for _ in range(12):
            a = random_complete_dfa(rng, rng.randint(2, 4), ("a", "b"))
            d = revcat_n1_direct(a, True)
            anything = sigma_star_dfa(a.alphabet)
            for w in all_words(("a", "b"), 5):
                assert accepts(d, w) == reference.member(
                    "revcat", machine(a), machine(anything), w
                )

    def test_every_small_machine_matches_the_reference(self):
        # every complete machine of 1-3 states over 1-2 letters, with
        # every final set and every initial state
        for n, alphabet in product((1, 2, 3), (("a",), ("a", "b"))):
            for flat in product(range(n), repeat=n * len(alphabet)):
                rows = tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))
                for bits in product((False, True), repeat=n):
                    finals = frozenset(q for q in range(n) if bits[q])
                    for initial in range(n):
                        m = Dfa(n, alphabet, rows, initial, finals)
                        assert revcat_n1_direct(m, True) == ref_revcat_n1(m), m

    def test_random_machines_match_the_reference(self):
        rng = random.Random(47)
        for _ in range(1000):
            size = rng.randint(1, 12)
            m = random_complete_dfa(rng, size, "abcd"[: rng.randint(1, 4)])
            assert revcat_n1_direct(m, True) == ref_revcat_n1(m), m

    def test_sink_is_absorbing(self):
        d = revcat_n1_direct(revcat_n1_witness(4), True)
        (sink,) = d.finals
        assert all(row[sink] == sink for row in d.transitions)


class TestStarcatSpecialDirect:
    """starcat_general_direct on the special shape: a's only final state
    is its initial state."""

    def test_matches_frozenset_reference(self):
        rng = random.Random(51)
        pairs = [(starcat_special_witness_A(3), starcat_special_witness_B(3))]
        for _ in range(25):
            a = random_complete_dfa(rng, rng.randint(2, 4), ("a", "b"))
            a = replace(a, finals=frozenset((a.initial,)))
            b = random_complete_dfa(rng, rng.randint(2, 4), ("a", "b"))
            pairs.append((a, b))
        for _ in range(30):
            alphabet = "abc"[: rng.randint(1, 3)]
            a = random_complete_dfa(rng, rng.randint(1, 5), alphabet)
            a = replace(a, finals=frozenset((a.initial,)))
            b = random_complete_dfa(rng, rng.randint(2, 5), alphabet)
            pairs.append((a, b))
        for a, b in pairs:
            assert starcat_general_direct(a, b) == ref_starcat_special(a, b)[0]

    def test_reference_pairs_satisfy_the_coupling(self):
        a = starcat_special_witness_A(3)
        b = starcat_special_witness_B(3)
        _, order = ref_starcat_special(a, b)
        for q, t in order:
            assert t  # the right component never empties
            if q == a.initial:
                assert b.initial in t

    def test_word_level(self):
        rng = random.Random(52)
        for _ in range(12):
            a = random_complete_dfa(rng, rng.randint(2, 3), ("a", "b"))
            a = replace(a, finals=frozenset((a.initial,)))
            b = random_complete_dfa(rng, rng.randint(2, 3), ("a", "b"))
            d = starcat_general_direct(a, b)
            for w in all_words(("a", "b"), 5):
                assert accepts(d, w) == reference.member(
                    "starcat", machine(a), machine(b), w
                )

    def test_witness_pair_counts(self):
        d = starcat_general_direct(
            starcat_special_witness_A(2), starcat_special_witness_B(2)
        )
        assert d.state_count == 5 == sc_starcat_special(2, 2)
        assert minimize_hopcroft(d).state_count == 5
        assert starcat_general_direct(
            starcat_special_witness_A(2), starcat_special_witness_B(3)
        ).state_count == 11

    def test_reachable_count_never_exceeds_bound(self):
        rng = random.Random(53)
        for _ in range(60):
            m = rng.randint(2, 4)
            n = rng.randint(2, 4)
            a = random_complete_dfa(rng, m, ("a", "b", "c"))
            a = replace(a, finals=frozenset((a.initial,)))
            b = random_complete_dfa(rng, n, ("a", "b", "c"))
            assert (
                starcat_general_direct(a, b).state_count
                <= sc_starcat_special(m, n)
            )

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            starcat_general_direct(
                starcat_special_witness_A(2), sigma_star_dfa(("a", "b", "c"))
            )


class TestStarcatGeneralDirect:
    def test_matches_frozenset_reference(self):
        rng = random.Random(61)
        pairs = [(starcat_witness_A(3), starcat_witness_B(3))]
        pairs += [_random_general_pair(rng, 4, 4, ("a", "b")) for _ in range(25)]
        # the start set is {a.initial, b.initial} whether or not a's
        # initial state is final: both kinds, one to three letters
        for k in range(30):
            a, b = _random_general_pair(rng, 5, 5, "abc"[: rng.randint(1, 3)])
            finals = a.finals | {a.initial} if k % 2 else a.finals - {a.initial}
            a = replace(a, finals=finals)
            pairs.append((a, b))
        for a, b in pairs:
            assert starcat_general_direct(a, b) == ref_starcat_general(a, b)[0]

    def test_reference_pairs_satisfy_the_coupling(self):
        rng = random.Random(62)
        for _ in range(10):
            a, b = _random_general_pair(rng, 3, 3, ("a", "b"))
            _, order = ref_starcat_general(a, b)
            for p, t in order:
                assert p and t
                if p & a.finals:
                    assert a.initial in p and b.initial in t

    def test_word_level(self):
        rng = random.Random(63)
        for _ in range(12):
            a, b = _random_general_pair(rng, 3, 3, ("a", "b"))
            d = starcat_general_direct(a, b)
            for w in all_words(("a", "b"), 5):
                assert accepts(d, w) == reference.member(
                    "starcat", machine(a), machine(b), w
                )

    def test_witness_pair_counts(self):
        d = starcat_general_direct(starcat_witness_A(2), starcat_witness_B(2))
        assert d.state_count == 5 == ub_starcat_general(2, 2, 1)
        assert minimize_hopcroft(d).state_count == 5 == sc_starcat(2, 2)
        d = starcat_general_direct(starcat_witness_A(3), starcat_witness_B(3))
        assert d.state_count == 29 == ub_starcat_general(3, 3, 1)
        assert minimize_hopcroft(d).state_count == 29 == sc_starcat(3, 3)

    def test_reachable_count_never_exceeds_bound(self):
        rng = random.Random(64)
        for _ in range(200):
            a, b = _random_general_pair(rng, 5, 5, ("a", "b", "c"))
            k1 = len(a.finals - {a.initial})
            assert (
                starcat_general_direct(a, b).state_count
                <= ub_starcat_general(a.state_count, b.state_count, k1)
            )

    def test_shape_errors(self):
        a = starcat_witness_A(2)
        no_finals = replace(a, finals=frozenset())
        with pytest.raises(ShapeError):
            starcat_general_direct(no_finals, starcat_witness_B(2))
        with pytest.raises(ShapeError):
            starcat_general_direct(a, sigma_star_dfa(a.alphabet))


class TestCombined:
    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            combined("concat", revcat_witness_M(2), revcat_witness_N(2))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            combined("revcat", revcat_witness_M(2), revcat_n1_witness(2))

    def test_revcat_routes_one_state_right_operand(self):
        m = revcat_n1_witness(3)
        acc = combined("revcat", m, sigma_star_dfa(m.alphabet))
        assert acc == revcat_n1_direct(m, True)
        rej = combined("revcat", m, empty_dfa(m.alphabet))
        assert rej.finals == frozenset()

    def test_revcat_one_state_left_operand(self):
        rhs = parse_document((FIXTURES / "revcat_m1_n2_rhs.json").read_text())
        d = minimize_hopcroft(combined("revcat", sigma_star_dfa(rhs.alphabet), rhs))
        assert d.state_count == 2

    def test_starcat_one_state_right_operand(self):
        a = starcat_witness_A(3)
        assert combined("starcat", a, sigma_star_dfa(a.alphabet)) == sigma_star_dfa(
            a.alphabet
        )
        assert combined("starcat", a, empty_dfa(a.alphabet)) == empty_dfa(a.alphabet)

    def test_starcat_left_operand_without_finals(self):
        a = starcat_witness_A(3)
        hollow = replace(a, finals=frozenset())
        b = starcat_witness_B(3)
        assert combined("starcat", hollow, b) is b

    def test_starcat_routes_by_shape(self):
        sa, sb = starcat_special_witness_A(2), starcat_special_witness_B(2)
        assert combined("starcat", sa, sb) == starcat_general_direct(sa, sb)
        ga, gb = starcat_witness_A(2), starcat_witness_B(2)
        assert combined("starcat", ga, gb) == starcat_general_direct(ga, gb)
