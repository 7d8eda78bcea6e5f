"""Witness family generators: exact tables at small sizes, structural
invariants at larger ones, and minimality throughout."""

import pytest

from statecomp import oracle_sc, sc_revcat
from statecomp.automata import Dfa, accepts, minimize_hopcroft
from statecomp.witnesses import (
    FAMILIES,
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

from helpers import all_words, machine, moore_minimal_size, reference


class TestExactTables:
    def test_revcat_M_2(self):
        d = revcat_witness_M(2)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.transitions == ((1, 0), (0, 0), (1, 0), (0, 1))
        assert d.initial == 0
        assert d.finals == frozenset((1,))

    def test_revcat_M_3(self):
        d = revcat_witness_M(3)
        assert d.transitions == ((1, 2, 0), (0, 1, 1), (0, 2, 1), (0, 1, 2))
        assert d.finals == frozenset((2,))

    def test_revcat_N_2(self):
        d = revcat_witness_N(2)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.transitions == ((0, 1), (0, 1), (0, 0), (1, 0))
        assert d.finals == frozenset((1,))

    def test_revcat_N_3(self):
        d = revcat_witness_N(3)
        assert d.transitions == ((0, 1, 2), (0, 1, 2), (0, 0, 0), (1, 2, 0))

    def test_revcat_n1_2(self):
        d = revcat_n1_witness(2)
        assert d.alphabet == ("a", "b")
        assert d.transitions == ((1, 0), (0, 0))
        assert d.finals == frozenset((1,))

    def test_revcat_n1_3(self):
        d = revcat_n1_witness(3)
        assert d.alphabet == ("a", "b", "c")
        assert d.transitions == ((1, 2, 0), (0, 1, 1), (0, 2, 1))
        assert d.finals == frozenset((2,))

    def test_revcat_n1_5(self):
        d = revcat_n1_witness(5)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.transitions == (
            (1, 2, 3, 4, 0),
            (0, 1, 2, 3, 3),
            (0, 1, 2, 4, 3),
            (0, 2, 3, 4, 1),
        )
        assert d.finals == frozenset((4,))

    def test_starcat_special_A_2(self):
        d = starcat_special_witness_A(2)
        assert d.alphabet == ("a", "b", "c")
        assert d.transitions == ((1, 0), (0, 1), (0, 1))
        assert d.finals == frozenset((0,))

    def test_starcat_special_B_3(self):
        d = starcat_special_witness_B(3)
        assert d.alphabet == ("a", "b", "c")
        assert d.transitions == ((0, 1, 2), (1, 2, 0), (0, 2, 0))
        assert d.finals == frozenset((2,))

    def test_starcat_A_2(self):
        d = starcat_witness_A(2)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.transitions == ((1, 0), (0, 0), (0, 1), (0, 1))
        assert d.finals == frozenset((1,))

    def test_starcat_A_3(self):
        d = starcat_witness_A(3)
        assert d.transitions == ((1, 2, 0), (0, 2, 0), (0, 1, 2), (0, 1, 2))

    def test_starcat_B_2(self):
        d = starcat_witness_B(2)
        assert d.alphabet == ("a", "b", "c", "d")
        assert d.transitions == ((0, 1), (0, 1), (1, 0), (0, 0))
        assert d.finals == frozenset((1,))


class TestStructure:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_revcat_M_shape(self, m):
        d = revcat_witness_M(m)
        assert d.state_count == m
        assert len(d.alphabet) == 4
        # a is the full cycle, d the identity
        assert d.transitions[0] == tuple((i + 1) % m for i in range(m))
        assert d.transitions[3] == tuple(range(m))
        # b folds only the top state, c swaps only the top two
        assert d.transitions[1][: m - 1] == tuple(range(m - 1))
        assert d.transitions[1][m - 1] == m - 2
        assert d.transitions[2][m - 2] == m - 1
        assert d.transitions[2][m - 1] == m - 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_revcat_N_shape(self, n):
        d = revcat_witness_N(n)
        assert d.state_count == n
        assert d.transitions[2] == (0,) * n
        assert d.transitions[3] == tuple((i + 1) % n for i in range(n))

    @pytest.mark.parametrize("m,width", [(2, 2), (3, 3), (4, 4), (7, 4)])
    def test_revcat_n1_alphabet_grows(self, m, width):
        assert len(revcat_n1_witness(m).alphabet) == width

    @pytest.mark.parametrize("m", range(4, 9))
    def test_revcat_n1_d_rotates_nonzero_states(self, m):
        row = revcat_n1_witness(m).transitions[3]
        assert row[0] == 0
        assert sorted(row[1:]) == list(range(1, m))
        assert row[m - 1] == 1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_starcat_special_A_shape(self, m):
        d = starcat_special_witness_A(m)
        assert len(d.alphabet) == 3
        assert d.finals == frozenset((d.initial,))
        assert d.transitions[1] == d.transitions[2] == tuple(range(m))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_starcat_special_B_shape(self, n):
        d = starcat_special_witness_B(n)
        assert len(d.alphabet) == 3
        assert d.transitions[2][0] == 0
        assert sorted(d.transitions[2][1:]) == sorted(
            (i + 1) % n for i in range(1, n)
        )

    @pytest.mark.parametrize("m", range(2, 9))
    def test_starcat_A_final_differs_from_initial(self, m):
        d = starcat_witness_A(m)
        assert len(d.alphabet) == 4
        assert d.initial not in d.finals
        assert d.transitions[1][0] == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_starcat_B_shape(self, n):
        d = starcat_witness_B(n)
        assert len(d.alphabet) == 4
        assert d.transitions[3] == (0,) * n


class TestMinimality:
    @pytest.mark.parametrize(
        "gen",
        [
            revcat_witness_M,
            revcat_witness_N,
            revcat_n1_witness,
            starcat_special_witness_A,
            starcat_special_witness_B,
            starcat_witness_A,
            starcat_witness_B,
        ],
    )
    @pytest.mark.parametrize("size", range(2, 9))
    def test_every_family_member_is_minimal(self, gen, size):
        d = gen(size)
        assert minimize_hopcroft(d).state_count == size
        assert moore_minimal_size(d) == size


class TestParameterErrors:
    @pytest.mark.parametrize(
        "gen",
        [
            revcat_witness_M,
            revcat_witness_N,
            revcat_n1_witness,
            starcat_special_witness_A,
            starcat_special_witness_B,
            starcat_witness_A,
            starcat_witness_B,
        ],
    )
    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_sizes_below_two_rejected(self, gen, size):
        with pytest.raises(ValueError):
            gen(size)


class TestOneStateMachines:
    def test_sigma_star_accepts_everything(self):
        d = sigma_star_dfa(("a", "b"))
        assert all(accepts(d, w) for w in all_words(("a", "b"), 4))

    def test_empty_accepts_nothing(self):
        d = empty_dfa(("a", "b"))
        assert not any(accepts(d, w) for w in all_words(("a", "b"), 4))

    def test_alphabet_is_kept(self):
        assert sigma_star_dfa("xyz").alphabet == ("x", "y", "z")
        assert empty_dfa(("q",)).alphabet == ("q",)


class TestRegistry:
    def test_tags(self):
        assert sorted(FAMILIES) == [
            "empty",
            "revcat-M",
            "revcat-N",
            "revcat-n1",
            "sigma-star",
            "starcat-A",
            "starcat-B",
            "starcat-special-A",
            "starcat-special-B",
        ]

    def test_entries_point_at_the_generators(self):
        kind, gen = FAMILIES["revcat-M"]
        assert kind == "m" and gen is revcat_witness_M
        kind, gen = FAMILIES["starcat-special-B"]
        assert kind == "n" and gen is starcat_special_witness_B
        kind, gen = FAMILIES["sigma-star"]
        assert kind == "alphabet" and gen is sigma_star_dfa

    def test_generators_build_dfas(self):
        for tag, (kind, gen) in FAMILIES.items():
            machine = gen("ab") if kind == "alphabet" else gen(3)
            assert isinstance(machine, Dfa), tag


def _three_letter_revcat(m: int, n: int) -> tuple[Dfa, Dfa]:
    """A revcat pair over three letters, built here rather than stored.
    a: cycle, fold the top state m-1 onto m-2, swap the top two; finals
    {m-1}.  b: cycle, identity, merge state 1 onto 0; finals {n-1}."""
    def cycle(k):
        return tuple((q + 1) % k for q in range(k))

    fold_top = tuple(range(m - 1)) + (m - 2,)
    swap_top = tuple(range(m - 2)) + (m - 1, m - 2)
    merge = (0, 0) + tuple(range(2, n))
    a = Dfa(m, ("a", "b", "c"), (cycle(m), fold_top, swap_top), 0, frozenset((m - 1,)))
    b = Dfa(n, ("a", "b", "c"), (cycle(n), tuple(range(n)), merge), 0, frozenset((n - 1,)))
    return a, b


class TestThreeLetterRevcat:
    """Three letters reach revcat's closed form from m = 3 on, where the
    stored witnesses use four."""

    @pytest.mark.parametrize("m", range(3, 7))
    def test_reaches_the_closed_form(self, m):
        for n in range(2, 7):
            assert oracle_sc("revcat", *_three_letter_revcat(m, n)) == sc_revcat(m, n)

    @pytest.mark.parametrize("m, size", [(3, 48), (4, 192)])
    def test_the_reference_agrees(self, m, size):
        a, b = _three_letter_revcat(m, m)
        assert reference.minimal_size("revcat", machine(a), machine(b)) == size

    def test_two_left_states_fall_short(self):
        # 12/12, 23/24, 45/48, 89/96 and 177/192 for n = 2..6
        for n in range(2, 7):
            short = sc_revcat(2, n) - oracle_sc("revcat", *_three_letter_revcat(2, n))
            assert short == 2 ** (n - 2) - 1
