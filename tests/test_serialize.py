"""JSON document round trips, field-path error messages, and DOT text."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecomp.automata import Dfa, Nfa, nfa_from_dfa, reverse_nfa
from statecomp.constructions import star_nfa
from statecomp.serialize import (
    DocumentError,
    document_dict,
    emit_document,
    emit_dot,
    parse_document,
)
from statecomp.harness import OPS, oracle_pipeline
from statecomp.witnesses import (
    FAMILIES,
    empty_dfa,
    revcat_n1_witness,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_witness_A,
)

from helpers import catenation_nfa, random_complete_dfa


def _doc(**overrides) -> str:
    """A small valid dfa document with optional field overrides."""
    base = {
        "kind": "dfa",
        "alphabet": ["a", "b"],
        "states": 2,
        "initial": 0,
        "finals": [1],
        "transitions": {"a": [1, 0], "b": [0, 0]},
    }
    base.update(overrides)
    return json.dumps({k: v for k, v in base.items() if v is not None})


class TestRoundTrip:
    @pytest.mark.parametrize(
        "machine",
        [
            revcat_witness_M(2),
            revcat_witness_M(4),
            revcat_witness_N(3),
            revcat_n1_witness(2),
            starcat_witness_A(3),
            sigma_star_dfa(("a",)),
            empty_dfa(("x", "y", "z")),
        ],
    )
    def test_dfa_parse_inverts_emit(self, machine):
        assert parse_document(emit_document(machine)) == machine

    def test_nfa_parse_inverts_emit(self):
        nfa = catenation_nfa(
            reverse_nfa(revcat_witness_M(2)), revcat_witness_N(2)
        )
        assert nfa.epsilon_edges  # exercises the epsilon list
        assert parse_document(emit_document(nfa)) == nfa

    def test_emit_is_stable_on_reparse(self):
        for machine in (revcat_witness_M(3), nfa_from_dfa(revcat_witness_N(2))):
            text = emit_document(machine)
            assert emit_document(parse_document(text)) == text

    def test_parse_reads_the_fixture_shape(self):
        d = parse_document(_doc())
        assert d == revcat_n1_witness(2)

    def test_document_dict_key_order(self):
        assert list(document_dict(revcat_witness_M(2))) == [
            "kind", "alphabet", "states", "initial", "finals", "transitions",
        ]
        assert list(document_dict(nfa_from_dfa(revcat_witness_M(2)))) == [
            "kind", "alphabet", "states", "initials", "finals", "transitions",
            "epsilon",
        ]

    def test_emit_ends_with_newline(self):
        assert emit_document(revcat_witness_M(2)).endswith("}\n")


# json escapes all but the first two: the quote, backslash, newline and
# DEL as named or \u escapes, and the non-ASCII symbols as \u escapes
SYMBOLS = ("a", "b", "\"", "\\", "\u00e9", "\u2603", "\n", "\x7f")


def _reference(a) -> str:
    """json's own indent-2 text of a's document: what emit_document must write."""
    return json.dumps(document_dict(a), indent=2) + "\n"


def _random_machines(seed: int):
    """A seeded random Dfa over some of SYMBOLS and its three NFAs."""
    rng = random.Random(seed)
    alphabet = rng.sample(SYMBOLS, rng.randint(1, 4))
    d = random_complete_dfa(rng, rng.randint(1, 6), alphabet)
    return [d, reverse_nfa(d), star_nfa(d), nfa_from_dfa(d)]


class TestWriter:
    """emit_document writes exactly the bytes of json's indent-2 encoder."""

    EDGE_CASES = [
        Dfa(1, ("a",), ((0,),), 0, frozenset()),
        Dfa(1, SYMBOLS, tuple((0,) for _ in SYMBOLS), 0, frozenset({0})),
        Dfa(3, ("\"", "\\"), ((1, 2, 0), (0, 0, 2)), 2, frozenset()),
        Nfa(
            3, ("\u00e9", "\n"),
            ((frozenset(), frozenset({0, 2}), frozenset()),
             (frozenset(), frozenset(), frozenset({1}))),
            frozenset({0}), frozenset({(0, 1), (2, 0)}), frozenset(),
        ),
        Nfa(
            1, ("\x7f",), ((frozenset(),),), frozenset(), frozenset(),
            frozenset({0}),
        ),
        empty_dfa(("\u2603", "\"", "\\")),
        revcat_witness_M(4),
        catenation_nfa(reverse_nfa(revcat_witness_M(2)), revcat_witness_N(2)),
    ]

    @pytest.mark.parametrize("machine", EDGE_CASES)
    def test_edge_cases(self, machine):
        text = emit_document(machine)
        assert text == _reference(machine)
        assert parse_document(text) == machine

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_random_machines(self, chunk):
        for seed in range(chunk * 250, (chunk + 1) * 250):
            for machine in _random_machines(seed):
                text = emit_document(machine)
                assert text == _reference(machine), (seed, machine)
                assert parse_document(text) == machine, (seed, machine)

    def test_escapes_are_jsons(self):
        text = emit_document(self.EDGE_CASES[1])
        for escaped in ('"\\""', '"\\\\"', '"\\n"', '"\\u007f"', '"\\u00e9"', '"\\u2603"'):
            assert escaped in text
        assert text.isascii()


@st.composite
def machines(draw):
    """A Dfa or an Nfa of 1-5 states over one to four of SYMBOLS; an
    Nfa's target sets, initials and finals may be empty, and its epsilon
    edges are any pairs of states."""
    alphabet = tuple(draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4,
                                   unique=True)))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    states = st.frozensets(state)

    def rows(entry):
        return tuple(tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in alphabet)

    if draw(st.booleans()):
        return Dfa(n, alphabet, rows(state), draw(state), draw(states))
    epsilon = draw(st.frozensets(st.tuples(state, state)))
    return Nfa(n, alphabet, rows(states), draw(states), epsilon, draw(states))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(machine=machines())
def test_parse_inverts_emit(machine):
    assert parse_document(emit_document(machine)) == machine


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,needle",
        [
            ("not json", "document"),
            ("[1, 2]", "document"),
            (_doc(kind="pda"), "kind"),
            (_doc(kind=None), "kind"),
            (_doc(alphabet=[]), "alphabet"),
            (_doc(alphabet=["ab"]), "alphabet[0]"),
            (_doc(alphabet=["a", "a"]), "alphabet"),
            (_doc(states=0), "states"),
            (_doc(states=True), "states"),
            (_doc(finals=[2]), "finals[0]"),
            (_doc(finals=7), "finals"),
            (_doc(initial=None), "initial"),
            (_doc(initial=5), "initial"),
            (_doc(initial="0"), "initial: expected an integer, got '0'"),
            (_doc(transitions=None), "transitions"),
            (_doc(transitions=[]), "transitions: expected an object keyed by symbol"),
            (_doc(transitions={"a": [1, 0]}), "transitions.b"),
            (_doc(transitions={"a": [1, 0], "b": [0]}), "transitions.b"),
            (_doc(transitions={"a": [1, 0], "b": [0, 9]}), "transitions.b[1]"),
            (_doc(transitions={"a": [1, 0], "b": [0, 0], "c": [0, 0]}), "'c'"),
            (_doc(initials=[0]), "dfa documents take initial"),
            (_doc(epsilon=[[0, 1]]), "dfa documents take initial"),
            pytest.param(
                "[" * 200_000 + "]" * 200_000, "document: nested too deeply",
                id="deep-nesting",
            ),
            pytest.param(
                '{"kind": "dfa", "states": ' + "9" * 5000 + "}",
                "document: an integer literal has more than 4300 digits",
                id="long-integer",
            ),
        ],
    )
    def test_bad_dfa_documents_name_the_field(self, text, needle):
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert needle in str(err.value)

    def test_bad_nfa_documents(self):
        nfa_doc = {
            "kind": "nfa",
            "alphabet": ["a"],
            "states": 2,
            "initials": [0],
            "finals": [1],
            "transitions": {"a": [[1], [0, 1]]},
            "epsilon": [[0, 1]],
        }
        assert isinstance(parse_document(json.dumps(nfa_doc)), Nfa)

        bad = dict(nfa_doc)
        bad["initial"] = 0
        del bad["initials"]
        with pytest.raises(DocumentError, match="nfa documents take initials"):
            parse_document(json.dumps(bad))

        for value in (5, None, True):
            bad = dict(nfa_doc)
            bad["epsilon"] = value
            with pytest.raises(DocumentError, match="^epsilon: expected a list"):
                parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["epsilon"] = [[0, 1, 2]]
        with pytest.raises(DocumentError, match=r"epsilon\[0\]"):
            parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["epsilon"] = [[0, 5]]
        with pytest.raises(DocumentError, match=r"epsilon\[0\]\[1\]"):
            parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["transitions"] = {"a": [[1], [0, 9]]}
        with pytest.raises(DocumentError, match=r"transitions\.a\[1\]\[1\]"):
            parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["transitions"] = {"a": [[1], 1]}
        with pytest.raises(
            DocumentError, match=r"^transitions\.a\[1\]: expected a list$"
        ):
            parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["transitions"] = {"a": [[1]]}
        with pytest.raises(DocumentError, match=r"transitions\.a"):
            parse_document(json.dumps(bad))

        bad = dict(nfa_doc)
        bad["alphabet"] = ["a", "b"]
        with pytest.raises(DocumentError, match=r"^transitions\.b: missing row$"):
            parse_document(json.dumps(bad))

    def test_document_error_is_a_value_error(self):
        assert issubclass(DocumentError, ValueError)


class TestDot:
    def test_dfa_dot_layout(self):
        dot = emit_dot(revcat_witness_M(2))
        assert dot.startswith("digraph automaton {\n  rankdir=LR;\n")
        assert "node [shape=circle];" in dot
        assert "  1 [shape=doublecircle];" in dot
        assert "  0 [shape=doublecircle];" not in dot
        assert "  __start [shape=point];" in dot
        assert "  __start -> 0;" in dot
        # 2 states x 4 symbols, one labeled edge each
        assert dot.count("[label=") == 8
        assert '  0 -> 1 [label="a"];' in dot
        assert dot.endswith("}\n")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dfa_dot_is_its_nfas(self, family):
        # a Dfa is written from its single targets, byte for byte as the
        # Nfa of singleton target sets is written
        kind, build = FAMILIES[family]
        args = [("a", "b", "c")] if kind == "alphabet" else [2, 3, 5, 7]
        for arg in args:
            d = build(arg)
            assert emit_dot(d) == emit_dot(nfa_from_dfa(d)), (family, arg)

    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    def test_oracle_dfa_dot_is_its_nfas(self, op):
        # the oracle's machine of a witness pair, thousands of states
        d = oracle_pipeline(op, *OPS[op].witness(5, 5))
        assert emit_dot(d) == emit_dot(nfa_from_dfa(d))

    def test_nfa_dot_includes_epsilon_edges(self):
        nfa = catenation_nfa(
            nfa_from_dfa(revcat_n1_witness(2)), revcat_n1_witness(2)
        )
        dot = emit_dot(nfa)
        # the left operand's states follow the right one's two
        assert '  3 -> 0 [label="&epsilon;"];' in dot
        assert "  __start -> 2;" in dot

    def test_reversed_machine_has_multiple_targets(self):
        dot = emit_dot(reverse_nfa(revcat_witness_M(2)))
        # b sends both states to 0 in the witness, so its reversal fans out
        assert '  0 -> 0 [label="b"];' in dot
        assert '  0 -> 1 [label="b"];' in dot
