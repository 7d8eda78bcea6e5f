"""Command-line front end, driven in process through main(argv)."""

import dataclasses
import json
import random
import shutil
import subprocess

import pytest

from statecomp import Dfa, accepts, automata, cli, harness, minimize_brzozowski
from statecomp.bounds import sc_revcat, sc_starcat
from statecomp.cli import build_parser, main
from statecomp.harness import DEFAULT_BUDGET, OPS
from statecomp.serialize import emit_document, parse_document
from statecomp.witnesses import (
    FAMILIES,
    revcat_witness_M,
    revcat_witness_N,
    sigma_star_dfa,
    starcat_witness_A,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSc:
    def test_revcat(self, capsys):
        code, out, err = run(capsys, "sc", "--op", "revcat", "--m", "2", "--n", "2")
        assert (code, out, err) == (0, "12\n", "")

    def test_starcat(self, capsys):
        code, out, _ = run(capsys, "sc", "--op", "starcat", "--m", "4", "--n", "4")
        assert (code, out) == (0, "137\n")

    def test_starcat_special(self, capsys):
        code, out, _ = run(
            capsys, "sc", "--op", "starcat-special", "--m", "3", "--n", "2"
        )
        assert (code, out) == (0, "8\n")

    def test_k1_variant(self, capsys):
        code, out, _ = run(
            capsys, "sc", "--op", "starcat", "--m", "3", "--n", "2", "--k1", "2"
        )
        assert (code, out) == (0, "12\n")

    def test_k1_rejected_for_revcat(self, capsys):
        code, out, err = run(
            capsys, "sc", "--op", "revcat", "--m", "3", "--n", "2", "--k1", "1"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_out_of_range_sizes(self, capsys):
        code, _, err = run(capsys, "sc", "--op", "revcat", "--m", "0", "--n", "2")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("op, m, n, k1", [
        ("revcat", "20000", "2", None),
        ("revcat", "2", "100000000", None),
        # would need a 1.25 GB power of two if it were formed
        ("revcat", "10000000000", "2", None),
        ("starcat", "14284", "2", None),
        ("starcat", "10000000000", "3", "2"),
        ("starcat-special", "3", "14284", None),
    ])
    def test_count_past_the_print_limit_is_refused(self, capsys, op, m, n, k1):
        argv = ["sc", "--op", op, "--m", m, "--n", n]
        code, out, err = run(capsys, *argv, *(["--k1", k1] if k1 else []))
        assert (code, out) == (2, "")
        option = "--m/--n/--k1" if k1 else "--m/--n"
        assert err.startswith(f"error: {option}: the count has more than ")

    @pytest.mark.parametrize("op, m, n, want", [
        # the largest counts under the limit of 4,300 digits
        ("revcat", 14282, 2, sc_revcat(14282, 2)),
        ("starcat", 14283, 2, sc_starcat(14283, 2)),
        # huge sizes whose counts are small
        ("starcat-special", 10_000_000_000, 2, 29_999_999_999),
        ("starcat", 10_000_000_000, 1, 1),
    ])
    def test_large_sizes_with_printable_counts(self, capsys, op, m, n, want):
        code, out, err = run(capsys, "sc", "--op", op, "--m", str(m), "--n", str(n))
        assert (code, out, err) == (0, f"{want}\n", "")


class TestWitness:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "starcat-A", "--m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["finals"] == [1]
        assert parse_document(out) == starcat_witness_A(2)

    def test_n_parameter_families(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "revcat-N", "--n", "3")
        assert code == 0
        assert parse_document(out) == revcat_witness_N(3)

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--family", "revcat-M", "--m", "2",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph automaton {")
        assert out.count("[label=") == 8

    def test_alphabet_families(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--family", "sigma-star", "--alphabet", "xy"
        )
        assert code == 0
        assert json.loads(out)["alphabet"] == ["x", "y"]

    def test_missing_size_parameter(self, capsys):
        code, _, err = run(capsys, "witness", "--family", "revcat-M")
        assert code == 2 and "needs --m" in err

    @pytest.mark.parametrize("family, kind", [("revcat-M", "m"), ("starcat-B", "n")])
    def test_size_past_the_budget_is_refused_before_its_machine(
        self, capsys, monkeypatch, family, kind
    ):
        def generator(size):
            raise AssertionError("witness built")

        monkeypatch.setitem(FAMILIES, family, (kind, generator))
        size = DEFAULT_BUDGET + 1
        code, out, err = run(
            capsys, "witness", "--family", family, f"--{kind}", str(size)
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: --{kind}: {family} at {size} needs more states than the budget "
            f"of {DEFAULT_BUDGET}\n"
        )

    def test_size_within_the_budget_reaches_its_machine(self, capsys, monkeypatch):
        built = []

        def generator(size):
            built.append(size)
            return revcat_witness_M(2)

        monkeypatch.setitem(FAMILIES, "revcat-M", ("m", generator))
        size = str(DEFAULT_BUDGET)
        code, out, _ = run(capsys, "witness", "--family", "revcat-M", "--m", size)
        assert (code, built) == (0, [DEFAULT_BUDGET])
        assert parse_document(out) == revcat_witness_M(2)
        monkeypatch.undo()
        code, out, _ = run(capsys, "witness", "--family", "revcat-M", "--m", "3")
        assert (code, parse_document(out)) == (0, revcat_witness_M(3))

    def test_unknown_family_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["witness", "--family", "unheard-of"])
        assert e.value.code == 2


class TestCompose:
    @pytest.fixture
    def pair(self, tmp_path):
        lhs = tmp_path / "lhs.json"
        rhs = tmp_path / "rhs.json"
        lhs.write_text(emit_document(revcat_witness_M(2)))
        rhs.write_text(emit_document(revcat_witness_N(2)))
        return str(lhs), str(rhs)

    def test_direct(self, capsys, pair):
        lhs, rhs = pair
        code, out, _ = run(
            capsys, "compose", "--op", "revcat", "--lhs", lhs, "--rhs", rhs,
            "--method", "direct",
        )
        assert code == 0
        body, summary = out.rsplit("\n", 2)[0], out.rstrip().splitlines()[-1]
        assert summary == "states=12 minimal=12"
        assert parse_document(body + "\n").state_count == 12

    def test_oracle_matches_direct_minimal(self, capsys, pair):
        lhs, rhs = pair
        _, out_direct, _ = run(
            capsys, "compose", "--op", "revcat", "--lhs", lhs, "--rhs", rhs,
            "--method", "direct",
        )
        _, out_oracle, _ = run(
            capsys, "compose", "--op", "revcat", "--lhs", lhs, "--rhs", rhs,
            "--method", "oracle",
        )
        pick = lambda text: text.rstrip().splitlines()[-1].split()[-1]
        assert pick(out_direct) == pick(out_oracle) == "minimal=12"

    def test_minimize_flag(self, capsys, pair):
        lhs, rhs = pair
        code, out, _ = run(
            capsys, "compose", "--op", "revcat", "--lhs", lhs, "--rhs", rhs,
            "--method", "oracle", "--minimize",
        )
        assert code == 0
        lines = out.rstrip().splitlines()
        assert lines[-1] == "states=12 minimal=12"
        assert parse_document("\n".join(lines[:-1]) + "\n").state_count == 12

    # the pair's oracle machines have 12 (revcat) and 6 (starcat) states,
    # and starcat's direct one 5: a budget of 3 stops each walk at once
    @pytest.mark.parametrize("op", ["revcat", "starcat"])
    @pytest.mark.parametrize("method", ["direct", "oracle"])
    def test_subset_construction_past_the_budget_is_an_input_error(
        self, capsys, monkeypatch, pair, op, method
    ):
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", 3)
        lhs, rhs = pair
        code, out, err = run(
            capsys, "compose", "--op", op, "--lhs", lhs, "--rhs", rhs,
            "--method", method,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --lhs/--rhs: the subset construction needs more states "
            "than the budget of 3\n"
        )

    def test_repeated_calls_share_no_state(self, capsys, pair):
        # main keeps one parser for the process; a flag given to one call
        # must not carry over to the next
        lhs, rhs = pair
        argv = ("compose", "--op", "starcat", "--lhs", lhs, "--rhs", rhs,
                "--method", "oracle")
        _, first, _ = run(capsys, *argv, "--minimize")
        _, second, _ = run(capsys, *argv)
        assert first.rstrip().splitlines()[-1] == "states=4 minimal=4"
        assert second.rstrip().splitlines()[-1] == "states=6 minimal=4"
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("minimize,summary", [
        ((), "states=3 minimal=2"), (("--minimize",), "states=2 minimal=2"),
    ])
    def test_minimal_counts_only_reachable_states(
        self, capsys, tmp_path, minimize, summary
    ):
        # a left operand with no finals routes starcat to the right
        # operand itself, whose state 2 is unreachable: refined with the
        # reachable states, it would be a block of its own
        lhs, rhs = tmp_path / "lhs.json", tmp_path / "rhs.json"
        lhs.write_text(emit_document(Dfa(2, ("a",), ((1, 0),), 0, frozenset())))
        rhs.write_text(emit_document(Dfa(3, ("a",), ((1, 0, 2),), 0, frozenset((1, 2)))))
        code, out, _ = run(
            capsys, "compose", "--op", "starcat", "--lhs", str(lhs), "--rhs", str(rhs),
            "--method", "direct", *minimize,
        )
        assert code == 0
        assert out.rstrip().splitlines()[-1] == summary

    @pytest.mark.parametrize("method", ["direct", "oracle"])
    def test_minimal_of_a_right_operand_with_unreachable_states(
        self, capsys, tmp_path, method
    ):
        # a left operand with no finals routes starcat to the right
        # operand itself; each right operand has a random table with its
        # last state unreachable, so minimal= is Brzozowski's count of it
        lhs, rhs = tmp_path / "lhs.json", tmp_path / "rhs.json"
        lhs.write_text(emit_document(Dfa(2, ("a", "b"), ((1, 0), (0, 0)), 0, frozenset())))
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(3, 6)
            rows = tuple(
                tuple(rng.randrange(n - 1) for _ in range(n)) for _ in range(2)
            )
            b = Dfa(n, ("a", "b"), rows, 0, frozenset(q for q in range(n) if rng.random() < 0.5))
            rhs.write_text(emit_document(b))
            code, out, _ = run(
                capsys, "compose", "--op", "starcat", "--lhs", str(lhs), "--rhs", str(rhs),
                "--method", method,
            )
            assert code == 0
            minimal = out.rstrip().splitlines()[-1].split()[-1]
            assert minimal == f"minimal={minimize_brzozowski(b).state_count}"

    def test_dot_format(self, capsys, pair):
        lhs, rhs = pair
        code, out, _ = run(
            capsys, "compose", "--op", "starcat", "--lhs", lhs, "--rhs", rhs,
            "--method", "direct", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph automaton {")

    def test_rejects_nfa_document(self, capsys, tmp_path, pair):
        _, rhs = pair
        bad = tmp_path / "bad.json"
        doc = json.loads(emit_document(revcat_witness_M(2)))
        doc.update(kind="nfa", initials=[doc.pop("initial")], epsilon=[])
        doc["transitions"] = {
            sym: [[q] for q in row] for sym, row in doc["transitions"].items()
        }
        bad.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "compose", "--op", "revcat", "--lhs", str(bad), "--rhs", rhs,
            "--method", "direct",
        )
        assert code == 2 and "nfa document" in err

    def test_missing_file(self, capsys, pair):
        _, rhs = pair
        code, _, err = run(
            capsys, "compose", "--op", "revcat", "--lhs", "no_such.json",
            "--rhs", rhs, "--method", "direct",
        )
        assert code == 2 and "--lhs" in err

    @pytest.mark.parametrize(
        "content,reason",
        [
            (b"[" * 200_000 + b"]" * 200_000, "document: nested too deeply"),
            (b'{"kind": "dfa\xff"}', "--lhs: cannot read {path}: not UTF-8 text"),
            (
                b'{"kind": "dfa", "states": ' + b"9" * 5000 + b"}",
                "document: an integer literal has more than 4300 digits",
            ),
        ],
        ids=["deep-nesting", "not-utf8", "long-integer"],
    )
    def test_hostile_file_is_an_input_error(
        self, capsys, tmp_path, pair, content, reason
    ):
        _, rhs = pair
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(
            capsys, "compose", "--op", "revcat", "--lhs", str(bad), "--rhs", rhs,
            "--method", "direct",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {reason.format(path=bad)}\n"


class TestVerify:
    def test_grid_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--op", "revcat", "--m", "2..3", "--n", "2..3"
        )
        assert code == 0
        lines = out.rstrip().splitlines()
        assert len(lines) == 4
        assert lines[0] == (
            "revcat m=2 n=2 k1=- formula=12 constructed=12 minimal=12 PASS"
        )
        assert all(line.endswith(" PASS") for line in lines)

    def test_single_value_ranges(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--op", "starcat", "--m", "2", "--n", "2"
        )
        assert code == 0
        assert out == "starcat m=2 n=2 k1=1 formula=5 constructed=5 minimal=5 PASS\n"

    @pytest.mark.parametrize("flipped", [0, 28])
    def test_fail_row_prints_a_separating_word(self, capsys, monkeypatch, flipped):
        # starcat's route with one state of its 29-state direct machine
        # flipped in finality; flipping the initial state makes the empty
        # word the separating one
        route = OPS["starcat"].route

        def broken(a, b):
            d, bound, k1 = route(a, b)
            return dataclasses.replace(d, finals=d.finals ^ {flipped}), bound, k1

        monkeypatch.setitem(
            harness.OPS, "starcat", dataclasses.replace(OPS["starcat"], route=broken)
        )
        code, out, _ = run(capsys, "verify", "--op", "starcat", "--m", "3", "--n", "3")
        assert code == 1
        head, sep, word = out.rstrip("\n").partition(" FAIL word=")
        assert head == "starcat m=3 n=3 k1=1 formula=29 constructed=29 minimal=29"
        assert sep and "\n" not in word
        if flipped == 0:
            assert word == '""'
        word = "" if word == '""' else word
        a, b = OPS["starcat"].witness(3, 3)
        assert accepts(broken(a, b)[0], word) != accepts(
            harness.oracle_pipeline("starcat", a, b), word
        )

    def test_bad_range_text(self, capsys):
        code, _, err = run(
            capsys, "verify", "--op", "revcat", "--m", "x..y", "--n", "2"
        )
        assert code == 2 and "bad range" in err

    @pytest.mark.parametrize("m, n, field", [("5..2", "2", "--m"), ("2", "3..1", "--n")])
    def test_empty_range_is_an_input_error(self, capsys, m, n, field):
        code, out, err = run(capsys, "verify", "--op", "revcat", "--m", m, "--n", n)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "m, n",
        # the last is sized by its estimate, at once: 3 * 2^(10^20) states
        [("30", "30"), ("1000000", "2"), ("99999999999999999999", "2")],
    )
    def test_cell_past_the_budget_is_an_input_error(self, capsys, monkeypatch, m, n):
        # refused before the witness is built
        def witness(m, n):
            raise AssertionError("witness built")

        monkeypatch.setitem(
            harness.OPS, "revcat", dataclasses.replace(OPS["revcat"], witness=witness)
        )
        code, out, err = run(capsys, "verify", "--op", "revcat", "--m", m, "--n", n)
        assert (code, out) == (2, "")
        assert err == (
            f"error: --m/--n: the revcat witness cell ({m}, {n}) needs more states "
            "than the budget of 20000000\n"
        )

    def test_cell_past_the_budget_in_key_words_is_an_input_error(
        self, capsys, monkeypatch
    ):
        def witness(m, n):
            raise AssertionError("witness built")

        op = "starcat-special"
        monkeypatch.setitem(
            harness.OPS, op, dataclasses.replace(OPS[op], witness=witness)
        )
        code, out, err = run(capsys, "verify", "--op", op, "--m", "1000000", "--n", "2")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --m/--n: the {op} witness cell (1000000, 2) needs more "
            "64-bit words of subset keys than the budget of 20000000\n"
        )

    def test_unsupported_corner_is_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--op", "revcat", "--m", "1", "--n", "2"
        )
        assert code == 2 and "error:" in err

    def test_starcat_special_below_its_family_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--op", "starcat-special", "--m", "1", "--n", "2"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --m/--n: starcat-special witnesses need m >= 2 and n >= 1\n"
        )


class TestSearch:
    def test_full_search_writes_argmax_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(
            capsys, "search", "--op", "revcat", "--m", "1", "--n", "2",
            "--sigma", "2",
        )
        assert code == 0
        lines = out.rstrip().splitlines()
        assert lines[0] == (
            "op=revcat m=1 n=2 sigma=2 mode=full pairs=128 max_minimal=2"
        )
        lhs = parse_document((tmp_path / "argmax_revcat_m1_n2_lhs.json").read_text())
        rhs = parse_document((tmp_path / "argmax_revcat_m1_n2_rhs.json").read_text())
        assert lhs.state_count == 1 and rhs.state_count == 2

    def test_out_prefix(self, capsys, tmp_path):
        prefix = tmp_path / "best"
        code, out, _ = run(
            capsys, "search", "--op", "starcat", "--m", "1", "--n", "1",
            "--sigma", "1", "--out-prefix", str(prefix),
        )
        assert code == 0
        assert (tmp_path / "best_lhs.json").exists()
        assert (tmp_path / "best_rhs.json").exists()
        assert f"argmax lhs -> {prefix}_lhs.json" in out

    def test_unwritable_out_prefix_is_an_input_error(self, capsys, tmp_path):
        prefix = tmp_path / "no" / "such" / "dir" / "x"
        code, out, err = run(
            capsys, "search", "--op", "revcat", "--m", "1", "--n", "1",
            "--sigma", "1", "--out-prefix", str(prefix),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --out-prefix: cannot write {prefix}_lhs.json: "
            "No such file or directory\n"
        )

    def test_out_prefix_unwritable_after_the_search_is_an_input_error(
        self, capsys, tmp_path
    ):
        # the folder passes the check before the search; the write fails
        prefix = tmp_path / "best"
        (tmp_path / "best_lhs.json").mkdir()
        code, out, err = run(
            capsys, "search", "--op", "revcat", "--m", "1", "--n", "1",
            "--sigma", "1", "--out-prefix", str(prefix),
        )
        assert code == 2
        assert out.startswith("op=revcat m=1 n=1 sigma=1 mode=full ")
        assert "argmax" not in out
        assert err == f"error: --out-prefix: cannot write {prefix}_lhs.json: Is a directory\n"

    def test_sampled_mode(self, capsys, tmp_path):
        prefix = tmp_path / "s"
        code, out, _ = run(
            capsys, "search", "--op", "revcat", "--m", "2", "--n", "2",
            "--sigma", "2", "--sample", "10", "--seed", "3",
            "--out-prefix", str(prefix),
        )
        assert code == 0
        assert "mode=sampled pairs=10" in out

    def test_sampled_subset_construction_past_the_budget_is_an_input_error(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(automata, "DEFAULT_BUDGET", 3)
        code, out, err = run(
            capsys, "search", "--op", "revcat", "--m", "2", "--n", "2",
            "--sigma", "2", "--sample", "10", "--seed", "3",
            "--out-prefix", str(tmp_path / "s"),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --m/--n: the subset construction needs more states than "
            "the budget of 3\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_budget_refusal_is_an_input_error(self, capsys):
        code, _, err = run(
            capsys, "search", "--op", "revcat", "--m", "3", "--n", "3",
            "--sigma", "4",
        )
        assert code == 2 and "budget" in err

    def test_budget_refusal_of_a_huge_space_is_readable(self, capsys):
        # the pair count here has tens of thousands of digits, more than
        # int-to-string conversion allows
        code, out, err = run(
            capsys, "search", "--op", "revcat", "--m", "2000", "--n", "2",
            "--sigma", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: full search over ")
        assert err.endswith(" pairs exceeds the budget of 20000000\n")

    def test_bad_sigma(self, capsys):
        code, _, err = run(
            capsys, "search", "--op", "revcat", "--m", "1", "--n", "1",
            "--sigma", "0",
        )
        assert code == 2 and "alphabet size" in err


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as e:
            main(["sc", "--op", "revcat", "--m", "2"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv, option, message", [
        (["witness", "--family", "sigma-star", "--alphabet", ""], "--alphabet",
         "alphabet must contain at least one symbol"),
        (["witness", "--family", "empty", "--alphabet", "aa"], "--alphabet",
         "alphabet symbols must be distinct"),
        (["search", "--op", "revcat", "--m", "1", "--n", "1", "--sigma", "27"], "--sigma",
         "alphabet size must be between 1 and 26"),
        (["search", "--op", "starcat", "--m", "1", "--n", "1", "--sigma", "2",
          "--sample", "0"], "--sample", "the sample size must be at least 1"),
        (["sc", "--op", "revcat", "--m", "0", "--n", "2"], "--m/--n",
         "automaton sizes must be at least 1"),
        (["witness", "--family", "revcat-M", "--m", "0"], "--m",
         "revcat_witness_M needs m >= 2"),
        (["verify", "--op", "revcat", "--m", "1", "--n", "2"], "--m/--n",
         "no stored reversal-catenation family covers m = 1; use exhaustive_search"),
        (["verify", "--op", "revcat", "--m", "0", "--n", "2"], "--m/--n",
         "m must be at least 1"),
        (["verify", "--op", "starcat", "--m", "3", "--n", "0"], "--m/--n",
         "starcat witnesses need m >= 2 and n >= 1"),
        (["compose", "--op", "revcat", "--lhs", "a.json", "--rhs", "b.json",
          "--method", "direct"], "--lhs/--rhs",
         "operands use different alphabets ('a',) and ('b',)"),
        (["verify", "--op", "revcat", "--m", "2", "--n", "x"], "--n",
         "bad range 'x', expected A..B or a single integer"),
    ])
    def test_bad_value_names_its_option(
        self, capsys, tmp_path, monkeypatch, argv, option, message
    ):
        # the compose case reads one-letter machines over a and over b
        monkeypatch.chdir(tmp_path)
        for letter in "ab":
            machine = sigma_star_dfa((letter,))
            (tmp_path / f"{letter}.json").write_text(emit_document(machine))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {option}: {message}\n")

    @pytest.mark.parametrize("callee, argv", [
        ("oracle_pipeline", ["compose", "--op", "revcat", "--lhs", "a.json",
                             "--rhs", "a.json", "--method", "oracle"]),
        ("verify_witness", ["verify", "--op", "starcat", "--m", "2", "--n", "2"]),
    ])
    def test_out_of_memory_exits_2_without_a_traceback(
        self, capsys, tmp_path, monkeypatch, callee, argv
    ):
        # 1 is a failed verification; the callee raises at once, allocating nothing
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.json").write_text(emit_document(sigma_star_dfa(("a",))))
        monkeypatch.setattr(cli, callee, out_of_memory)
        assert run(capsys, *argv) == (2, "", "error: out of memory\n")

    def test_console_script_is_installed(self):
        exe = shutil.which("statecomp")
        assert exe is not None
        proc = subprocess.run(
            [exe, "sc", "--op", "starcat", "--m", "5", "--n", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "593\n"
