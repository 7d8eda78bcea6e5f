"""Acceptance suite: the nine headline checks, each printing one
PASS/FAIL line.

Every comparison is an exact integer equality.  The lines print with
capture suspended so they stay visible in pytest's output.
"""

import random
from pathlib import Path

from statecomp.automata import (
    determinize,
    equivalent,
    minimize_brzozowski,
    minimize_hopcroft,
    reverse_nfa,
)
from statecomp.bounds import (
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_starcat_general,
)
from statecomp.harness import (
    combined,
    exhaustive_search,
    oracle_sc,
    random_check,
    random_dfa,
)
from statecomp.serialize import parse_document
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

from helpers import random_complete_dfa

FIXTURES = Path(__file__).parent / "fixtures"


def _report(capfd, num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {num} {name}: {verdict}", flush=True)


def test_1_revcat_worst_case_grid(capfd):
    bad = []
    for m in range(2, 6):
        for n in range(2, 6):
            got = oracle_sc("revcat", revcat_witness_M(m), revcat_witness_N(n))
            want = 3 * 2 ** (m + n - 2)
            if got != want or want != sc_revcat(m, n):
                bad.append((m, n, got, want))
    ok = not bad
    _report(capfd, 1, "reversal-catenation worst-case grid 2..5", ok)
    assert ok, bad


def test_2_revcat_one_state_left_operand(capfd):
    bad = []
    for n in (2, 3):
        found = exhaustive_search("revcat", 1, n, 2, "full").max_minimal
        if found != 2 ** (n - 1):
            bad.append(("search", n, found))
    lhs = parse_document((FIXTURES / "revcat_m1_lhs.json").read_text())
    if lhs.state_count != 1:
        bad.append(("lhs", lhs.state_count))
    for n in range(2, 9):
        rhs = parse_document((FIXTURES / f"revcat_m1_n{n}_rhs.json").read_text())
        got = oracle_sc("revcat", lhs, rhs)
        if got != 2 ** (n - 1) or rhs.state_count != n:
            bad.append(("fixture", n, got))
    ok = not bad
    _report(capfd, 2, "reversal-catenation with one-state left operand", ok)
    assert ok, bad


def test_3_revcat_one_state_right_operand(capfd):
    bad = []
    for m in range(2, 9):
        a = revcat_n1_witness(m)
        got = oracle_sc("revcat", a, sigma_star_dfa(a.alphabet))
        if got != 2 ** (m - 1) + 1:
            bad.append((m, got))
    ok = not bad
    _report(capfd, 3, "reversal-catenation with one-state right operand", ok)
    assert ok, bad


def test_4_starcat_special_grid(capfd):
    bad = []
    for m in range(2, 6):
        for n in range(2, 6):
            got = oracle_sc(
                "starcat",
                starcat_special_witness_A(m),
                starcat_special_witness_B(n),
            )
            want = m * (2 ** n - 1) - 2 ** (n - 1) + 1
            if got != want or want != sc_starcat_special(m, n):
                bad.append((m, n, got, want))
    ok = not bad
    _report(capfd, 4, "star-catenation initial-final worst-case grid 2..5", ok)
    assert ok, bad


def test_5_starcat_general_grid(capfd):
    bad = []
    values = {}
    for m in range(2, 6):
        for n in range(2, 6):
            got = oracle_sc("starcat", starcat_witness_A(m), starcat_witness_B(n))
            want = 5 * 2 ** (m + n - 3) - 2 ** (m - 1) - 2 ** n + 1
            values[m, n] = got
            if got != want or want != sc_starcat(m, n):
                bad.append((m, n, got, want))
    spot_checks = values[2, 2] == 5 and values[4, 4] == 137 and values[5, 5] == 593
    ok = not bad and spot_checks
    _report(capfd, 5, "star-catenation general worst-case grid 2..5", ok)
    assert ok, (bad, values)


def test_6_starcat_one_state_right_operand(capfd):
    rng = random.Random(66)
    bad = []
    for i in range(50):
        a = random_dfa(rng, rng.randint(1, 5), ("a", "b", "c"))
        for b in (sigma_star_dfa(a.alphabet), empty_dfa(a.alphabet)):
            result = minimize_hopcroft(combined("starcat", a, b))
            if result.state_count != 1:
                bad.append((i, bool(b.finals), result.state_count))
    ok = not bad
    _report(capfd, 6, "star-catenation with one-state right operand", ok)
    assert ok, bad


def test_7_random_construction_checks(capfd):
    reports = random_check(200, 5, 5, 4, 20260815)
    # failing reports as verify rows, each with its separating word if any
    bad = [str(r) for r in reports if not r.passed]
    ok = len(reports) == 200 and not bad
    _report(capfd, 7, "random construction vs oracle checks", ok)
    assert ok, bad


def test_8_full_search_confirms_both_worst_cases(capfd):
    revcat = exhaustive_search("revcat", 2, 2, 4, "full")
    starcat = exhaustive_search("starcat", 2, 2, 4, "full")
    ok = (
        revcat.max_minimal == 12
        and starcat.max_minimal == 5
        and revcat.pairs_examined == starcat.pairs_examined == 1024 * 1024
    )
    _report(capfd, 8, "full two-state four-symbol search", ok)
    assert ok, (revcat.max_minimal, starcat.max_minimal)
    # one evaluated pair per letter-permutation orbit of language-class pairs
    assert revcat.pairs_evaluated < revcat.pairs_examined
    assert starcat.pairs_evaluated < starcat.pairs_examined


def test_9_property_suites(capfd):
    bad = []

    rng = random.Random(91)
    for _ in range(100):
        d = random_complete_dfa(rng, rng.randint(1, 6), ("a", "b"))
        once = minimize_hopcroft(d)
        if minimize_hopcroft(once).state_count != once.state_count:
            bad.append(("idempotence", d))
            break

    rng = random.Random(92)
    for _ in range(500):
        sigma = tuple("abcd"[: rng.randint(1, 4)])
        d = random_complete_dfa(rng, rng.randint(1, 8), sigma)
        if minimize_hopcroft(d).state_count != minimize_brzozowski(d).state_count:
            bad.append(("minimizer-agreement", d))
            break

    rng = random.Random(93)
    for _ in range(200):
        d = random_complete_dfa(rng, rng.randint(1, 6), ("a", "b", "c"))
        once, _ = determinize(reverse_nfa(d))
        twice, _ = determinize(reverse_nfa(once))
        if not equivalent(twice, d):
            bad.append(("double-reversal", d))
            break

    for tag, (kind, gen) in FAMILIES.items():
        if kind == "alphabet":
            continue
        for size in range(2, 9):
            if minimize_hopcroft(gen(size)).state_count != size:
                bad.append(("witness-minimality", tag, size))

    for m in range(2, 17):
        for n in range(2, 17):
            if ub_starcat_general(m, n, 1) != sc_starcat(m, n):
                bad.append(("bound-identity", m, n))

    ok = not bad
    _report(capfd, 9, "property suites", ok)
    assert ok, bad
