"""Closed-form bound evaluators: pinned values, cross-formula algebra,
and rejection of out-of-range sizes."""

import pytest

from statecomp.bounds import (
    estimate,
    sc_revcat,
    sc_starcat,
    sc_starcat_special,
    ub_revcat,
    ub_starcat_general,
)


class TestPinnedValues:
    @pytest.mark.parametrize(
        "m,n,want",
        [
            (2, 2, 12),
            (3, 2, 24),
            (2, 3, 24),
            (3, 3, 48),
            (5, 5, 768),
            (1, 1, 1),
            (1, 2, 2),
            (1, 5, 16),
            (2, 1, 3),
            (4, 1, 9),
            (8, 1, 129),
        ],
    )
    def test_sc_revcat(self, m, n, want):
        assert sc_revcat(m, n) == want

    @pytest.mark.parametrize(
        "m,n,want",
        [(1, 1, 3), (2, 2, 12), (3, 4, 96), (1, 4, 24)],
    )
    def test_ub_revcat(self, m, n, want):
        assert ub_revcat(m, n) == want

    @pytest.mark.parametrize(
        "m,n,want",
        [
            (2, 2, 5),
            (3, 2, 8),
            (2, 3, 11),
            (1, 3, 4),
            (4, 5, 109),
            (3, 1, 1),
            (1, 1, 1),
        ],
    )
    def test_sc_starcat_special(self, m, n, want):
        assert sc_starcat_special(m, n) == want

    @pytest.mark.parametrize(
        "m,n,k1,want",
        [
            (2, 2, 1, 5),
            (3, 2, 1, 13),
            (3, 2, 2, 12),
            (3, 3, 1, 29),
            (4, 4, 2, 123),
            (4, 4, 3, 116),
        ],
    )
    def test_ub_starcat_general(self, m, n, k1, want):
        assert ub_starcat_general(m, n, k1) == want

    @pytest.mark.parametrize(
        "m,n,want",
        [
            (2, 2, 5),
            (3, 3, 29),
            (4, 4, 137),
            (5, 5, 593),
            (7, 1, 1),
            (1, 1, 1),
            (1, 4, 8),
        ],
    )
    def test_sc_starcat(self, m, n, want):
        assert sc_starcat(m, n) == want


class TestAlgebra:
    def test_sc_revcat_below_ub_exactly_off_the_main_range(self):
        for m in range(1, 17):
            for n in range(1, 17):
                sc, ub = sc_revcat(m, n), ub_revcat(m, n)
                assert sc <= ub
                assert (sc == ub) == (m >= 2 and n >= 2)

    def test_general_bound_peaks_at_one_noninitial_final(self):
        for m in range(2, 17):
            for n in range(2, 17):
                assert ub_starcat_general(m, n, 1) == sc_starcat(m, n)

    def test_general_bound_strictly_decreases_in_k1(self):
        for m in range(3, 12):
            for n in range(2, 12):
                values = [ub_starcat_general(m, n, k1) for k1 in range(1, m)]
                assert all(x > y for x, y in zip(values, values[1:]))

    def test_special_form_never_beats_the_general_worst_case(self):
        for m in range(2, 17):
            for n in range(2, 17):
                special, general = sc_starcat_special(m, n), sc_starcat(m, n)
                assert special <= general
                assert (special == general) == (m == 2)

    def test_growth_is_exact_powers_of_two(self):
        assert sc_revcat(10, 10) == 3 * 2 ** 18
        assert sc_revcat(1, 20) == 2 ** 19
        assert sc_starcat(10, 10) == 5 * 2 ** 17 - 2 ** 9 - 2 ** 10 + 1


class TestEstimate:
    @pytest.mark.parametrize("fn", [sc_revcat, sc_starcat_special, sc_starcat])
    def test_exact_within_twenty_digits(self, fn):
        for m in range(1, 40):
            for n in range(1, 30):
                if fn(m, n) < 10 ** 20:
                    assert estimate(fn, m, n) == fn(m, n), (m, n)

    def test_far_past_the_budget_without_the_power(self):
        # 3 * 2^(10^20) would take more memory than any host has
        approx = estimate(sc_revcat, 10 ** 20, 2)
        assert not approx.is_finite() and approx > 10 ** 100
        # log10(3 * 2^(10^10)) = 3,010,299,957.12
        assert estimate(sc_revcat, 10 ** 10, 2).adjusted() == 3010299957

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError):
            estimate(sc_starcat, 0, 2)
        with pytest.raises(ValueError):
            estimate(ub_starcat_general, 3, 2, 3)


class TestRanges:
    @pytest.mark.parametrize("fn", [sc_revcat, ub_revcat, sc_starcat_special, sc_starcat])
    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0), (-1, 3)])
    def test_sizes_below_one_rejected(self, fn, m, n):
        with pytest.raises(ValueError):
            fn(m, n)

    @pytest.mark.parametrize(
        "m,n,k1",
        [(1, 2, 1), (2, 1, 1), (2, 2, 0), (2, 2, 2), (4, 3, 4), (0, 2, 1)],
    )
    def test_general_bound_range_checks(self, m, n, k1):
        with pytest.raises(ValueError):
            ub_starcat_general(m, n, k1)
