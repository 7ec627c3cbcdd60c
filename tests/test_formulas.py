"""Closed forms and rational quantities: frozen values plus cross-checks."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from signedfam import formulas
from signedfam.formulas import DegenerateInstanceError


class TestBinom:
    def test_small_table(self):
        assert formulas.binom(5, 2) == 10
        assert formulas.binom(0, 0) == 1
        assert formulas.binom(4, 0) == 1

    def test_out_of_range_is_zero(self):
        assert formulas.binom(3, 5) == 0
        assert formulas.binom(3, -1) == 0
        assert formulas.binom(-2, 1) == 0

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_pascal(self, n, r):
        assert formulas.binom(n + 1, r + 1) == formulas.binom(n, r) + formulas.binom(
            n, r + 1
        )


class TestFamilySize:
    def test_frozen(self):
        assert formulas.family_size(5, 2, 1) == 30
        assert formulas.family_size(4, 2, 1) == 12
        assert formulas.family_size(6, 3, 2) == 60

    def test_empty_class_and_negative_arguments(self):
        # a nonnegative n below k + l is an empty class
        assert formulas.family_size(2, 2, 1) == 0
        assert formulas.family_size(0, 0, 0) == 1
        for args in ((-3, 1, 0), (5, -1, 1), (5, 2, -1)):
            with pytest.raises(ValueError, match=r"n, k, l >= 0"):
                formulas.family_size(*args)

    def test_matches_direct_count(self):
        # count support choices then sign placements by hand
        n, k, l = 6, 2, 2
        total = 0
        for support in combinations(range(n), k + l):
            total += len(list(combinations(support, k)))
        assert formulas.family_size(n, k, l) == total


def g_l1_loop(n, k):
    """g(n, k, 1) summed one dimension step at a time past n = k*k."""
    if n <= k * k:
        return k * formulas.binom(n - 1, k)
    total = k * formulas.binom(k * k - 1, k)
    for m in range(k * k, n):
        total += formulas.binom(m, k)
    return total


class TestGClosedL1:
    def test_frozen_values(self):
        assert formulas.g_closed_l1(4, 2) == 6
        assert formulas.g_closed_l1(5, 2) == 12
        assert formulas.g_closed_l1(6, 2) == 22
        assert formulas.g_closed_l1(7, 2) == 37
        assert formulas.g_closed_l1(6, 3) == 30

    def test_inside_window_is_k_times_binom(self):
        for k in (2, 3, 4):
            for n in range(2 * k, k * k + 1):
                assert formulas.g_closed_l1(n, k) == k * formulas.binom(n - 1, k)

    def test_forward_difference_past_square(self):
        # beyond n = k*k each dimension step adds exactly C(n, k), at any size
        for k in (2, 3):
            for n in [*range(k * k, k * k + 6), 10**9]:
                step = formulas.g_closed_l1(n + 1, k) - formulas.g_closed_l1(n, k)
                assert step == formulas.binom(n, k)

    def test_matches_stepwise_sum(self):
        for k in range(2, 9):
            for n in range(2 * k, 200):
                assert formulas.g_closed_l1(n, k) == g_l1_loop(n, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            formulas.g_closed_l1(3, 2)
        with pytest.raises(ValueError):
            formulas.g_closed_l1(10, 1)


class TestGBounds:
    def test_frozen(self):
        assert formulas.g_bounds(6, 3, 2) == (24, 114)

    def test_lower_at_most_upper(self):
        for k in range(2, 6):
            for l in range(1, k):
                for n in range(k + l, 4 * k):
                    lo, hi = formulas.g_bounds(n, k, l)
                    assert 0 < lo <= hi

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError):
            formulas.g_bounds(6, 2, 2)
        with pytest.raises(ValueError):
            formulas.g_bounds(3, 3, 1)


class TestGEkrValue:
    def test_frozen(self):
        assert formulas.g_ekr_value(6, 3, 2) == (30, True)
        assert formulas.g_ekr_value(7, 3, 2) == (90, True)
        assert formulas.g_ekr_value(8, 3, 2) == (210, False)

    def test_range_boundaries(self):
        # window is 2k <= n <= 3k - l
        assert formulas.g_ekr_value(6, 3, 1).in_range
        assert formulas.g_ekr_value(8, 3, 1).in_range
        assert not formulas.g_ekr_value(9, 3, 1).in_range
        assert not formulas.g_ekr_value(5, 3, 1).in_range

    def test_sandwiched_by_bounds_inside_window(self):
        # only inside 2k <= n <= 3k - l does this size equal the extremum,
        # so only there must the general bounds contain it
        checked = 0
        for k in range(2, 6):
            for l in range(1, k):
                for n in range(2 * k, 3 * k - l + 1):
                    lo, hi = formulas.g_bounds(n, k, l)
                    assert lo <= formulas.g_ekr_value(n, k, l).value <= hi
                    checked += 1
        assert checked > 10


class TestIncrementValue:
    def test_frozen(self):
        inc = formulas.increment_value(6, 3, 2)
        assert inc.value == 60
        assert not inc.applicable
        assert inc.conjectured_threshold == Fraction(10, 1)

    def test_applicability_thresholds(self):
        # k = l + 1 needs n >= 2k^3, otherwise n >= 5k^2
        assert formulas.increment_value(54, 3, 2).applicable
        assert not formulas.increment_value(53, 3, 2).applicable
        assert formulas.increment_value(45, 3, 1).applicable
        assert not formulas.increment_value(44, 3, 1).applicable

    def test_threshold_exact_rational(self):
        assert formulas.increment_value(10, 3, 2).conjectured_threshold == Fraction(
            4 * 5, 2
        )

    def test_counts_families_with_one_fewer_minus(self):
        # C(n, k+l-1) * C(k+l-1, l-1) is the number of vectors with k
        # pluses and l - 1 minuses, the shape glued on by extension
        for n, k, l in [(6, 3, 2), (8, 3, 1), (9, 4, 2)]:
            assert formulas.increment_value(n, k, l).value == formulas.family_size(
                n, k, l - 1
            )


def split_oracle(n, k, l):
    """Direct maximization of the one-cut product, counted by enumeration."""
    best, best_x = -1, -1
    for x in range(k, n - l + 1):
        left = len(list(combinations(range(x), k)))
        right = len(list(combinations(range(n - x), l)))
        if left * right > best:
            best, best_x = left * right, x
    return best, best_x


def split_loop(n, k, l):
    """p(n, k, l) and its smallest maximizer by a scan over every cut x."""
    best, best_x = -1, -1
    for x in range(k, n - l + 1):
        value = formulas.binom(x, k) * formulas.binom(n - x, l)
        if value > best:
            best, best_x = value, x
    return best, best_x


class TestPSplit:
    def test_frozen(self):
        assert formulas.p_split(10, 2, 1) == (63, 7)
        assert formulas.p_split(4, 2, 1) == (3, 3)

    def test_empty_side(self):
        assert formulas.p_split(6, 3, 0) == (formulas.binom(6, 3), 6)
        assert formulas.p_split(5, 0, 2) == (formulas.binom(5, 2), 0)

    def test_matches_oracle(self):
        for n in range(3, 11):
            for k in range(1, 4):
                for l in range(1, k + 1):
                    if k + l > n:
                        continue
                    assert formulas.p_split(n, k, l) == split_oracle(n, k, l)

    def test_matches_scan_over_cuts(self):
        for k in range(8):
            for l in range(8):
                for n in range(k + l, 80):
                    assert formulas.p_split(n, k, l) == split_loop(n, k, l)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            formulas.p_split(2, 2, 1)
        with pytest.raises(ValueError):
            formulas.p_split(5, -1, 1)


class TestPIncrementReport:
    def test_frozen_10_2_1(self):
        rep = formulas.p_increment_report(10, 2, 1)
        assert rep.increment == 18
        assert rep.candidate_lower_l == 36
        assert rep.candidate_lower_k == 20
        assert rep.average == Fraction(28)
        assert not rep.equality_holds
        assert not rep.ge_average_holds
        assert rep.le_min_holds

    def test_frozen_4_1_1(self):
        rep = formulas.p_increment_report(4, 1, 1)
        assert (rep.increment, rep.candidate_lower_l, rep.candidate_lower_k) == (
            2,
            3,
            3,
        )
        assert rep.le_min_holds and not rep.equality_holds

    def test_le_min_sweep(self):
        # the weak direction holds everywhere we can check cheaply
        for n in range(4, 25):
            for k in range(1, 4):
                for l in range(1, k + 1):
                    if n < k + l + 1:
                        continue
                    assert formulas.p_increment_report(n, k, l).le_min_holds

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            formulas.p_increment_report(3, 2, 1)
        with pytest.raises(ValueError):
            formulas.p_increment_report(5, 2, 0)


class TestN0Threshold:
    def test_frozen(self):
        assert formulas.n0_threshold(2, 1) == 96
        assert formulas.n0_threshold(3, 2) == 640

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            formulas.n0_threshold(0, 1)


class TestXYFamilySizes:
    def test_frozen(self):
        assert formulas.xy_family_sizes(7, 2, 1, 1, 0) == (15, 6)
        assert formulas.xy_family_sizes(8, 3, 2, 2, 0) == (30, 30)

    def test_window_boundary(self):
        # the window may touch coordinate n but not the fixed n + 1
        formulas.xy_family_sizes(5, 3, 1, 3, 0)
        with pytest.raises(ValueError):
            formulas.xy_family_sizes(4, 3, 1, 3, 0)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            formulas.xy_family_sizes(7, 2, 1, 0, 0)
        with pytest.raises(ValueError):
            formulas.xy_family_sizes(7, 2, 1, 3, 0)
        with pytest.raises(ValueError):
            formulas.xy_family_sizes(7, 2, 1, 1, -1)


class TestRatioAndAlpha:
    def test_frozen_alpha(self):
        assert formulas.ratio_and_alpha(80, 4, 2, 1, 0).alpha == Fraction(9, 1156)

    def test_frozen_coefficient(self):
        # k=2, l=1, n=16 = 2k * 2^(k+l): 1/4 + 1/5 + 1/2 by hand
        got = formulas.ratio_and_alpha(16, 2, 1, 1, 0)
        assert got.coefficient == Fraction(19, 20)
        assert got.ratio == Fraction(1, 7)

    def test_exact_types(self):
        got = formulas.ratio_and_alpha(20, 3, 1, 2, 1)
        assert isinstance(got.ratio, Fraction)
        assert isinstance(got.alpha, Fraction)
        assert isinstance(got.coefficient, Fraction)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateInstanceError):
            formulas.ratio_and_alpha(9, 3, 2, 1, 0)  # n <= 3k
        with pytest.raises(DegenerateInstanceError):
            formulas.ratio_and_alpha(20, 3, 2, 3, 5)  # empty X side

    def test_alpha_shrinks_with_dimension(self):
        prev = None
        for n in range(13, 40):
            alpha = formulas.ratio_and_alpha(n, 4, 2, 1, 0).alpha
            if prev is not None:
                assert alpha < prev
            prev = alpha
